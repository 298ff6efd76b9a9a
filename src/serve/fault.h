#ifndef CNED_SERVE_FAULT_H_
#define CNED_SERVE_FAULT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace cned {

/// Deterministic fault injection for the shard workers, driven by the
/// `CNED_FAULT` environment variable (or the equivalent router option).
///
/// Grammar — directives joined by '|', each `kind:key=val,key=val,...`:
///
///   CNED_FAULT='crash:shard=1,op=step,nth=3|delay:op=eval,every=2,ms=50'
///
/// kinds:
///   delay    sleep `ms` milliseconds before handling the request
///   drop     swallow the request (no reply — the router times out)
///   crash    _exit the worker process immediately (a kill -9 equivalent)
///   corrupt  reply with a deliberately wrong frame CRC
///   mangle   flip a byte of the reply payload but keep the CRC valid —
///            the frame decodes cleanly and the router's replica
///            agreement check is what must catch it
/// keys:
///   shard=S    only fire in shard S (default: any shard)
///   replica=R  only fire in replica ordinal R of its group (default: any
///              replica — note a directive without this key fires on
///              *every* member of a replica group, since state-machine
///              replication feeds all members the same request sequence)
///   op=NAME    only fire on requests of this class: ping, begin
///              (kBeginRow), eval, step (kStepRow), insert, remove
///              (default: any request; kEndSweep is never counted)
///   nth=K      fire exactly once, on the K-th matching request (1-based)
///   every=K    fire on every K-th matching request
///   ms=T       delay duration (delay only; default 0)
///
/// Matching requests are counted per directive, so a schedule is a pure
/// function of the request sequence — two runs over the same queries see
/// identical faults, which is what makes the degraded-mode determinism
/// tests possible. A directive with neither nth nor every fires on every
/// match.
struct FaultDirective {
  enum class Kind { kDelay, kDrop, kCrash, kCorrupt, kMangle };
  Kind kind = Kind::kDelay;
  std::int64_t shard = -1;    ///< -1 = any shard
  std::int64_t replica = -1;  ///< -1 = any replica of the group
  std::string op;             ///< "" = any op
  std::uint64_t nth = 0;      ///< 0 = unset
  std::uint64_t every = 0;    ///< 0 = unset
  std::uint64_t ms = 0;       ///< delay duration
};

struct FaultSpec {
  std::vector<FaultDirective> directives;

  bool empty() const { return directives.empty(); }

  /// Parses the CNED_FAULT grammar above; the empty string yields an empty
  /// spec. Throws std::invalid_argument on unknown kinds, keys, or
  /// non-numeric values.
  static FaultSpec Parse(const std::string& text);
};

/// One worker's runtime fault state: the spec filtered to this shard and
/// replica plus the per-directive match counters.
class FaultInjector {
 public:
  /// What the worker must do with the current request.
  struct Action {
    std::uint64_t delay_ms = 0;
    bool drop = false;
    bool crash = false;
    bool corrupt = false;
    bool mangle = false;
  };

  FaultInjector(FaultSpec spec, std::size_t shard, std::size_t replica = 0)
      : spec_(std::move(spec)), shard_(static_cast<std::int64_t>(shard)),
        replica_(static_cast<std::int64_t>(replica)),
        counts_(spec_.directives.size(), 0) {}

  /// Advances every matching directive's counter and merges the actions
  /// that fire. `op` is the request class name ("ping", "begin", "eval",
  /// "step", ...; see the grammar above).
  Action OnRequest(const std::string& op);

 private:
  FaultSpec spec_;
  std::int64_t shard_;
  std::int64_t replica_ = 0;
  std::vector<std::uint64_t> counts_;
};

}  // namespace cned

#endif  // CNED_SERVE_FAULT_H_
