#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Tracing for the benchmark's traced run: in-memory spans recorded around
// the calls the benchmark makes into each layer, and a forwarding
// StringDistance that times every distance evaluation. Nothing here
// reaches inside the library — layers are measured from outside.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "distances/distance.h"

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Distance-evaluation time and count accumulated on the calling thread by
/// every TimedDistance. Spans read it at open and close, so each span knows
/// how much of its interval was spent inside the distance kernels.
struct DpCounters {
  std::int64_t ns = 0;
  std::uint64_t evals = 0;
};
DpCounters& ThreadDp();

/// Forwards all six virtuals of the wrapped distance; the two evaluating
/// ones are timed into ThreadDp(). The values returned are the wrapped
/// distance's own, so an index built over this wrapper follows the same
/// trajectory as one built over the bare distance (the benchmark checks
/// that per operation).
class TimedDistance final : public cned::StringDistance {
 public:
  explicit TimedDistance(cned::StringDistancePtr inner)
      : inner_(std::move(inner)) {}

  double Distance(std::string_view x, std::string_view y) const override {
    const std::int64_t t0 = NowNs();
    const double d = inner_->Distance(x, y);
    Charge(t0);
    return d;
  }
  double DistanceBounded(std::string_view x, std::string_view y,
                         double bound) const override {
    const std::int64_t t0 = NowNs();
    const double d = inner_->DistanceBounded(x, y, bound);
    Charge(t0);
    return d;
  }
  double LengthLowerBound(std::size_t x_len,
                          std::size_t y_len) const override {
    return inner_->LengthLowerBound(x_len, y_len);
  }
  void LengthLowerBounds(std::size_t x_len, const std::uint32_t* y_lens,
                         std::size_t n, double* out) const override {
    inner_->LengthLowerBounds(x_len, y_lens, n, out);
  }
  std::string name() const override { return inner_->name(); }
  bool is_metric() const override { return inner_->is_metric(); }

 private:
  static void Charge(std::int64_t t0) {
    DpCounters& c = ThreadDp();
    c.ns += NowNs() - t0;
    ++c.evals;
  }

  cned::StringDistancePtr inner_;
};

/// One recorded span. `parent` indexes the same thread's log (-1 = root);
/// `dp_ns` is the distance-kernel time inside the span, children included.
struct Span {
  const char* name = "";
  std::uint64_t op = 0;
  std::int32_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t dp_ns = 0;
};

/// Per-thread span log. Spans nest: Open makes the new span the current
/// parent, Close restores its parent.
class SpanLog {
 public:
  std::int32_t Open(const char* name, std::uint64_t op);
  void Close(std::int32_t id);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::int64_t> dp_at_open_;
  std::int32_t current_ = -1;
};

/// RAII span; a null log records nothing (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint64_t op)
      : log_(log), id_(log != nullptr ? log->Open(name, op) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::int32_t id_;
};

/// Per-name totals over a set of span logs. Self time is a span's duration
/// minus its child spans minus the distance-kernel time not already inside
/// a child.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
  double dp_ms = 0.0;
};
std::map<std::string, SpanTotals> Summarize(const std::vector<SpanLog>& logs);

/// Writes every span as one tab-separated line:
/// thread, op, name, parent, start_ns, end_ns, dp_ns.
void WriteSpans(const std::vector<SpanLog>& logs, std::ostream& out);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
