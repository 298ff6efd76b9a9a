#ifndef CNED_SERVE_FRAME_H_
#define CNED_SERVE_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace cned {

/// Length-prefixed, checksummed framing for the scatter/gather serving
/// tier's router <-> shard-worker sockets (src/serve/router.h).
///
/// Every message is one frame:
///   bytes  0..3   payload length (uint32, <= kMaxFramePayload)
///   bytes  4..7   message type (uint32, a FrameType value)
///   bytes  8..11  sequence number (uint32, echoed by the reply)
///   bytes 12..15  query id (uint32, echoed by the reply)
///   bytes 16..19  CRC-32 (common/crc32.h) of the payload bytes
/// followed by the payload. Native (little-endian) byte order, as the
/// snapshot format: router and workers share one machine or one
/// architecture.
///
/// The query id multiplexes a connection between concurrent sweeps: every
/// in-flight query owns a router-assigned nonzero id, workers key their
/// per-sweep slab state on it, and replies echo it alongside the sequence
/// number. Id 0 is the control plane (ping, shutdown, mutations —
/// anything that is not per-sweep state). A reply whose sequence or query
/// id matches no waiting exchange is discarded exactly like a stale
/// sequence number from a timed-out attempt.
///
/// The failure contract the router builds on:
///   * `RecvFrame` is deadline-bounded (poll + monotonic clock), so a
///     stalled worker surfaces as kTimeout, never a hang;
///   * a closed/reset socket surfaces as kClosed;
///   * a frame whose CRC does not match its payload, whose type is
///     outside the known range, or whose length field exceeds
///     kMaxFramePayload surfaces as kMalformed — the router treats all
///     three as a dead shard (no attempt to resynchronise a corrupt
///     byte stream is ever made).
/// Sends use MSG_NOSIGNAL: writing to a crashed worker returns an error
/// instead of raising SIGPIPE in the router.
///
/// Frames are self-delimiting, so writers may concatenate several frames
/// into one send and readers may pull several frames out of one receive —
/// the concurrent tier's coalescing (serve/reactor.h, the worker drain
/// loop) rides on exactly that property; the byte stream is unchanged.

/// Hard cap on a frame payload (1 GiB); a length field beyond this is
/// treated as stream corruption, not an allocation request.
inline constexpr std::uint32_t kMaxFramePayload = 1u << 30;

/// Message types. Requests flow router -> worker; every request gets
/// exactly one reply frame (kReply or kError) echoing its sequence
/// number, unless a fault drops it. The single exception is kEndSweep,
/// which is fire-and-forget: it retires per-query worker state after the
/// router has already merged the sweep, so a reply would only add a
/// round trip with nothing to gate on.
///
/// Values 2 and 5 (a second, lazy sweep protocol) and 12 (a separate scan
/// of the insert delta, which the row sweep now covers) are retired and
/// never reassigned: they still pass the frame layer, and a worker answers
/// them with kError like any request it does not serve.
enum class FrameType : std::uint32_t {
  kPing = 1,       ///< health check; reply: u64 shard id, u64 replica id
  kBeginRow = 3,   ///< start a row sweep: str query, f64 seed_bound, u64 np,
                   ///< np x f64 row -> compact (serve/wire.h)
  kEval = 4,       ///< evaluate: u64 global id, f64 cap -> f64 distance
  kStepRow = 6,    ///< row visit pass: u32 skip, f64 bound -> compact
  kShutdown = 7,   ///< clean worker exit; empty reply, then close
  kReply = 8,      ///< successful response (payload per request type)
  kError = 9,      ///< worker-side exception; payload: str message
  // --- Live-mutability ops (the mutable tier, search/mutable_laesa.h). ---
  // Replicated to every member of the owning shard's group like begins and
  // steps; replies are dedup-stable (re-delivery after a lost reply gives
  // the same bytes), so the ops are retryable and byte-agreement across
  // the group keeps working.
  kInsert = 10,     ///< append to the shard delta: u64 id, str s, u64 np,
                    ///< np x f64 column d(pivot p, s) -> u64 count
  kRemove = 11,     ///< tombstone an id: u64 id -> u64 total dead
  kEndSweep = 13,   ///< retire the sweep slot for this frame's query id;
                    ///< empty payload, NO reply (fire-and-forget), and
                    ///< exempt from fault injection (it is router-side
                    ///< cleanup, not a replicated state-machine op)
};
inline constexpr std::uint32_t kMaxFrameType =
    static_cast<std::uint32_t>(FrameType::kEndSweep);

/// One received frame.
struct Frame {
  std::uint32_t type = 0;
  std::uint32_t seq = 0;
  std::uint32_t qid = 0;
  std::vector<char> payload;
};

/// Outcome of a deadline-bounded receive.
enum class RecvStatus {
  kOk,
  kTimeout,    ///< deadline expired before a full frame arrived
  kClosed,     ///< EOF / connection reset
  kMalformed,  ///< bad length, unknown type, or CRC mismatch
};

/// Appends one encoded frame (header + payload) to `out` without sending
/// it — the building block for coalesced writes, where several frames are
/// flushed with one send. `corrupt_crc`, used only by the fault injector,
/// stamps a deliberately wrong payload CRC so the receiver's kMalformed
/// path is exercised end to end. Returns false (appending nothing) only
/// when the payload exceeds kMaxFramePayload.
bool EncodeFrame(std::vector<char>* out, FrameType type, std::uint32_t seq,
                 std::uint32_t qid, const void* payload,
                 std::size_t payload_bytes, bool corrupt_crc = false);

/// Writes one frame. Returns false on any send error (the caller marks
/// the peer dead).
bool SendFrame(int fd, FrameType type, std::uint32_t seq, std::uint32_t qid,
               const void* payload, std::size_t payload_bytes,
               bool corrupt_crc = false);

/// Writes raw pre-encoded bytes (one or more EncodeFrame outputs) with the
/// same MSG_NOSIGNAL/EINTR handling as SendFrame — the flush half of a
/// coalesced writer.
bool SendBytes(int fd, const void* data, std::size_t n);

/// Reads one frame, waiting at most `timeout_ms` (< 0 waits forever).
/// Partial reads continue against the same deadline. Sub-millisecond
/// remainders round *up* to the next poll tick, so a small positive
/// budget polls at least once instead of reporting a premature timeout
/// (and `timeout_ms == 0` still performs one non-blocking poll, draining
/// a frame that is already buffered).
RecvStatus RecvFrame(int fd, Frame* out, int timeout_ms);

/// Incremental frame parser over a raw byte stream: append whatever bytes
/// a receive produced, then pull out as many complete frames as arrived.
/// This is how the multiplexed paths (worker drain loop, router reactor)
/// read many frames per syscall without ever losing a partial frame at a
/// read boundary — leftover bytes simply wait for the next Append.
class FrameBuffer {
 public:
  enum class Next {
    kFrame,     ///< a complete, CRC-valid frame was produced
    kNeedMore,  ///< buffer holds only a partial frame (or nothing)
    kMalformed, ///< bad length/type/CRC — the stream is unrecoverable
  };

  void Append(const void* data, std::size_t n);
  /// Pops the next complete frame into `out`. After kMalformed the buffer
  /// is poisoned: every further Pop returns kMalformed (callers drop the
  /// connection, matching RecvFrame's no-resync contract).
  Next Pop(Frame* out);

  std::size_t buffered_bytes() const { return buf_.size() - off_; }

 private:
  std::vector<char> buf_;
  std::size_t off_ = 0;  ///< consumed prefix, compacted lazily
  bool poisoned_ = false;
};

/// Append-only payload encoder (native byte order, packed).
struct PayloadWriter {
  std::vector<char> buf;

  void U32(std::uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(std::uint64_t v) { Raw(&v, sizeof(v)); }
  void I32(std::int32_t v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  /// u32 length + bytes.
  void Str(std::string_view s) {
    U32(static_cast<std::uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }
  void Raw(const void* data, std::size_t n);
};

/// Bounds-checked payload decoder. Reads past the end set `ok()` false and
/// return zero values; callers check `ok()` once after decoding a message
/// and treat failure as a malformed frame.
class PayloadReader {
 public:
  PayloadReader(const char* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit PayloadReader(const std::vector<char>& payload)
      : PayloadReader(payload.data(), payload.size()) {}

  std::uint32_t U32() { return Fixed<std::uint32_t>(); }
  std::uint64_t U64() { return Fixed<std::uint64_t>(); }
  std::int32_t I32() { return Fixed<std::int32_t>(); }
  double F64() { return Fixed<double>(); }
  std::string Str();
  /// In-place view of `n` raw bytes (valid while the payload lives).
  const char* Raw(std::size_t n);

  bool ok() const { return ok_; }
  /// True when the whole payload was consumed cleanly — the strict form
  /// message handlers use (trailing garbage is as malformed as a short
  /// read).
  bool Done() const { return ok_ && off_ == size_; }

 private:
  template <typename T>
  T Fixed() {
    if (!ok_ || size_ - off_ < sizeof(T)) {
      ok_ = false;
      return T{};
    }
    T v;
    std::memcpy(&v, data_ + off_, sizeof(T));
    off_ += sizeof(T);
    return v;
  }

  const char* data_;
  std::size_t size_;
  std::size_t off_ = 0;
  bool ok_ = true;
};

}  // namespace cned

#endif  // CNED_SERVE_FRAME_H_
