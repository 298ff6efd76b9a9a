#ifndef CNED_SEARCH_TABLE_QUANT_H_
#define CNED_SEARCH_TABLE_QUANT_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "search/sweep_kernel.h"

namespace cned {

/// Quantized pivot tables: f32/f16/u8 lower-bound storage with admissible
/// rounding.
///
/// The O(pivots x N) table dominates both snapshot size and sweep
/// bandwidth, and the sweep only ever consumes it through one expression —
/// the lower-bound tightening g = |d - t| for a table entry t = d(pivot, s).
/// That expression survives lossy storage: store a rounded-DOWN value
/// v <= t together with a per-row gap h >= t - v, and compute
///
///   g_q = max(v - d, (d - v) - h)
///
/// instead. Both arms are lower bounds of |d - t| for every d (v <= t
/// bounds the left arm, t <= v + h the right one), so g_q <= |d - t|:
/// elimination driven by quantized rows can only prune LESS than the exact
/// table, never a true neighbour — returned neighbours and distances stay
/// exact while QueryStats (candidates eliminated per pass) loosen slightly.
///
/// Precisions:
///   f64  the exact table, unchanged on-disk v1 format, original kernels.
///   f32  entries rounded down to float, per-row gap = max rounding error.
///   f16  entries rounded down to IEEE binary16 (software conversion — no
///        F16C dependency), per-row gap likewise.
///   u8   per-row affine codes: v = offset + code * scale with offset/scale
///        chosen from the row's [min, max] range and gap ~ one scale step.
///
/// Every kernel variant decodes with the SAME floating-point operation
/// sequence (documented per entry in sweep_kernel.h), and the build-time
/// encoders verify v <= t with that exact arithmetic, so all variants stay
/// bit-identical to each other at every precision.
enum class TablePrecision : std::uint32_t {
  kF64 = 0,
  kF32 = 1,
  kF16 = 2,
  kU8 = 3,
};

/// "f64", "f32", "f16" or "u8".
const char* TablePrecisionName(TablePrecision precision);

/// Parses a precision name; returns false (leaving *out alone) on an
/// unknown name.
bool ParseTablePrecision(std::string_view name, TablePrecision* out);

/// The precision a quantized (version 2) binary snapshot header stores as
/// its raw enum value: f32, f16 or u8 (f64 snapshots are version 1 by
/// construction, so 0 is rejected too). Throws std::runtime_error
/// "<who>: bad table precision", followed by " (<source>)" when `source`
/// names the file, for any other value.
TablePrecision CheckedTablePrecision(std::uint64_t raw, const char* who,
                                     const std::string& source = "");

/// Bytes per stored table element: 8, 4, 2 or 1.
std::size_t TablePrecisionBytes(TablePrecision precision);

/// The build-time default: the CNED_TABLE_PRECISION environment variable
/// when set to a valid name (an invalid value warns on stderr and falls
/// back), otherwise f64. Lets CI rerun the whole existing suite at u8/f16
/// without touching a single test.
TablePrecision DefaultTablePrecision();

/// Per-pivot-row decode metadata, stored alongside each quantized row (and
/// serialized as one CRC-covered section). For f32/f16 only `gap` is used;
/// scale/offset are zero. 32 bytes so a row-meta array section stays
/// trivially aligned in the binary format.
struct QuantRowMeta {
  double scale = 0.0;
  double offset = 0.0;
  double gap = 0.0;
  double reserved = 0.0;
};
static_assert(sizeof(QuantRowMeta) == 32, "QuantRowMeta is 4 doubles");

/// Exact decode of a non-negative IEEE binary16 value — the same bit trick
/// the vector kernels use: drop the half's bits into a float 2^112 too
/// small, then rescale by that exact power of two. Every step is exact, so
/// any exact decode (this one, ldexp-based, F16C hardware) agrees bitwise.
/// Inline because the scalar kernel's f16 tail loops call it per element.
inline double HalfToDouble(std::uint16_t h) {
  const std::uint32_t bits = static_cast<std::uint32_t>(h & 0x7FFFu) << 13;
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return static_cast<double>(f) * 0x1p112;
}

/// Largest binary16 code whose decoded value is <= t (t >= 0); saturates at
/// the maximum finite half for larger t — the gap absorbs the slack.
std::uint16_t DoubleToHalfRoundDown(double t);

/// Largest float <= t (round toward -infinity; saturates at FLT_MAX).
float DoubleToFloatRoundDown(double t);

/// Two-pass encoder for one pivot row, usable over a segmented row (the
/// sharded index quantizes each GLOBAL row with one shared meta so a
/// sharded build stays bit-identical to the flat build at the same
/// precision): Scan every segment, Prepare once, Encode the segments in the
/// same order, then Finish for the row's meta.
class QuantRowEncoder {
 public:
  /// Pass 1: accumulate the row's value range.
  void Scan(const double* values, std::size_t n);

  /// Fixes scale/offset from the scanned range (u8 affine; no-op for
  /// f32/f16). Call exactly once, after all Scan() calls.
  void Prepare(TablePrecision precision);

  /// Pass 2: encode `n` entries into `out` (element width per precision),
  /// verifying v <= t with the kernels' exact decode arithmetic and
  /// accumulating the row's worst residual t - v into the gap.
  void Encode(const double* values, std::size_t n, void* out);

  /// The row's meta, with the gap inflated by a couple of ulps so the
  /// kernels' correctly rounded arithmetic cannot overshoot the exact
  /// bound on any value the build saw.
  QuantRowMeta Finish() const;

 private:
  TablePrecision precision_ = TablePrecision::kF64;
  bool prepared_ = false;
  double lo_ = 0.0, hi_ = 0.0;
  bool scanned_any_ = false;
  QuantRowMeta meta_;
};

/// A pivot table in any precision — the one view the sweeps consume. For
/// f64, `f64` points at the exact row-major table and `q`/`rows` are null;
/// otherwise `q` is the row-major code array (element width per precision)
/// and `rows` the per-row meta.
struct QuantTableView {
  TablePrecision precision = TablePrecision::kF64;
  const double* f64 = nullptr;
  const void* q = nullptr;
  const QuantRowMeta* rows = nullptr;
};

/// Dense row application through the view: dispatches to the precision's
/// kernel entry with row `rank` of an n-wide table. Exactly
/// `kern.update_lower_dense` for f64.
inline void QuantUpdateLowerDense(const SweepKernels& kern,
                                  const QuantTableView& view, std::size_t rank,
                                  std::size_t n, double d, double* lower) {
  switch (view.precision) {
    case TablePrecision::kF64:
      kern.update_lower_dense(d, view.f64 + rank * n, lower, n);
      return;
    case TablePrecision::kF32: {
      const QuantRowMeta& m = view.rows[rank];
      kern.update_lower_dense_f32(
          d, static_cast<const float*>(view.q) + rank * n, m.gap, lower, n);
      return;
    }
    case TablePrecision::kF16: {
      const QuantRowMeta& m = view.rows[rank];
      kern.update_lower_dense_f16(
          d, static_cast<const std::uint16_t*>(view.q) + rank * n, m.gap,
          lower, n);
      return;
    }
    case TablePrecision::kU8: {
      const QuantRowMeta& m = view.rows[rank];
      kern.update_lower_dense_u8(
          d, static_cast<const std::uint8_t*>(view.q) + rank * n, m.scale,
          m.offset, m.gap, lower, n);
      return;
    }
  }
}

/// Packed (gather) row application through the view; `base`/`idx` as in
/// `SweepKernels::update_lower_packed`.
inline void QuantUpdateLowerPacked(const SweepKernels& kern,
                                   const QuantTableView& view, std::size_t rank,
                                   std::size_t n, double d,
                                   const std::uint32_t* idx, std::uint32_t base,
                                   double* lower, std::size_t live) {
  switch (view.precision) {
    case TablePrecision::kF64:
      kern.update_lower_packed(d, view.f64 + rank * n, idx, base, lower, live);
      return;
    case TablePrecision::kF32: {
      const QuantRowMeta& m = view.rows[rank];
      kern.update_lower_packed_f32(
          d, static_cast<const float*>(view.q) + rank * n, idx, base, m.gap,
          lower, live);
      return;
    }
    case TablePrecision::kF16: {
      const QuantRowMeta& m = view.rows[rank];
      kern.update_lower_packed_f16(
          d, static_cast<const std::uint16_t*>(view.q) + rank * n, idx, base,
          m.gap, lower, live);
      return;
    }
    case TablePrecision::kU8: {
      const QuantRowMeta& m = view.rows[rank];
      kern.update_lower_packed_u8(
          d, static_cast<const std::uint8_t*>(view.q) + rank * n, idx, base,
          m.scale, m.offset, m.gap, lower, live);
      return;
    }
  }
}

}  // namespace cned

#endif  // CNED_SEARCH_TABLE_QUANT_H_
