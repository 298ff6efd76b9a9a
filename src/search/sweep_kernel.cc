#include "search/sweep_kernel.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "common/cpu_features.h"
#include "search/table_quant.h"  // HalfToDouble: the shared exact f16 decode

namespace cned {
namespace {

// ---------------------------------------------------------------------------
// Scalar reference kernels. These are the semantics — the ISA variants are
// differentially tested against them bit for bit (tests/sweep_kernel_test,
// bench/micro_sweep_kernel), and they double as the portable fallback and
// the CNED_SWEEP_KERNEL=scalar ablation row.
// ---------------------------------------------------------------------------

void ScalarUpdateLowerDense(double d, const double* row, double* lower,
                            std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double g = std::abs(d - row[i]);
    if (g > lower[i]) lower[i] = g;
  }
}

void ScalarUpdateLowerPacked(double d, const double* row,
                             const std::uint32_t* idx, std::uint32_t base,
                             double* lower, std::size_t live) {
  for (std::size_t r = 0; r < live; ++r) {
    const double g = std::abs(d - row[idx[r] - base]);
    if (g > lower[r]) lower[r] = g;
  }
}

// The quantized arm max documented in sweep_kernel.h: given diff = v - d,
// g = max(v - d, (d - v) - gap) with the same tie handling as the vector
// max (the second arm wins ties — irrelevant for the final result, but it
// keeps every variant literally identical).
inline double QuantArmMax(double diff, double gap) {
  const double other = (-diff) - gap;
  return diff > other ? diff : other;
}

void ScalarUpdateLowerDenseF32(double d, const float* row, double gap,
                               double* lower, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double diff = static_cast<double>(row[i]) - d;
    const double g = QuantArmMax(diff, gap);
    if (g > lower[i]) lower[i] = g;
  }
}

void ScalarUpdateLowerPackedF32(double d, const float* row,
                                const std::uint32_t* idx, std::uint32_t base,
                                double gap, double* lower, std::size_t live) {
  for (std::size_t r = 0; r < live; ++r) {
    const double diff = static_cast<double>(row[idx[r] - base]) - d;
    const double g = QuantArmMax(diff, gap);
    if (g > lower[r]) lower[r] = g;
  }
}

void ScalarUpdateLowerDenseF16(double d, const std::uint16_t* row, double gap,
                               double* lower, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double diff = HalfToDouble(row[i]) - d;
    const double g = QuantArmMax(diff, gap);
    if (g > lower[i]) lower[i] = g;
  }
}

void ScalarUpdateLowerPackedF16(double d, const std::uint16_t* row,
                                const std::uint32_t* idx, std::uint32_t base,
                                double gap, double* lower, std::size_t live) {
  for (std::size_t r = 0; r < live; ++r) {
    const double diff = HalfToDouble(row[idx[r] - base]) - d;
    const double g = QuantArmMax(diff, gap);
    if (g > lower[r]) lower[r] = g;
  }
}

void ScalarUpdateLowerDenseU8(double d, const std::uint8_t* row, double scale,
                              double offset, double gap, double* lower,
                              std::size_t n) {
  const double dq = d - offset;  // once per call, shared by every lane
  for (std::size_t i = 0; i < n; ++i) {
    const double m = static_cast<double>(row[i]) * scale;
    const double diff = m - dq;
    const double g = QuantArmMax(diff, gap);
    if (g > lower[i]) lower[i] = g;
  }
}

void ScalarUpdateLowerPackedU8(double d, const std::uint8_t* row,
                               const std::uint32_t* idx, std::uint32_t base,
                               double scale, double offset, double gap,
                               double* lower, std::size_t live) {
  const double dq = d - offset;
  for (std::size_t r = 0; r < live; ++r) {
    const double m = static_cast<double>(row[idx[r] - base]) * scale;
    const double diff = m - dq;
    const double g = QuantArmMax(diff, gap);
    if (g > lower[r]) lower[r] = g;
  }
}

void ScalarFillAbsDiffBounds(std::size_t x_len, const std::uint32_t* y_lens,
                             std::size_t n, double* out) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t y = y_lens[i];
    out[i] = x_len > y ? static_cast<double>(x_len - y)
                       : static_cast<double>(y - x_len);
  }
}

SweepCompactResult ScalarEliminateAndCompact(std::uint32_t* idx, double* lower,
                                             std::size_t live,
                                             std::uint32_t skip,
                                             double bound) {
  SweepCompactResult out;
  std::size_t write = 0;
  for (std::size_t r = 0; r < live; ++r) {
    const std::uint32_t u = idx[r];
    if (u == skip) continue;  // just visited: drop from the candidate set
    const double lb = lower[r];
    if (lb >= bound) continue;  // can at most tie: eliminated
    idx[write] = u;
    lower[write] = lb;
    ++write;
    if (lb < out.next_key) {
      out.next_key = lb;
      out.next = u;
    }
  }
  out.live = write;
  return out;
}

SweepCompactResult ScalarEliminateAndCompactFlagged(
    std::uint32_t* idx, double* lower, const std::int32_t* pivot_rank,
    std::size_t live, std::uint32_t skip, double slack, double bound) {
  SweepCompactResult out;
  std::size_t write = 0;
  for (std::size_t r = 0; r < live; ++r) {
    const std::uint32_t u = idx[r];
    const bool is_pivot = pivot_rank[u] >= 0;
    if (u == skip) {  // just visited: drop from the candidate set
      out.pivots_died += is_pivot ? 1 : 0;
      continue;
    }
    const double lb = lower[r];
    if (lb * slack >= bound) {  // can at most tie: eliminated
      out.pivots_died += is_pivot ? 1 : 0;
      continue;
    }
    idx[write] = u;
    lower[write] = lb;
    ++write;
    if (lb < out.next_key) {
      out.next_key = lb;
      out.next = u;
    }
    if (is_pivot && lb < out.next_pivot_key) {
      out.next_pivot_key = lb;
      out.next_pivot = u;
    }
  }
  out.live = write;
  return out;
}

SweepCompactResult ScalarCompactSeed(const double* lower_dense,
                                     const std::int32_t* rank, std::size_t n,
                                     std::uint32_t base, double bound,
                                     std::uint32_t* idx_out,
                                     double* lower_out) {
  SweepCompactResult out;
  std::size_t write = 0;
  for (std::size_t j = 0; j < n; ++j) {
    if (rank[j] >= 0) continue;  // already evaluated by the pivot stage
    const double lb = lower_dense[j];
    if (lb >= bound) continue;
    idx_out[write] = base + static_cast<std::uint32_t>(j);
    lower_out[write] = lb;
    ++write;
    if (lb < out.next_key) {
      out.next_key = lb;
      out.next = base + j;
    }
  }
  out.live = write;
  return out;
}

}  // namespace

const SweepKernels& ScalarSweepKernels() {
  static const SweepKernels kScalar = [] {
    SweepKernels k{};
    k.name = "scalar";
    k.update_lower_dense = ScalarUpdateLowerDense;
    k.update_lower_packed = ScalarUpdateLowerPacked;
    k.update_lower_dense_f32 = ScalarUpdateLowerDenseF32;
    k.update_lower_packed_f32 = ScalarUpdateLowerPackedF32;
    k.update_lower_dense_f16 = ScalarUpdateLowerDenseF16;
    k.update_lower_packed_f16 = ScalarUpdateLowerPackedF16;
    k.update_lower_dense_u8 = ScalarUpdateLowerDenseU8;
    k.update_lower_packed_u8 = ScalarUpdateLowerPackedU8;
    k.fill_absdiff_bounds = ScalarFillAbsDiffBounds;
    k.eliminate_and_compact = ScalarEliminateAndCompact;
    k.eliminate_and_compact_flagged = ScalarEliminateAndCompactFlagged;
    k.compact_seed = ScalarCompactSeed;
    return k;
  }();
  return kScalar;
}

// Defined in the per-ISA translation units, which CMake compiles (with
// their target extension where needed) only for matching architectures.
#if defined(CNED_SWEEP_AVX2)
const SweepKernels& Avx2SweepKernels();
#endif
#if defined(CNED_SWEEP_NEON)
const SweepKernels& NeonSweepKernels();
#endif

std::vector<const SweepKernels*> AvailableSweepKernels() {
  std::vector<const SweepKernels*> kernels{&ScalarSweepKernels()};
#if defined(CNED_SWEEP_AVX2)
  if (CpuHasAvx2()) kernels.push_back(&Avx2SweepKernels());
#endif
#if defined(CNED_SWEEP_NEON)
  if (CpuHasNeon()) kernels.push_back(&NeonSweepKernels());
#endif
  return kernels;
}

namespace {

const SweepKernels* FindKernels(std::string_view name) {
  for (const SweepKernels* k : AvailableSweepKernels()) {
    if (name == k->name) return k;
  }
  return nullptr;
}

const SweepKernels* BestKernels() { return AvailableSweepKernels().back(); }

const SweepKernels* ResolveStartupKernels() {
  const char* env = std::getenv("CNED_SWEEP_KERNEL");
  if (env == nullptr || *env == '\0' ||
      std::string_view(env) == std::string_view("auto")) {
    return BestKernels();
  }
  if (const SweepKernels* k = FindKernels(env)) return k;
  std::fprintf(stderr,
               "cned: CNED_SWEEP_KERNEL=%s is not available on this "
               "build/CPU; using the scalar sweep kernels\n",
               env);
  return &ScalarSweepKernels();
}

std::atomic<const SweepKernels*> g_active{nullptr};

}  // namespace

const SweepKernels& ActiveSweepKernels() {
  const SweepKernels* k = g_active.load(std::memory_order_acquire);
  if (k == nullptr) {
    // Benign race: ResolveStartupKernels is deterministic, so concurrent
    // first calls store the same pointer.
    k = ResolveStartupKernels();
    g_active.store(k, std::memory_order_release);
  }
  return *k;
}

bool SetActiveSweepKernels(std::string_view name) {
  const SweepKernels* k =
      name == std::string_view("auto") ? BestKernels() : FindKernels(name);
  if (k == nullptr) return false;
  g_active.store(k, std::memory_order_release);
  return true;
}

SweepScratch& TlsSweepScratch() {
  thread_local SweepScratch scratch;
  return scratch;
}

void CheckSweepPrototypeCount(std::size_t n, const char* who) {
  if (n > kMaxSweepPrototypes) {
    throw std::length_error(std::string(who) + ": " + std::to_string(n) +
                            " prototypes exceed the sweep limit of " +
                            std::to_string(kMaxSweepPrototypes) +
                            " (32-bit candidate ids)");
  }
}

std::size_t FillIotaCountPivots(std::uint32_t* idx,
                                const std::int32_t* pivot_rank,
                                std::size_t n, std::uint32_t first) {
  std::size_t pivots = 0;
  if (pivot_rank == nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      idx[i] = first + static_cast<std::uint32_t>(i);
    }
    return pivots;
  }
  for (std::size_t i = 0; i < n; ++i) {
    idx[i] = first + static_cast<std::uint32_t>(i);
    pivots += pivot_rank[i] >= 0 ? 1 : 0;
  }
  return pivots;
}

namespace {

// Heap order on the (lower, id) key; ids are distinct, so it is total.
inline bool CandidateBefore(double la, std::uint32_t ia, double lb,
                            std::uint32_t ib) {
  return la < lb || (la == lb && ia < ib);
}

// Sifts (id, lb) down from `hole` over the heap [0, live), moving smaller
// children up into the hole until (id, lb) fits.
void SiftDown(std::uint32_t* idx, double* lower, std::size_t live,
              std::size_t hole, std::uint32_t id, double lb) {
  for (;;) {
    std::size_t child = 2 * hole + 1;
    if (child >= live) break;
    if (child + 1 < live && CandidateBefore(lower[child + 1], idx[child + 1],
                                            lower[child], idx[child])) {
      ++child;
    }
    if (!CandidateBefore(lower[child], idx[child], lb, id)) break;
    idx[hole] = idx[child];
    lower[hole] = lower[child];
    hole = child;
  }
  idx[hole] = id;
  lower[hole] = lb;
}

}  // namespace

void HeapifyCandidates(std::uint32_t* idx, double* lower, std::size_t live) {
  for (std::size_t i = live / 2; i-- > 0;) {
    SiftDown(idx, lower, live, i, idx[i], lower[i]);
  }
}

void PopCandidate(std::uint32_t* idx, double* lower, std::size_t live) {
  const std::size_t last = live - 1;
  if (last > 0) SiftDown(idx, lower, last, 0, idx[last], lower[last]);
}

void ApplyTombstoneMask(const std::uint64_t* bits, std::size_t n,
                        double* lower) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (std::size_t w = 0; w < TombstoneWords(n); ++w) {
    std::uint64_t word = bits[w];
    while (word != 0) {
      const unsigned bit = static_cast<unsigned>(__builtin_ctzll(word));
      lower[(w << 6) + bit] = kInf;
      word &= word - 1;
    }
  }
}

}  // namespace cned
