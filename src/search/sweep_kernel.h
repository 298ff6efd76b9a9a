#ifndef CNED_SEARCH_SWEEP_KERNEL_H_
#define CNED_SEARCH_SWEEP_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

#include "common/aligned_buffer.h"
#include "search/nn_searcher.h"

namespace cned {

/// The shared elimination core of the LAESA family.
///
/// Every LAESA-shaped sweep in the library runs on these kernels:
///   * the one in-process sweep (search/laesa_sweep.h, lazy and pivot-row
///     entry points) behind `Laesa`, `ShardedLaesa` and `MutableLaesa` —
///     and through them the batch engine's pivot-stage pipeline — over
///     one segment per shard (a flat index is one segment, a mutable
///     index its base and its insert delta);
///   * its row seed stage, `SeedSegmentFromRow`, also run by the serving
///     tier's shard worker (`ShardReplica::BeginRow`), whose visit steps
///     (`ShardReplica::StepRow`) the router's `RowSweep` drives;
///   * `Laesa::RangeSearch`'s dense pivot phase.
///
/// A sweep runs over packed candidate slabs in two phases. While pivot
/// rows are still being applied, every visit changes the bounds, so each
/// step is a data-parallel pass:
///
///   1. tighten lower bounds with a visited pivot's table row
///      (`update_lower_*`: fused abs-diff + running max),
///   2. eliminate against the incumbent and compact the survivors
///      (`eliminate_and_compact*` / `compact_seed`: threshold filter +
///      in-place index/bound compaction that also tracks the
///      minimal-bound survivor), and
///   3. the length-bound "zeroth pivot" fill (`fill_absdiff_bounds`: the
///      |Δlen| core of the unit-cost edit-distance family's bound).
///
/// These are defined once as a dispatch table of function pointers with
/// scalar, AVX2 and NEON implementations. The variant is chosen at startup
/// by runtime CPU detection (the binary stays portable — only the per-ISA
/// translation units are compiled with their target extension) and can be
/// forced for ablations and CI via the `CNED_SWEEP_KERNEL` environment
/// variable or `SetActiveSweepKernels`.
///
/// Once no pivot row is left to apply, every survivor's bound is fixed and
/// only the incumbent still moves. The in-process sweep then hands them to
/// `VisitFixedBoundTail`, which heapifies them in place on (bound, id) and
/// pops them in that order until the top is eliminated — O(log live) per
/// visit instead of one O(live) pass (see that function for why the visit
/// sequence is unchanged).
///
/// Bit-identity contract: every implementation computes exactly the scalar
/// reference semantics documented per entry below. All arithmetic involved
/// is exact in IEEE-754 double precision — |d - row| is one correctly
/// rounded subtraction plus sign clearing, comparisons and max are exact,
/// and the slack multiply is performed identically in every variant — so
/// neighbours, distances AND QueryStats are bit-identical across kernels,
/// which the differential tests and `micro_sweep_kernel` enforce.
///
/// Layout contract: candidate ids are 32-bit and < 2^31 (the SIMD gathers
/// index with signed 32-bit lanes); the packed `idx` slice handed to a
/// compaction kernel is strictly ascending (true by construction: slices
/// start as an iota fill and compaction is stable), which is what lets the
/// vector implementations resolve min-bound ties by smallest id instead of
/// smallest scan position. The fixed-bound tail's heap breaks that order,
/// which is why it is always a sweep's last phase: every sweep refills its
/// slabs from an iota fill or `compact_seed` before the next compaction.
/// Slabs should come from `SweepScratch` (64-byte aligned); the kernels use
/// unaligned loads so mid-slab shard segments are also fine.

/// "No candidate": the sentinel `next`/`next_pivot` value.
constexpr std::size_t kSweepNone = static_cast<std::size_t>(-1);

/// The most prototypes one sweep index may hold. Candidate slabs store
/// u32 ids, the served `kStepRow` frame carries its `skip` id as u32 with
/// 0xFFFFFFFF as "none", and the SIMD gathers index with signed 32-bit
/// lanes (the layout contract above) — so every id must stay below 2^31.
constexpr std::size_t kMaxSweepPrototypes = std::size_t{1} << 31;

/// Throws std::length_error naming `who` when `n` exceeds
/// kMaxSweepPrototypes: "<who>: <n> prototypes exceed the sweep limit of
/// 2147483648 (32-bit candidate ids)". The Laesa and ShardedLaesa builds
/// and loads, the router's manifest load and the shard replica's header
/// check call it before they size a candidate table by `n`.
void CheckSweepPrototypeCount(std::size_t n, const char* who);

/// Outcome of one eliminate-and-compact pass over a packed candidate slice.
struct SweepCompactResult {
  /// Survivors now packed in [0, live) of the idx/lower slice.
  std::size_t live = 0;
  /// Dropped candidates (visited or eliminated) whose pivot flag was set.
  /// Only the *_flagged kernel fills this; others leave it 0.
  std::size_t pivots_died = 0;
  /// Surviving candidate with the minimal finite lower bound (first in
  /// packed order among ties, i.e. the smallest id), or kSweepNone.
  std::size_t next = kSweepNone;
  double next_key = std::numeric_limits<double>::infinity();
  /// Same, restricted to surviving pivots (flagged kernel only).
  std::size_t next_pivot = kSweepNone;
  double next_pivot_key = std::numeric_limits<double>::infinity();
};

/// One kernel variant: a named table of the sweep's data-parallel cores.
/// All entries are hot-loop functions — no allocation, no exceptions.
struct SweepKernels {
  /// "scalar", "avx2" or "neon" — the CNED_SWEEP_KERNEL names.
  const char* name;

  /// Dense row application: lower[i] = max(lower[i], |d - row[i]|) for i in
  /// [0, n), where max keeps lower[i] on ties (the scalar `if (g > lb)`).
  /// Used by the row-consuming sweeps (every pivot row applied to every
  /// candidate) and RangeSearch's pivot phase.
  void (*update_lower_dense)(double d, const double* row, double* lower,
                             std::size_t n);

  /// Packed (gather) row application over the live slice: for r in
  /// [0, live), lower[r] = max(lower[r], |d - row[idx[r] - base]|).
  /// `base` is the shard base so idx's global ids index the shard-local
  /// row; 0 for the flat index. Used by the lazy sweep after each visited
  /// pivot.
  void (*update_lower_packed)(double d, const double* row,
                              const std::uint32_t* idx, std::uint32_t base,
                              double* lower, std::size_t live);

  /// --- Quantized row application (see search/table_quant.h). -----------
  ///
  /// Same dense/packed tightening over rows stored in a narrow element
  /// type. Each row carries decode metadata (QuantRowMeta): a row gap for
  /// every narrow precision, plus an affine scale/offset for u8. The
  /// shared reference semantics — identical op-for-op in every variant,
  /// never contracted into FMA (the library builds with -ffp-contract=off):
  ///
  ///   v    = decode(row[i])            // exact widen; u8: see below
  ///   diff = v - d                     // one rounded subtraction
  ///   g    = diff > (-diff) - gap ? diff : (-diff) - gap
  ///   lower = g > lower ? g : lower    // same tie handling as above
  ///
  /// decode(): f32 is a widening cast (exact); f16 is the bit-shift float
  /// reconstruction in HalfToDouble (exact); u8 computes d' = d - offset
  /// ONCE per call and per lane v' = double(code) * scale (one rounded
  /// multiply), with diff = v' - d'. Because v decodes to a value <= the
  /// exact table entry t and gap >= t - v (both enforced by the build-time
  /// encoder with this same arithmetic), g is an admissible lower bound of
  /// |d - t| in every lane.
  void (*update_lower_dense_f32)(double d, const float* row, double gap,
                                 double* lower, std::size_t n);
  void (*update_lower_packed_f32)(double d, const float* row,
                                  const std::uint32_t* idx, std::uint32_t base,
                                  double gap, double* lower, std::size_t live);
  void (*update_lower_dense_f16)(double d, const std::uint16_t* row,
                                 double gap, double* lower, std::size_t n);
  void (*update_lower_packed_f16)(double d, const std::uint16_t* row,
                                  const std::uint32_t* idx, std::uint32_t base,
                                  double gap, double* lower, std::size_t live);
  void (*update_lower_dense_u8)(double d, const std::uint8_t* row,
                                double scale, double offset, double gap,
                                double* lower, std::size_t n);
  void (*update_lower_packed_u8)(double d, const std::uint8_t* row,
                                 const std::uint32_t* idx, std::uint32_t base,
                                 double scale, double offset, double gap,
                                 double* lower, std::size_t live);

  /// The |Δlen| zeroth-pivot fill: out[i] = |x_len - y_lens[i]| as a
  /// double, over a store's packed 32-bit length array. This is the
  /// unit-cost edit-distance length bound; the normalised distances derive
  /// their closed forms from it per element (scalar, in their own
  /// overrides).
  void (*fill_absdiff_bounds)(std::size_t x_len, const std::uint32_t* y_lens,
                              std::size_t n, double* out);

  /// Eliminate + compact without pivot bookkeeping (each step of the
  /// serving tier's row-consuming shard sweeps, serve/replica.h). Keeps
  /// idx[r] iff
  ///   idx[r] != skip  &&  !(lower[r] >= bound)
  /// compacting idx/lower in place (stable) and tracking the minimal-bound
  /// survivor. `skip` is the just-visited candidate (pass a value absent
  /// from the slice, e.g. 0xFFFFFFFF, for "none").
  SweepCompactResult (*eliminate_and_compact)(std::uint32_t* idx,
                                              double* lower, std::size_t live,
                                              std::uint32_t skip,
                                              double bound);

  /// Eliminate + compact for the pivot phase of the lazy sweep: same as
  /// above with the approximation slack applied — keeps idx[r] iff
  ///   idx[r] != skip  &&  !(lower[r] * slack >= bound)
  /// — plus pivot bookkeeping: pivot_rank is indexed by candidate id
  /// (rank[id] >= 0 marks a pivot; gathered through idx), dropped pivots
  /// are counted into pivots_died, and the minimal-bound surviving pivot is
  /// tracked alongside the overall minimum.
  SweepCompactResult (*eliminate_and_compact_flagged)(
      std::uint32_t* idx, double* lower, const std::int32_t* pivot_rank,
      std::size_t live, std::uint32_t skip, double slack, double bound);

  /// Dense-to-packed seeding for the row-consuming sweeps: after all pivot
  /// rows tightened the dense bound array, keeps position j in [0, n) iff
  ///   rank[j] < 0  &&  !(lower_dense[j] >= bound)
  /// writing candidate id base + j and its bound packed into
  /// idx_out/lower_out, tracking the minimal-bound survivor. `rank` here is
  /// the slice aligned with lower_dense (rank[j] describes candidate
  /// base + j). lower_out may alias lower_dense (the in-place pack the
  /// sweeps use).
  SweepCompactResult (*compact_seed)(const double* lower_dense,
                                     const std::int32_t* rank, std::size_t n,
                                     std::uint32_t base, double bound,
                                     std::uint32_t* idx_out,
                                     double* lower_out);
};

/// The portable reference implementation (always available). Every other
/// variant is differentially tested against it.
const SweepKernels& ScalarSweepKernels();

/// All variants compiled into this binary AND supported by the running
/// CPU, scalar first, fastest last. At least one entry (scalar).
std::vector<const SweepKernels*> AvailableSweepKernels();

/// The variant the sweeps use. Resolved once on first use: the
/// CNED_SWEEP_KERNEL environment variable ("scalar", "avx2", "neon",
/// "auto") when set and available — an unavailable forced name warns on
/// stderr and falls back to scalar — otherwise the fastest available
/// variant. Thread-safe.
const SweepKernels& ActiveSweepKernels();

/// Forces a variant by name ("auto" re-selects the fastest available).
/// Returns false (and changes nothing) for an unknown or unsupported name.
/// Intended for startup/ablation use (tests, the fig3/fig4 --kernel flag),
/// not for concurrent flipping mid-query.
bool SetActiveSweepKernels(std::string_view name);

/// Thread-local 64-byte-aligned candidate slabs shared by the sweeps, plus
/// the segmented sweep's per-segment live counts and pass results
/// (search/laesa_sweep.h). Reused across queries (zero steady-state
/// allocations) and owned per thread, so batched queries running under
/// ParallelFor never share state.
struct SweepScratch {
  AlignedBuffer<std::uint32_t> idx;
  AlignedBuffer<double> lower;
  std::vector<std::size_t> segment_live;
  std::vector<SweepCompactResult> segment_pass;
};
SweepScratch& TlsSweepScratch();

/// Shared candidate-slab initialisation: idx[i] = first + i for i in
/// [0, n), and returns the number of slots with pivot_rank[i] >= 0 — the
/// live-pivot count the lazy sweep starts from (duplicate pivots_ entries
/// occupy one candidate slot, hence counting ranks, not table rows).
/// `pivot_rank` is aligned with idx (rank[i] describes candidate
/// first + i); null means the slice holds no pivot.
std::size_t FillIotaCountPivots(std::uint32_t* idx,
                                const std::int32_t* pivot_rank,
                                std::size_t n, std::uint32_t first = 0);

/// --- The fixed-bound tail. ------------------------------------------------
///
/// Binary min-heap over the parallel idx/lower slabs [0, live), keyed on
/// (lower, id): the root is the survivor the classic compaction pass would
/// pick next (minimal bound, ties to the smallest id). The ids in the slice
/// must be distinct. Both permute the slabs in place and allocate nothing.
void HeapifyCandidates(std::uint32_t* idx, double* lower, std::size_t live);

/// Removes the root of the heap over [0, live) (live > 0); the heap then
/// occupies [0, live - 1).
void PopCandidate(std::uint32_t* idx, double* lower, std::size_t live);

/// Distance evaluations spent by `VisitFixedBoundTail`.
struct SweepTailCounts {
  std::uint64_t computations = 0;
  std::uint64_t abandons = 0;
};

/// The last phase of the in-process LAESA sweep (laesa_sweep.h), entered
/// once no pivot row is left to apply: [0, live) of idx/lower holds the
/// survivors of the last eliminate-and-compact (or compact_seed) pass, and
/// `best` the current top-k incumbents. Heapifies the survivors on
/// (lower, id), then repeatedly takes the root, stops at the first root
/// with `lower * slack >= kth` (kth = the k-th incumbent, +inf while fewer
/// than k are held), and otherwise pops it and calls `evaluate(id, cap)` with
/// cap = kth — the value is `DistanceBounded(query, id, cap)`, abandoned
/// when `>= cap`, inserted into `best` under the strict-improvement rule
/// otherwise.
///
/// This visits exactly the candidates, in exactly the order and under
/// exactly the caps, of the classic loop that reruns
/// `eliminate_and_compact*` after every visit: with no row left, bounds
/// are fixed; kth only falls and `x * slack` is monotone for slack >= 1,
/// so a candidate the classic pass eliminated would fail the root test at
/// every later step too. The classic survivors are therefore exactly the
/// unvisited candidates with `lower * slack < kth`, and its next visit —
/// their minimum by (lower, id) — is the heap root whenever that root
/// passes the test; when the root fails, every candidate does, and the
/// classic loop would have emptied its slab. A multi-segment sweep packs
/// its segments to the front first: segments hold ascending contiguous id
/// ranges, so the segment-order tie rule of its merge is the lowest global
/// id as well.
template <typename Evaluate>
SweepTailCounts VisitFixedBoundTail(std::uint32_t* idx, double* lower,
                                    std::size_t live, double slack,
                                    std::size_t k,
                                    std::vector<NeighborResult>& best,
                                    Evaluate&& evaluate) {
  HeapifyCandidates(idx, lower, live);
  SweepTailCounts counts;
  for (; live > 0; --live) {
    const double kth = best.size() < k
                           ? std::numeric_limits<double>::infinity()
                           : best.back().distance;
    if (lower[0] * slack >= kth) break;
    const std::size_t id = idx[0];
    PopCandidate(idx, lower, live);
    const double d = evaluate(id, kth);
    ++counts.computations;
    if (d >= kth) {
      ++counts.abandons;
    } else {
      InsertNeighborTopK(best, k, {id, d});
    }
  }
  return counts;
}

/// --- Tombstone bitmaps (the mutable tier, search/mutable_laesa.h). -------
///
/// Deletes are represented as a packed bitmap over candidate slots (bit i =
/// word i/64, bit i%64). Masking happens *inside* the sweep's compaction:
/// `ApplyTombstoneMask` writes +inf into the dense lower-bound slab for
/// every set bit, and the next `eliminate_and_compact*` pass then drops
/// exactly those slots — the elimination predicate `lower >= bound` is
/// inclusive, so +inf falls to every bound including +inf itself, and every
/// quantized row update is a running max, so +inf can never be lowered back
/// at any table_precision. A deleted prototype is therefore removed from
/// the packed slab before it can be visited, evaluated, or counted.
/// Pure integer/bit work — identical behaviour under every kernel variant.

inline std::size_t TombstoneWords(std::size_t n) { return (n + 63) / 64; }

inline bool TestTombstone(const std::uint64_t* bits, std::size_t i) {
  return (bits[i >> 6] >> (i & 63)) & 1u;
}

inline void SetTombstone(std::uint64_t* bits, std::size_t i) {
  bits[i >> 6] |= std::uint64_t{1} << (i & 63);
}

/// lower[i] = +inf for every set bit in [0, n); other slots untouched.
void ApplyTombstoneMask(const std::uint64_t* bits, std::size_t n,
                        double* lower);

}  // namespace cned

#endif  // CNED_SEARCH_SWEEP_KERNEL_H_
