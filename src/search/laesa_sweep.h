#ifndef CNED_SEARCH_LAESA_SWEEP_H_
#define CNED_SEARCH_LAESA_SWEEP_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string_view>
#include <vector>

#include "common/parallel.h"
#include "distances/distance.h"
#include "search/nn_searcher.h"
#include "search/sweep_kernel.h"
#include "search/table_quant.h"

namespace cned {

/// The one in-process LAESA elimination sweep, shared by `Laesa`,
/// `ShardedLaesa` and `MutableLaesa` (and through them the batch engine).
///
/// An index describes its candidates as S contiguous segments of global
/// ids — a flat index is one segment over the whole store, a sharded index
/// one segment per shard, a mutable index its base then its insert delta
/// (no pivots; one table column per base pivot, paid at insert) — each
/// with its own packed length array, row-major pivot table and tombstone
/// mask. The sweep runs every data-parallel pass per
/// segment on that segment's part of the thread-local slabs (segment s
/// occupies [base, base + size) of `SweepScratch`), and makes every global
/// decision once: incumbents, the elimination bound, and the next
/// candidate, merged over the segments in segment order with strict '<' so
/// ties go to the lowest global id, exactly as one packed scan over all of
/// them would. Neighbours, distances and `QueryStats` are therefore
/// bit-identical for every segmentation of the same data, every kernel
/// variant and every thread schedule.
///
/// A `Layout` (the template parameter of both sweeps) provides:
///
///   const StringDistance& distance;
///   const std::vector<std::size_t>& pivots;  // a flat build may repeat one
///   const std::int32_t* pivot_rank;  // id -> last ordinal in pivots, or -1,
///                                    // over every segment that holds pivots
///   std::size_t size;                // candidates: ids [0, size)
///   std::size_t segment_count() const;
///   SweepSegment segment(std::size_t s) const;  // ascending contiguous bases
///   std::size_t segment_of(std::size_t id) const;
///   std::string_view view(std::size_t id) const;  // the candidate's string
///
/// Both sweeps are templates on the layout, so a flat index's single
/// segment is inlined and a visit costs only its `DistanceBounded` call.

/// One segment of a sweep layout: candidates [base, base + size).
struct SweepSegment {
  std::size_t base = 0;
  std::size_t size = 0;
  const std::uint32_t* lengths = nullptr;  // the segment's string lengths
  QuantTableView table;  // pivot row p covers the segment at p * size
  /// The segment's slice of the pivot ranks (rank[j] describes candidate
  /// base + j); null for a segment that holds no pivot (an insert delta).
  const std::int32_t* rank = nullptr;
  /// Deleted slots (bit j = candidate base + j); null for none.
  const std::uint64_t* tombstones = nullptr;
};

/// The row seed of one segment, shared by the in-process pivot-row sweep
/// and the serving tier's shard worker (`ShardReplica::BeginRow`): fills
/// lower[0, seg.size) with the distance's length bounds, tightens it with
/// every pivot row at row[p] = d(query, pivot p) (the dense streamed-max
/// kernel, no elimination), forces the segment's tombstoned slots to +inf,
/// then packs the surviving non-pivots — `!(lower >= bound)` — into
/// idx/lower [0, live) as ids seg.base + j.
SweepCompactResult SeedSegmentFromRow(const StringDistance& distance,
                                      std::string_view query,
                                      const SweepSegment& seg,
                                      const double* row,
                                      std::size_t num_pivots, double bound,
                                      std::uint32_t* idx, double* lower);

/// The lazy sweep's slack for a (1 + epsilon)-approximate query. Throws
/// std::invalid_argument "<who>: epsilon must be >= 0" unless epsilon >= 0;
/// NaN is rejected too (it would make every elimination test false).
double ApproximationSlack(double epsilon, const char* who);

namespace laesa_sweep_internal {

// Candidate work below which the per-segment passes run serially on the
// calling thread. ParallelFor spawns and joins real threads (no pool), so a
// pass must stream on the order of a million candidates — tens of
// megabytes, hundreds of microseconds — before that dispatch pays for
// itself; under the batch engine the nested call runs inline anyway.
// Results are identical either way — only the execution schedule changes.
constexpr std::size_t kParallelPassWork = 1 << 20;

template <typename Fn>
void ForEachSegment(std::size_t segments, std::size_t work, Fn&& fn) {
  if (segments > 1 && work >= kParallelPassWork) {
    ParallelFor(segments, fn);
  } else {
    for (std::size_t s = 0; s < segments; ++s) fn(s);
  }
}

// Sizes the thread-local slabs for n candidates in `segments` segments.
SweepScratch& SegmentedScratch(std::size_t n, std::size_t segments);

// The last phase of both sweeps: packs every segment's survivors
// [base, base + live) to the front of the slabs (shards hold ascending id
// ranges, so the tail's (bound, id) order is the segment-order tie rule as
// well), visits them through the fixed-bound tail, charges each visit to
// its segment when per-segment stats are requested, and adds the whole
// query's counters to `stats`.
template <typename Layout>
void FinishSweep(const Layout& layout, std::string_view query, std::size_t k,
                 double slack, SweepScratch& scratch,
                 std::uint64_t pivot_evals, std::uint64_t pivot_abandons,
                 std::vector<NeighborResult>& best, QueryStats* stats,
                 QueryStats* shard_stats) {
  std::uint32_t* idx = scratch.idx.data();
  double* lower = scratch.lower.data();
  std::size_t live = 0;
  for (std::size_t s = 0; s < layout.segment_count(); ++s) {
    const std::size_t base = layout.segment(s).base;
    const std::size_t n = scratch.segment_live[s];
    if (base != live) {  // destinations never pass their sources
      std::memmove(idx + live, idx + base, n * sizeof(*idx));
      std::memmove(lower + live, lower + base, n * sizeof(*lower));
    }
    live += n;
  }
  const SweepTailCounts tail = VisitFixedBoundTail(
      idx, lower, live, slack, k, best, [&](std::size_t id, double cap) {
        const double d =
            layout.distance.DistanceBounded(query, layout.view(id), cap);
        if (shard_stats != nullptr) {
          QueryStats& hs = shard_stats[layout.segment_of(id)];
          hs.distance_computations += 1;
          hs.bounded_abandons += d >= cap ? 1 : 0;
        }
        return d;
      });
  if (stats != nullptr) {
    stats->distance_computations += pivot_evals + tail.computations;
    stats->bounded_abandons += pivot_abandons + tail.abandons;
    stats->pivot_computations += pivot_evals;
  }
}

}  // namespace laesa_sweep_internal

/// The lazy sweep behind Nearest (k = 1), NearestApprox (slack = 1 + eps),
/// KNearest and the tombstone-masked queries: a candidate is eliminated
/// when lower_bound * slack reaches the k-th incumbent.
///
/// Elimination and the incumbent update share one semantic: a candidate
/// that cannot *strictly* improve on the k-th incumbent is dead. That is
/// what lets the incumbent itself be the `DistanceBounded` bound — the
/// kernel may abandon any evaluation that provably reaches it, because such
/// a value could at most tie.
///
/// Phases:
///   * zeroth pivot — the length bounds of every segment, before any
///     distance is computed; tombstoned slots are then forced to +inf, and
///     when a segment holding pivots has any, one flagged pass drops them
///     before anything is visited (a delta's wait for the first pivot
///     pass, so they never move the base's trajectory);
///   * pivot phase — while a pivot survives, evaluate the surviving pivot
///     with minimal lower bound (the "approximating" step of LAESA), tighten
///     every segment's survivors with its row, eliminate and compact them,
///     and merge the segments' next-pivot candidates. A segment without
///     pivots is compacted without the slack: the extra survivors fail the
///     tail's `lower * slack >= kth` test (kth only falls), so the visits
///     are the same;
///   * fixed-bound tail — once no pivot survives, the survivors' bounds are
///     fixed and the rest are visited from an in-place (bound, id) heap.
///
/// `shard_stats`, when non-null, has segment_count() entries and receives
/// each evaluation on the segment that holds the candidate.
template <typename Layout>
std::vector<NeighborResult> LaesaLazySweep(const Layout& layout,
                                           std::string_view query,
                                           std::size_t k, double slack,
                                           QueryStats* stats,
                                           QueryStats* shard_stats) {
  const std::size_t n = layout.size;
  k = std::min(k, n);
  if (k == 0) return {};
  const std::size_t segments = layout.segment_count();
  const std::int32_t* rank = layout.pivot_rank;
  const SweepKernels& kern = ActiveSweepKernels();
  SweepScratch& scratch =
      laesa_sweep_internal::SegmentedScratch(n, segments);
  std::uint32_t* idx = scratch.idx.data();
  double* lower = scratch.lower.data();
  constexpr double kInf = std::numeric_limits<double>::infinity();

  // Count live pivots from the ranks, not pivots.size(): a flat build may
  // repeat a pivot id, which occupies one candidate slot.
  std::size_t live_pivots = 0;
  bool masked_pivots = false;
  for (std::size_t s = 0; s < segments; ++s) {
    const SweepSegment seg = layout.segment(s);
    layout.distance.LengthLowerBounds(query.size(), seg.lengths, seg.size,
                                      lower + seg.base);
    live_pivots += FillIotaCountPivots(idx + seg.base, seg.rank, seg.size,
                                       static_cast<std::uint32_t>(seg.base));
    if (seg.tombstones != nullptr) {
      // lower >= bound is inclusive, so +inf falls even to the infinite
      // starting incumbent.
      ApplyTombstoneMask(seg.tombstones, seg.size, lower + seg.base);
      masked_pivots = masked_pivots || seg.rank != nullptr;
    }
    scratch.segment_live[s] = seg.size;
  }
  std::size_t total_live = n;

  std::vector<NeighborResult> best;
  best.reserve(k + 1);

  // One eliminate-and-compact pass over every segment — after tightening
  // with pivot row `row_rank` at query distance d unless row_rank < 0 —
  // then the segment-order merge of the per-segment pivot minima with strict
  // '<': the first occurrence wins, i.e. the lowest global id among ties,
  // exactly the single packed scan's choice. Returns the next pivot.
  auto pass = [&](std::int32_t row_rank, double d, std::uint32_t skip,
                  double bound) {
    laesa_sweep_internal::ForEachSegment(
        segments, total_live, [&](std::size_t s) {
          const SweepSegment seg = layout.segment(s);
          std::uint32_t* seg_idx = idx + seg.base;
          double* seg_lower = lower + seg.base;
          const std::size_t seg_live = scratch.segment_live[s];
          if (row_rank >= 0) {
            QuantUpdateLowerPacked(
                kern, seg.table, static_cast<std::size_t>(row_rank),
                seg.size, d, seg_idx, static_cast<std::uint32_t>(seg.base),
                seg_lower, seg_live);
          }
          scratch.segment_pass[s] =
              seg.rank != nullptr
                  ? kern.eliminate_and_compact_flagged(
                        seg_idx, seg_lower, rank, seg_live, skip, slack,
                        bound)
                  : kern.eliminate_and_compact(seg_idx, seg_lower, seg_live,
                                               skip, bound);
        });
    total_live = 0;
    std::size_t next = kSweepNone;
    double next_key = kInf;
    for (std::size_t s = 0; s < segments; ++s) {
      const SweepCompactResult& out = scratch.segment_pass[s];
      scratch.segment_live[s] = out.live;
      total_live += out.live;
      live_pivots -= out.pivots_died;
      if (out.next_pivot != kSweepNone && out.next_pivot_key < next_key) {
        next_key = out.next_pivot_key;
        next = out.next_pivot;
      }
    }
    return next;
  };

  // Start from the first base prototype. With no pivot (every one masked,
  // or a mutable index that started empty) the sweep goes to the tail.
  std::size_t pivot = live_pivots > 0 ? layout.pivots[0] : kSweepNone;
  if (masked_pivots) pivot = pass(-1, 0.0, /*skip=*/0xFFFFFFFFu, kInf);
  std::uint64_t pivot_evals = 0, abandons = 0;
  while (live_pivots > 0) {
    // Pivot distances stay exact: the full value tightens a whole row of
    // lower bounds (both sides of |d - row[i]|), which an abandoned
    // evaluation cannot. Under the +inf cap only an infinite distance
    // counts as abandoned.
    const double d =
        layout.distance.DistanceBounded(query, layout.view(pivot), kInf);
    ++pivot_evals;
    const bool abandoned = d >= kInf;
    if (abandoned) {
      ++abandons;
    } else {
      InsertNeighborTopK(best, k, {pivot, d});
    }
    if (shard_stats != nullptr) {
      QueryStats& hs = shard_stats[layout.segment_of(pivot)];
      hs.distance_computations += 1;
      hs.bounded_abandons += abandoned ? 1 : 0;
      hs.pivot_computations += 1;
    }
    pivot = pass(rank[pivot], d, static_cast<std::uint32_t>(pivot),
                 best.size() < k ? kInf : best.back().distance);
  }

  // Non-pivot distances only ever update the incumbents, so the k-th
  // incumbent bounds their kernel — the search trajectory (and computation
  // count) is identical to the unbounded sweep, only the per-evaluation DP
  // work shrinks.
  laesa_sweep_internal::FinishSweep(layout, query, k, slack, scratch,
                                    pivot_evals, abandons, best, stats,
                                    shard_stats);
  return best;
}

/// The row-consuming sweep behind the *WithPivotRow entry points: the
/// caller already paid for every query-pivot distance (row[p] = d(query,
/// pivot p), shared across a batch), so the incumbents are seeded with all
/// of them — each pivot id once, ties admitting the lower id — every
/// segment applies every pivot row before any elimination
/// (`SeedSegmentFromRow` against the seeded k-th incumbent), and only the
/// surviving non-pivots are then visited, through the fixed-bound tail
/// from the first visit on. Same elimination semantics as the lazy sweep,
/// different trajectory: see pivot_stage.h.
template <typename Layout>
std::vector<NeighborResult> LaesaRowSweep(const Layout& layout,
                                          std::string_view query,
                                          std::size_t k, const double* row,
                                          QueryStats* stats,
                                          QueryStats* shard_stats) {
  const std::size_t n = layout.size;
  k = std::min(k, n);
  if (k == 0) return {};
  const std::size_t segments = layout.segment_count();
  const std::vector<std::size_t>& pivots = layout.pivots;
  SweepScratch& scratch =
      laesa_sweep_internal::SegmentedScratch(n, segments);

  std::vector<NeighborResult> best;
  best.reserve(k + 1);
  for (std::size_t p = 0; p < pivots.size(); ++p) {
    if (layout.pivot_rank[pivots[p]] != static_cast<std::int32_t>(p)) continue;
    InsertNeighborTopK(best, k, {pivots[p], row[p]}, /*admit_ties=*/true);
  }
  const double seed_bound = best.size() < k
                                ? std::numeric_limits<double>::infinity()
                                : best.back().distance;

  laesa_sweep_internal::ForEachSegment(
      segments, pivots.size() * n, [&](std::size_t s) {
        const SweepSegment seg = layout.segment(s);
        scratch.segment_live[s] =
            SeedSegmentFromRow(layout.distance, query, seg, row,
                               pivots.size(), seed_bound,
                               scratch.idx.data() + seg.base,
                               scratch.lower.data() + seg.base)
                .live;
      });
  laesa_sweep_internal::FinishSweep(layout, query, k, /*slack=*/1.0, scratch,
                                    /*pivot_evals=*/0, /*pivot_abandons=*/0,
                                    best, stats, shard_stats);
  return best;
}

}  // namespace cned

#endif  // CNED_SEARCH_LAESA_SWEEP_H_
