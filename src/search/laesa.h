#ifndef CNED_SEARCH_LAESA_H_
#define CNED_SEARCH_LAESA_H_

#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

#include "datasets/prototype_store.h"
#include "distances/distance.h"
#include "search/nn_searcher.h"
#include "search/pivot_stage.h"
#include "search/table_quant.h"

namespace cned {

struct SweepSegment;

/// LAESA — Linear Approximating and Eliminating Search Algorithm
/// (Micó, Oncina & Vidal, Pattern Recognition Letters 1994).
///
/// Preprocessing selects `num_pivots` base prototypes and stores the
/// distances from each pivot to every prototype: linear memory and
/// preprocessing in the number of prototypes, unlike AESA's quadratic
/// matrix. At query time the triangle inequality turns each computed
/// query-pivot distance into lower bounds g(p) = max_s |d(q,s) - d(s,p)|
/// that eliminate prototypes without computing their distance; candidates
/// are visited in increasing lower-bound order, pivots first.
///
/// Queries run the shared LAESA sweep (search/laesa_sweep.h) over the
/// whole store as one segment: surviving candidates live in packed
/// index/lower-bound arrays. While pivots survive, one pass per visited
/// pivot tightens them (a contiguous row of the pivot table), eliminates
/// and compacts; once the pivots are spent the bounds are fixed and the
/// survivors are visited from an in-place (bound, id) heap. No
/// per-candidate pointer chasing, no per-query allocation (thread-local
/// scratch), and the length-difference lower bound of the distance acts as
/// a free "zeroth pivot" over the store's flat length array before any
/// distance is computed.
///
/// With a true metric the returned neighbour is exactly the nearest. The
/// paper (and this reproduction) also runs LAESA with non-metric
/// normalisations (d_max, d_MV, d_C,h); elimination is then heuristic, which
/// is precisely what Table 2 quantifies.
class Laesa final : public NearestNeighborSearcher, public PivotStageSearcher {
 public:
  /// Shared per-query cost counters (see `cned::QueryStats`).
  using QueryStats = ::cned::QueryStats;

  /// Builds the pivot table with greedy max-min pivots starting from
  /// prototype `first_pivot`. `prototypes` is either a borrowed
  /// `PrototypeStore` (caller keeps it alive) or a `std::vector<std::string>`
  /// packed once into an owned store. Costs P·N distance evaluations
  /// (P = pivots chosen, N = prototypes): the selection's distance rows,
  /// each computed once and row-parallel, are the pivot table.
  ///
  /// `table_precision` selects the pivot table's storage (table_quant.h):
  /// f64 keeps the exact table; f32/f16/u8 quantize each row with
  /// admissible round-down — Nearest/KNearest/RangeSearch RESULTS stay
  /// exact (elimination only prunes less), snapshots and sweep bandwidth
  /// shrink by the element-width ratio. The |Δlen| zeroth-pivot bound is
  /// never quantized.
  Laesa(PrototypeStoreRef prototypes, StringDistancePtr distance,
        std::size_t num_pivots, std::size_t first_pivot = 0,
        TablePrecision table_precision = DefaultTablePrecision());

  /// Builds with externally chosen pivot indices (ablation hook): the same
  /// row-parallel rows, so the selection's own pivot list rebuilds the
  /// identical table. Costs P·N distance evaluations.
  Laesa(PrototypeStoreRef prototypes, StringDistancePtr distance,
        std::vector<std::size_t> pivot_indices,
        TablePrecision table_precision = DefaultTablePrecision());

  /// Nearest prototype; accumulates counters into `stats` when non-null.
  NeighborResult Nearest(std::string_view query,
                         QueryStats* stats = nullptr) const override;

  /// Approximate variant: eliminates candidates whose lower bound exceeds
  /// best/(1+epsilon), i.e. accepts a neighbour at most (1+epsilon) times
  /// farther than the true nearest. epsilon = 0 is exact; larger values
  /// trade accuracy for fewer distance computations (a standard relaxation
  /// of approximating-eliminating search).
  ///
  /// Effective on continuous-valued distances (dYB, dC,h: measured ~2-6x
  /// fewer computations at epsilon = 1); on the integer-valued d_E the
  /// quantised thresholds mean a prematurely eliminated true neighbour
  /// leaves a stale incumbent that eliminates no better than the exact
  /// search — expect little or no saving there. Counters accumulate into
  /// `stats` when non-null.
  NeighborResult NearestApprox(std::string_view query, double epsilon,
                               QueryStats* stats = nullptr) const;

  std::size_t size() const override { return store().size(); }

  /// The k nearest prototypes, closest first (extension of the paper's
  /// 1-NN LAESA: elimination prunes against the current k-th best). Shares
  /// the sweep with `Nearest`, so k = 1 follows the identical trajectory.
  std::vector<NeighborResult> KNearest(
      std::string_view query, std::size_t k,
      QueryStats* stats = nullptr) const override;

  /// All prototypes within `radius` of the query, ascending by distance.
  /// Prototypes whose pivot (or length) lower bound exceeds `radius` are
  /// never touched.
  std::vector<NeighborResult> RangeSearch(std::string_view query,
                                          double radius,
                                          QueryStats* stats = nullptr) const;

  /// Tombstone-masked KNearest: `tombstones` is a packed bitmap over
  /// prototype slots (bit i set = deleted, TombstoneWords(size()) words).
  /// Masked slots are eliminated *inside* the sweep compaction before
  /// anything is visited — their bounds are forced to +inf and one flagged
  /// compaction pass drops them from the packed slab (see sweep_kernel.h) —
  /// so a deleted prototype is never evaluated, never returned and never
  /// counted, at every table_precision and under every kernel variant. A
  /// null bitmap is the plain sweep, bit-identical to KNearest including
  /// QueryStats.
  std::vector<NeighborResult> KNearestMasked(std::string_view query,
                                             std::size_t k,
                                             const std::uint64_t* tombstones,
                                             QueryStats* stats = nullptr) const;

  /// Serialises the pivot table (not the prototypes) to a stream. Rebuild
  /// with `Load` against the *same* prototype set and distance — a
  /// production convenience so the O(pivots x N) preprocessing is paid once.
  void Save(std::ostream& out) const;

  /// Restores an index saved by `Save`. Throws std::runtime_error on
  /// malformed input or when the prototype count does not match.
  static Laesa Load(std::istream& in, PrototypeStoreRef prototypes,
                    StringDistancePtr distance);

  /// Binary form of Save/Load: versioned 64-byte header, then the pivot
  /// index and pivot-table sections each 64-byte aligned (the mmap-ready
  /// format of common/binary_io.h). Pair with `PrototypeStore::SaveBinary`
  /// for a complete serving snapshot.
  void Save(const std::string& path) const;
  static Laesa Load(const std::string& path, PrototypeStoreRef prototypes,
                    StringDistancePtr distance);

  /// Zero-copy form of the binary Load: maps the file and points the pivot
  /// table view at its section in place — the O(pivots x N) table is never
  /// copied, so startup is O(N) (pivot-rank bookkeeping) instead of
  /// O(pivots x N), and the table pages are shared across processes through
  /// the page cache. Validation matches `Load`; query results, trajectories
  /// and `QueryStats` are bit-identical to the built or copy-loaded index.
  static Laesa Map(const std::string& path, PrototypeStoreRef prototypes,
                   StringDistancePtr distance);

  /// True when the pivot table aliases a mapped snapshot.
  bool mapped() const { return mapping_ != nullptr; }

  /// Storage precision of the pivot table (set at build or restored by the
  /// loaders).
  TablePrecision table_precision() const { return precision_; }

  // PivotStageSearcher: the batched pivot stage of the query engine.
  std::size_t pivot_count() const override { return pivots_.size(); }
  std::string_view PivotString(std::size_t p) const override {
    return store()[pivots_[p]];
  }
  const StringDistance& pivot_distance() const override { return *distance_; }
  void ComputePivotRow(std::string_view query, double* row,
                       QueryStats* stats = nullptr) const override;
  NeighborResult NearestWithPivotRow(std::string_view query, const double* row,
                                     QueryStats* stats = nullptr)
      const override;
  std::vector<NeighborResult> KNearestWithPivotRow(
      std::string_view query, std::size_t k, const double* row,
      QueryStats* stats = nullptr) const override;

  std::size_t num_pivots() const { return pivots_.size(); }
  const std::vector<std::size_t>& pivots() const { return pivots_; }

  /// The index as one segment of the shared sweep (laesa_sweep.h): the
  /// base segment the mutable tier (mutable_laesa.h) sweeps in front of
  /// its insert delta. Views into this index; no tombstones.
  SweepSegment sweep_segment() const;

  /// The prototype set the index searches over.
  const PrototypeStore& store() const { return prototypes_.get(); }

  /// Distance evaluations spent in preprocessing: exactly P·N, since the
  /// pivot selection's rows are the table.
  std::uint64_t preprocessing_computations() const {
    return preprocessing_computations_;
  }

 private:
  // Uninitialised shell used by Load.
  struct InternalTag {};
  Laesa(InternalTag, PrototypeStoreRef prototypes, StringDistancePtr distance)
      : prototypes_(prototypes), distance_(std::move(distance)) {}

  /// Pivot ranks, the preprocessing count and (non-f64) the quantized
  /// codes, from the finished f64 table.
  void FinishTable();

  /// The index as one segment of the shared LAESA sweep
  /// (search/laesa_sweep.h), which runs every nearest-neighbour query.
  struct SweepLayout;
  SweepLayout layout(const std::uint64_t* tombstones = nullptr) const;

  /// The pivot table as a flat row-major view:
  /// table_data()[p * N + i] = d(store()[pivots_[p]], store()[i]); a
  /// visited pivot contributes one contiguous row. Backed by the owned
  /// buffer (build/Load) or by the mapped file section (Map). f64 only —
  /// quantized tables go through table_view().
  const double* table_data() const {
    return mapping_ ? mapped_table_ : pivot_dist_.data();
  }

  /// Quantized code array / per-row meta, owned or mapped (null for f64).
  const void* quant_data() const {
    return mapping_ ? mapped_quant_ : static_cast<const void*>(
                                          quant_table_.data());
  }
  const QuantRowMeta* row_meta_data() const {
    return mapping_ ? mapped_meta_ : row_meta_.data();
  }

  /// The any-precision view the sweeps dispatch through (table_quant.h).
  QuantTableView table_view() const {
    QuantTableView view;
    view.precision = precision_;
    if (precision_ == TablePrecision::kF64) {
      view.f64 = table_data();
    } else {
      view.q = quant_data();
      view.rows = row_meta_data();
    }
    return view;
  }

  PrototypeStoreRef prototypes_;
  StringDistancePtr distance_;
  std::vector<std::size_t> pivots_;
  std::vector<std::int32_t> pivot_rank_;  // prototype -> pivot ordinal or -1
  TablePrecision precision_ = TablePrecision::kF64;
  std::vector<double> pivot_dist_;        // owned f64 table; empty otherwise
  std::vector<unsigned char> quant_table_;  // owned codes (non-f64)
  std::vector<QuantRowMeta> row_meta_;      // per-row decode meta (non-f64)
  const double* mapped_table_ = nullptr;  // view into mapping_ when mapped
  const void* mapped_quant_ = nullptr;    // quantized counterpart
  const QuantRowMeta* mapped_meta_ = nullptr;
  std::shared_ptr<MappedFile> mapping_;
  std::uint64_t preprocessing_computations_ = 0;
};

}  // namespace cned

#endif  // CNED_SEARCH_LAESA_H_
