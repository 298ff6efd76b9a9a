#ifndef CNED_SEARCH_SHARDED_LAESA_H_
#define CNED_SEARCH_SHARDED_LAESA_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "datasets/sharded_prototype_store.h"
#include "distances/distance.h"
#include "search/nn_searcher.h"
#include "search/pivot_stage.h"
#include "search/sharded_searcher.h"
#include "search/table_quant.h"

namespace cned {

/// LAESA over a `ShardedPrototypeStore`: one pivot table per shard, one
/// shared (global) pivot set.
///
/// Pivots are selected max-min over the *whole* logical set — the same
/// sequence a flat `Laesa` would pick — and each shard stores the distances
/// from every pivot to its own prototypes as an independent row-major
/// table (an independently built, independently mmap-able unit). Pivots
/// are prototypes, so their own lower bounds come out of the same tables
/// and they remain adaptive candidates of their home shard.
///
/// Query execution runs the shared LAESA sweep (search/laesa_sweep.h)
/// that the flat index runs, with one segment per shard: incumbents, the
/// elimination threshold and the next-candidate choice are global
/// decisions (ties resolved by lowest global index), while each pass is
/// partitioned by shard — every shard pass touches only its own contiguous
/// candidate segment and its own table rows, fanned out through
/// `ParallelFor` when enough candidates survive to amortise the dispatch,
/// and the per-shard minima are merged in shard order. So neighbours,
/// distances *and* `QueryStats` are bit-identical to the single-store
/// `Laesa` on every distance, metric or not, regardless of shard count or
/// thread schedule.
///
/// The `*WithPivotRow` entry points are the sharded half of the batch
/// engine's two-stage pipeline (see pivot_stage.h): the engine evaluates
/// the query x pivot block once for the whole batch and each sweep then
/// consumes its precomputed row — per-shard row seeding in parallel,
/// followed by the same fixed-bound tail over the survivors.
class ShardedLaesa final : public NearestNeighborSearcher,
                           public PivotStageSearcher,
                           public ShardStatsSearcher {
 public:
  /// Shared per-query cost counters (see `cned::QueryStats`).
  using QueryStats = ::cned::QueryStats;

  /// Builds per-shard pivot tables with greedy max-min pivots over the
  /// global set, starting from global index `first_pivot`. `store` is
  /// borrowed — the caller keeps it alive. Costs P·N distance evaluations
  /// (P = pivots chosen, N = prototypes), the same as the flat index: the
  /// selection's rows, computed row-parallel, are scattered into the shard
  /// tables.
  ///
  /// `table_precision` quantizes the shard tables exactly as in `Laesa`:
  /// each GLOBAL pivot row gets one shared decode meta (scanned across all
  /// shards before encoding), so a sharded build stays bit-identical to the
  /// flat build at the same precision.
  ShardedLaesa(const ShardedPrototypeStore& store, StringDistancePtr distance,
               std::size_t num_pivots, std::size_t first_pivot = 0,
               TablePrecision table_precision = DefaultTablePrecision());

  /// Nearest prototype (global index). `shard_stats`, when non-null, must
  /// point at shard_count() entries; each visited candidate's evaluation is
  /// accumulated onto its home shard.
  NeighborResult Nearest(std::string_view query,
                         QueryStats* stats = nullptr) const override;
  NeighborResult Nearest(std::string_view query, QueryStats* stats,
                         QueryStats* shard_stats) const;

  /// Approximate variant, as `Laesa::NearestApprox`.
  NeighborResult NearestApprox(std::string_view query, double epsilon,
                               QueryStats* stats = nullptr) const;

  /// The k nearest prototypes, closest first.
  std::vector<NeighborResult> KNearest(
      std::string_view query, std::size_t k,
      QueryStats* stats = nullptr) const override;
  std::vector<NeighborResult> KNearest(std::string_view query, std::size_t k,
                                       QueryStats* stats,
                                       QueryStats* shard_stats) const;

  std::size_t size() const override { return store_->size(); }
  std::size_t shard_count() const override { return store_->shard_count(); }

  // ShardStatsSearcher: the batch engine's per-shard cost accounting.
  NeighborResult NearestWithShardStats(std::string_view query,
                                       QueryStats* stats,
                                       QueryStats* shard_stats)
      const override {
    return Nearest(query, stats, shard_stats);
  }
  NeighborResult NearestWithPivotRowAndShardStats(std::string_view query,
                                                  const double* row,
                                                  QueryStats* stats,
                                                  QueryStats* shard_stats)
      const override {
    return NearestWithPivotRow(query, row, stats, shard_stats);
  }

  /// The sharded prototype set the index searches over.
  const ShardedPrototypeStore& store() const { return *store_; }

  std::size_t num_pivots() const { return pivots_.size(); }
  const std::vector<std::size_t>& pivots() const { return pivots_; }

  /// Distance evaluations spent in preprocessing: exactly P·N, since the
  /// pivot selection's rows are the tables.
  std::uint64_t preprocessing_computations() const {
    return preprocessing_computations_;
  }

  // PivotStageSearcher: the batched pivot stage of the query engine.
  std::size_t pivot_count() const override { return pivots_.size(); }
  std::string_view PivotString(std::size_t p) const override {
    return store_->view(pivots_[p]);
  }
  const StringDistance& pivot_distance() const override { return *distance_; }
  void ComputePivotRow(std::string_view query, double* row,
                       QueryStats* stats = nullptr) const override;
  NeighborResult NearestWithPivotRow(std::string_view query, const double* row,
                                     QueryStats* stats = nullptr)
      const override;
  NeighborResult NearestWithPivotRow(std::string_view query, const double* row,
                                     QueryStats* stats,
                                     QueryStats* shard_stats) const;
  std::vector<NeighborResult> KNearestWithPivotRow(
      std::string_view query, std::size_t k, const double* row,
      QueryStats* stats = nullptr) const override;
  std::vector<NeighborResult> KNearestWithPivotRow(std::string_view query,
                                                   std::size_t k,
                                                   const double* row,
                                                   QueryStats* stats,
                                                   QueryStats* shard_stats)
      const;

  /// Binary serialization (shard sizes, global pivots and every per-shard
  /// table, 64-byte-aligned sections — common/binary_io.h). Pair with
  /// `ShardedPrototypeStore::SaveBinary` for a full serving snapshot.
  void Save(const std::string& path) const;

  /// Writes shard `s`'s slice of the index as a standalone snapshot: the
  /// global pivot ids plus that shard's table only, with enough header
  /// shape (total size, shard count, shard id, base) for a worker process
  /// to validate it belongs to the deployment it joined. A distributed
  /// shard worker maps this file plus the matching
  /// `store().shard(s).SaveBinary` store file and serves its segment of
  /// the sweep without ever touching the other shards' bytes
  /// (src/serve/replica.h).
  void SaveShard(std::size_t s, const std::string& path) const;

  /// Writes the router's half of a distributed snapshot: shard sizes, the
  /// global pivot ids and the pivot *strings*. The scatter/gather router
  /// loads only this manifest — it evaluates the pivot stage locally from
  /// the embedded strings and leaves every non-pivot candidate to the
  /// shard workers, so its memory stays O(pivots), not O(N).
  void SaveRouterManifest(const std::string& path) const;

  /// Restores an index saved by `Save` against the *same* sharded store and
  /// distance. Throws std::runtime_error on malformed input or a
  /// store-shape mismatch.
  static ShardedLaesa Load(const std::string& path,
                           const ShardedPrototypeStore& store,
                           StringDistancePtr distance);

  /// Zero-copy form of `Load`: maps the file and points every per-shard
  /// table view at its section in place — no table is copied, so startup is
  /// O(N) bookkeeping instead of O(pivots x N), and each shard's table
  /// remains an independently page-cache-shared unit. Validation matches
  /// `Load`; results and `QueryStats` are bit-identical to the built index.
  static ShardedLaesa Map(const std::string& path,
                          const ShardedPrototypeStore& store,
                          StringDistancePtr distance);

  /// True when the shard tables alias a mapped snapshot.
  bool mapped() const { return mapping_ != nullptr; }

  /// Storage precision of the shard tables.
  TablePrecision table_precision() const { return precision_; }

 private:
  struct InternalTag {};
  ShardedLaesa(InternalTag, const ShardedPrototypeStore& store,
               StringDistancePtr distance)
      : store_(&store), distance_(std::move(distance)) {}

  /// The index as the shared LAESA sweep's segments, one per shard
  /// (search/laesa_sweep.h), which runs every nearest-neighbour query.
  struct SweepLayout;
  SweepLayout layout() const;

  /// Shard s's pivot table as a flat row-major view:
  /// shard_table(s)[p * n_s + j] = d(pivot_p, shard s's j-th prototype).
  /// Pivots are prototypes, so their own bounds come from these tables too
  /// — no separate pivot-to-pivot matrix is needed. Backed by the owned
  /// per-shard buffers (build/Load) or by mapped file sections (Map).
  const double* shard_table(std::size_t s) const {
    return mapping_ ? mapped_tables_[s] : tables_[s].data();
  }

  /// Shard s's quantized code table / the GLOBAL per-row meta, owned or
  /// mapped (meaningless for f64).
  const void* shard_quant(std::size_t s) const {
    return mapping_ ? mapped_quants_[s]
                    : static_cast<const void*>(quant_tables_[s].data());
  }
  const QuantRowMeta* row_meta_data() const {
    return mapping_ ? mapped_meta_ : row_meta_.data();
  }

  /// The any-precision view of shard s's table (table_quant.h). The meta
  /// is global — every shard decodes a pivot row with the same
  /// scale/offset/gap, which is what keeps sharded == flat bitwise.
  QuantTableView shard_view(std::size_t s) const {
    QuantTableView view;
    view.precision = precision_;
    if (precision_ == TablePrecision::kF64) {
      view.f64 = shard_table(s);
    } else {
      view.q = shard_quant(s);
      view.rows = row_meta_data();
    }
    return view;
  }

  const ShardedPrototypeStore* store_;
  StringDistancePtr distance_;
  std::vector<std::size_t> pivots_;       // global indices, distinct
  std::vector<std::int32_t> pivot_rank_;  // global index -> ordinal or -1
  TablePrecision precision_ = TablePrecision::kF64;
  std::vector<std::vector<double>> tables_;  // owned f64 tables; else empty
  std::vector<std::vector<unsigned char>> quant_tables_;  // owned codes
  std::vector<QuantRowMeta> row_meta_;  // global per-row meta (non-f64)
  std::vector<const double*> mapped_tables_;  // views into mapping_
  std::vector<const void*> mapped_quants_;    // quantized counterparts
  const QuantRowMeta* mapped_meta_ = nullptr;
  std::shared_ptr<MappedFile> mapping_;
  std::uint64_t preprocessing_computations_ = 0;
};

}  // namespace cned

#endif  // CNED_SEARCH_SHARDED_LAESA_H_
