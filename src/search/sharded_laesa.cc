#include "search/sharded_laesa.h"

#include <algorithm>
#include <stdexcept>

#include "common/binary_io.h"
#include "search/laesa_sweep.h"
#include "search/pivot_selection.h"
#include "search/sweep_kernel.h"
#include "serve/shard_snapshot.h"

namespace cned {

ShardedLaesa::ShardedLaesa(const ShardedPrototypeStore& store,
                           StringDistancePtr distance, std::size_t num_pivots,
                           std::size_t first_pivot,
                           TablePrecision table_precision)
    : store_(&store),
      distance_(std::move(distance)),
      precision_(table_precision) {
  if (store.empty()) {
    throw std::invalid_argument("ShardedLaesa: empty prototype set");
  }
  num_pivots = std::min(num_pivots, store.size());
  if (num_pivots == 0) {
    throw std::invalid_argument("ShardedLaesa: need at least one pivot");
  }
  const std::size_t n = store.size();
  CheckSweepPrototypeCount(n, "ShardedLaesa");
  // Max-min selection over the global index space — the exact sequence and
  // rows the flat index computes, so a sharded and a flat build of the same
  // data share pivots (and therefore search trajectories). Each selection
  // row is the table row: its shard slices are appended straight from the
  // selection's one scratch row, never recomputed.
  tables_.resize(store.shard_count());
  for (std::size_t s = 0; s < store.shard_count(); ++s) {
    tables_[s].reserve(num_pivots * store.shard(s).size());
  }
  pivots_ = SelectPivotsMaxMin(
      store, *distance_, num_pivots, first_pivot, [&](const double* row) {
        for (std::size_t s = 0; s < store.shard_count(); ++s) {
          const double* slice = row + store.shard_base(s);
          tables_[s].insert(tables_[s].end(), slice,
                            slice + store.shard(s).size());
        }
      });
  const std::size_t p_count = pivots_.size();
  pivot_rank_.assign(n, -1);
  for (std::size_t p = 0; p < p_count; ++p) {
    pivot_rank_[pivots_[p]] = static_cast<std::int32_t>(p);
  }
  preprocessing_computations_ = static_cast<std::uint64_t>(p_count) * n;

  if (precision_ != TablePrecision::kF64) {
    // Quantize each GLOBAL pivot row with one shared meta: scan every
    // shard's slice of the row first (shard order == global index order),
    // then encode the slices against that meta. A sharded build therefore
    // produces exactly the codes and gaps a flat build of the same data
    // would — sharded results stay bit-identical to flat at any precision.
    const std::size_t width = TablePrecisionBytes(precision_);
    quant_tables_.resize(store.shard_count());
    for (std::size_t s = 0; s < store.shard_count(); ++s) {
      quant_tables_[s].resize(p_count * store.shard(s).size() * width);
    }
    row_meta_.resize(p_count);
    for (std::size_t p = 0; p < p_count; ++p) {
      QuantRowEncoder enc;
      for (std::size_t s = 0; s < store.shard_count(); ++s) {
        enc.Scan(tables_[s].data() + p * store.shard(s).size(),
                 store.shard(s).size());
      }
      enc.Prepare(precision_);
      for (std::size_t s = 0; s < store.shard_count(); ++s) {
        const std::size_t n_s = store.shard(s).size();
        enc.Encode(tables_[s].data() + p * n_s, n_s,
                   quant_tables_[s].data() + p * n_s * width);
      }
      row_meta_[p] = enc.Finish();
    }
    tables_.clear();
    tables_.shrink_to_fit();
  }
}

// The sharded index as the shared sweep sees it (search/laesa_sweep.h): one
// segment per shard, each over its own length array and table.
struct ShardedLaesa::SweepLayout {
  const StringDistance& distance;
  const std::vector<std::size_t>& pivots;
  const std::int32_t* pivot_rank;
  std::size_t size;
  const ShardedPrototypeStore& store;
  const ShardedLaesa& index;

  std::size_t segment_count() const { return store.shard_count(); }
  SweepSegment segment(std::size_t s) const {
    return {store.shard_base(s), store.shard(s).size(),
            store.shard(s).lengths_data(), index.shard_view(s),
            pivot_rank + store.shard_base(s)};
  }
  std::size_t segment_of(std::size_t id) const { return store.ShardOf(id); }
  std::string_view view(std::size_t id) const { return store.view(id); }
};

ShardedLaesa::SweepLayout ShardedLaesa::layout() const {
  return {*distance_, pivots_, pivot_rank_.data(), store_->size(), *store_,
          *this};
}

void ShardedLaesa::ComputePivotRow(std::string_view query, double* row,
                                   QueryStats* stats) const {
  for (std::size_t p = 0; p < pivots_.size(); ++p) {
    row[p] = distance_->Distance(query, store_->view(pivots_[p]));
  }
  if (stats != nullptr) {
    stats->distance_computations += pivots_.size();
    stats->pivot_computations += pivots_.size();
  }
}

NeighborResult ShardedLaesa::Nearest(std::string_view query,
                                     QueryStats* stats) const {
  return Nearest(query, stats, nullptr);
}

NeighborResult ShardedLaesa::Nearest(std::string_view query, QueryStats* stats,
                                     QueryStats* shard_stats) const {
  return LaesaLazySweep(layout(), query, 1, /*slack=*/1.0, stats,
                        shard_stats)
      .front();
}

NeighborResult ShardedLaesa::NearestApprox(std::string_view query,
                                           double epsilon,
                                           QueryStats* stats) const {
  const double slack =
      ApproximationSlack(epsilon, "ShardedLaesa::NearestApprox");
  return LaesaLazySweep(layout(), query, 1, slack, stats, nullptr)
      .front();
}

std::vector<NeighborResult> ShardedLaesa::KNearest(std::string_view query,
                                                   std::size_t k,
                                                   QueryStats* stats) const {
  return LaesaLazySweep(layout(), query, k, /*slack=*/1.0, stats,
                        nullptr);
}

std::vector<NeighborResult> ShardedLaesa::KNearest(
    std::string_view query, std::size_t k, QueryStats* stats,
    QueryStats* shard_stats) const {
  return LaesaLazySweep(layout(), query, k, /*slack=*/1.0, stats,
                        shard_stats);
}

NeighborResult ShardedLaesa::NearestWithPivotRow(std::string_view query,
                                                 const double* row,
                                                 QueryStats* stats) const {
  return LaesaRowSweep(layout(), query, 1, row, stats, nullptr).front();
}

NeighborResult ShardedLaesa::NearestWithPivotRow(std::string_view query,
                                                 const double* row,
                                                 QueryStats* stats,
                                                 QueryStats* shard_stats)
    const {
  return LaesaRowSweep(layout(), query, 1, row, stats, shard_stats).front();
}

std::vector<NeighborResult> ShardedLaesa::KNearestWithPivotRow(
    std::string_view query, std::size_t k, const double* row,
    QueryStats* stats) const {
  return LaesaRowSweep(layout(), query, k, row, stats, nullptr);
}

std::vector<NeighborResult> ShardedLaesa::KNearestWithPivotRow(
    std::string_view query, std::size_t k, const double* row,
    QueryStats* stats, QueryStats* shard_stats) const {
  return LaesaRowSweep(layout(), query, k, row, stats, shard_stats);
}

namespace {
constexpr char kShardedLaesaMagic[8] = {'C', 'N', 'E', 'D', 'S', 'H', 'L', '1'};
constexpr std::uint32_t kShardedLaesaVersion = 1;
// Version 2 stores a quantized table: counts {n, shards, np, precision},
// sections shard sizes, pivot ids, the GLOBAL per-row meta
// QuantRowMeta[np], then each shard's code table elem[np * n_s]. f64
// indices keep writing version 1 byte-identically.
constexpr std::uint32_t kShardedLaesaVersionQuant = 2;
}  // namespace

void ShardedLaesa::Save(const std::string& path) const {
  BinaryWriter writer(path);
  std::vector<std::uint64_t> sizes(store_->shard_count());
  for (std::size_t s = 0; s < sizes.size(); ++s) {
    sizes[s] = store_->shard(s).size();
  }
  static_assert(sizeof(std::size_t) == sizeof(std::uint64_t),
                "64-bit pivot indices expected");
  if (precision_ == TablePrecision::kF64) {
    const std::uint64_t counts[3] = {store_->size(), store_->shard_count(),
                                     pivots_.size()};
    writer.Header(kShardedLaesaMagic, kShardedLaesaVersion, counts, 3);
    writer.Align();
    writer.Raw(sizes.data(), sizes.size() * sizeof(std::uint64_t));
    writer.Align();
    writer.Raw(pivots_.data(), pivots_.size() * sizeof(std::uint64_t));
    // Through the views, so a mapped index re-snapshots byte-identically.
    for (std::size_t s = 0; s < store_->shard_count(); ++s) {
      writer.Align();
      writer.Raw(shard_table(s),
                 pivots_.size() * store_->shard(s).size() * sizeof(double));
    }
  } else {
    const std::uint64_t counts[4] = {store_->size(), store_->shard_count(),
                                     pivots_.size(),
                                     static_cast<std::uint64_t>(precision_)};
    writer.Header(kShardedLaesaMagic, kShardedLaesaVersionQuant, counts, 4);
    writer.Align();
    writer.Raw(sizes.data(), sizes.size() * sizeof(std::uint64_t));
    writer.Align();
    writer.Raw(pivots_.data(), pivots_.size() * sizeof(std::uint64_t));
    writer.Align();
    writer.Raw(row_meta_data(), pivots_.size() * sizeof(QuantRowMeta));
    const std::size_t width = TablePrecisionBytes(precision_);
    for (std::size_t s = 0; s < store_->shard_count(); ++s) {
      writer.Align();
      writer.Raw(shard_quant(s),
                 pivots_.size() * store_->shard(s).size() * width);
    }
  }
  writer.Finish();
}

void ShardedLaesa::SaveShard(std::size_t s, const std::string& path) const {
  const std::size_t n_s = store_->shard(s).size();
  BinaryWriter writer(path);
  const std::uint64_t counts[6] = {store_->size(), store_->shard_count(),
                                   pivots_.size(),  s,
                                   n_s,             store_->shard_base(s)};
  if (precision_ == TablePrecision::kF64) {
    writer.Header(kShardSliceMagic, kShardSliceVersion, counts, 6);
    writer.Align();
    writer.Raw(pivots_.data(), pivots_.size() * sizeof(std::uint64_t));
    writer.Align();
    writer.Raw(shard_table(s), pivots_.size() * n_s * sizeof(double));
  } else {
    // All six header counts are taken, so v2 leads with an extra
    // {precision, reserved} section (see serve/shard_snapshot.h).
    writer.Header(kShardSliceMagic, kShardSliceVersionQuant, counts, 6);
    const std::uint64_t prec[2] = {static_cast<std::uint64_t>(precision_), 0};
    writer.Align();
    writer.Raw(prec, sizeof(prec));
    writer.Align();
    writer.Raw(pivots_.data(), pivots_.size() * sizeof(std::uint64_t));
    writer.Align();
    writer.Raw(row_meta_data(), pivots_.size() * sizeof(QuantRowMeta));
    writer.Align();
    writer.Raw(shard_quant(s),
               pivots_.size() * n_s * TablePrecisionBytes(precision_));
  }
  writer.Finish();
}

void ShardedLaesa::SaveRouterManifest(const std::string& path) const {
  BinaryWriter writer(path);
  std::vector<std::uint64_t> lens(pivots_.size());
  std::uint64_t arena_bytes = 0;
  for (std::size_t p = 0; p < pivots_.size(); ++p) {
    lens[p] = store_->view(pivots_[p]).size();
    arena_bytes += lens[p];
  }
  const std::uint64_t counts[4] = {store_->size(), store_->shard_count(),
                                   pivots_.size(), arena_bytes};
  writer.Header(kRouterManifestMagic, kRouterManifestVersion, counts, 4);
  std::vector<std::uint64_t> sizes(store_->shard_count());
  for (std::size_t s = 0; s < sizes.size(); ++s) {
    sizes[s] = store_->shard(s).size();
  }
  writer.Align();
  writer.Raw(sizes.data(), sizes.size() * sizeof(std::uint64_t));
  writer.Align();
  writer.Raw(pivots_.data(), pivots_.size() * sizeof(std::uint64_t));
  writer.Align();
  writer.Raw(lens.data(), lens.size() * sizeof(std::uint64_t));
  writer.Align();
  for (std::size_t p = 0; p < pivots_.size(); ++p) {
    const std::string_view v = store_->view(pivots_[p]);
    writer.Raw(v.data(), v.size());
  }
  writer.Finish();
}

ShardedLaesa ShardedLaesa::Load(const std::string& path,
                                const ShardedPrototypeStore& store,
                                StringDistancePtr distance) {
  BinaryReader reader(path);
  std::uint32_t version = 0;
  const auto counts = reader.Header(kShardedLaesaMagic, kShardedLaesaVersion,
                                    kShardedLaesaVersionQuant, &version);
  const std::uint64_t n = counts[0];
  const std::uint64_t shards = counts[1];
  const std::uint64_t np = counts[2];
  if (n != store.size() || shards != store.shard_count()) {
    throw std::runtime_error("ShardedLaesa::Load: store shape mismatch");
  }
  if (np == 0 || np > n) {
    throw std::runtime_error("ShardedLaesa::Load: bad pivot count");
  }
  reader.RequireArray(shards, sizeof(std::uint64_t));
  std::vector<std::uint64_t> sizes(shards);
  reader.Align();
  reader.Raw(sizes.data(), shards * sizeof(std::uint64_t));
  for (std::uint64_t s = 0; s < shards; ++s) {
    if (sizes[s] != store.shard(s).size()) {
      throw std::runtime_error("ShardedLaesa::Load: shard size mismatch");
    }
  }
  ShardedLaesa index(InternalTag{}, store, std::move(distance));
  reader.RequireArray(np, sizeof(std::uint64_t));
  index.pivots_.resize(np);
  reader.Align();
  reader.Raw(index.pivots_.data(), np * sizeof(std::uint64_t));
  CheckSweepPrototypeCount(n, "ShardedLaesa::Load");
  index.pivot_rank_.assign(n, -1);
  for (std::size_t p = 0; p < np; ++p) {
    if (index.pivots_[p] >= n) {
      throw std::runtime_error("ShardedLaesa::Load: pivot index out of range");
    }
    if (index.pivot_rank_[index.pivots_[p]] >= 0) {
      throw std::runtime_error("ShardedLaesa::Load: duplicate pivot index");
    }
    index.pivot_rank_[index.pivots_[p]] = static_cast<std::int32_t>(p);
  }
  if (version == kShardedLaesaVersion) {
    index.tables_.resize(shards);
    for (std::uint64_t s = 0; s < shards; ++s) {
      reader.RequireArray(np * sizes[s], sizeof(double));
      index.tables_[s].resize(np * sizes[s]);
      reader.Align();
      reader.Raw(index.tables_[s].data(), np * sizes[s] * sizeof(double));
    }
  } else {
    index.precision_ = CheckedTablePrecision(counts[3], "ShardedLaesa::Load");
    const std::size_t width = TablePrecisionBytes(index.precision_);
    reader.RequireArray(np, sizeof(QuantRowMeta));
    index.row_meta_.resize(np);
    reader.Align();
    reader.Raw(index.row_meta_.data(), np * sizeof(QuantRowMeta));
    index.quant_tables_.resize(shards);
    for (std::uint64_t s = 0; s < shards; ++s) {
      reader.RequireArray(np * sizes[s], width);
      index.quant_tables_[s].resize(np * sizes[s] * width);
      reader.Align();
      reader.Raw(index.quant_tables_[s].data(), np * sizes[s] * width);
    }
  }
  return index;
}

ShardedLaesa ShardedLaesa::Map(const std::string& path,
                               const ShardedPrototypeStore& store,
                               StringDistancePtr distance) {
  MappedReader reader(MappedFile::Open(path));
  std::uint32_t version = 0;
  const auto counts = reader.Header(kShardedLaesaMagic, kShardedLaesaVersion,
                                    kShardedLaesaVersionQuant, &version);
  const std::uint64_t n = counts[0];
  const std::uint64_t shards = counts[1];
  const std::uint64_t np = counts[2];
  if (n != store.size() || shards != store.shard_count()) {
    throw std::runtime_error("ShardedLaesa::Map: store shape mismatch");
  }
  if (np == 0 || np > n) {
    throw std::runtime_error("ShardedLaesa::Map: bad pivot count");
  }
  const std::uint64_t* sizes = reader.Array<std::uint64_t>(shards);
  for (std::uint64_t s = 0; s < shards; ++s) {
    if (sizes[s] != store.shard(s).size()) {
      throw std::runtime_error("ShardedLaesa::Map: shard size mismatch");
    }
  }
  ShardedLaesa index(InternalTag{}, store, std::move(distance));
  // Pivot indices are tiny (np entries); copying them keeps the `pivots()`
  // API. The per-shard tables — the O(pivots x N) bulk — stay views.
  const std::uint64_t* pivots = reader.Array<std::uint64_t>(np);
  index.pivots_.assign(pivots, pivots + np);
  CheckSweepPrototypeCount(n, "ShardedLaesa::Map");
  index.pivot_rank_.assign(n, -1);
  for (std::size_t p = 0; p < np; ++p) {
    if (index.pivots_[p] >= n) {
      throw std::runtime_error("ShardedLaesa::Map: pivot index out of range");
    }
    if (index.pivot_rank_[index.pivots_[p]] >= 0) {
      throw std::runtime_error("ShardedLaesa::Map: duplicate pivot index");
    }
    index.pivot_rank_[index.pivots_[p]] = static_cast<std::int32_t>(p);
  }
  if (version == kShardedLaesaVersion) {
    index.mapped_tables_.resize(shards);
    for (std::uint64_t s = 0; s < shards; ++s) {
      // sizes[s] was validated against the live store, so np * sizes[s]
      // cannot wrap before Array()'s division-form extent check sees it.
      index.mapped_tables_[s] = reader.Array<double>(np * sizes[s]);
    }
  } else {
    index.precision_ = CheckedTablePrecision(counts[3], "ShardedLaesa::Map");
    const std::size_t width = TablePrecisionBytes(index.precision_);
    index.mapped_meta_ = reader.Array<QuantRowMeta>(np);
    index.mapped_quants_.resize(shards);
    for (std::uint64_t s = 0; s < shards; ++s) {
      index.mapped_quants_[s] = reader.Section(np * sizes[s], width);
    }
  }
  index.mapping_ = reader.file();
  return index;
}

}  // namespace cned
