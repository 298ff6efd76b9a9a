#include "serve/replica.h"

#include <algorithm>
#include <string>
#include <stdexcept>

#include "common/binary_io.h"
#include "distances/registry.h"
#include "search/laesa_sweep.h"
#include "search/sharded_laesa.h"
#include "serve/shard_snapshot.h"

namespace cned {

std::string ManifestPath(const std::string& dir) {
  return dir + "/manifest.bin";
}

std::string ShardStorePath(const std::string& dir, std::size_t shard) {
  return dir + "/shard" + std::to_string(shard) + ".store.bin";
}

std::string ShardIndexPath(const std::string& dir, std::size_t shard) {
  return dir + "/shard" + std::to_string(shard) + ".index.bin";
}

void SaveServingSnapshot(const ShardedLaesa& index, const std::string& dir) {
  index.SaveRouterManifest(ManifestPath(dir));
  for (std::size_t s = 0; s < index.shard_count(); ++s) {
    index.store().shard(s).SaveBinary(ShardStorePath(dir, s));
    index.SaveShard(s, ShardIndexPath(dir, s));
  }
}

ShardReplica::ShardReplica(const std::string& store_path,
                           const std::string& index_path,
                           const std::string& distance_name)
    : distance_(MakeDistance(distance_name)) {
  // Full checksum pass over both files before any section is interpreted:
  // the worker is the tier's integrity gate (the mapped loaders below
  // validate structure, not payload bytes).
  VerifySnapshotChecksum(store_path);
  VerifySnapshotChecksum(index_path);
  store_ = PrototypeStore::Map(store_path);

  MappedReader reader(MappedFile::Open(index_path));
  std::uint32_t version = 0;
  const auto counts = reader.Header(kShardSliceMagic, kShardSliceVersion,
                                    kShardSliceVersionQuant, &version);
  n_total_ = counts[0];
  shard_count_ = counts[1];
  const std::uint64_t np = counts[2];
  shard_id_ = counts[3];
  const std::uint64_t n_s = counts[4];
  base_ = counts[5];
  CheckSweepPrototypeCount(n_total_, "ShardReplica");
  if (shard_id_ >= shard_count_ || base_ > n_total_ ||
      n_s > n_total_ - base_) {
    throw std::runtime_error("ShardReplica: inconsistent shard header (" +
                             index_path + ")");
  }
  if (n_s != store_.size()) {
    throw std::runtime_error(
        "ShardReplica: index slice and store disagree on shard size (" +
        index_path + ")");
  }
  if (np == 0 || np > n_total_) {
    throw std::runtime_error("ShardReplica: bad pivot count (" + index_path +
                             ")");
  }
  if (version == kShardSliceVersionQuant) {
    // v2 leads with the {precision, reserved} section (shard_snapshot.h).
    const std::uint64_t* prec = reader.Array<std::uint64_t>(2);
    precision_ = CheckedTablePrecision(prec[0], "ShardReplica", index_path);
  }
  const std::uint64_t* pivots = reader.Array<std::uint64_t>(np);
  pivots_.assign(pivots, pivots + np);
  // Full-length rank array, exactly as the in-process index keeps it; the
  // seed compaction reads this segment's slice of it at base_.
  pivot_rank_.assign(n_total_, -1);
  for (std::size_t p = 0; p < np; ++p) {
    if (pivots_[p] >= n_total_ || pivot_rank_[pivots_[p]] >= 0) {
      throw std::runtime_error("ShardReplica: bad pivot ids (" + index_path +
                               ")");
    }
    pivot_rank_[pivots_[p]] = static_cast<std::int32_t>(p);
  }
  if (version == kShardSliceVersion) {
    table_ = reader.Array<double>(np * n_s);
  } else {
    row_meta_ = reader.Array<QuantRowMeta>(np);
    qtable_ = reader.Section(np * n_s, TablePrecisionBytes(precision_));
  }
  index_mapping_ = reader.file();
}

ShardReplica::SweepSlot& ShardReplica::NewSlot(std::uint32_t qid) {
  auto it = sweeps_.find(qid);
  if (it == sweeps_.end()) {
    if (sweeps_.size() >= kMaxSweeps) {
      throw std::runtime_error("ShardReplica: sweep slot table full");
    }
    it = sweeps_.emplace(qid, std::make_unique<SweepSlot>()).first;
  }
  SweepSlot& slot = *it->second;
  slot.idx.resize(store_.size() + delta_store_.size());
  slot.lower.resize(store_.size() + delta_store_.size());
  return slot;
}

ShardReplica::SweepSlot& ShardReplica::SlotOf(std::uint32_t qid) {
  const auto it = sweeps_.find(qid);
  if (it == sweeps_.end()) {
    throw std::out_of_range("ShardReplica: unknown query id " +
                            std::to_string(qid));
  }
  return *it->second;
}

const ShardReplica::SweepSlot& ShardReplica::SlotOf(std::uint32_t qid) const {
  const auto it = sweeps_.find(qid);
  if (it == sweeps_.end()) {
    throw std::out_of_range("ShardReplica: unknown query id " +
                            std::to_string(qid));
  }
  return *it->second;
}

void ShardReplica::EndSweep(std::uint32_t qid) { sweeps_.erase(qid); }

bool ShardReplica::DeltaSlot(std::uint64_t id, std::size_t* j) const {
  if (id < n_total_ || (id - n_total_) % shard_count_ != shard_id_) {
    return false;
  }
  *j = static_cast<std::size_t>((id - n_total_) / shard_count_);
  return true;
}

bool ShardReplica::Insert(std::uint64_t id, std::string_view s,
                          const double* column, std::size_t column_size) {
  if (column_size != pivots_.size()) {
    throw std::invalid_argument(
        "ShardReplica::Insert: column has " + std::to_string(column_size) +
        " entries, want " + std::to_string(pivots_.size()));
  }
  CheckSweepPrototypeCount(id + 1, "ShardReplica::Insert");
  // Per-shard ids arrive (and are replayed) in slot order, so a duplicate
  // delivery — a retry after a lost reply — is exactly an earlier slot.
  const std::size_t m = delta_store_.size();
  std::size_t j = 0;
  if (!DeltaSlot(id, &j) || j > m) {
    throw std::invalid_argument("ShardReplica::Insert: id " +
                                std::to_string(id) +
                                " is not this shard's next insert id");
  }
  if (j < m) return false;
  const std::size_t np = pivots_.size();
  std::vector<double> table(np * (m + 1));
  for (std::size_t p = 0; p < np; ++p) {
    std::copy_n(delta_table_.data() + p * m, m, table.data() + p * (m + 1));
    table[p * (m + 1) + m] = column[p];
  }
  delta_table_.swap(table);
  delta_store_.Add(s);
  if (!delta_tombs_.empty()) {
    delta_tombs_.resize(TombstoneWords(delta_store_.size()), 0);
  }
  return true;
}

bool ShardReplica::Remove(std::uint64_t id) {
  if (id >= base_ && id - base_ < store_.size()) {
    const std::size_t j = id - base_;
    if (tombs_.empty()) tombs_.assign(TombstoneWords(store_.size()), 0);
    if (TestTombstone(tombs_.data(), j)) return false;
    SetTombstone(tombs_.data(), j);
    ++base_dead_;
    return true;
  }
  std::size_t j = 0;
  if (!DeltaSlot(id, &j) || j >= delta_store_.size()) return false;
  if (delta_tombs_.empty()) {
    delta_tombs_.assign(TombstoneWords(delta_store_.size()), 0);
  }
  if (TestTombstone(delta_tombs_.data(), j)) return false;
  SetTombstone(delta_tombs_.data(), j);
  ++delta_dead_;
  return true;
}

SweepCompactResult ShardReplica::BeginRow(std::uint32_t qid,
                                          std::string_view query,
                                          const double* row,
                                          double seed_bound) {
  SweepSlot& slot = NewSlot(qid);
  slot.query.assign(query);
  // Tombstoned slots go to +inf before the seed compaction, so the row
  // path can never admit a deleted prototype — no protocol change needed:
  // the masks ride the shard's own state.
  SweepSegment seg{base_, store_.size(), store_.lengths_data(), table_view(),
                   pivot_rank_.data() + base_,
                   base_dead_ > 0 ? tombs_.data() : nullptr};
  SweepCompactResult out =
      SeedSegmentFromRow(*distance_, slot.query, seg, row, pivots_.size(),
                         seed_bound, slot.idx.data(), slot.lower.data());
  const std::size_t m = delta_store_.size();
  if (m > 0) {
    // The delta packs behind the base survivors under local ids j, then
    // takes its global ids: DeltaId ascends above every base id, so the
    // slab stays ascending and the merged minimum keeps the lowest-id rule.
    seg = SweepSegment{0,
                       m,
                       delta_store_.lengths_data(),
                       {TablePrecision::kF64, delta_table_.data()},
                       nullptr,
                       delta_dead_ > 0 ? delta_tombs_.data() : nullptr};
    std::uint32_t* idx = slot.idx.data() + out.live;
    const SweepCompactResult d =
        SeedSegmentFromRow(*distance_, slot.query, seg, row, pivots_.size(),
                           seed_bound, idx, slot.lower.data() + out.live);
    for (std::size_t r = 0; r < d.live; ++r) {
      idx[r] = static_cast<std::uint32_t>(DeltaId(idx[r]));
    }
    if (d.next != kSweepNone && d.next_key < out.next_key) {
      out.next = DeltaId(d.next);
      out.next_key = d.next_key;
    }
    out.live += d.live;
  }
  slot.live = out.live;
  return out;
}

std::string_view ShardReplica::ViewOf(std::size_t global_id) const {
  if (global_id >= base_ && global_id - base_ < store_.size()) {
    return store_.view(global_id - base_);
  }
  std::size_t j = 0;
  if (DeltaSlot(global_id, &j) && j < delta_store_.size()) {
    return delta_store_.view(j);
  }
  throw std::out_of_range("ShardReplica::Eval: id outside this shard");
}

double ShardReplica::Eval(std::uint32_t qid, std::size_t global_id,
                          double cap) const {
  const std::string_view target = ViewOf(global_id);
  const SweepSlot& slot = SlotOf(qid);
  return distance_->DistanceBounded(slot.query, target, cap);
}

SweepCompactResult ShardReplica::StepRow(std::uint32_t qid, std::uint32_t skip,
                                         double bound) {
  SweepSlot& slot = SlotOf(qid);
  const SweepKernels& kern = ActiveSweepKernels();
  const SweepCompactResult out = kern.eliminate_and_compact(
      slot.idx.data(), slot.lower.data(), slot.live, skip, bound);
  slot.live = out.live;
  return out;
}

}  // namespace cned
