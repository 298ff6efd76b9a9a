#include "serve/replica.h"

#include <algorithm>
#include <limits>
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
  slot.idx.resize(store_.size());
  slot.lower.resize(store_.size());
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

bool ShardReplica::Insert(std::uint64_t id, std::string_view s) {
  // Per-shard ids are assigned (and replayed) in ascending order, so a
  // duplicate delivery — a retry after a lost reply — is exactly an id that
  // is not past the current tail.
  if (!delta_ids_.empty() && id <= delta_ids_.back()) return false;
  delta_store_.Add(s);
  delta_ids_.push_back(id);
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
  const auto it = std::lower_bound(delta_ids_.begin(), delta_ids_.end(), id);
  if (it == delta_ids_.end() || *it != id) return false;
  const std::size_t j = static_cast<std::size_t>(it - delta_ids_.begin());
  if (delta_tombs_.empty()) {
    delta_tombs_.assign(TombstoneWords(delta_store_.size()), 0);
  }
  if (TestTombstone(delta_tombs_.data(), j)) return false;
  SetTombstone(delta_tombs_.data(), j);
  ++delta_dead_;
  return true;
}

void ShardReplica::DeltaScan(std::string_view query, double cap0,
                             std::size_t k, std::vector<NeighborResult>* hits,
                             std::uint64_t* computations,
                             std::uint64_t* abandons) const {
  hits->clear();
  *computations = 0;
  *abandons = 0;
  if (k == 0) return;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (std::size_t j = 0; j < delta_store_.size(); ++j) {
    if (!delta_tombs_.empty() && TestTombstone(delta_tombs_.data(), j)) {
      continue;
    }
    const double local =
        hits->size() < k ? kInf : hits->back().distance;
    const double cap = cap0 < local ? cap0 : local;
    const double d = distance_->DistanceBounded(query, delta_store_.view(j),
                                                cap);
    ++*computations;
    if (d >= cap) {
      ++*abandons;
      continue;
    }
    InsertNeighborTopK(*hits, k,
                       {static_cast<std::size_t>(delta_ids_[j]), d});
  }
}

SweepCompactResult ShardReplica::BeginRow(std::uint32_t qid,
                                          std::string_view query,
                                          const double* row,
                                          double seed_bound) {
  SweepSlot& slot = NewSlot(qid);
  slot.query.assign(query);
  // Tombstoned base slots go to +inf before the seed compaction, so the
  // row path can never admit a deleted prototype either — no protocol
  // change needed: the mask rides the shard's own state.
  const SweepSegment seg{base_, store_.size(), store_.lengths_data(),
                         table_view()};
  const SweepCompactResult out = SeedSegmentFromRow(
      *distance_, slot.query, seg, row, pivots_.size(), pivot_rank_.data(),
      base_dead_ > 0 ? tombs_.data() : nullptr, seed_bound, slot.idx.data(),
      slot.lower.data());
  slot.live = out.live;
  return out;
}

double ShardReplica::Eval(std::uint32_t qid, std::size_t global_id,
                          double cap) const {
  if (global_id < base_ || global_id - base_ >= store_.size()) {
    throw std::out_of_range("ShardReplica::Eval: id outside this shard");
  }
  const SweepSlot& slot = SlotOf(qid);
  return distance_->DistanceBounded(slot.query, store_.view(global_id - base_),
                                    cap);
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
