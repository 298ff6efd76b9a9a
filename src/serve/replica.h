#ifndef CNED_SERVE_REPLICA_H_
#define CNED_SERVE_REPLICA_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/mapped_file.h"
#include "datasets/prototype_store.h"
#include "distances/distance.h"
#include "search/nn_searcher.h"
#include "search/sweep_kernel.h"
#include "search/table_quant.h"

namespace cned {

/// The worker-process half of the distributed LAESA sweep: one shard's
/// prototypes, its slice of the pivot table, and that shard's segment of
/// the candidate slabs.
///
/// A replica is one segment of the in-process pivot-row sweep
/// (search/laesa_sweep.h) cut out and given its own state: `BeginRow` runs
/// the very seed stage the in-process sweep runs per shard
/// (`SeedSegmentFromRow`), every step the same dispatched kernels over the
/// same per-shard values (sweep_kernel.h), and the router merges its
/// `SweepCompactResult`s the way the in-process sweep merges its segment
/// passes — which is what makes a healthy served query bit-identical
/// (neighbours, distances AND QueryStats) to the in-process
/// `ComputePivotRow` + `KNearestWithPivotRow`. The lazy sweep runs only in
/// process.
///
/// Inserts are a second segment of the same sweep: each arrives with its
/// pivot-table column and becomes a slot of an f64 delta segment, which
/// `BeginRow` seeds behind the base. Slot j of shard s is global id
/// n + s + S·j, above every base id, so `StepRow` needs no change.
///
/// Multiplexing: sweep state lives in per-query slots keyed by the frame
/// layer's query id, so one replica serves any number of interleaved
/// sweeps over a single connection. Each slot is an independent copy of
/// the segment slabs — a sweep's trajectory is a pure function of its own
/// (BeginRow, StepRow...) sequence, untouched by whatever other queries do in
/// between — which is exactly what keeps interleaved queries bit-identical
/// to running them back to back. Mutable-tier state (delta, tombstones) is
/// shared across slots; the router's writer lock guarantees mutations
/// never interleave with a sweep that has already begun.
///
/// Construction verifies both snapshot files' CRC footers with a full
/// `VerifySnapshotChecksum` pass before mapping them: a worker serving a
/// silently corrupted shard would poison every merged result, so the
/// serving tier pays the one sequential read up front.
class ShardReplica {
 public:
  /// Maps shard files written by `SaveServingSnapshot`. Throws
  /// std::runtime_error on checksum or validation failure, or when the two
  /// files disagree about the deployment shape; std::length_error when the
  /// header's total prototype count exceeds kMaxSweepPrototypes.
  ShardReplica(const std::string& store_path, const std::string& index_path,
               const std::string& distance_name);

  std::size_t shard_id() const { return shard_id_; }
  std::size_t num_pivots() const { return pivots_.size(); }

  /// Hard cap on concurrent sweep slots per replica: a BeginRow past it
  /// throws (the worker answers kError) instead of letting a router that
  /// leaks query ids grow the worker without bound.
  static constexpr std::size_t kMaxSweeps = 4096;

  /// Retires `qid`'s slot. Idempotent — the router's end-of-sweep frame is
  /// fire-and-forget, so a duplicate or a never-begun id is a no-op.
  void EndSweep(std::uint32_t qid);

  /// --- Live mutability (mutable tier ops, replicated by the router). ----

  /// Appends one prototype to this shard's delta under its router-assigned
  /// global id, with its pivot-table column (`column[p]` = d(pivot p, s)).
  /// Idempotent: ids arrive in slot order, so a re-sent id is ignored.
  /// Returns true when newly applied. Throws, changing nothing, unless the
  /// column has num_pivots() entries and the id is this shard's next (or an
  /// earlier) slot below kMaxSweepPrototypes.
  bool Insert(std::uint64_t id, std::string_view s, const double* column,
              std::size_t column_size);

  /// Tombstones a global id in this shard's base segment or delta.
  /// Idempotent; returns true when newly applied, false for unknown or
  /// already-dead ids.
  bool Remove(std::uint64_t id);

  std::size_t delta_count() const { return delta_store_.size(); }
  std::size_t total_dead() const { return base_dead_ + delta_dead_; }

  /// Starts a row sweep in `qid`'s slot: the shared seed stage
  /// `SeedSegmentFromRow` (length bounds, every pivot row applied dense,
  /// the segment's tombstones, then the seed compaction against
  /// `seed_bound`) over the base, then the delta packed behind it.
  /// Returns the slot's compact result over both.
  SweepCompactResult BeginRow(std::uint32_t qid, std::string_view query,
                              const double* row, double seed_bound);

  /// d(slot query, prototype at global id) bounded by `cap` — the
  /// scattered form of the sweep's visit evaluation. Pure (idempotent):
  /// safe for the router to retry. Throws std::out_of_range for an id
  /// this shard does not hold or an unknown qid.
  double Eval(std::uint32_t qid, std::size_t global_id, double cap) const;

  /// One row-sweep visit pass on `qid`'s slot: eliminate-and-compact
  /// against `bound`, dropping `skip` (the visited candidate). Mutates slot
  /// state — not idempotent. Throws std::out_of_range for an unknown qid.
  SweepCompactResult StepRow(std::uint32_t qid, std::uint32_t skip,
                             double bound);

 private:
  std::size_t shard_id_ = 0;
  std::size_t base_ = 0;
  std::size_t n_total_ = 0;
  std::size_t shard_count_ = 0;

  /// The any-precision view of the mapped table slice (table_quant.h). The
  /// row meta is the GLOBAL per-row meta the build computed, so a worker's
  /// bounds match the in-process sharded index bit for bit.
  QuantTableView table_view() const {
    QuantTableView view;
    view.precision = precision_;
    if (precision_ == TablePrecision::kF64) {
      view.f64 = table_;
    } else {
      view.q = qtable_;
      view.rows = row_meta_;
    }
    return view;
  }

  PrototypeStore store_;  // mapped shard store
  StringDistancePtr distance_;
  std::vector<std::size_t> pivots_;       // global pivot ids
  std::vector<std::int32_t> pivot_rank_;  // global id -> ordinal or -1
  TablePrecision precision_ = TablePrecision::kF64;
  const double* table_ = nullptr;         // row-major np x n_s, mapped (f64)
  const void* qtable_ = nullptr;          // quantized codes, mapped (v2)
  const QuantRowMeta* row_meta_ = nullptr;  // global per-row meta, mapped
  std::shared_ptr<MappedFile> index_mapping_;

  /// One in-flight sweep: this query's private copy of the segment slabs.
  struct SweepSlot {
    std::string query;
    AlignedBuffer<std::uint32_t> idx;
    AlignedBuffer<double> lower;
    std::size_t live = 0;
  };
  SweepSlot& NewSlot(std::uint32_t qid);
  std::string_view ViewOf(std::size_t global_id) const;  // see Eval
  std::size_t DeltaId(std::size_t j) const {
    return n_total_ + shard_id_ + shard_count_ * j;
  }
  /// The delta slot of `id`; false when it is not this shard's insert id.
  bool DeltaSlot(std::uint64_t id, std::size_t* j) const;
  SweepSlot& SlotOf(std::uint32_t qid);
  const SweepSlot& SlotOf(std::uint32_t qid) const;

  std::unordered_map<std::uint32_t, std::unique_ptr<SweepSlot>> sweeps_;

  // Mutable-tier state, process-local (rebuilt by the router's op-journal
  // replay when a replica respawns). Tombstone bitmaps are allocated on
  // first use; empty means no deletes.
  std::vector<std::uint64_t> tombs_;  // over base slots
  std::size_t base_dead_ = 0;
  PrototypeStore delta_store_;  // owned, appendable; slot j = DeltaId(j)
  std::vector<double> delta_table_;  // row p at p * delta_count()
  std::vector<std::uint64_t> delta_tombs_;  // over delta slots
  std::size_t delta_dead_ = 0;
};

}  // namespace cned

#endif  // CNED_SERVE_REPLICA_H_
