#ifndef CNED_SEARCH_MUTABLE_LAESA_H_
#define CNED_SEARCH_MUTABLE_LAESA_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "datasets/prototype_store.h"
#include "distances/distance.h"
#include "search/laesa.h"
#include "search/nn_searcher.h"
#include "search/table_quant.h"

namespace cned {

/// The live-mutability tier: an LSM-style mutable index in front of the
/// immutable LAESA machinery, so inserts and deletes land while queries are
/// in flight (the add/search + view() serving model of usearch, see
/// ROADMAP.md).
///
/// Structure — two segments behind one epoch-numbered immutable `State`,
/// swept as one two-segment layout of the shared LAESA sweep
/// (search/laesa_sweep.h):
///
///   * **base**: a frozen `PrototypeStore` + `Laesa` (owned or mapped from
///     a snapshot). Never rewritten in place; deletes set a bit in a
///     tombstone bitmap that the sweep masks *inside* its compaction, so a
///     deleted prototype can never surface as a neighbour at any
///     `table_precision`.
///   * **delta**: an appendable `PrototypeStore` holding everything
///     inserted since the last merge, with its own tombstone bitmap and
///     its own f64 pivot table — one column per base pivot, paid for by
///     `Insert` (num_pivots distance evaluations). The delta holds no
///     pivot; the base pivot rows the sweep visits tighten its candidates
///     exactly as they tighten the base's, so an insert far from every
///     query is eliminated without being evaluated.
///
/// Every prototype carries a stable 64-bit id, assigned monotonically by
/// `Insert` and never reused; results report ids, not slots. Base slots
/// are kept in ascending-id order, the delta always holds the newest ids,
/// and the sweep numbers the delta after the base — so sweep-id order is
/// stable-id order, and the sweep's (distance, id) tie rule is the
/// stable-id one. Distances are always exact; as everywhere in the LAESA
/// family, equal-distance tie *winners* follow the sweep's visiting order
/// (an admissible pruner may eliminate an equal-distance candidate by its
/// lower bound without ever evaluating it).
///
/// Concurrency — single-writer, lock-free readers: mutators serialize on an
/// internal mutex, build a fresh `State` (copy-on-write of only the parts
/// they touch) and publish it with `std::atomic_store` on the shared_ptr.
/// Readers pin the current state with `std::atomic_load` and keep their
/// pinned segments for the whole query, so a concurrent publish (or a
/// background merge's epoch swap) never invalidates an in-flight query and
/// no query ever fails during a swap. Readers never block writers and vice
/// versa.
///
/// Background merge — `StartMerge` pins the current epoch and rewrites
/// base+delta (minus tombstones) into a fresh base on a background thread,
/// then swaps it in: entries removed *during* the merge become tombstones
/// on the new base, entries inserted during it stay in the (re-packed)
/// delta, their columns recomputed against the new base's pivots. With a
/// snapshot directory the merge output goes through temp-file + rename, so
/// a crash mid-merge leaves the previous snapshot fully valid — the only
/// residue is a stale `*.tmp` pair.
///
/// Differential contract: at every point, Nearest/KNearest return exactly
/// the distance profile a from-scratch rebuild over the live set would
/// return (and the same neighbours wherever distances are unique); two
/// instances fed the identical op sequence agree bit for bit, QueryStats
/// included; and after a merge the index is bit-identical — stats included
/// — to one built from the live set directly (tests/mutable_laesa_test.cc).
class MutableLaesa final : public NearestNeighborSearcher {
 public:
  struct Options {
    // Explicit ctor instead of member initializers: the defaults must be
    // usable in this class's own default arguments (GCC defers NSDMIs of a
    // nested class past the enclosing class's end).
    Options()
        : num_pivots(8), table_precision(DefaultTablePrecision()) {}
    /// Pivots for the base index (built by the ctor and by every merge).
    std::size_t num_pivots;
    /// Pivot-table storage precision of the base index (the delta's
    /// columns are always f64).
    TablePrecision table_precision;
  };

  /// Starts empty (delta only until the first merge).
  explicit MutableLaesa(StringDistancePtr distance, Options options = Options());

  /// Starts from a frozen base set; ids 0..base.size()-1 in order.
  MutableLaesa(const std::vector<std::string>& base,
               StringDistancePtr distance, Options options = Options());

  /// Serves a snapshot written by a merge (`StartMerge(dir)`): maps the
  /// store and index zero-copy. Ids restart at 0..n-1 — the snapshot is a
  /// compacted world, stable within the new instance's lifetime.
  static MutableLaesa FromSnapshot(const std::string& dir,
                                   StringDistancePtr distance,
                                   Options options = Options());

  ~MutableLaesa() override;

  MutableLaesa(const MutableLaesa&) = delete;
  MutableLaesa& operator=(const MutableLaesa&) = delete;

  /// Appends one prototype; returns its stable id. Costs one distance
  /// evaluation per base pivot (its pivot-table column) plus an
  /// O(num_pivots x delta) copy-on-write — the background merge is what
  /// keeps the delta (and thus this cost) bounded. Throws std::length_error
  /// (changing nothing) when base + delta would pass kMaxSweepPrototypes.
  std::uint64_t Insert(std::string_view s);

  /// Tombstones `id`. Returns false when the id is unknown or already
  /// removed. O(bitmap words).
  bool Remove(std::uint64_t id);

  /// True when `id` is present and live.
  bool Contains(std::uint64_t id) const;

  /// The live string behind `id`; throws std::out_of_range when unknown or
  /// removed. (Copies: the pinned segment may be swapped out by a merge
  /// after return.)
  std::string GetString(std::uint64_t id) const;

  /// Live prototypes (inserted and not removed).
  std::size_t size() const override;
  /// The next id `Insert` would assign (== total ever inserted + base).
  std::uint64_t next_id() const;
  /// Publish counter: bumps on every mutation and every merge swap.
  std::uint64_t epoch() const;
  std::size_t delta_size() const;       ///< live delta entries
  std::size_t tombstone_count() const;  ///< dead entries not yet merged out

  /// Nearest live prototype by stable id; throws std::out_of_range when
  /// the index is empty. Safe to call concurrently with mutators.
  NeighborResult Nearest(std::string_view query,
                         QueryStats* stats = nullptr) const override;

  /// The k nearest live prototypes, closest first; exact distances, tie
  /// winners in the sweep's (bound, id) visiting order.
  std::vector<NeighborResult> KNearest(
      std::string_view query, std::size_t k,
      QueryStats* stats = nullptr) const override;

  /// 1-NN classification over the live set. `labels_by_id` is indexed by
  /// stable id (the mutable-tier analogue of BatchQueryEngine::Classify's
  /// slot-indexed labels); throws std::invalid_argument when the nearest
  /// id is not covered.
  int Classify(std::string_view query, const std::vector<int>& labels_by_id,
               QueryStats* stats = nullptr) const;

  /// Kicks off a background merge of the current delta+tombstones into a
  /// fresh base. Returns false when a merge is already running (or reaped
  /// by WaitMerge yet), or when there is nothing to merge. With a
  /// non-empty `snapshot_dir` the merged store+index are also written
  /// there (temp-file + rename) and the new base serves mapped from those
  /// files.
  bool StartMerge(const std::string& snapshot_dir = std::string());

  /// Joins the background merge if one is running or finished-unreaped.
  void WaitMerge();

  /// StartMerge + WaitMerge. Returns false when there was nothing to do.
  bool MergeNow(const std::string& snapshot_dir = std::string());

  /// Non-empty after a merge that failed (snapshot I/O error); the state
  /// is then unchanged. Cleared by the next successful merge.
  std::string merge_error() const;

  static std::string SnapshotStorePath(const std::string& dir);
  static std::string SnapshotIndexPath(const std::string& dir);

 private:
  // FromSnapshot builds in-place through this tag (the class holds a mutex,
  // so it is immovable; C++17 prvalue return elides the copy).
  struct SnapshotTag {};
  MutableLaesa(SnapshotTag, const std::string& dir, StringDistancePtr distance,
               Options options);

  /// One frozen segment: slots 0..count-1, ids ascending, optional
  /// tombstone bitmap (null = no deletes yet).
  struct Segment {
    std::shared_ptr<const PrototypeStore> store;
    std::shared_ptr<const std::vector<std::uint64_t>> ids;
    std::shared_ptr<const std::vector<std::uint64_t>> tombs;
    std::size_t dead = 0;
    std::size_t count() const { return store ? store->size() : 0; }
    std::size_t live() const { return count() - dead; }
    const std::uint64_t* tomb_bits() const {
      return dead > 0 ? tombs->data() : nullptr;
    }
  };

  /// The immutable world a reader pins. Everything reachable from here is
  /// frozen; mutators publish whole new States.
  struct State {
    Segment base;
    std::shared_ptr<const Laesa> base_index;  // null iff base empty
    Segment delta;
    /// Row-major num_pivots x delta.count(): row p holds d(base pivot p,
    /// delta slot j) at p * delta.count() + j. Empty without a base.
    std::shared_ptr<const std::vector<double>> delta_table;
    std::uint64_t next_id = 0;
    std::uint64_t epoch = 0;
  };

  /// The pinned state as a two-segment layout of the shared sweep.
  struct SweepLayout;

  std::shared_ptr<const State> Pin() const {
    return std::atomic_load(&state_);
  }
  void Publish(std::shared_ptr<const State> next) {
    std::atomic_store(&state_,
                      std::shared_ptr<const State>(std::move(next)));
  }

  void MergeBody(std::shared_ptr<const State> pinned, std::string dir);

  StringDistancePtr distance_;
  Options options_;
  std::shared_ptr<const State> state_;  // accessed via atomic_load/store

  /// Serializes mutators and merge bookkeeping; never held while querying.
  mutable std::mutex write_mu_;
  std::thread merge_thread_;
  bool merging_ = false;
  std::string merge_error_;
};

}  // namespace cned

#endif  // CNED_SEARCH_MUTABLE_LAESA_H_
