// Tests for the live-mutability tier (search/mutable_laesa.h): the
// differential contract (any interleaving of insert/remove/query returns
// exactly what a from-scratch rebuild over the live set returns), tombstone
// masking at every table precision and kernel variant, replay determinism
// (stats included), background merges with epoch-swapped snapshots, and
// concurrent mutate-while-search safety (the TSan job runs this file).

#include "search/mutable_laesa.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "datasets/dictionary_gen.h"
#include "datasets/perturb.h"
#include "distances/registry.h"
#include "search/batch_engine.h"
#include "search/nn_searcher.h"
#include "search/sweep_kernel.h"
#include "search/table_quant.h"
#include "tests/snapshot_test_util.h"
#include "tests/test_util.h"

namespace cned {
namespace {

constexpr TablePrecision kAllPrecisions[] = {
    TablePrecision::kF64, TablePrecision::kF32, TablePrecision::kF16,
    TablePrecision::kU8};

/// Restores the startup-active kernel variant when a test is done forcing.
class KernelGuard {
 public:
  KernelGuard() : saved_(ActiveSweepKernels().name) {}
  ~KernelGuard() { SetActiveSweepKernels(saved_); }

 private:
  std::string saved_;
};

/// The brute-force oracle: the live set as (stable id -> string), searched
/// exhaustively with full distances and the global (distance, id) order.
class Model {
 public:
  void Insert(std::uint64_t id, std::string s) { live_[id] = std::move(s); }
  bool Remove(std::uint64_t id) { return live_.erase(id) > 0; }
  std::size_t size() const { return live_.size(); }
  const std::map<std::uint64_t, std::string>& live() const { return live_; }

  std::vector<NeighborResult> KNearest(const StringDistance& dist,
                                       std::string_view q,
                                       std::size_t k) const {
    std::vector<NeighborResult> all;
    all.reserve(live_.size());
    for (const auto& [id, s] : live_) {
      all.push_back({static_cast<std::size_t>(id), dist.Distance(q, s)});
    }
    std::sort(all.begin(), all.end(), NeighborLess);
    if (all.size() > k) all.resize(k);
    return all;
  }

 private:
  std::map<std::uint64_t, std::string> live_;
};

Model ModelFromBase(const std::vector<std::string>& base) {
  Model m;
  for (std::size_t i = 0; i < base.size(); ++i) m.Insert(i, base[i]);
  return m;
}

// The exactness contract an admissible pruner can (and must) honour: the
// distance profile equals the brute-force oracle's rank for rank, every
// returned id is live with its reported distance exactly the true distance,
// and no id repeats. Equal-distance tie *winners* follow the sweep's
// visiting order (as everywhere else in the repo — an equal-distance
// candidate may be eliminated by its lower bound without evaluation), so
// ids are pinned per rank only where the oracle's distances are unique.
void ExpectMatchesOracle(const MutableLaesa& index, const Model& model,
                         const StringDistance& dist,
                         const std::vector<std::string>& queries,
                         std::size_t k, const std::string& ctx) {
  for (const std::string& q : queries) {
    const auto got = index.KNearest(q, k);
    // One extra oracle rank: a distance tie spanning the k boundary makes
    // the last in-window winner ambiguous too.
    const auto want = model.KNearest(dist, q, k + 1);
    ASSERT_EQ(got.size(), std::min(k, want.size()))
        << ctx << " query '" << q << "'";
    std::vector<std::size_t> seen_ids;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].distance, want[i].distance)
          << ctx << " query '" << q << "' rank " << i;
      const auto it = model.live().find(got[i].index);
      ASSERT_NE(it, model.live().end())
          << ctx << " query '" << q << "' rank " << i
          << " returned dead/unknown id " << got[i].index;
      EXPECT_EQ(got[i].distance, dist.Distance(q, it->second))
          << ctx << " query '" << q << "' rank " << i;
      EXPECT_EQ(std::count(seen_ids.begin(), seen_ids.end(), got[i].index), 0)
          << ctx << " duplicate id " << got[i].index;
      seen_ids.push_back(got[i].index);
      const bool unique_rank =
          (i == 0 || want[i].distance != want[i - 1].distance) &&
          (i + 1 >= want.size() || want[i].distance != want[i + 1].distance);
      if (unique_rank) {
        EXPECT_EQ(got[i].index, want[i].index)
            << ctx << " query '" << q << "' rank " << i;
      }
    }
  }
}

// --- The differential anchor: interleavings vs rebuild, replay twins ------

TEST(MutableLaesaTest, InterleavedOpsMatchOracleAndReplayBitIdentical) {
  const auto base = Words(120, 71001);
  auto dist = MakeDistance("dE");
  MutableLaesa a(base, dist);
  MutableLaesa twin(base, dist);  // replays the identical op sequence
  Model model = ModelFromBase(base);

  Rng rng(71002);
  auto queries = MakeQueries(base, 10, 2, Alphabet::Latin(), rng);

  for (int round = 0; round < 6; ++round) {
    // A batch of inserts (perturbed words, so distances are interesting)...
    for (int i = 0; i < 8; ++i) {
      const std::string s =
          base[rng.Index(base.size())] + std::to_string(round * 8 + i);
      const std::uint64_t id = a.Insert(s);
      ASSERT_EQ(twin.Insert(s), id);
      model.Insert(id, s);
    }
    // ...a batch of removes over the whole live id range (base and delta)...
    for (int i = 0; i < 5 && model.size() > 20; ++i) {
      auto it = model.live().begin();
      std::advance(it, rng.Index(model.size()));
      const std::uint64_t victim = it->first;
      ASSERT_TRUE(a.Remove(victim)) << victim;
      ASSERT_TRUE(twin.Remove(victim));
      model.Remove(victim);
    }
    // ...a mid-script merge, applied to both twins identically...
    if (round == 3) {
      ASSERT_TRUE(a.MergeNow());
      ASSERT_TRUE(twin.MergeNow());
      EXPECT_EQ(a.delta_size(), 0u);
      EXPECT_EQ(a.tombstone_count(), 0u);
    }
    // ...then every query must equal the from-scratch answer, and the twin
    // must agree bit for bit, QueryStats included (replay determinism).
    ExpectMatchesOracle(a, model, *dist, queries, 5,
                        "round " + std::to_string(round));
    for (const std::string& q : queries) {
      QueryStats sa, st;
      const auto ra = a.KNearest(q, 5, &sa);
      const auto rt = twin.KNearest(q, 5, &st);
      ASSERT_EQ(ra.size(), rt.size());
      for (std::size_t i = 0; i < ra.size(); ++i) {
        EXPECT_EQ(ra[i].index, rt[i].index);
        EXPECT_EQ(ra[i].distance, rt[i].distance);
      }
      EXPECT_TRUE(sa == st)
          << "round " << round << ": twins diverged on stats ("
          << sa.distance_computations << " vs " << st.distance_computations
          << " computations)";
    }
    EXPECT_EQ(a.size(), model.size());
    EXPECT_EQ(a.epoch(), twin.epoch());
  }
}

// --- Tombstone masking across precisions and kernel variants --------------

TEST(MutableLaesaTest, RemovedIdsNeverSurfaceAtAnyPrecisionOrKernel) {
  const auto words = Words(140, 71003);
  auto dist = MakeDistance("dE");
  Rng rng(71004);
  const auto queries = MakeQueries(words, 8, 2, Alphabet::Latin(), rng);
  // Id 0 is the base index's first pivot — the masking must hold even when
  // the deleted prototype anchors the pivot table.
  const std::vector<std::uint64_t> removals = {0, 1, 17, 50, 99, 139};

  KernelGuard guard;
  for (const TablePrecision precision : kAllPrecisions) {
    MutableLaesa::Options opt;
    opt.table_precision = precision;
    MutableLaesa index(words, dist, opt);
    Model model = ModelFromBase(words);
    for (const std::uint64_t id : removals) {
      ASSERT_TRUE(index.Remove(id));
      model.Remove(id);
    }
    for (const SweepKernels* kern : AvailableSweepKernels()) {
      ASSERT_TRUE(SetActiveSweepKernels(kern->name));
      const std::string ctx = std::string("precision ") +
                              std::to_string(static_cast<int>(precision)) +
                              " kernel " + kern->name;
      for (const std::string& q : queries) {
        const auto knn = index.KNearest(q, 4);
        for (const auto& nr : knn) {
          for (const std::uint64_t id : removals) {
            EXPECT_NE(nr.index, static_cast<std::size_t>(id)) << ctx;
          }
        }
      }
      ExpectMatchesOracle(index, model, *dist, queries, 4, ctx);
    }
  }
}

// --- The delta's own LAESA regime -----------------------------------------

TEST(MutableLaesaTest, DeltaIndexRegimeStaysExactWithDeletes) {
  auto dist = MakeDistance("dE");
  MutableLaesa::Options opt;
  MutableLaesa index(dist, opt);  // starts empty: everything lives in delta
  Model model;

  const auto words = Words(60, 71005);
  for (std::size_t i = 0; i < words.size(); ++i) {
    const std::uint64_t id = index.Insert(words[i]);
    model.Insert(id, words[i]);
  }
  ASSERT_GE(index.delta_size(), 16u);
  // Remove a spread that includes the delta index's own pivots (slots 0..2).
  for (const std::uint64_t id : {0ull, 1ull, 2ull, 20ull, 41ull, 59ull}) {
    ASSERT_TRUE(index.Remove(id));
    model.Remove(id);
  }
  Rng rng(71006);
  const auto queries = MakeQueries(words, 12, 2, Alphabet::Latin(), rng);
  ExpectMatchesOracle(index, model, *dist, queries, 5, "delta-laesa");
}

// --- Inserts are pivot-table columns of the delta segment ----------------

TEST(MutableLaesaTest, InsertsBeyondEveryKthNeighbourCostNoEvaluation) {
  // An insert pays its pivot distances once; the base pivot rows the
  // sweep visits then bound it like any base prototype. Inserts whose
  // length bound lies beyond every query's k-th neighbour are eliminated
  // without being evaluated: answers AND QueryStats equal those before the
  // inserts, at every table precision.
  const auto base = Words(150, 71020);
  auto dist = MakeDistance("dE");
  Rng rng(71021);
  const auto queries = MakeQueries(base, 10, 2, Alphabet::Latin(), rng);
  for (const TablePrecision precision : kAllPrecisions) {
    MutableLaesa::Options opt;
    opt.table_precision = precision;
    MutableLaesa index(base, dist, opt);
    std::vector<std::vector<NeighborResult>> before;
    std::vector<QueryStats> before_stats(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      before.push_back(index.KNearest(queries[i], 5, &before_stats[i]));
    }
    for (int i = 0; i < 20; ++i) {
      std::string s(80, 'a');
      for (char& c : s) c = static_cast<char>('a' + rng.Index(26));
      index.Insert(s);
    }
    ASSERT_EQ(index.delta_size(), 20u);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      QueryStats st;
      const auto got = index.KNearest(queries[i], 5, &st);
      ASSERT_EQ(got.size(), before[i].size());
      for (std::size_t r = 0; r < got.size(); ++r) {
        EXPECT_EQ(got[r].index, before[i][r].index) << queries[i];
        EXPECT_EQ(got[r].distance, before[i][r].distance) << queries[i];
      }
      EXPECT_TRUE(st == before_stats[i])
          << queries[i] << ": " << st.distance_computations << " vs "
          << before_stats[i].distance_computations << " computations";
    }
  }
}

// --- Merges: rewrite, snapshot durability, from-scratch bit-identity ------

TEST(MutableLaesaTest, MergeToSnapshotAndServeMapped) {
  const auto base = Words(100, 71007);
  auto dist = MakeDistance("dE");
  MutableLaesa index(base, dist);
  Model model = ModelFromBase(base);

  Rng rng(71008);
  for (int i = 0; i < 20; ++i) {
    const std::string s = base[rng.Index(base.size())] + "+" +
                          std::to_string(i);
    model.Insert(index.Insert(s), s);
  }
  for (int i = 0; i < 15; ++i) {
    auto it = model.live().begin();
    std::advance(it, rng.Index(model.size()));
    ASSERT_TRUE(index.Remove(it->first));
    model.Remove(it->first);
  }

  TempDir dir;
  ASSERT_TRUE(index.MergeNow(dir.path));
  EXPECT_TRUE(index.merge_error().empty());
  EXPECT_EQ(index.delta_size(), 0u);
  EXPECT_EQ(index.tombstone_count(), 0u);
  EXPECT_EQ(index.size(), model.size());

  const auto queries = MakeQueries(base, 10, 2, Alphabet::Latin(), rng);
  ExpectMatchesOracle(index, model, *dist, queries, 5, "post-merge");

  // The merge output is complete files via temp + rename: both final names
  // exist, no *.tmp residue (what a crash mid-merge would have left — with
  // the previous snapshot still intact).
  EXPECT_TRUE(std::filesystem::exists(
      MutableLaesa::SnapshotStorePath(dir.path)));
  EXPECT_TRUE(std::filesystem::exists(
      MutableLaesa::SnapshotIndexPath(dir.path)));
  EXPECT_FALSE(std::filesystem::exists(
      MutableLaesa::SnapshotStorePath(dir.path) + ".tmp"));
  EXPECT_FALSE(std::filesystem::exists(
      MutableLaesa::SnapshotIndexPath(dir.path) + ".tmp"));

  // A snapshot instance serves the compacted world mapped zero-copy; its
  // fresh ids are positions in ascending old-id order.
  MutableLaesa mapped = MutableLaesa::FromSnapshot(dir.path, dist);
  EXPECT_EQ(mapped.size(), model.size());
  std::vector<std::uint64_t> old_ids;
  for (const auto& [id, s] : model.live()) old_ids.push_back(id);
  for (const std::string& q : queries) {
    const auto got = mapped.KNearest(q, 5);
    const auto want = model.KNearest(*dist, q, 5);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].distance, want[i].distance) << q << " rank " << i;
      // Fresh ids are positions in ascending-old-id order: the string
      // behind each hit must be the live string it maps to.
      ASSERT_LT(got[i].index, old_ids.size());
      EXPECT_EQ(mapped.GetString(got[i].index),
                model.live().at(old_ids[got[i].index]))
          << q << " rank " << i;
    }
  }

  // Tombstone masking must work against the *mapped* base too: the mask
  // pass writes +inf into the dequantized lower-bound slab, never into the
  // file-backed table.
  Model mapped_model;
  for (std::size_t i = 0; i < old_ids.size(); ++i) {
    mapped_model.Insert(i, model.live().at(old_ids[i]));
  }
  for (const std::uint64_t id : {std::uint64_t{0}, std::uint64_t{9},
                                 std::uint64_t{old_ids.size() - 1}}) {
    ASSERT_TRUE(mapped.Remove(id));
    mapped_model.Remove(id);
  }
  ExpectMatchesOracle(mapped, mapped_model, *dist, queries, 5,
                      "masked mapped");
  // The snapshot on disk is untouched by the in-memory tombstones.
  MutableLaesa remapped = MutableLaesa::FromSnapshot(dir.path, dist);
  EXPECT_EQ(remapped.size(), old_ids.size());
}

TEST(MutableLaesaTest, MergedIndexIsBitIdenticalToFromScratchBuild) {
  const auto base = Words(110, 71009);
  auto dist = MakeDistance("dE");
  MutableLaesa index(base, dist);
  Model model = ModelFromBase(base);

  Rng rng(71010);
  for (int i = 0; i < 25; ++i) {
    const std::string s = base[rng.Index(base.size())] + "~" +
                          std::to_string(i);
    model.Insert(index.Insert(s), s);
  }
  for (const std::uint64_t id : {3ull, 7ull, 64ull, 112ull, 130ull}) {
    ASSERT_TRUE(index.Remove(id));
    model.Remove(id);
  }
  ASSERT_TRUE(index.MergeNow());

  // Rebuild from scratch over the live set in ascending-id order: the
  // merged index must agree bit for bit — neighbours, distances AND stats
  // (the merge writes live entries in exactly that order, so both indexes
  // see the same store and pick the same pivots).
  std::vector<std::string> live_strings;
  std::vector<std::uint64_t> old_ids;
  for (const auto& [id, s] : model.live()) {
    old_ids.push_back(id);
    live_strings.push_back(s);
  }
  MutableLaesa fresh(live_strings, dist);

  const auto queries = MakeQueries(base, 12, 2, Alphabet::Latin(), rng);
  for (const std::string& q : queries) {
    QueryStats sm, sf;
    const auto rm = index.KNearest(q, 5, &sm);
    const auto rf = fresh.KNearest(q, 5, &sf);
    ASSERT_EQ(rm.size(), rf.size()) << q;
    for (std::size_t i = 0; i < rm.size(); ++i) {
      // fresh ids are positions; merged ids are the surviving stable ids.
      EXPECT_EQ(rm[i].index, old_ids[rf[i].index]) << q << " rank " << i;
      EXPECT_EQ(rm[i].distance, rf[i].distance) << q << " rank " << i;
    }
    EXPECT_TRUE(sm == sf) << q << ": merged vs from-scratch stats diverged";
  }
}

TEST(MutableLaesaTest, BackgroundMergeServesEveryQueryDuringSwap) {
  const auto base = Words(150, 71011);
  auto dist = MakeDistance("dE");
  MutableLaesa index(base, dist);
  Model model = ModelFromBase(base);

  Rng rng(71012);
  for (int i = 0; i < 30; ++i) {
    const std::string s = base[rng.Index(base.size())] + "#" +
                          std::to_string(i);
    model.Insert(index.Insert(s), s);
  }
  for (int i = 0; i < 20; ++i) {
    auto it = model.live().begin();
    std::advance(it, rng.Index(model.size()));
    ASSERT_TRUE(index.Remove(it->first));
    model.Remove(it->first);
  }

  // The live set is now frozen; precompute the exact answers, then hammer
  // the index from reader threads across the whole background merge. Every
  // single query — before, during, and after the epoch swap — must return
  // exactly the oracle answer: zero failed or degraded queries.
  const auto queries = MakeQueries(base, 15, 2, Alphabet::Latin(), rng);
  std::vector<std::vector<NeighborResult>> expected;
  for (const auto& q : queries) expected.push_back(model.KNearest(*dist, q, 4));
  std::vector<bool> is_live(index.next_id(), false);
  for (const auto& [id, s] : model.live()) is_live[id] = true;

  const std::uint64_t epoch_before = index.epoch();
  std::atomic<bool> done{false};
  std::atomic<std::size_t> failures{0};
  std::atomic<std::size_t> served{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      std::size_t i = t;
      while (!done.load(std::memory_order_relaxed)) {
        const auto& q = queries[i % queries.size()];
        const auto& want = expected[i % queries.size()];
        try {
          const auto got = index.KNearest(q, 4);
          if (got.size() != want.size()) {
            failures.fetch_add(1);
          } else {
            // The merge swap renumbers nothing and drops nothing: every
            // answer has the exact oracle distance profile and only live
            // ids, whichever epoch the reader pinned. (Tie winners may
            // legitimately differ across the swap; distances cannot.)
            for (std::size_t r = 0; r < got.size(); ++r) {
              if (got[r].distance != want[r].distance ||
                  got[r].index >= is_live.size() || !is_live[got[r].index]) {
                failures.fetch_add(1);
                break;
              }
            }
          }
        } catch (const std::exception&) {
          failures.fetch_add(1);
        }
        served.fetch_add(1);
        ++i;
      }
    });
  }
  ASSERT_TRUE(index.StartMerge());
  index.WaitMerge();
  done.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0u)
      << "of " << served.load() << " queries served across the merge";
  EXPECT_GT(served.load(), 0u);
  EXPECT_GT(index.epoch(), epoch_before);
  EXPECT_EQ(index.delta_size(), 0u);
  EXPECT_EQ(index.tombstone_count(), 0u);
  ExpectMatchesOracle(index, model, *dist, queries, 4, "after merge");
}

// --- Concurrent mutate-while-search (the TSan job's stress) ---------------

TEST(MutableLaesaStressTest, ConcurrentMutatorsAndReadersAreSafe) {
  const auto base = Words(80, 71013);
  auto dist = MakeDistance("dE");
  MutableLaesa index(base, dist);
  Rng qrng(71014);
  const auto queries = MakeQueries(base, 10, 2, Alphabet::Latin(), qrng);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> bad{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      std::size_t i = t;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto knn = index.KNearest(queries[i % queries.size()], 3);
        // The pinned-epoch guarantees that must hold under any interleaving
        // with the writer: results sorted by the global order, no duplicate
        // ids, every id one the index has actually assigned.
        for (std::size_t r = 0; r < knn.size(); ++r) {
          if (r > 0 && !NeighborLess(knn[r - 1], knn[r])) bad.fetch_add(1);
          if (knn[r].index >= index.next_id()) bad.fetch_add(1);
        }
        ++i;
      }
    });
  }

  Rng wrng(71015);
  for (int i = 0; i < 240; ++i) {
    if (i % 3 == 0 && index.size() > 40) {
      // Random removals racing the readers (misses are fine — the victim
      // may already be gone).
      index.Remove(wrng.Index(static_cast<std::size_t>(index.next_id())));
    } else {
      index.Insert(base[wrng.Index(base.size())] + "*" + std::to_string(i));
    }
    if (i % 60 == 59) index.MergeNow();
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(bad.load(), 0u);
}

// --- Batch engine + classification over the mutable tier ------------------

TEST(MutableLaesaTest, BatchEngineGenericPathMatchesSequential) {
  const auto base = Words(90, 71016);
  auto dist = MakeDistance("dE");
  MutableLaesa index(base, dist);
  Rng rng(71017);
  for (int i = 0; i < 15; ++i) {
    index.Insert(base[rng.Index(base.size())] + "!" + std::to_string(i));
  }
  for (const std::uint64_t id : {2ull, 30ull, 95ull}) {
    ASSERT_TRUE(index.Remove(id));
  }

  const auto queries = MakeQueries(base, 20, 2, Alphabet::Latin(), rng);
  QueryStats seq_stats;
  std::vector<NeighborResult> seq;
  for (const auto& q : queries) seq.push_back(index.Nearest(q, &seq_stats));

  BatchQueryEngine engine(index);
  QueryStats batch_stats;
  const auto batch = engine.Nearest(PrototypeStoreRef(queries), &batch_stats);
  ASSERT_EQ(batch.size(), seq.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].index, seq[i].index) << i;
    EXPECT_EQ(batch[i].distance, seq[i].distance) << i;
  }
  EXPECT_TRUE(batch_stats == seq_stats);
}

TEST(MutableLaesaTest, ClassifyUsesStableIdLabels) {
  const auto base = Words(60, 71018);
  auto dist = MakeDistance("dE");
  MutableLaesa index(base, dist);
  const std::uint64_t extra = index.Insert("zzz-unique-prototype");

  std::vector<int> labels(index.next_id());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<int>(i % 3);
  }
  const auto nn = index.Nearest("zzz-unique-prototype");
  EXPECT_EQ(nn.index, static_cast<std::size_t>(extra));
  EXPECT_EQ(index.Classify("zzz-unique-prototype", labels),
            labels[static_cast<std::size_t>(extra)]);
  // A label table that does not cover the nearest stable id is an error,
  // not an out-of-bounds read.
  EXPECT_THROW(index.Classify("zzz-unique-prototype", {}),
               std::invalid_argument);
}

// --- Edge cases -----------------------------------------------------------

TEST(MutableLaesaTest, EmptyAndExhaustedIndexBehave) {
  auto dist = MakeDistance("dE");
  MutableLaesa empty(dist);
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_TRUE(empty.KNearest("q", 3).empty());
  EXPECT_THROW(empty.Nearest("q"), std::out_of_range);
  EXPECT_FALSE(empty.Remove(0));
  EXPECT_FALSE(empty.MergeNow());  // nothing to merge

  MutableLaesa index(std::vector<std::string>{"aa", "ab", "ba"}, dist);
  EXPECT_TRUE(index.Contains(1));
  EXPECT_EQ(index.GetString(1), "ab");
  ASSERT_TRUE(index.Remove(1));
  EXPECT_FALSE(index.Remove(1));  // double remove
  EXPECT_FALSE(index.Contains(1));
  EXPECT_THROW(index.GetString(1), std::out_of_range);
  EXPECT_FALSE(index.Remove(99));  // unknown id

  // Remove everything: queries return nothing rather than a dead entry.
  ASSERT_TRUE(index.Remove(0));
  ASSERT_TRUE(index.Remove(2));
  EXPECT_EQ(index.size(), 0u);
  EXPECT_TRUE(index.KNearest("aa", 2).empty());
  EXPECT_THROW(index.Nearest("aa"), std::out_of_range);

  // Ids are never reused: a fresh insert continues the sequence and the
  // index serves again.
  const std::uint64_t id = index.Insert("ca");
  EXPECT_EQ(id, 3u);
  EXPECT_EQ(index.Nearest("ca").index, static_cast<std::size_t>(id));
  // k beyond the live count clamps to what exists.
  EXPECT_EQ(index.KNearest("ca", 100).size(), 1u);
}

}  // namespace
}  // namespace cned
