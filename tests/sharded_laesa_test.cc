// ShardedLaesa contracts: the sharded execution is the *same* LAESA sweep
// as the flat single-store index — neighbours, distances and QueryStats
// must be bit-identical for every registered distance (metric or not) and
// every shard count — and the batch engine's two-stage pivot pipeline must
// be bit-identical to its sequential per-query reference
// (ComputePivotRow + *WithPivotRow).

#include "search/sharded_laesa.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "common/rng.h"
#include "datasets/dictionary_gen.h"
#include "datasets/perturb.h"
#include "datasets/prototype_store.h"
#include "datasets/sharded_prototype_store.h"
#include "distances/registry.h"
#include "search/batch_engine.h"
#include "search/exhaustive.h"
#include "search/laesa.h"
#include "tests/pivot_table_reference.h"
#include "tests/test_util.h"

namespace cned {
namespace {

struct Workload {
  std::vector<std::string> protos;
  std::vector<std::string> queries;
};

Workload MakeWorkload(std::size_t words, std::size_t queries,
                      std::uint64_t seed) {
  DictionaryOptions opt;
  opt.word_count = words;
  opt.seed = seed;
  Workload w;
  w.protos = GenerateDictionary(opt).strings;
  Rng rng(seed + 1);
  w.queries = MakeQueries(w.protos, queries, 2, Alphabet::Latin(), rng);
  return w;
}

const std::size_t kShardCounts[] = {1, 2, 4, 8};

// Small sizes: the suite runs the cubic dC / dMV kernels too.
TEST(ShardedLaesaTest, BitIdenticalToFlatForEveryDistance) {
  Workload w = MakeWorkload(60, 15, 5100);
  PrototypeStore flat_store(w.protos);
  for (const auto& name : AllDistanceNames()) {
    auto dist = MakeDistance(name);
    Laesa flat(flat_store, dist, 8);
    for (std::size_t shards : kShardCounts) {
      ShardedPrototypeStore store(w.protos, shards);
      ShardedLaesa sharded(store, dist, 8);
      ASSERT_EQ(sharded.pivots(), flat.pivots()) << name << " S=" << shards;
      for (const auto& q : w.queries) {
        QueryStats fs, ss;
        const NeighborResult a = flat.Nearest(q, &fs);
        const NeighborResult b = sharded.Nearest(q, &ss);
        EXPECT_EQ(a.index, b.index) << name << " S=" << shards << " q=" << q;
        EXPECT_EQ(a.distance, b.distance) << name << " S=" << shards;
        EXPECT_TRUE(fs == ss)
            << name << " S=" << shards << " q=" << q << ": flat ("
            << fs.distance_computations << ", " << fs.bounded_abandons << ", "
            << fs.pivot_computations << ") != sharded ("
            << ss.distance_computations << ", " << ss.bounded_abandons << ", "
            << ss.pivot_computations << ")";

        QueryStats fk, sk;
        const auto ka = flat.KNearest(q, 5, &fk);
        const auto kb = sharded.KNearest(q, 5, &sk);
        ASSERT_EQ(ka.size(), kb.size()) << name << " S=" << shards;
        for (std::size_t i = 0; i < ka.size(); ++i) {
          EXPECT_EQ(ka[i].index, kb[i].index) << name << " S=" << shards;
          EXPECT_EQ(ka[i].distance, kb[i].distance) << name << " S=" << shards;
        }
        EXPECT_TRUE(fk == sk) << name << " S=" << shards;
      }
    }
  }
}

// The fig3 dictionary workload shape at a realistic size, on the cheap
// kernels (the acceptance check for the sharded refactor).
TEST(ShardedLaesaTest, Fig3DictionaryWorkloadIdentity) {
  Workload w = MakeWorkload(500, 80, 5200);
  PrototypeStore flat_store(w.protos);
  for (const char* name : {"dE", "dYB", "dmax"}) {
    auto dist = MakeDistance(name);
    for (std::size_t pivots : {10u, 40u}) {
      Laesa flat(flat_store, dist, pivots);
      for (std::size_t shards : kShardCounts) {
        ShardedPrototypeStore store(w.protos, shards);
        ShardedLaesa sharded(store, dist, pivots);
        QueryStats fs, ss;
        for (const auto& q : w.queries) {
          const NeighborResult a = flat.Nearest(q, &fs);
          const NeighborResult b = sharded.Nearest(q, &ss);
          ASSERT_EQ(a.index, b.index)
              << name << " pivots=" << pivots << " S=" << shards;
          ASSERT_EQ(a.distance, b.distance);
        }
        EXPECT_TRUE(fs == ss) << name << " pivots=" << pivots
                              << " S=" << shards;
      }
    }
  }
}

TEST(ShardedLaesaTest, WithPivotRowMatchesFlatWithPivotRow) {
  Workload w = MakeWorkload(60, 12, 5300);
  PrototypeStore flat_store(w.protos);
  for (const auto& name : AllDistanceNames()) {
    auto dist = MakeDistance(name);
    Laesa flat(flat_store, dist, 6);
    for (std::size_t shards : {2u, 4u}) {
      ShardedPrototypeStore store(w.protos, shards);
      ShardedLaesa sharded(store, dist, 6);
      std::vector<double> row_a(flat.pivot_count());
      std::vector<double> row_b(sharded.pivot_count());
      for (const auto& q : w.queries) {
        QueryStats fs, ss;
        flat.ComputePivotRow(q, row_a.data(), &fs);
        sharded.ComputePivotRow(q, row_b.data(), &ss);
        ASSERT_EQ(row_a, row_b) << name;
        const NeighborResult a = flat.NearestWithPivotRow(q, row_a.data(), &fs);
        const NeighborResult b =
            sharded.NearestWithPivotRow(q, row_b.data(), &ss);
        EXPECT_EQ(a.index, b.index) << name << " S=" << shards;
        EXPECT_EQ(a.distance, b.distance) << name << " S=" << shards;
        EXPECT_TRUE(fs == ss) << name << " S=" << shards;

        const auto ka = flat.KNearestWithPivotRow(q, 4, row_a.data());
        const auto kb = sharded.KNearestWithPivotRow(q, 4, row_b.data());
        ASSERT_EQ(ka.size(), kb.size()) << name;
        for (std::size_t i = 0; i < ka.size(); ++i) {
          EXPECT_EQ(ka[i].index, kb[i].index) << name;
          EXPECT_EQ(ka[i].distance, kb[i].distance) << name;
        }
      }
    }
  }
}

TEST(ShardedLaesaTest, KNearestDistancesMatchExhaustive) {
  Workload w = MakeWorkload(250, 25, 5400);
  auto dist = MakeDistance("dE");
  ShardedPrototypeStore store(w.protos, 4);
  ShardedLaesa sharded(store, dist, 20);
  ExhaustiveSearch exact(w.protos, dist);
  for (const auto& q : w.queries) {
    for (std::size_t k : {1u, 3u, 7u}) {
      auto a = sharded.KNearest(q, k);
      auto b = exact.KNearest(q, k);
      ASSERT_EQ(a.size(), b.size()) << q;
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_NEAR(a[i].distance, b[i].distance, 1e-9)
            << "q=" << q << " k=" << k << " i=" << i;
      }
    }
  }
}

TEST(ShardedLaesaTest, PerShardStatsSumToMergedStats) {
  Workload w = MakeWorkload(300, 30, 5500);
  auto dist = MakeDistance("dYB");
  ShardedPrototypeStore store(w.protos, 4);
  ShardedLaesa sharded(store, dist, 12);
  for (const auto& q : w.queries) {
    QueryStats merged;
    std::vector<QueryStats> per_shard(sharded.shard_count());
    (void)sharded.Nearest(q, &merged, per_shard.data());
    QueryStats sum;
    for (const QueryStats& s : per_shard) sum += s;
    EXPECT_TRUE(sum == merged) << q;
  }
}

TEST(ShardedLaesaTest, EnginePivotStageMatchesSequentialReference) {
  Workload w = MakeWorkload(200, 0, 5600);
  Rng rng(5601);
  // Distinct query strings: stage deduplication is a no-op, so the merged
  // engine stats must equal the sequential two-stage sums exactly.
  auto queries_vec = MakeQueries(w.protos, 25, 3, Alphabet::Latin(), rng);
  std::sort(queries_vec.begin(), queries_vec.end());
  queries_vec.erase(std::unique(queries_vec.begin(), queries_vec.end()),
                    queries_vec.end());
  PrototypeStore queries(queries_vec);
  for (const char* name : {"dE", "dYB"}) {
    auto dist = MakeDistance(name);
    ShardedPrototypeStore store(w.protos, 4);
    ShardedLaesa sharded(store, dist, 10);

    QueryStats seq_stats;
    std::vector<double> row(sharded.pivot_count());
    std::vector<NeighborResult> sequential(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      sharded.ComputePivotRow(queries[i], row.data(), &seq_stats);
      sequential[i] =
          sharded.NearestWithPivotRow(queries[i], row.data(), &seq_stats);
    }

    for (std::size_t threads : {std::size_t{0}, std::size_t{1},
                                std::size_t{3}}) {
      BatchQueryEngine::Options opt;
      opt.threads = threads;
      opt.pivot_stage = true;
      BatchQueryEngine engine(sharded, opt);
      QueryStats batch_stats;
      auto batched = engine.Nearest(queries, &batch_stats);
      ASSERT_EQ(batched.size(), sequential.size()) << name;
      for (std::size_t i = 0; i < batched.size(); ++i) {
        EXPECT_EQ(batched[i].index, sequential[i].index)
            << name << " threads=" << threads << " q=" << i;
        EXPECT_EQ(batched[i].distance, sequential[i].distance) << name;
      }
      EXPECT_TRUE(batch_stats == seq_stats)
          << name << " threads=" << threads << ": batched ("
          << batch_stats.distance_computations << ", "
          << batch_stats.bounded_abandons << ", "
          << batch_stats.pivot_computations << ") != sequential ("
          << seq_stats.distance_computations << ", "
          << seq_stats.bounded_abandons << ", "
          << seq_stats.pivot_computations << ")";
    }
  }
}

TEST(ShardedLaesaTest, EnginePivotStageDeduplicatesRepeatedQueries) {
  Workload w = MakeWorkload(150, 0, 5700);
  Rng rng(5701);
  auto unique = MakeQueries(w.protos, 6, 2, Alphabet::Latin(), rng);
  PrototypeStore queries;
  for (std::size_t i = 0; i < 30; ++i) queries.Add(unique[i % unique.size()]);

  auto dist = MakeDistance("dE");
  ShardedPrototypeStore store(w.protos, 2);
  ShardedLaesa sharded(store, dist, 8);

  BatchQueryEngine::Options opt;
  opt.pivot_stage = true;
  BatchQueryEngine engine(sharded, opt);
  QueryStats stats;
  auto results = engine.Nearest(queries, &stats);

  // The stage runs once per *unique* query string.
  EXPECT_EQ(stats.pivot_computations, unique.size() * sharded.pivot_count());

  // Results still match the per-query reference.
  std::vector<double> row(sharded.pivot_count());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    sharded.ComputePivotRow(queries[i], row.data());
    const NeighborResult expect =
        sharded.NearestWithPivotRow(queries[i], row.data());
    EXPECT_EQ(results[i].index, expect.index) << i;
    EXPECT_EQ(results[i].distance, expect.distance) << i;
  }
}

TEST(ShardedLaesaTest, EngineShardStatsMatchDirectCalls) {
  Workload w = MakeWorkload(200, 20, 5800);
  auto dist = MakeDistance("dE");
  ShardedPrototypeStore store(w.protos, 4);
  ShardedLaesa sharded(store, dist, 10);
  PrototypeStore queries(w.queries);

  std::vector<QueryStats> expected(sharded.shard_count());
  for (const auto& q : w.queries) {
    (void)sharded.Nearest(q, nullptr, expected.data());
  }

  BatchQueryEngine engine(sharded);
  QueryStats merged;
  std::vector<QueryStats> shard_stats;
  (void)engine.Nearest(queries, &merged, &shard_stats);
  ASSERT_EQ(shard_stats.size(), expected.size());
  for (std::size_t s = 0; s < expected.size(); ++s) {
    EXPECT_TRUE(shard_stats[s] == expected[s]) << "shard " << s;
  }

  Laesa flat(PrototypeStore(w.protos), dist, 10);
  BatchQueryEngine flat_engine(flat);
  std::vector<QueryStats> bad;
  EXPECT_THROW(flat_engine.Nearest(queries, nullptr, &bad),
               std::invalid_argument);
}

TEST(ShardedLaesaTest, ClassifyThroughEngineUsesGlobalLabels) {
  Workload w = MakeWorkload(120, 15, 5900);
  std::vector<int> labels(w.protos.size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<int>(i % 5);
  }
  auto dist = MakeDistance("dYB");
  ShardedPrototypeStore store(w.protos, 3, labels);
  ShardedLaesa sharded(store, dist, 8);
  PrototypeStore queries(w.queries);

  std::vector<int> expected(w.queries.size());
  for (std::size_t i = 0; i < w.queries.size(); ++i) {
    expected[i] = labels[sharded.Nearest(w.queries[i]).index];
  }
  BatchQueryEngine engine(sharded);
  EXPECT_EQ(engine.Classify(queries, store.labels()), expected);
}

TEST(ShardedLaesaTest, NearestApproxAcceptsSlackAndRejectsNegative) {
  Workload w = MakeWorkload(100, 10, 6000);
  auto dist = MakeDistance("dYB");
  ShardedPrototypeStore store(w.protos, 4);
  ShardedLaesa sharded(store, dist, 8);
  ExhaustiveSearch exact(w.protos, dist);
  for (const auto& q : w.queries) {
    const NeighborResult approx = sharded.NearestApprox(q, 1.0);
    const NeighborResult truth = exact.Nearest(q);
    EXPECT_LE(truth.distance, approx.distance * (1.0 + 1e-12));
  }
  EXPECT_THROW(sharded.NearestApprox("abc", -0.1), std::invalid_argument);
}

TEST(ShardedLaesaTest, RejectsEmptyStoreAndZeroPivots) {
  ShardedPrototypeStore empty(std::vector<std::string>{}, 2);
  EXPECT_THROW(ShardedLaesa(empty, MakeDistance("dE"), 4),
               std::invalid_argument);
  ShardedPrototypeStore tiny(std::vector<std::string>{"ab", "cd"}, 2);
  EXPECT_THROW(ShardedLaesa(tiny, MakeDistance("dE"), 0),
               std::invalid_argument);
}

TEST(ShardedLaesaTest, PreprocessingCostAccounted) {
  Workload w = MakeWorkload(50, 1, 5600);
  ShardedPrototypeStore store(w.protos, 3);
  ShardedLaesa index(store, MakeDistance("dE"), 5);
  // The selection's rows are the shard tables: one evaluation per entry.
  EXPECT_EQ(index.preprocessing_computations(), 5u * 50u);
}

// Reads an f64 sharded snapshot (ShardedLaesa::Save, version 1) back as
// its pivots and the global row-major table the shard slices tile.
ReferencePivotTable SavedPivotTable(const ShardedLaesa& index,
                                    const ShardedPrototypeStore& store) {
  TempDir dir;
  const std::string path = dir.path + "/index.bin";
  index.Save(path);
  BinaryReader reader(path);
  const char magic[8] = {'C', 'N', 'E', 'D', 'S', 'H', 'L', '1'};
  const std::vector<std::uint64_t> counts = reader.Header(magic, 1);
  const std::size_t n = counts[0], shards = counts[1], np = counts[2];
  std::vector<std::uint64_t> sizes(shards);
  reader.Align();
  reader.Raw(sizes.data(), shards * sizeof(std::uint64_t));
  ReferencePivotTable got;
  got.pivots.resize(np);
  reader.Align();
  reader.Raw(got.pivots.data(), np * sizeof(std::uint64_t));
  got.table.resize(np * n);
  for (std::size_t s = 0; s < shards; ++s) {
    std::vector<double> slice(np * sizes[s]);
    reader.Align();
    reader.Raw(slice.data(), slice.size() * sizeof(double));
    for (std::size_t p = 0; p < np; ++p) {
      std::copy(slice.begin() + p * sizes[s],
                slice.begin() + (p + 1) * sizes[s],
                got.table.begin() + p * n + store.shard_base(s));
    }
  }
  return got;
}

TEST(ShardedLaesaTest, OnePassBuildMatchesSequentialReference) {
  // Each selection row is scattered into the shard slices: the saved
  // tables must tile exactly the sequential reference's rows, for dE and
  // the paper's dC, with duplicate strings and with an early stop.
  const std::vector<std::string> protos = WordsWithDuplicates(80, 20, 5700);
  const std::vector<std::string> pairs{"aa", "aa", "bb", "bb", "aa"};
  struct Case {
    const std::vector<std::string>* protos;
    const char* distance;
    std::size_t pivots;
  };
  for (const Case& c : {Case{&protos, "dE", 12}, Case{&protos, "dC", 12},
                        Case{&pairs, "dE", 4}}) {
    for (const std::size_t shards : kShardCounts) {
      if (shards > c.protos->size()) continue;
      const std::string ctx = std::string(c.distance) + " n=" +
                              std::to_string(c.protos->size()) +
                              " shards=" + std::to_string(shards);
      const ShardedPrototypeStore store(*c.protos, shards);
      const auto dist = MakeDistance(c.distance);
      const ReferencePivotTable ref =
          ReferenceMaxMinBuild(store, *dist, c.pivots);
      const ShardedLaesa index(store, dist, c.pivots, /*first_pivot=*/0,
                               TablePrecision::kF64);
      EXPECT_EQ(index.pivots(), ref.pivots) << ctx;
      EXPECT_EQ(index.preprocessing_computations(), ref.table.size()) << ctx;
      const ReferencePivotTable got = SavedPivotTable(index, store);
      EXPECT_EQ(got.pivots, ref.pivots) << ctx;
      ASSERT_EQ(got.table.size(), ref.table.size()) << ctx;
      EXPECT_TRUE(
          SameBits(got.table.data(), ref.table.data(), ref.table.size()))
          << ctx;
    }
  }
}

}  // namespace
}  // namespace cned
