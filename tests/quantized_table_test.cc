// Differential contract for the quantized pivot tables
// (search/table_quant.h) across every serving path:
//
//   * vs f64 — at every quantized precision the returned nearest DISTANCE
//     is exactly the f64 distance (admissible bounds never eliminate a
//     true neighbour; the index is compared tie-tolerantly, since a looser
//     bound may legitimately surface a different member of an exact tie);
//   * within a precision — flat, sharded, mapped and distributed
//     (fork-per-replica ServeRouter, R=2) answers are bit-identical
//     INCLUDING QueryStats, under every available sweep-kernel variant.
//
// The second contract is what makes quantization deployable: a mixed fleet
// (AVX2 primaries, scalar standbys, mapped snapshots) at one precision
// must agree byte-for-byte, or replica-group eviction would fire on
// healthy workers.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datasets/perturb.h"
#include "datasets/prototype_store.h"
#include "datasets/sharded_prototype_store.h"
#include "distances/registry.h"
#include "search/laesa.h"
#include "search/sharded_laesa.h"
#include "search/sweep_kernel.h"
#include "search/table_quant.h"
#include "serve/router.h"
#include "serve/shard_snapshot.h"
#include "tests/snapshot_test_util.h"
#include "tests/test_util.h"

namespace cned {
namespace {

constexpr TablePrecision kQuantPrecisions[] = {
    TablePrecision::kF32, TablePrecision::kF16, TablePrecision::kU8};

struct Probe {
  NeighborResult nn;
  std::vector<NeighborResult> knn;
  QueryStats stats;
};

template <typename Index>
Probe RunProbe(const Index& index, const std::string& query) {
  Probe p;
  p.nn = index.Nearest(query, &p.stats);
  p.knn = index.KNearest(query, 3, &p.stats);
  return p;
}

void ExpectIdentical(const Probe& a, const Probe& b, const std::string& ctx) {
  EXPECT_EQ(a.nn.index, b.nn.index) << ctx;
  EXPECT_EQ(a.nn.distance, b.nn.distance) << ctx;
  EXPECT_TRUE(a.stats == b.stats)
      << ctx << " computations " << a.stats.distance_computations << " vs "
      << b.stats.distance_computations;
  ASSERT_EQ(a.knn.size(), b.knn.size()) << ctx;
  for (std::size_t i = 0; i < a.knn.size(); ++i) {
    EXPECT_EQ(a.knn[i].index, b.knn[i].index) << ctx << " k-rank " << i;
    EXPECT_EQ(a.knn[i].distance, b.knn[i].distance) << ctx << " k-rank " << i;
  }
}

/// Restores the startup-active kernel variant when a test is done forcing.
class KernelGuard {
 public:
  KernelGuard() : saved_(ActiveSweepKernels().name) {}
  ~KernelGuard() { SetActiveSweepKernels(saved_); }

 private:
  std::string saved_;
};

// --- Contract 1: exact results vs f64, bit-identity within a precision ----

TEST(QuantizedTableTest, ResultsMatchF64AcrossFlatShardedAndMappedPaths) {
  const auto words = Words(150, 8208);
  Rng rng(515);
  const auto queries = MakeQueries(words, 10, 2, Alphabet::Latin(), rng);
  PrototypeStore flat_store(words);
  ShardedPrototypeStore sharded_store(words, 4);

  for (const char* dist_name : {"dE", "dYB"}) {
    auto dist = MakeDistance(dist_name);
    const Laesa reference(flat_store, dist, 8, /*first_pivot=*/0,
                          TablePrecision::kF64);
    for (TablePrecision prec : kQuantPrecisions) {
      const Laesa flat(flat_store, dist, 8, /*first_pivot=*/0, prec);
      const ShardedLaesa sharded(sharded_store, dist, 8, /*first_pivot=*/0,
                                 prec);
      TempFile file(std::string("quant_diff_") + TablePrecisionName(prec) +
                    "_" + dist_name);
      flat.Save(file.path());
      const Laesa mapped = Laesa::Map(file.path(), flat_store, dist);

      for (const auto& q : queries) {
        const std::string ctx = std::string(dist_name) + " " +
                                TablePrecisionName(prec) + " q=" + q;
        const Probe ref = RunProbe(reference, q);
        const Probe got = RunProbe(flat, q);

        // vs f64: distances are exact — the quantized bounds are
        // admissible, so no true neighbour is ever eliminated. The index
        // is checked through the distance (tie-tolerant): a returned
        // distance equal to the f64 one proves the neighbour is (one of)
        // the true nearest.
        EXPECT_EQ(got.nn.distance, ref.nn.distance) << ctx;
        ASSERT_EQ(got.knn.size(), ref.knn.size()) << ctx;
        for (std::size_t i = 0; i < ref.knn.size(); ++i) {
          EXPECT_EQ(got.knn[i].distance, ref.knn[i].distance)
              << ctx << " k-rank " << i;
        }
        // Quantization only loosens the bounds: it can never eliminate
        // more candidates than the exact table.
        EXPECT_GE(got.stats.distance_computations,
                  ref.stats.distance_computations)
            << ctx;

        // Within the precision: sharded and mapped are bit-identical to
        // the flat build, stats included (the sharded build quantizes each
        // global row with one shared meta precisely for this).
        ExpectIdentical(got, RunProbe(sharded, q), ctx + " [sharded]");
        ExpectIdentical(got, RunProbe(mapped, q), ctx + " [mapped]");
      }
    }
  }
}

// --- Contract 2: identity across kernel variants at every precision -------

TEST(QuantizedTableTest, QuantizedIndexBitIdenticalAcrossKernels) {
  KernelGuard guard;
  const auto words = Words(160, 8209);
  Rng rng(616);
  const auto queries = MakeQueries(words, 8, 2, Alphabet::Latin(), rng);
  PrototypeStore flat_store(words);
  ShardedPrototypeStore sharded_store(words, 3);
  auto dist = MakeDistance("dE");

  for (TablePrecision prec : kQuantPrecisions) {
    const Laesa flat(flat_store, dist, 7, /*first_pivot=*/0, prec);
    const ShardedLaesa sharded(sharded_store, dist, 7, /*first_pivot=*/0,
                               prec);

    ASSERT_TRUE(SetActiveSweepKernels("scalar"));
    std::vector<Probe> flat_ref, sharded_ref;
    for (const auto& q : queries) {
      flat_ref.push_back(RunProbe(flat, q));
      sharded_ref.push_back(RunProbe(sharded, q));
    }
    for (const SweepKernels* k : AvailableSweepKernels()) {
      ASSERT_TRUE(SetActiveSweepKernels(k->name));
      for (std::size_t i = 0; i < queries.size(); ++i) {
        const std::string ctx = std::string(TablePrecisionName(prec)) +
                                " kernel " + k->name + " q=" + queries[i];
        ExpectIdentical(flat_ref[i], RunProbe(flat, queries[i]), ctx);
        ExpectIdentical(sharded_ref[i], RunProbe(sharded, queries[i]),
                        ctx + " [sharded]");
      }
    }
  }
}

// --- Contract 3: the distributed tier serves quantized shards exactly -----

TEST(QuantizedTableTest, DistributedReplicasServeQuantizedBitIdentically) {
  const auto words = Words(120, 8210);
  Rng rng(717);
  const auto queries = MakeQueries(words, 5, 2, Alphabet::Latin(), rng);
  ShardedPrototypeStore store(words, 3);
  auto dist = MakeDistance("dE");
  const ShardedLaesa reference(store, dist, 8, /*first_pivot=*/0,
                               TablePrecision::kF64);

  // f32 is covered by the in-process paths above; fork the replica fleet
  // only for the two precisions with nontrivial decode arithmetic.
  for (TablePrecision prec :
       {TablePrecision::kF16, TablePrecision::kU8}) {
    const ShardedLaesa index(store, dist, 8, /*first_pivot=*/0, prec);
    TempDir dir;
    SaveServingSnapshot(index, dir.path);

    ServeOptions opt;
    opt.distance = "dE";
    opt.op_timeout_ms = 400;
    opt.op_retries = 2;
    opt.backoff_base_ms = 2;
    ServeRouter router(dir.path, opt);
    ASSERT_EQ(router.shard_count(), 3u);
    ASSERT_EQ(router.replica_count(), 2u);

    for (const auto& q : queries) {
      const std::string ctx =
          std::string(TablePrecisionName(prec)) + " q=" + q;
      // The served reference is the in-process pivot-row path.
      QueryStats want_stats;
      std::vector<double> row(index.pivot_count());
      index.ComputePivotRow(q, row.data(), &want_stats);
      const auto want = index.KNearestWithPivotRow(q, 3, row.data(),
                                                   &want_stats);
      const ServeResult got = router.KNearest(q, 3);
      EXPECT_FALSE(got.partial) << ctx;
      EXPECT_TRUE(got.missing_shards.empty()) << ctx;
      ASSERT_EQ(got.neighbors.size(), want.size()) << ctx;
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got.neighbors[i].index, want[i].index) << ctx << " i=" << i;
        EXPECT_EQ(got.neighbors[i].distance, want[i].distance)
            << ctx << " i=" << i;
      }
      EXPECT_TRUE(got.stats == want_stats)
          << ctx << ": distributed " << got.stats.distance_computations
          << " computations vs in-process "
          << want_stats.distance_computations;

      // And the distributed quantized answer is the exact f64 answer.
      QueryStats ref_stats;
      const auto ref = reference.KNearest(q, 3, &ref_stats);
      ASSERT_EQ(got.neighbors.size(), ref.size()) << ctx;
      for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(got.neighbors[i].distance, ref[i].distance)
            << ctx << " vs f64, i=" << i;
      }
    }
  }
}

}  // namespace
}  // namespace cned
