#include "search/laesa.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datasets/dictionary_gen.h"
#include "datasets/perturb.h"
#include "datasets/prototype_store.h"
#include "distances/registry.h"
#include "search/counting_distance.h"
#include "search/exhaustive.h"
#include "search/laesa_sweep.h"
#include "strings/string_gen.h"
#include "tests/pivot_table_reference.h"
#include "tests/snapshot_test_util.h"
#include "tests/test_util.h"

namespace cned {
namespace {

std::vector<std::string> SmallDictionary(std::size_t n, std::uint64_t seed) {
  DictionaryOptions opt;
  opt.word_count = n;
  opt.seed = seed;
  return GenerateDictionary(opt).strings;
}

TEST(LaesaTest, ExactForMetricDistances) {
  // With a true metric, LAESA must return exactly the exhaustive nearest
  // neighbour (same distance; ties may differ in index).
  auto protos = SmallDictionary(200, 101);
  Rng rng(102);
  Alphabet latin = Alphabet::Latin();
  auto queries = MakeQueries(protos, 60, 2, latin, rng);

  for (const char* name : {"dE", "dYB"}) {
    auto dist = MakeDistance(name);
    Laesa laesa(protos, dist, /*num_pivots=*/12);
    ExhaustiveSearch exact(protos, dist);
    for (const auto& q : queries) {
      auto a = laesa.Nearest(q);
      auto b = exact.Nearest(q);
      EXPECT_NEAR(a.distance, b.distance, 1e-9)
          << "distance=" << name << " query=" << q;
    }
  }
}

TEST(LaesaTest, ExactForContextualMetric) {
  auto protos = SmallDictionary(80, 103);
  Rng rng(104);
  auto queries = MakeQueries(protos, 20, 2, Alphabet::Latin(), rng);
  auto dist = MakeDistance("dC");
  Laesa laesa(protos, dist, 8);
  ExhaustiveSearch exact(protos, dist);
  for (const auto& q : queries) {
    EXPECT_NEAR(laesa.Nearest(q).distance, exact.Nearest(q).distance, 1e-9);
  }
}

TEST(LaesaTest, FewerComputationsThanExhaustive) {
  auto protos = SmallDictionary(400, 105);
  Rng rng(106);
  auto queries = MakeQueries(protos, 40, 2, Alphabet::Latin(), rng);
  Laesa laesa(protos, MakeDistance("dE"), 30);
  Laesa::QueryStats stats;
  for (const auto& q : queries) laesa.Nearest(q, &stats);
  double avg = static_cast<double>(stats.distance_computations) /
               static_cast<double>(queries.size());
  EXPECT_LT(avg, static_cast<double>(protos.size()) * 0.7)
      << "LAESA saved too little over exhaustive search";
  EXPECT_GE(avg, 1.0);
}

TEST(LaesaTest, ComputationsNeverExceedPrototypeCount) {
  auto protos = SmallDictionary(100, 107);
  Laesa laesa(protos, MakeDistance("dE"), 10);
  Laesa::QueryStats stats;
  laesa.Nearest("zzz", &stats);
  EXPECT_LE(stats.distance_computations, protos.size());
}

TEST(LaesaTest, WorksWithSinglePivotAndSinglePrototype) {
  std::vector<std::string> one{"hello"};
  Laesa laesa(one, MakeDistance("dE"), 1);
  auto r = laesa.Nearest("help");
  EXPECT_EQ(r.index, 0u);
  EXPECT_DOUBLE_EQ(r.distance, 2.0);
}

TEST(LaesaTest, ExplicitPivotIndicesRespected) {
  std::vector<std::string> protos{"aa", "bb", "cc", "dd"};
  Laesa laesa(protos, MakeDistance("dE"), std::vector<std::size_t>{2, 3});
  EXPECT_EQ(laesa.num_pivots(), 2u);
  EXPECT_EQ(laesa.pivots()[0], 2u);
  auto r = laesa.Nearest("ab");
  ExhaustiveSearch exact(protos, MakeDistance("dE"));
  EXPECT_NEAR(r.distance, exact.Nearest("ab").distance, 1e-12);
}

TEST(LaesaTest, MorePivotsFewerQueryComputations) {
  auto protos = SmallDictionary(500, 108);
  Rng rng(109);
  auto queries = MakeQueries(protos, 50, 2, Alphabet::Latin(), rng);
  std::uint64_t with_few, with_many;
  {
    Laesa laesa(protos, MakeDistance("dE"), 4);
    Laesa::QueryStats st;
    for (const auto& q : queries) laesa.Nearest(q, &st);
    with_few = st.distance_computations;
  }
  {
    Laesa laesa(protos, MakeDistance("dE"), 60);
    Laesa::QueryStats st;
    for (const auto& q : queries) laesa.Nearest(q, &st);
    with_many = st.distance_computations;
  }
  EXPECT_LT(with_many, with_few);
}

TEST(LaesaTest, PreprocessingCostAccounted) {
  auto protos = SmallDictionary(50, 110);
  Laesa laesa(protos, MakeDistance("dE"), 5);
  // The selection's rows are the table: one evaluation per entry.
  EXPECT_EQ(laesa.preprocessing_computations(), 5u * 50u);
}

// The one-pass build against the sequential reference (select, then
// recompute every entry): identical pivots, identical table bits, P·N.
void ExpectBuildMatchesReference(const PrototypeStore& store,
                                 const StringDistancePtr& dist,
                                 std::size_t count,
                                 const std::string& context) {
  const ReferencePivotTable ref = ReferenceMaxMinBuild(store, *dist, count);
  const Laesa laesa(store, dist, count, /*first_pivot=*/0,
                    TablePrecision::kF64);
  EXPECT_EQ(laesa.pivots(), ref.pivots) << context;
  ASSERT_EQ(laesa.pivots().size() * store.size(), ref.table.size())
      << context;
  EXPECT_TRUE(SameBits(laesa.sweep_segment().table.f64, ref.table.data(),
                       ref.table.size()))
      << context;
  EXPECT_EQ(laesa.preprocessing_computations(), ref.table.size()) << context;
}

TEST(LaesaTest, OnePassBuildMatchesSequentialReference) {
  const PrototypeStore store(WordsWithDuplicates(80, 20, 4300));
  for (const char* name : {"dE", "dC"}) {
    ExpectBuildMatchesReference(store, MakeDistance(name), 12, name);
  }
  // Early stop: two distinct strings give two pivots and two rows.
  const PrototypeStore pairs(std::vector<std::string>{"aa", "aa", "bb", "bb"});
  ExpectBuildMatchesReference(pairs, MakeDistance("dE"), 4, "early stop");
}

TEST(LaesaTest, ExplicitPivotRebuildSavesIdenticalBytes) {
  // The explicit-pivot constructor fills the same rows the selection
  // does: handed the selection's own pivot list, it saves the same bytes,
  // text and binary, exact and quantized.
  const PrototypeStore store(WordsWithDuplicates(80, 20, 4400));
  TempDir dir;
  for (const char* name : {"dE", "dC"}) {
    auto dist = MakeDistance(name);
    for (const TablePrecision prec :
         {TablePrecision::kF64, TablePrecision::kU8}) {
      const std::string ctx =
          std::string(name) + " " + TablePrecisionName(prec);
      const Laesa selected(store, dist, 12, /*first_pivot=*/0, prec);
      const Laesa rebuilt(store, dist, selected.pivots(), prec);
      EXPECT_EQ(rebuilt.preprocessing_computations(),
                selected.preprocessing_computations())
          << ctx;
      std::ostringstream text_a, text_b;
      selected.Save(text_a);
      rebuilt.Save(text_b);
      EXPECT_EQ(text_a.str(), text_b.str()) << ctx;
      selected.Save(dir.path + "/a.bin");
      rebuilt.Save(dir.path + "/b.bin");
      EXPECT_EQ(ReadAll(dir.path + "/a.bin"), ReadAll(dir.path + "/b.bin"))
          << ctx;
    }
  }
}

TEST(LaesaTest, InvalidConstructionThrows) {
  std::vector<std::string> protos{"a"};
  std::vector<std::string> empty;
  EXPECT_THROW(Laesa(empty, MakeDistance("dE"), 1), std::invalid_argument);
  EXPECT_THROW(Laesa(protos, MakeDistance("dE"), std::vector<std::size_t>{}),
               std::invalid_argument);
  EXPECT_THROW(Laesa(protos, MakeDistance("dE"), std::vector<std::size_t>{7}),
               std::invalid_argument);
}

TEST(LaesaTest, NonMetricHeuristicStillFindsGoodNeighbours) {
  // With dC,h (not guaranteed metric) LAESA may in principle miss the true
  // nearest neighbour; the paper uses it anyway. Verify that on a real-ish
  // workload the result matches exhaustive search almost always.
  auto protos = SmallDictionary(150, 111);
  Rng rng(112);
  auto queries = MakeQueries(protos, 40, 2, Alphabet::Latin(), rng);
  auto dist = MakeDistance("dC,h");
  Laesa laesa(protos, dist, 15);
  ExhaustiveSearch exact(protos, dist);
  int agree = 0;
  for (const auto& q : queries) {
    if (std::abs(laesa.Nearest(q).distance - exact.Nearest(q).distance) < 1e-9) {
      ++agree;
    }
  }
  EXPECT_GE(agree, 38);  // allow a rare miss
}

TEST(LaesaTest, DuplicatePivotIndicesAreHandled) {
  // The ablation constructor (and Load) accept duplicate pivot indices;
  // the sweep must count the *distinct* pivot candidates or its
  // pivots-first selection walks off the packed arrays.
  std::vector<std::string> protos{"aa", "ab", "zz", "zy", "mn"};
  auto dist = MakeDistance("dE");
  Laesa laesa(protos, dist, std::vector<std::size_t>{0, 0, 2});
  ExhaustiveSearch exact(protos, dist);
  for (const char* q : {"aa", "zz", "mn", "qq", "az"}) {
    EXPECT_DOUBLE_EQ(laesa.Nearest(q).distance, exact.Nearest(q).distance)
        << q;
  }
}

}  // namespace
}  // namespace cned
