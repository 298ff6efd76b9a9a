// Tests for Wilson editing (ENN) and the approximate LAESA relaxation.

#include <gtest/gtest.h>

#include <limits>

#include "common/rng.h"
#include "datasets/dictionary_gen.h"
#include "datasets/perturb.h"
#include "distances/registry.h"
#include "search/condensing.h"
#include "search/exhaustive.h"
#include "search/laesa.h"
#include "search/sharded_laesa.h"

namespace cned {
namespace {

TEST(WilsonEditTest, RemovesIsolatedMislabeledSample) {
  // A 'z...' string labelled as class 0 sits inside class-1 territory: its
  // neighbours all vote 1, so Wilson editing must drop it.
  std::vector<std::string> samples{"aaaa", "aaab", "aaba", "zzzz",
                                   "zzzy", "zzyz", "zzab"};
  std::vector<int> labels{0, 0, 0, 1, 1, 1, /*mislabeled:*/ 1};
  // "zzab" is closer to the a-cluster? dE(zzab, aaab)=2, dE(zzab, zzzy)=2 —
  // keep it simple: instead plant "aabb" with label 1 inside class 0.
  samples.back() = "aabb";
  auto kept = WilsonEdit(samples, labels, *MakeDistance("dE"), 3);
  for (std::size_t idx : kept) {
    EXPECT_NE(samples[idx], "aabb");  // the planted noise must be gone
  }
  EXPECT_EQ(kept.size(), samples.size() - 1);
}

TEST(WilsonEditTest, CleanSeparableDataKeptIntact) {
  std::vector<std::string> samples{"aaaa", "aaab", "aaba", "abaa",
                                   "zzzz", "zzzy", "zzyz", "zyzz"};
  std::vector<int> labels{0, 0, 0, 0, 1, 1, 1, 1};
  auto kept = WilsonEdit(samples, labels, *MakeDistance("dE"), 3);
  EXPECT_EQ(kept.size(), samples.size());
}

TEST(WilsonEditTest, EdgeCasesAndValidation) {
  auto dist = MakeDistance("dE");
  std::vector<std::string> one{"solo"};
  std::vector<int> one_label{0};
  EXPECT_EQ(WilsonEdit(one, one_label, *dist).size(), 1u);
  std::vector<std::string> empty;
  std::vector<int> no_labels;
  EXPECT_TRUE(WilsonEdit(empty, no_labels, *dist).empty());
  EXPECT_THROW(WilsonEdit(one, no_labels, *dist), std::invalid_argument);
  EXPECT_THROW(WilsonEdit(one, one_label, *dist, 0), std::invalid_argument);
}

TEST(WilsonEditTest, ComposesWithCondensing) {
  // ENN then CNN: the classic pipeline. The result must stay 1-NN
  // consistent with the edited (not original) set.
  std::vector<std::string> samples{"aaaa", "aaab", "aaba", "abaa", "aabb",
                                   "zzzz", "zzzy", "zzyz", "zyzz"};
  std::vector<int> labels{0, 0, 0, 0, /*noise:*/ 1, 1, 1, 1, 1};
  auto dist = MakeDistance("dE");
  auto edited = WilsonEdit(samples, labels, *dist, 3);
  std::vector<std::string> es;
  std::vector<int> el;
  for (std::size_t idx : edited) {
    es.push_back(samples[idx]);
    el.push_back(labels[idx]);
  }
  CondensedSet sub = Condense(es, el, *dist);
  EXPECT_LE(sub.strings.size(), es.size());
  EXPECT_GE(sub.strings.size(), 2u);
}

std::vector<std::string> Dict(std::size_t n, std::uint64_t seed) {
  DictionaryOptions opt;
  opt.word_count = n;
  opt.seed = seed;
  return GenerateDictionary(opt).strings;
}

TEST(LaesaApproxTest, EpsilonZeroIsExact) {
  auto protos = Dict(200, 1901);
  Rng rng(1902);
  auto queries = MakeQueries(protos, 30, 2, Alphabet::Latin(), rng);
  Laesa laesa(protos, MakeDistance("dE"), 15);
  for (const auto& q : queries) {
    EXPECT_DOUBLE_EQ(laesa.NearestApprox(q, 0.0).distance,
                     laesa.Nearest(q).distance);
  }
}

TEST(LaesaApproxTest, GuaranteeHolds) {
  auto protos = Dict(300, 1903);
  Rng rng(1904);
  auto queries = MakeQueries(protos, 40, 2, Alphabet::Latin(), rng);
  auto dist = MakeDistance("dE");
  Laesa laesa(protos, dist, 20);
  ExhaustiveSearch exact(protos, dist);
  for (double eps : {0.25, 1.0}) {
    for (const auto& q : queries) {
      double approx = laesa.NearestApprox(q, eps).distance;
      double truth = exact.Nearest(q).distance;
      EXPECT_LE(approx, (1.0 + eps) * truth + 1e-9)
          << "q=" << q << " eps=" << eps;
      EXPECT_GE(approx + 1e-12, truth);
    }
  }
}

TEST(LaesaApproxTest, LargerEpsilonFewerComputationsOnContinuousMetrics) {
  // The relaxation pays off on continuous-valued distances, where a
  // slightly stale incumbent still eliminates well (measured: dYB needs
  // ~6x fewer computations at eps=1). On the integer-valued dE the
  // thresholds quantise and the effect can even reverse — see the doc
  // comment on NearestApprox.
  auto protos = Dict(600, 1905);
  Rng rng(1906);
  auto queries = MakeQueries(protos, 50, 2, Alphabet::Latin(), rng);
  for (const char* name : {"dYB", "dC,h"}) {
    Laesa laesa(protos, MakeDistance(name), 40);
    Laesa::QueryStats exact_stats, approx_stats;
    for (const auto& q : queries) {
      laesa.NearestApprox(q, 0.0, &exact_stats);
      laesa.NearestApprox(q, 1.0, &approx_stats);
    }
    EXPECT_LT(approx_stats.distance_computations,
              exact_stats.distance_computations)
        << name;
  }
}

TEST(LaesaApproxTest, RejectsNegativeEpsilon) {
  auto protos = Dict(20, 1907);
  Laesa laesa(protos, MakeDistance("dE"), 4);
  EXPECT_THROW(laesa.NearestApprox("abc", -0.5), std::invalid_argument);
}

TEST(LaesaApproxTest, RejectsNanEpsilonFlatAndSharded) {
  // A NaN slack would make every elimination test false: the sweep would
  // silently evaluate every prototype. Both indexes must refuse it.
  auto protos = Dict(40, 1908);
  auto dist = MakeDistance("dC");
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Laesa flat(protos, dist, 6);
  EXPECT_THROW(flat.NearestApprox("hallo", nan), std::invalid_argument);
  ShardedPrototypeStore store(protos, 3);
  ShardedLaesa sharded(store, dist, 6);
  EXPECT_THROW(sharded.NearestApprox("hallo", nan), std::invalid_argument);
}

}  // namespace
}  // namespace cned
