#include "search/pivot_selection.h"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datasets/prototype_store.h"
#include "datasets/sharded_prototype_store.h"
#include "distances/registry.h"
#include "tests/pivot_table_reference.h"

namespace cned {
namespace {

TEST(PivotSelectionTest, MaxMinPicksOutlyingPrototypes) {
  // Cluster of similar words + two far outliers: the greedy max-min
  // strategy must pick up the outliers early.
  std::vector<std::string> protos{"aaaa",        "aaab",     "aaba",
                                  "abaa",        "baaa",     "zzzzzzzzzz",
                                  "qqqqqqqqqqqq"};
  auto dist = MakeDistance("dE");
  auto pivots = SelectPivotsMaxMin(protos, *dist, 3, /*first=*/0);
  ASSERT_EQ(pivots.size(), 3u);
  EXPECT_EQ(pivots[0], 0u);
  std::set<std::size_t> chosen(pivots.begin(), pivots.end());
  EXPECT_TRUE(chosen.count(5) == 1 || chosen.count(6) == 1);
}

TEST(PivotSelectionTest, PivotsAreDistinct) {
  std::vector<std::string> protos{"a", "ab", "abc", "abcd", "abcde"};
  auto dist = MakeDistance("dE");
  auto pivots = SelectPivotsMaxMin(protos, *dist, 5);
  std::set<std::size_t> uniq(pivots.begin(), pivots.end());
  EXPECT_EQ(uniq.size(), pivots.size());
}

TEST(PivotSelectionTest, StopsEarlyOnDuplicatePrototypes) {
  // Only two distinct strings: asking for 4 pivots must not loop or pick a
  // duplicate at distance zero.
  std::vector<std::string> protos{"aa", "aa", "bb", "bb"};
  auto dist = MakeDistance("dE");
  auto pivots = SelectPivotsMaxMin(protos, *dist, 4);
  EXPECT_LE(pivots.size(), 2u);
}

TEST(PivotSelectionTest, ValidatesArguments) {
  std::vector<std::string> protos{"a", "b"};
  auto dist = MakeDistance("dE");
  EXPECT_THROW(SelectPivotsMaxMin(protos, *dist, 3), std::invalid_argument);
  EXPECT_THROW(SelectPivotsMaxMin(protos, *dist, 1, /*first=*/5),
               std::invalid_argument);
}

// The selection's rows, as its sink sees them, concatenated in pivot order.
struct SelectedRows {
  std::vector<std::size_t> pivots;
  std::vector<double> rows;
};

template <typename StoreT>
SelectedRows SelectWithRows(const StoreT& store, const StringDistance& dist,
                            std::size_t count, std::size_t first = 0) {
  SelectedRows got;
  got.pivots = SelectPivotsMaxMin(
      store, dist, count, first, [&](const double* row) {
        got.rows.insert(got.rows.end(), row, row + store.size());
      });
  return got;
}

template <typename StoreT>
void ExpectMatchesReference(const StoreT& store, const StringDistance& dist,
                            std::size_t count, std::size_t first,
                            const std::string& context) {
  const ReferencePivotTable ref =
      ReferenceMaxMinBuild(store, dist, count, first);
  const SelectedRows got = SelectWithRows(store, dist, count, first);
  EXPECT_EQ(got.pivots, ref.pivots) << context;
  ASSERT_EQ(got.rows.size(), ref.table.size()) << context;
  EXPECT_TRUE(SameBits(got.rows.data(), ref.table.data(), ref.table.size()))
      << context;
}

TEST(PivotSelectionTest, OnePassRowsMatchSequentialReference) {
  // Duplicates put prototypes at distance 0 from a pivot (the skipped
  // entries of the sequential scan); dC is not symmetric to the last ulp,
  // so the rows must keep the pivot as the first argument.
  const std::vector<std::string> protos = WordsWithDuplicates(80, 20, 4100);
  const PrototypeStore flat(protos);
  const ShardedPrototypeStore sharded(protos, 3);
  for (const char* name : {"dE", "dC"}) {
    auto dist = MakeDistance(name);
    for (const std::size_t first : {std::size_t{0}, std::size_t{85}}) {
      const std::string ctx =
          std::string(name) + " first=" + std::to_string(first);
      ExpectMatchesReference(flat, *dist, 12, first, ctx + " flat");
      ExpectMatchesReference(sharded, *dist, 12, first, ctx + " sharded");
    }
  }
}

TEST(PivotSelectionTest, EarlyStopRowsMatchSequentialReference) {
  // Two distinct strings: selection stops after two pivots, and exactly
  // their two rows reach the sink.
  const std::vector<std::string> protos{"aa", "aa", "bb", "bb"};
  auto dist = MakeDistance("dE");
  const PrototypeStore flat(protos);
  const ShardedPrototypeStore sharded(protos, 2);
  ExpectMatchesReference(flat, *dist, 4, 0, "flat");
  ExpectMatchesReference(sharded, *dist, 4, 0, "sharded");
  EXPECT_EQ(SelectWithRows(flat, *dist, 4).rows.size(), 2u * protos.size());
}

TEST(PivotSelectionTest, FillPivotTableRowIsTheSelectionRow) {
  const std::vector<std::string> protos = WordsWithDuplicates(60, 10, 4200);
  const PrototypeStore store(protos);
  auto dist = MakeDistance("dC");
  const SelectedRows got = SelectWithRows(store, *dist, 6);
  std::vector<double> row(store.size());
  for (std::size_t p = 0; p < got.pivots.size(); ++p) {
    FillPivotTableRow(store, *dist, got.pivots[p], row.data());
    EXPECT_TRUE(SameBits(row.data(), got.rows.data() + p * store.size(),
                         store.size()))
        << "p=" << p;
  }
}

TEST(PivotSelectionTest, RandomPivotsValidAndDistinct) {
  Rng rng(91);
  auto pivots = SelectPivotsRandom(50, 10, rng);
  EXPECT_EQ(pivots.size(), 10u);
  std::set<std::size_t> uniq(pivots.begin(), pivots.end());
  EXPECT_EQ(uniq.size(), 10u);
  EXPECT_TRUE(std::all_of(pivots.begin(), pivots.end(),
                          [](std::size_t p) { return p < 50; }));
}

TEST(PivotSelectionTest, RandomRejectsOversizedRequest) {
  Rng rng(92);
  EXPECT_THROW(SelectPivotsRandom(5, 6, rng), std::invalid_argument);
}

}  // namespace
}  // namespace cned
