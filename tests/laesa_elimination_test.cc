// Regression tests pinning LAESA's harmonized elimination semantics: a
// candidate whose pivot lower bound *reaches* the incumbent (lower >= best,
// or >= the k-th best in KNearest) is eliminated without computing its
// distance, because under strict-improvement tie handling it can at most
// tie. Before this was harmonized, `Nearest` eliminated at >= while
// `KNearest` eliminated only at >, so k = 1 KNearest could compute strictly
// more distances than Nearest for the same query.
//
// The visit-order differential test at the end pins the fixed-bound tail
// (sweep_kernel.h): it keeps the classic per-visit eliminate-and-compact
// loop as a reference and requires every in-process sweep to make the same
// DistanceBounded calls, with the same caps, in the same order.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "datasets/dictionary_gen.h"
#include "datasets/perturb.h"
#include "datasets/prototype_store.h"
#include "datasets/sharded_prototype_store.h"
#include "distances/registry.h"
#include "search/laesa.h"
#include "search/sharded_laesa.h"
#include "search/sweep_kernel.h"
#include "search/table_quant.h"
#include "strings/string_gen.h"

namespace cned {
namespace {

TEST(LaesaEliminationTest, TieLowerBoundIsEliminatedInNearest) {
  // Query "ab": d(q, "aa") = 1 (best). Pivot row gives lower("bb") =
  // |1 - d("aa","bb")| = |1 - 2| = 1 >= best — eliminated without
  // computation under the agreed semantics.
  std::vector<std::string> protos{"aa", "bb"};
  Laesa laesa(protos, MakeDistance("dE"), std::vector<std::size_t>{0});
  Laesa::QueryStats stats;
  auto r = laesa.Nearest("ab", &stats);
  EXPECT_EQ(r.index, 0u);
  EXPECT_DOUBLE_EQ(r.distance, 1.0);
  EXPECT_EQ(stats.distance_computations, 1u);
}

TEST(LaesaEliminationTest, TieLowerBoundIsEliminatedInKNearest) {
  // Identical setup: k = 1 KNearest must prune exactly like Nearest (this
  // is the case that regressed when KNearest used strict > elimination).
  std::vector<std::string> protos{"aa", "bb"};
  Laesa laesa(protos, MakeDistance("dE"), std::vector<std::size_t>{0});
  Laesa::QueryStats stats;
  auto r = laesa.KNearest("ab", 1, &stats);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].index, 0u);
  EXPECT_DOUBLE_EQ(r[0].distance, 1.0);
  EXPECT_EQ(stats.distance_computations, 1u);
}

TEST(LaesaEliminationTest, SeededPivotTiesGoToTheLowerId) {
  // The pivot-row sweeps seed the incumbents with every paid pivot
  // distance, admitting ties in (distance, id) order. Pivots {3, 1}: the
  // later ordinal holds the lower id, the query is at distance 4 from both
  // and farther from everything else, so the seed decides the 1-NN and the
  // lower id must win — flat, and sharded (max-min selection from
  // prototype 3 picks the same pivots).
  const std::vector<std::string> protos{"zzzz", "yyyyyyyy", "wwwww", "xxxx"};
  const std::string query = "xxxxyyyy";
  const Laesa flat(protos, MakeDistance("dE"), std::vector<std::size_t>{3, 1});
  const ShardedPrototypeStore store(protos, 2);
  const ShardedLaesa sharded(store, MakeDistance("dE"), 2, /*first_pivot=*/3);
  ASSERT_EQ(sharded.pivots(), flat.pivots());
  for (const PivotStageSearcher* index :
       {static_cast<const PivotStageSearcher*>(&flat),
        static_cast<const PivotStageSearcher*>(&sharded)}) {
    std::vector<double> row(index->pivot_count());
    index->ComputePivotRow(query, row.data());
    ASSERT_EQ(row, (std::vector<double>{4.0, 4.0}));
    const NeighborResult nn = index->NearestWithPivotRow(query, row.data());
    EXPECT_EQ(nn.index, 1u);
    EXPECT_EQ(nn.distance, 4.0);
    const auto knn = index->KNearestWithPivotRow(query, 1, row.data());
    ASSERT_EQ(knn.size(), 1u);
    EXPECT_EQ(knn[0].index, 1u);
  }
}

TEST(LaesaEliminationTest, KNearestOneMirrorsNearestExactly) {
  // With harmonized thresholds, k = 1 KNearest and Nearest follow the same
  // trajectory: same result, same computation count, on every query.
  DictionaryOptions opt;
  opt.word_count = 250;
  opt.seed = 7201;
  auto protos = GenerateDictionary(opt).strings;
  Rng rng(7202);
  auto queries = MakeQueries(protos, 40, 2, Alphabet::Latin(), rng);

  for (const auto& name : {"dE", "dC,h"}) {
    Laesa laesa(protos, MakeDistance(name), 15);
    for (const auto& q : queries) {
      Laesa::QueryStats s1, sk;
      auto nearest = laesa.Nearest(q, &s1);
      auto knearest = laesa.KNearest(q, 1, &sk);
      ASSERT_EQ(knearest.size(), 1u) << name << " q=" << q;
      EXPECT_EQ(knearest[0].index, nearest.index) << name << " q=" << q;
      EXPECT_DOUBLE_EQ(knearest[0].distance, nearest.distance)
          << name << " q=" << q;
      EXPECT_EQ(sk.distance_computations, s1.distance_computations)
          << name << " q=" << q;
    }
  }
}

TEST(LaesaEliminationTest, BoundedAbandonsAreCountedAndBenign) {
  // The bounded kernel must not change any result, and on a realistic
  // workload some non-pivot evaluations should be abandoned.
  DictionaryOptions opt;
  opt.word_count = 300;
  opt.seed = 7203;
  auto protos = GenerateDictionary(opt).strings;
  Rng rng(7204);
  auto queries = MakeQueries(protos, 50, 2, Alphabet::Latin(), rng);

  Laesa laesa(protos, MakeDistance("dC"), 20);
  Laesa::QueryStats stats;
  std::uint64_t hits = 0;
  for (const auto& q : queries) {
    auto r = laesa.Nearest(q, &stats);
    hits += r.index;  // consume the result
  }
  (void)hits;
  EXPECT_LE(stats.bounded_abandons, stats.distance_computations);
  EXPECT_GT(stats.bounded_abandons, 0u)
      << "expected the contextual kernel to abandon at least one "
         "non-pivot evaluation across 50 queries";
}

// --- Visit-order differential test --------------------------------------

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One DistanceBounded call: the prototype evaluated, the cap it was
/// evaluated under, and the value returned.
struct Visit {
  std::size_t id;
  double cap;
  double d;
};

bool operator==(const Visit& a, const Visit& b) {
  return a.id == b.id && a.cap == b.cap && a.d == b.d;
}

/// Forwards every StringDistance virtual to `inner`; while `trace` is set,
/// appends each DistanceBounded call to it, naming the prototype by id
/// (the prototype strings are distinct).
class RecordingDistance final : public StringDistance {
 public:
  RecordingDistance(StringDistancePtr inner,
                    const std::unordered_map<std::string, std::size_t>* ids)
      : inner_(std::move(inner)), ids_(ids) {}

  double Distance(std::string_view x, std::string_view y) const override {
    return inner_->Distance(x, y);
  }
  double DistanceBounded(std::string_view x, std::string_view y,
                         double bound) const override {
    const double d = inner_->DistanceBounded(x, y, bound);
    if (trace != nullptr) {
      trace->push_back({ids_->at(std::string(y)), bound, d});
    }
    return d;
  }
  double LengthLowerBound(std::size_t x_len,
                          std::size_t y_len) const override {
    return inner_->LengthLowerBound(x_len, y_len);
  }
  void LengthLowerBounds(std::size_t x_len, const std::uint32_t* y_lens,
                         std::size_t n, double* out) const override {
    inner_->LengthLowerBounds(x_len, y_lens, n, out);
  }
  std::string name() const override { return inner_->name(); }
  bool is_metric() const override { return inner_->is_metric(); }

  mutable std::vector<Visit>* trace = nullptr;

 private:
  StringDistancePtr inner_;
  const std::unordered_map<std::string, std::size_t>* ids_;
};

/// The pivot table the indexes build, rebuilt independently: the same
/// Distance(pivot, prototype) entries, quantized row by row with the same
/// encoder, so the reference sweeps below see bit-identical bounds.
struct ReferenceTable {
  std::vector<double> f64;
  std::vector<unsigned char> codes;
  std::vector<QuantRowMeta> meta;
  QuantTableView view;

  ReferenceTable(const PrototypeStore& protos, const StringDistance& dist,
                 const std::vector<std::size_t>& pivots,
                 TablePrecision precision) {
    const std::size_t n = protos.size();
    f64.resize(pivots.size() * n);
    for (std::size_t p = 0; p < pivots.size(); ++p) {
      for (std::size_t i = 0; i < n; ++i) {
        f64[p * n + i] = dist.Distance(protos[pivots[p]], protos[i]);
      }
    }
    view.precision = precision;
    if (precision == TablePrecision::kF64) {
      view.f64 = f64.data();
      return;
    }
    const std::size_t width = TablePrecisionBytes(precision);
    codes.resize(pivots.size() * n * width);
    meta.resize(pivots.size());
    for (std::size_t p = 0; p < pivots.size(); ++p) {
      QuantRowEncoder enc;
      enc.Scan(f64.data() + p * n, n);
      enc.Prepare(precision);
      enc.Encode(f64.data() + p * n, n, codes.data() + p * n * width);
      meta[p] = enc.Finish();
    }
    view.q = codes.data();
    view.rows = meta.data();
  }
};

/// The classic lazy sweep, kept as the reference: after every visit, one
/// eliminate-and-compact pass over every survivor picks the next
/// candidate — the surviving pivot with minimal bound while pivots
/// remain, otherwise the minimal-bound survivor.
std::vector<NeighborResult> ClassicLazySweep(
    const PrototypeStore& protos, const StringDistance& dist,
    const std::vector<std::size_t>& pivots, const QuantTableView& view,
    std::string_view query, std::size_t k, double slack,
    const std::uint64_t* tombstones, QueryStats* stats) {
  const std::size_t n = protos.size();
  std::vector<std::int32_t> rank(n, -1);
  for (std::size_t p = 0; p < pivots.size(); ++p) {
    rank[pivots[p]] = static_cast<std::int32_t>(p);
  }
  const SweepKernels& kern = ActiveSweepKernels();
  std::vector<std::uint32_t> idx(n);
  std::vector<double> lower(n);
  dist.LengthLowerBounds(query.size(), protos.lengths_data(), n, lower.data());
  std::size_t live_pivots = FillIotaCountPivots(idx.data(), rank.data(), n);
  std::size_t live = n;
  std::vector<NeighborResult> best;
  auto kth = [&]() { return best.size() < k ? kInf : best.back().distance; };

  std::size_t s = pivots[0];
  if (tombstones != nullptr) {
    ApplyTombstoneMask(tombstones, n, lower.data());
    const SweepCompactResult pre = kern.eliminate_and_compact_flagged(
        idx.data(), lower.data(), rank.data(), live, 0xFFFFFFFFu, slack, kInf);
    live = pre.live;
    live_pivots -= pre.pivots_died;
    s = live_pivots > 0 ? pre.next_pivot : pre.next;
    if (s == kSweepNone) live = 0;
  }
  while (live > 0) {
    const bool is_pivot = rank[s] >= 0;
    const double cap = is_pivot ? kInf : kth();
    const double d = dist.DistanceBounded(query, protos[s], cap);
    ++stats->distance_computations;
    stats->pivot_computations += is_pivot ? 1 : 0;
    if (d >= cap) {
      ++stats->bounded_abandons;
    } else {
      InsertNeighborTopK(best, k, {s, d});
    }
    if (is_pivot) {
      QuantUpdateLowerPacked(kern, view, static_cast<std::size_t>(rank[s]), n,
                             d, idx.data(), 0, lower.data(), live);
    }
    const SweepCompactResult pass = kern.eliminate_and_compact_flagged(
        idx.data(), lower.data(), rank.data(), live,
        static_cast<std::uint32_t>(s), slack, kth());
    live = pass.live;
    live_pivots -= pass.pivots_died;
    if (live == 0) break;
    s = live_pivots > 0 ? pass.next_pivot : pass.next;
  }
  return best;
}

/// The classic row-consuming sweep, kept as the reference: every row
/// applied, one compact_seed, then one eliminate-and-compact pass per visit.
std::vector<NeighborResult> ClassicRowSweep(
    const PrototypeStore& protos, const StringDistance& dist,
    const std::vector<std::size_t>& pivots, const QuantTableView& view,
    std::string_view query, std::size_t k, const double* row,
    QueryStats* stats) {
  const std::size_t n = protos.size();
  std::vector<std::int32_t> rank(n, -1);
  for (std::size_t p = 0; p < pivots.size(); ++p) {
    rank[pivots[p]] = static_cast<std::int32_t>(p);
  }
  const SweepKernels& kern = ActiveSweepKernels();
  std::vector<std::uint32_t> idx(n);
  std::vector<double> lower(n);
  dist.LengthLowerBounds(query.size(), protos.lengths_data(), n, lower.data());
  std::vector<NeighborResult> best;
  auto kth = [&]() { return best.size() < k ? kInf : best.back().distance; };
  for (std::size_t p = 0; p < pivots.size(); ++p) {
    InsertNeighborTopK(best, k, {pivots[p], row[p]}, /*admit_ties=*/true);
  }
  for (std::size_t p = 0; p < pivots.size(); ++p) {
    QuantUpdateLowerDense(kern, view, p, n, row[p], lower.data());
  }
  const SweepCompactResult seed = kern.compact_seed(
      lower.data(), rank.data(), n, 0, kth(), idx.data(), lower.data());
  std::size_t live = seed.live;
  std::size_t s = seed.next;
  while (live > 0 && s != kSweepNone) {
    const double cap = kth();
    const double d = dist.DistanceBounded(query, protos[s], cap);
    ++stats->distance_computations;
    if (d >= cap) {
      ++stats->bounded_abandons;
    } else {
      InsertNeighborTopK(best, k, {s, d});
    }
    const SweepCompactResult pass = kern.eliminate_and_compact(
        idx.data(), lower.data(), live, static_cast<std::uint32_t>(s), kth());
    live = pass.live;
    s = pass.next;
  }
  return best;
}

/// Per-shard stats a trace implies: each call charged to its id's shard.
std::vector<QueryStats> ShardStatsOf(const std::vector<Visit>& trace,
                                     const ShardedPrototypeStore& store,
                                     const std::set<std::size_t>& pivots) {
  std::vector<QueryStats> out(store.shard_count());
  for (const Visit& v : trace) {
    QueryStats& s = out[store.ShardOf(v.id)];
    ++s.distance_computations;
    s.bounded_abandons += v.d >= v.cap ? 1 : 0;
    s.pivot_computations += pivots.count(v.id) != 0 ? 1 : 0;
  }
  return out;
}

std::string Describe(const QueryStats& s) {
  return "(" + std::to_string(s.distance_computations) + ", " +
         std::to_string(s.bounded_abandons) + ", " +
         std::to_string(s.pivot_computations) + ")";
}

void ExpectSameRun(const std::vector<Visit>& want_trace,
                   const std::vector<NeighborResult>& want,
                   const QueryStats& want_stats,
                   const std::vector<Visit>& got_trace,
                   const std::vector<NeighborResult>& got,
                   const QueryStats& got_stats, const std::string& what) {
  ASSERT_EQ(got_trace.size(), want_trace.size()) << what;
  for (std::size_t i = 0; i < want_trace.size(); ++i) {
    ASSERT_TRUE(got_trace[i] == want_trace[i])
        << what << " visit " << i << ": got (" << got_trace[i].id << ", cap "
        << got_trace[i].cap << "), want (" << want_trace[i].id << ", cap "
        << want_trace[i].cap << ")";
  }
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].index, want[i].index) << what << " rank " << i;
    EXPECT_EQ(got[i].distance, want[i].distance) << what << " rank " << i;
  }
  EXPECT_TRUE(got_stats == want_stats)
      << what << ": got " << Describe(got_stats) << ", want "
      << Describe(want_stats);
}

void ExpectShardStats(const std::vector<QueryStats>& got,
                      const std::vector<QueryStats>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t s = 0; s < want.size(); ++s) {
    EXPECT_TRUE(got[s] == want[s])
        << what << " shard " << s << ": got " << Describe(got[s]) << ", want "
        << Describe(want[s]);
  }
}

TEST(LaesaEliminationTest, FixedBoundTailKeepsTheClassicVisitOrder) {
  DictionaryOptions opt;
  opt.word_count = 240;
  opt.seed = 7205;
  std::vector<std::string> protos;
  std::unordered_map<std::string, std::size_t> ids;
  for (const std::string& w : GenerateDictionary(opt).strings) {
    if (ids.emplace(w, protos.size()).second) protos.push_back(w);
  }
  Rng rng(7206);
  const auto queries = MakeQueries(protos, 12, 2, Alphabet::Latin(), rng);
  const PrototypeStore flat_store(protos);
  const std::size_t n = protos.size();

  for (const char* name : {"dE", "dC"}) {
    auto dist = std::make_shared<RecordingDistance>(MakeDistance(name), &ids);
    for (TablePrecision precision : {TablePrecision::kF64, TablePrecision::kU8}) {
      const Laesa flat(flat_store, dist, 10, 0, precision);
      const std::vector<std::size_t>& pivots = flat.pivots();
      const std::set<std::size_t> pivot_set(pivots.begin(), pivots.end());
      const ReferenceTable table(flat_store, *dist, pivots, precision);

      // Tombstone sets: none, random (~1 in 5), every pivot.
      std::vector<std::vector<std::uint64_t>> masks(3);
      masks[1].assign(TombstoneWords(n), 0);
      Rng mask_rng(7207);
      for (std::size_t i = 0; i < n; ++i) {
        if (mask_rng.Index(5) == 0) SetTombstone(masks[1].data(), i);
      }
      masks[2].assign(TombstoneWords(n), 0);
      for (std::size_t p : pivots) SetTombstone(masks[2].data(), p);

      for (std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
        const ShardedPrototypeStore sharded_store(protos, shards);
        const ShardedLaesa sharded(sharded_store, dist, 10, 0, precision);
        ASSERT_EQ(sharded.pivots(), pivots);

        for (const std::string& q : queries) {
          const std::string tag = std::string(name) + " " +
                                  TablePrecisionName(precision) +
                                  " S=" + std::to_string(shards) + " q=" + q;
          struct Lazy {
            std::size_t k;
            double slack;
          };
          for (const Lazy& c : {Lazy{1, 1.0}, Lazy{5, 1.0}, Lazy{1, 1.5}}) {
            const std::string what = tag + " lazy k=" + std::to_string(c.k) +
                                     " slack=" + std::to_string(c.slack);
            std::vector<Visit> want_trace, flat_trace, sharded_trace;
            QueryStats want_stats, flat_stats, sharded_stats;
            std::vector<QueryStats> shard_stats(shards);

            dist->trace = &want_trace;
            const auto want =
                ClassicLazySweep(flat_store, *dist, pivots, table.view, q,
                                 c.k, c.slack, nullptr, &want_stats);
            dist->trace = &flat_trace;
            const auto got_flat =
                c.slack != 1.0 ? std::vector<NeighborResult>{flat.NearestApprox(
                                     q, c.slack - 1.0, &flat_stats)}
                               : flat.KNearest(q, c.k, &flat_stats);
            dist->trace = &sharded_trace;
            const auto got_sharded =
                c.slack != 1.0
                    ? std::vector<NeighborResult>{sharded.NearestApprox(
                          q, c.slack - 1.0, &sharded_stats)}
                    : sharded.KNearest(q, c.k, &sharded_stats,
                                       shard_stats.data());
            dist->trace = nullptr;

            ExpectSameRun(want_trace, want, want_stats, flat_trace, got_flat,
                          flat_stats, what + " flat");
            ExpectSameRun(want_trace, want, want_stats, sharded_trace,
                          got_sharded, sharded_stats, what + " sharded");
            if (c.slack == 1.0) {
              ExpectShardStats(
                  shard_stats,
                  ShardStatsOf(want_trace, sharded_store, pivot_set),
                  what + " sharded");
            }
          }

          // Tombstones: the flat masked sweep (the mutable tier's path).
          if (shards == 1) {
            for (std::size_t m = 1; m < masks.size(); ++m) {
              for (std::size_t k : {std::size_t{1}, std::size_t{5}}) {
                const std::string what = tag + " mask " + std::to_string(m) +
                                         " k=" + std::to_string(k);
                std::vector<Visit> want_trace, got_trace;
                QueryStats want_stats, got_stats;
                dist->trace = &want_trace;
                const auto want = ClassicLazySweep(
                    flat_store, *dist, pivots, table.view, q, k, 1.0,
                    masks[m].data(), &want_stats);
                dist->trace = &got_trace;
                const auto got =
                    flat.KNearestMasked(q, k, masks[m].data(), &got_stats);
                dist->trace = nullptr;
                ExpectSameRun(want_trace, want, want_stats, got_trace, got,
                              got_stats, what);
                for (const Visit& v : got_trace) {
                  EXPECT_FALSE(TestTombstone(masks[m].data(), v.id)) << what;
                }
              }
            }
          }

          // Row path: the caller-computed pivot row.
          std::vector<double> row(pivots.size());
          for (std::size_t p = 0; p < pivots.size(); ++p) {
            row[p] = dist->Distance(q, protos[pivots[p]]);
          }
          for (std::size_t k : {std::size_t{1}, std::size_t{5}}) {
            const std::string what = tag + " row k=" + std::to_string(k);
            std::vector<Visit> want_trace, flat_trace, sharded_trace;
            QueryStats want_stats, flat_stats, sharded_stats;
            std::vector<QueryStats> shard_stats(shards);
            dist->trace = &want_trace;
            const auto want = ClassicRowSweep(flat_store, *dist, pivots,
                                              table.view, q, k, row.data(),
                                              &want_stats);
            dist->trace = &flat_trace;
            const auto got_flat =
                flat.KNearestWithPivotRow(q, k, row.data(), &flat_stats);
            dist->trace = &sharded_trace;
            const auto got_sharded = sharded.KNearestWithPivotRow(
                q, k, row.data(), &sharded_stats, shard_stats.data());
            dist->trace = nullptr;
            ExpectSameRun(want_trace, want, want_stats, flat_trace, got_flat,
                          flat_stats, what + " flat");
            ExpectSameRun(want_trace, want, want_stats, sharded_trace,
                          got_sharded, sharded_stats, what + " sharded");
            ExpectShardStats(
                shard_stats, ShardStatsOf(want_trace, sharded_store, pivot_set),
                what + " sharded");
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace cned
