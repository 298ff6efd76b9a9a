// Differential property tests for the dispatched sweep-kernel layer
// (search/sweep_kernel.h): every kernel variant compiled into this binary
// and supported by the running CPU must reproduce the scalar reference
// BIT FOR BIT — on randomised packed tables covering live counts of
// 0/1/odd/non-multiple-of-the-lane-width, +inf bounds left by eliminated
// slots, present and absent skip candidates, slack factors, and sparse /
// duplicated pivot sets — and at the index level, where `Laesa` and
// `ShardedLaesa` (including duplicate-pivot-row ablation builds and the
// batch engine's pivot-stage path) must answer with identical neighbours,
// distances AND QueryStats under every kernel. The quantized entries
// (search/table_quant.h) get the same bitwise differential treatment plus
// an admissibility property test: g_q <= |d - t| elementwise at every
// precision, for rows the QuantRowEncoder actually produces.
//
// The suite runs the same assertions regardless of which variant is
// *active*, so CI exercising CNED_SWEEP_KERNEL=scalar still covers the
// vector lanes of every available kernel.

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datasets/perturb.h"
#include "datasets/prototype_store.h"
#include "datasets/sharded_prototype_store.h"
#include "distances/registry.h"
#include "search/batch_engine.h"
#include "search/laesa.h"
#include "search/sharded_laesa.h"
#include "search/sweep_kernel.h"
#include "search/table_quant.h"
#include "tests/snapshot_test_util.h"

namespace cned {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Restores the startup-active kernel variant when a test is done forcing.
class KernelGuard {
 public:
  KernelGuard() : saved_(ActiveSweepKernels().name) {}
  ~KernelGuard() { SetActiveSweepKernels(saved_); }

 private:
  std::string saved_;
};

/// Non-scalar variants to check against the scalar reference.
std::vector<const SweepKernels*> VariantKernels() {
  std::vector<const SweepKernels*> variants;
  for (const SweepKernels* k : AvailableSweepKernels()) {
    if (std::string_view(k->name) != "scalar") variants.push_back(k);
  }
  return variants;
}

/// The live-count shapes the lane-width-sensitive code paths care about:
/// empty, single, below/at/above one vector, odd, non-multiples of 4 and 8,
/// and a size big enough for many full blocks plus a tail.
const std::size_t kLiveCounts[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 13, 31, 64, 257};

struct PackedInput {
  AlignedBuffer<std::uint32_t> idx;
  AlignedBuffer<double> lower;
};

/// Fills idx with a random strictly ascending id subset (starting at
/// `base`) and lower with random bounds, a fraction of them +inf (the
/// values eliminated slots leave behind).
void MakePacked(std::mt19937_64& rng, std::size_t live, std::uint32_t base,
                PackedInput* in) {
  in->idx.resize(live + 8);
  in->lower.resize(live + 8);
  std::uniform_int_distribution<std::uint32_t> gap(1, 3);
  std::uniform_real_distribution<double> value(0.0, 8.0);
  std::uint32_t id = base;
  for (std::size_t r = 0; r < live; ++r) {
    id += gap(rng);
    in->idx.data()[r] = id;
    const int kind = static_cast<int>(rng() % 8);
    // A few duplicates-by-value and a few infinities among the bounds.
    in->lower.data()[r] =
        kind == 0 ? kInf : (kind == 1 ? 1.5 : value(rng));
  }
}

void ExpectSameResult(const SweepCompactResult& ref,
                      const SweepCompactResult& got, const std::string& ctx) {
  EXPECT_EQ(ref.live, got.live) << ctx;
  EXPECT_EQ(ref.pivots_died, got.pivots_died) << ctx;
  EXPECT_EQ(ref.next, got.next) << ctx;
  EXPECT_EQ(ref.next_pivot, got.next_pivot) << ctx;
  // Bit equality, not numeric equality.
  EXPECT_EQ(std::memcmp(&ref.next_key, &got.next_key, sizeof(double)), 0)
      << ctx << " next_key " << ref.next_key << " vs " << got.next_key;
  EXPECT_EQ(std::memcmp(&ref.next_pivot_key, &got.next_pivot_key,
                        sizeof(double)),
            0)
      << ctx;
}

TEST(SweepKernelTest, UpdateLowerDenseMatchesScalarBitwise) {
  std::mt19937_64 rng(0xD15EA5E);
  std::uniform_real_distribution<double> value(0.0, 8.0);
  for (const SweepKernels* k : VariantKernels()) {
    for (std::size_t n : kLiveCounts) {
      for (int trial = 0; trial < 16; ++trial) {
        std::vector<double> row(n);
        AlignedBuffer<double> ref, got;
        ref.resize(n + 4);
        got.resize(n + 4);
        for (std::size_t i = 0; i < n; ++i) {
          row[i] = trial % 4 == 0 ? 2.5 : value(rng);  // duplicate-row case
          ref.data()[i] = rng() % 16 == 0 ? kInf : value(rng);
          got.data()[i] = ref.data()[i];
        }
        const double d = value(rng);
        ScalarSweepKernels().update_lower_dense(d, row.data(), ref.data(), n);
        k->update_lower_dense(d, row.data(), got.data(), n);
        EXPECT_EQ(std::memcmp(ref.data(), got.data(), n * sizeof(double)), 0)
            << k->name << " n=" << n << " trial=" << trial;
      }
    }
  }
}

TEST(SweepKernelTest, UpdateLowerPackedMatchesScalarBitwise) {
  std::mt19937_64 rng(0xBADF00D);
  std::uniform_real_distribution<double> value(0.0, 8.0);
  for (const SweepKernels* k : VariantKernels()) {
    for (std::size_t live : kLiveCounts) {
      for (std::uint32_t base : {0u, 7u, 129u}) {
        PackedInput ref, got;
        MakePacked(rng, live, base, &ref);
        const std::uint32_t max_id =
            live > 0 ? ref.idx.data()[live - 1] : base;
        std::vector<double> row(max_id - base + 1);
        for (double& v : row) v = value(rng);
        got.idx.resize(live + 8);
        got.lower.resize(live + 8);
        std::memcpy(got.idx.data(), ref.idx.data(),
                    live * sizeof(std::uint32_t));
        std::memcpy(got.lower.data(), ref.lower.data(),
                    live * sizeof(double));
        const double d = value(rng);
        ScalarSweepKernels().update_lower_packed(d, row.data(),
                                                 ref.idx.data(), base,
                                                 ref.lower.data(), live);
        k->update_lower_packed(d, row.data(), got.idx.data(), base,
                               got.lower.data(), live);
        EXPECT_EQ(std::memcmp(ref.lower.data(), got.lower.data(),
                              live * sizeof(double)),
                  0)
            << k->name << " live=" << live << " base=" << base;
      }
    }
  }
}

TEST(SweepKernelTest, FillAbsDiffBoundsMatchesScalarBitwise) {
  std::mt19937_64 rng(0xFEEDFACE);
  for (const SweepKernels* k : VariantKernels()) {
    for (std::size_t n : kLiveCounts) {
      for (std::size_t x_len :
           {std::size_t{0}, std::size_t{3}, std::size_t{40},
            std::size_t{1} << 20, std::size_t{1} << 40}) {
        std::vector<std::uint32_t> lens(n);
        for (std::size_t i = 0; i < n; ++i) {
          switch (rng() % 4) {
            case 0: lens[i] = static_cast<std::uint32_t>(rng() % 64); break;
            case 1: lens[i] = 0; break;
            case 2: lens[i] = 0xFFFFFFFFu; break;  // full u32 range
            default: lens[i] = static_cast<std::uint32_t>(rng()); break;
          }
        }
        // +1 keeps data() non-null at n = 0 (memcmp is declared nonnull).
        std::vector<double> ref(n + 1), got(n + 1);
        ScalarSweepKernels().fill_absdiff_bounds(x_len, lens.data(), n,
                                                 ref.data());
        k->fill_absdiff_bounds(x_len, lens.data(), n, got.data());
        EXPECT_EQ(std::memcmp(ref.data(), got.data(), n * sizeof(double)), 0)
            << k->name << " n=" << n << " x_len=" << x_len;
      }
    }
  }
}

TEST(SweepKernelTest, EliminateAndCompactMatchesScalarBitwise) {
  std::mt19937_64 rng(0xC0FFEE);
  std::uniform_real_distribution<double> value(0.0, 8.0);
  for (const SweepKernels* k : VariantKernels()) {
    for (std::size_t live : kLiveCounts) {
      for (int trial = 0; trial < 24; ++trial) {
        PackedInput ref, got;
        MakePacked(rng, live, trial % 2 ? 11 : 0, &ref);
        got.idx.resize(live + 8);
        got.lower.resize(live + 8);
        std::memcpy(got.idx.data(), ref.idx.data(),
                    live * sizeof(std::uint32_t));
        std::memcpy(got.lower.data(), ref.lower.data(),
                    live * sizeof(double));
        // Skip present (a live id), absent, or the "none" sentinel.
        std::uint32_t skip = 0xFFFFFFFFu;
        if (live > 0 && trial % 3 == 0) {
          skip = ref.idx.data()[rng() % live];
        } else if (trial % 3 == 1) {
          skip = 5;  // usually absent
        }
        const double bound = trial % 5 == 0 ? kInf : value(rng);
        const SweepCompactResult r0 = ScalarSweepKernels().eliminate_and_compact(
            ref.idx.data(), ref.lower.data(), live, skip, bound);
        const SweepCompactResult r1 = k->eliminate_and_compact(
            got.idx.data(), got.lower.data(), live, skip, bound);
        const std::string ctx = std::string(k->name) + " live=" +
                                std::to_string(live) + " trial=" +
                                std::to_string(trial);
        ExpectSameResult(r0, r1, ctx);
        ASSERT_EQ(r0.live, r1.live) << ctx;
        EXPECT_EQ(std::memcmp(ref.idx.data(), got.idx.data(),
                              r0.live * sizeof(std::uint32_t)),
                  0)
            << ctx;
        EXPECT_EQ(std::memcmp(ref.lower.data(), got.lower.data(),
                              r0.live * sizeof(double)),
                  0)
            << ctx;
      }
    }
  }
}

TEST(SweepKernelTest, EliminateAndCompactFlaggedMatchesScalarBitwise) {
  std::mt19937_64 rng(0x5EEDC0DE);
  std::uniform_real_distribution<double> value(0.0, 8.0);
  for (const SweepKernels* k : VariantKernels()) {
    for (std::size_t live : kLiveCounts) {
      for (double slack : {1.0, 1.5, 2.0}) {
        for (int trial = 0; trial < 16; ++trial) {
          PackedInput ref, got;
          MakePacked(rng, live, 0, &ref);
          got.idx.resize(live + 8);
          got.lower.resize(live + 8);
          std::memcpy(got.idx.data(), ref.idx.data(),
                      live * sizeof(std::uint32_t));
          std::memcpy(got.lower.data(), ref.lower.data(),
                      live * sizeof(double));
          // Sparse pivot ranks over the id space (and dense every 16th
          // trial, the all-pivots edge).
          const std::uint32_t max_id =
              live > 0 ? ref.idx.data()[live - 1] : 4;
          std::vector<std::int32_t> rank(max_id + 8, -1);
          std::int32_t next_rank = 0;
          for (std::size_t id = 0; id < rank.size(); ++id) {
            if (rng() % 4 == 0 || trial == 15) rank[id] = next_rank++;
          }
          std::uint32_t skip = 0xFFFFFFFFu;
          if (live > 0 && trial % 2 == 0) skip = ref.idx.data()[rng() % live];
          const double bound = trial % 5 == 0 ? kInf : value(rng);
          const SweepCompactResult r0 =
              ScalarSweepKernels().eliminate_and_compact_flagged(
                  ref.idx.data(), ref.lower.data(), rank.data(), live, skip,
                  slack, bound);
          const SweepCompactResult r1 = k->eliminate_and_compact_flagged(
              got.idx.data(), got.lower.data(), rank.data(), live, skip,
              slack, bound);
          const std::string ctx = std::string(k->name) + " live=" +
                                  std::to_string(live) + " slack=" +
                                  std::to_string(slack) + " trial=" +
                                  std::to_string(trial);
          ExpectSameResult(r0, r1, ctx);
          ASSERT_EQ(r0.live, r1.live) << ctx;
          EXPECT_EQ(std::memcmp(ref.idx.data(), got.idx.data(),
                                r0.live * sizeof(std::uint32_t)),
                    0)
              << ctx;
          EXPECT_EQ(std::memcmp(ref.lower.data(), got.lower.data(),
                                r0.live * sizeof(double)),
                    0)
              << ctx;
        }
      }
    }
  }
}

TEST(SweepKernelTest, CompactSeedMatchesScalarBitwise) {
  std::mt19937_64 rng(0xABCD1234);
  std::uniform_real_distribution<double> value(0.0, 8.0);
  for (const SweepKernels* k : VariantKernels()) {
    for (std::size_t n : kLiveCounts) {
      for (std::uint32_t base : {0u, 17u}) {
        for (int aliased = 0; aliased < 2; ++aliased) {
          AlignedBuffer<double> dense_ref, dense_got, out_ref, out_got;
          AlignedBuffer<std::uint32_t> idx_ref, idx_got;
          dense_ref.resize(n + 4);
          dense_got.resize(n + 4);
          out_ref.resize(n + 4);
          out_got.resize(n + 4);
          idx_ref.resize(n + 4);
          idx_got.resize(n + 4);
          std::vector<std::int32_t> rank(n + 4, -1);
          std::int32_t next_rank = 0;
          for (std::size_t j = 0; j < n; ++j) {
            dense_ref.data()[j] = rng() % 8 == 0 ? kInf : value(rng);
            dense_got.data()[j] = dense_ref.data()[j];
            if (rng() % 5 == 0) rank[j] = next_rank++;
          }
          const double bound = rng() % 4 == 0 ? kInf : value(rng);
          double* lower_out_ref = aliased ? dense_ref.data() : out_ref.data();
          double* lower_out_got = aliased ? dense_got.data() : out_got.data();
          const SweepCompactResult r0 = ScalarSweepKernels().compact_seed(
              dense_ref.data(), rank.data(), n, base, bound, idx_ref.data(),
              lower_out_ref);
          const SweepCompactResult r1 =
              k->compact_seed(dense_got.data(), rank.data(), n, base, bound,
                              idx_got.data(), lower_out_got);
          const std::string ctx = std::string(k->name) + " n=" +
                                  std::to_string(n) + " base=" +
                                  std::to_string(base) +
                                  (aliased ? " aliased" : "");
          ExpectSameResult(r0, r1, ctx);
          ASSERT_EQ(r0.live, r1.live) << ctx;
          EXPECT_EQ(std::memcmp(idx_ref.data(), idx_got.data(),
                                r0.live * sizeof(std::uint32_t)),
                    0)
              << ctx;
          EXPECT_EQ(std::memcmp(lower_out_ref, lower_out_got,
                                r0.live * sizeof(double)),
                    0)
              << ctx;
        }
      }
    }
  }
}

TEST(SweepKernelTest, CandidateHeapPopsInBoundThenIdOrder) {
  // The fixed-bound tail's heap must yield (lower, id) order exactly —
  // coarse bounds force many ties, which must fall to the smaller id.
  std::mt19937_64 rng(0xBEEF);
  for (std::size_t live : kLiveCounts) {
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<std::pair<double, std::uint32_t>> want(live);
      for (std::size_t r = 0; r < live; ++r) {
        want[r].first = trial % 2 ? static_cast<double>(rng() % 4)
                                  : static_cast<double>(rng() % 1000) / 7.0;
        want[r].second = static_cast<std::uint32_t>(3 * r + trial);
      }
      std::shuffle(want.begin(), want.end(), rng);
      std::vector<std::uint32_t> idx(live);
      std::vector<double> lower(live);
      for (std::size_t r = 0; r < live; ++r) {
        lower[r] = want[r].first;
        idx[r] = want[r].second;
      }
      std::sort(want.begin(), want.end());
      HeapifyCandidates(idx.data(), lower.data(), live);
      for (std::size_t i = 0; i < live; ++i) {
        ASSERT_EQ(idx[0], want[i].second) << "live=" << live << " pop " << i;
        ASSERT_EQ(lower[0], want[i].first) << "live=" << live << " pop " << i;
        PopCandidate(idx.data(), lower.data(), live - i);
      }
    }
  }
}

TEST(SweepKernelTest, DispatchRoundTripAndForcedScalar) {
  KernelGuard guard;
  // Scalar is always available and forceable (the CI fallback contract).
  ASSERT_TRUE(SetActiveSweepKernels("scalar"));
  EXPECT_EQ(std::string_view(ActiveSweepKernels().name), "scalar");
  // Unknown names are rejected without changing the active variant.
  EXPECT_FALSE(SetActiveSweepKernels("avx512-unicorn"));
  EXPECT_EQ(std::string_view(ActiveSweepKernels().name), "scalar");
  // "auto" selects the fastest available variant (the last in the list).
  ASSERT_TRUE(SetActiveSweepKernels("auto"));
  EXPECT_EQ(std::string_view(ActiveSweepKernels().name),
            std::string_view(AvailableSweepKernels().back()->name));
  // Every listed variant is individually selectable.
  for (const SweepKernels* k : AvailableSweepKernels()) {
    EXPECT_TRUE(SetActiveSweepKernels(k->name)) << k->name;
    EXPECT_EQ(std::string_view(ActiveSweepKernels().name),
              std::string_view(k->name));
  }
}

/// Everything one query answers across the index entry points.
struct Probe {
  NeighborResult nearest;
  std::vector<NeighborResult> knn;
  std::vector<NeighborResult> range;
  NeighborResult approx;
  std::vector<NeighborResult> staged_knn;
  QueryStats stats;
};

Probe ProbeLaesa(const Laesa& index, std::string_view q) {
  Probe p;
  p.nearest = index.Nearest(q, &p.stats);
  p.knn = index.KNearest(q, 3, &p.stats);
  p.range = index.RangeSearch(q, p.nearest.distance * 1.5 + 1.0, &p.stats);
  p.approx = index.NearestApprox(q, 0.5, &p.stats);
  std::vector<double> row(index.pivot_count());
  index.ComputePivotRow(q, row.data(), &p.stats);
  p.staged_knn = index.KNearestWithPivotRow(q, 3, row.data(), &p.stats);
  return p;
}

Probe ProbeSharded(const ShardedLaesa& index, std::string_view q) {
  Probe p;
  p.nearest = index.Nearest(q, &p.stats);
  p.knn = index.KNearest(q, 3, &p.stats);
  p.approx = index.NearestApprox(q, 0.5, &p.stats);
  std::vector<double> row(index.pivot_count());
  index.ComputePivotRow(q, row.data(), &p.stats);
  p.staged_knn = index.KNearestWithPivotRow(q, 3, row.data(), &p.stats);
  return p;
}

void ExpectIdentical(const Probe& a, const Probe& b, const std::string& ctx) {
  EXPECT_EQ(a.nearest.index, b.nearest.index) << ctx;
  EXPECT_EQ(a.nearest.distance, b.nearest.distance) << ctx;
  EXPECT_EQ(a.approx.index, b.approx.index) << ctx;
  EXPECT_EQ(a.approx.distance, b.approx.distance) << ctx;
  EXPECT_TRUE(a.stats == b.stats)
      << ctx << " computations " << a.stats.distance_computations << " vs "
      << b.stats.distance_computations;
  ASSERT_EQ(a.knn.size(), b.knn.size()) << ctx;
  for (std::size_t i = 0; i < a.knn.size(); ++i) {
    EXPECT_EQ(a.knn[i].index, b.knn[i].index) << ctx << " k-rank " << i;
    EXPECT_EQ(a.knn[i].distance, b.knn[i].distance) << ctx << " k-rank " << i;
  }
  ASSERT_EQ(a.range.size(), b.range.size()) << ctx;
  for (std::size_t i = 0; i < a.range.size(); ++i) {
    EXPECT_EQ(a.range[i].index, b.range[i].index) << ctx << " hit " << i;
    EXPECT_EQ(a.range[i].distance, b.range[i].distance) << ctx << " hit " << i;
  }
  ASSERT_EQ(a.staged_knn.size(), b.staged_knn.size()) << ctx;
  for (std::size_t i = 0; i < a.staged_knn.size(); ++i) {
    EXPECT_EQ(a.staged_knn[i].index, b.staged_knn[i].index) << ctx;
    EXPECT_EQ(a.staged_knn[i].distance, b.staged_knn[i].distance) << ctx;
  }
}

// --- Quantized entries (search/table_quant.h) ------------------------------

constexpr TablePrecision kQuantPrecisions[] = {
    TablePrecision::kF32, TablePrecision::kF16, TablePrecision::kU8};

/// One encoded pivot row plus the view the dispatch helpers consume.
struct QuantRow {
  std::vector<double> exact;
  std::vector<unsigned char> codes;
  QuantRowMeta meta;
  QuantTableView view;
};

QuantRow EncodeRow(TablePrecision prec, std::vector<double> values) {
  QuantRow row;
  row.exact = std::move(values);
  row.codes.resize(row.exact.size() * TablePrecisionBytes(prec) + 8);
  QuantRowEncoder enc;
  enc.Scan(row.exact.data(), row.exact.size());
  enc.Prepare(prec);
  enc.Encode(row.exact.data(), row.exact.size(), row.codes.data());
  row.meta = enc.Finish();
  row.view.precision = prec;
  row.view.q = row.codes.data();
  row.view.rows = &row.meta;
  return row;
}

TEST(SweepKernelTest, QuantizedUpdateLowerDenseMatchesScalarBitwise) {
  std::mt19937_64 rng(0x5CA1AB1E);
  std::uniform_real_distribution<double> value(0.0, 8.0);
  for (const SweepKernels* k : VariantKernels()) {
    for (TablePrecision prec : kQuantPrecisions) {
      for (std::size_t n : kLiveCounts) {
        for (int trial = 0; trial < 8; ++trial) {
          std::vector<double> exact(n);
          for (double& v : exact) {
            v = trial % 4 == 0 ? 2.5 : value(rng);  // duplicate-row case
          }
          const QuantRow row = EncodeRow(prec, exact);
          AlignedBuffer<double> ref, got;
          ref.resize(n + 4);
          got.resize(n + 4);
          for (std::size_t i = 0; i < n; ++i) {
            ref.data()[i] = rng() % 16 == 0 ? kInf : value(rng);
            got.data()[i] = ref.data()[i];
          }
          const double d = value(rng);
          QuantUpdateLowerDense(ScalarSweepKernels(), row.view, 0, n, d,
                                ref.data());
          QuantUpdateLowerDense(*k, row.view, 0, n, d, got.data());
          EXPECT_EQ(std::memcmp(ref.data(), got.data(), n * sizeof(double)),
                    0)
              << k->name << " " << TablePrecisionName(prec) << " n=" << n
              << " trial=" << trial;
        }
      }
    }
  }
}

TEST(SweepKernelTest, QuantizedUpdateLowerPackedMatchesScalarBitwise) {
  std::mt19937_64 rng(0x0DDBA11);
  std::uniform_real_distribution<double> value(0.0, 8.0);
  for (const SweepKernels* k : VariantKernels()) {
    for (TablePrecision prec : kQuantPrecisions) {
      for (std::size_t live : kLiveCounts) {
        for (std::uint32_t base : {0u, 7u, 129u}) {
          PackedInput ref, got;
          MakePacked(rng, live, base, &ref);
          const std::uint32_t max_id =
              live > 0 ? ref.idx.data()[live - 1] : base;
          std::vector<double> exact(max_id - base + 1);
          for (double& v : exact) v = value(rng);
          const QuantRow row = EncodeRow(prec, exact);
          got.idx.resize(live + 8);
          got.lower.resize(live + 8);
          std::memcpy(got.idx.data(), ref.idx.data(),
                      live * sizeof(std::uint32_t));
          std::memcpy(got.lower.data(), ref.lower.data(),
                      live * sizeof(double));
          const double d = value(rng);
          QuantUpdateLowerPacked(ScalarSweepKernels(), row.view, 0,
                                 exact.size(), d, ref.idx.data(), base,
                                 ref.lower.data(), live);
          QuantUpdateLowerPacked(*k, row.view, 0, exact.size(), d,
                                 got.idx.data(), base, got.lower.data(), live);
          EXPECT_EQ(std::memcmp(ref.lower.data(), got.lower.data(),
                                live * sizeof(double)),
                    0)
              << k->name << " " << TablePrecisionName(prec)
              << " live=" << live << " base=" << base;
        }
      }
    }
  }
}

// The property the whole quantization scheme rests on: every quantized
// tightening is an ADMISSIBLE lower bound — g_q <= |d - t| elementwise for
// the exact table entry t, for every precision and every kernel variant.
// Checked on rows spanning narrow, wide, constant and near-zero ranges and
// on query distances inside, outside and far outside the row's range.
//
// The inequality is exact in real arithmetic; the kernels' correctly
// rounded ops can carry it over by ulps of the operands (the u8 arm
// regroups (offset + c*scale) - d as c*scale - (d - offset)), which the
// encoder's gap inflation bounds far below the separation between distinct
// distance values (table_quant.cc, InflateGap). The assertion allows
// exactly that documented ulp-scale slack and nothing more.
TEST(SweepKernelTest, QuantizedBoundsAreAdmissible) {
  std::mt19937_64 rng(0xADA151B1);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const double kSpans[] = {1e-9, 0.013, 1.0, 97.0, 4096.0};
  for (const SweepKernels* k : AvailableSweepKernels()) {
    for (TablePrecision prec : kQuantPrecisions) {
      for (double span : kSpans) {
        for (int trial = 0; trial < 12; ++trial) {
          const std::size_t n = 1 + rng() % 96;
          const double lo = unit(rng) * 10.0;
          std::vector<double> exact(n);
          for (double& v : exact) {
            v = trial % 5 == 0 ? lo : lo + unit(rng) * span;  // constant rows
          }
          const QuantRow row = EncodeRow(prec, exact);
          AlignedBuffer<double> lower;
          lower.resize(n + 4);
          const double d = trial % 3 == 0 ? unit(rng) * 3.0 * span
                                          : lo + unit(rng) * span;
          for (std::size_t i = 0; i < n; ++i) lower.data()[i] = 0.0;
          QuantUpdateLowerDense(*k, row.view, 0, n, d, lower.data());
          for (std::size_t i = 0; i < n; ++i) {
            const double slack =
                16.0 * DBL_EPSILON * (std::abs(d) + std::abs(exact[i]));
            EXPECT_LE(lower.data()[i], std::abs(d - exact[i]) + slack)
                << k->name << " " << TablePrecisionName(prec)
                << " span=" << span << " trial=" << trial << " i=" << i
                << " t=" << exact[i] << " d=" << d;
          }
        }
      }
    }
  }
}

TEST(SweepKernelTest, PrototypeCountLimitIsExplicit) {
  // Every id below the limit fits a signed 32-bit gather lane and differs
  // from the u32 "none" skip value.
  static_assert(kMaxSweepPrototypes - 1 <= 0x7FFFFFFFu);
  EXPECT_NO_THROW(CheckSweepPrototypeCount(kMaxSweepPrototypes, "Index"));
  try {
    CheckSweepPrototypeCount(kMaxSweepPrototypes + 1, "Index");
    FAIL() << "expected std::length_error past the limit";
  } catch (const std::length_error& e) {
    EXPECT_EQ(std::string(e.what()),
              "Index: 2147483649 prototypes exceed the sweep limit of "
              "2147483648 (32-bit candidate ids)");
  }
}

TEST(SweepKernelIndexTest, FlatIndexBitIdenticalAcrossKernels) {
  KernelGuard guard;
  const auto words = Words(220, 20260731);
  PrototypeStore store(words);
  Rng rng(4242);
  const auto queries = MakeQueries(words, 12, 2, Alphabet::Latin(), rng);

  for (const char* dist_name : {"dE", "dYB", "dmax"}) {
    auto dist = MakeDistance(dist_name);
    Laesa index(store, dist, 7);
    // Duplicate pivot rows: the ablation constructor accepts repeated pivot
    // indices, which the sweeps must treat as one candidate but two rows.
    Laesa dup(store, dist, std::vector<std::size_t>{3, 3, 17, 42});

    ASSERT_TRUE(SetActiveSweepKernels("scalar"));
    std::vector<Probe> ref, dup_ref;
    for (const auto& q : queries) {
      ref.push_back(ProbeLaesa(index, q));
      dup_ref.push_back(ProbeLaesa(dup, q));
    }
    for (const SweepKernels* k : VariantKernels()) {
      ASSERT_TRUE(SetActiveSweepKernels(k->name));
      for (std::size_t i = 0; i < queries.size(); ++i) {
        const std::string ctx = std::string(dist_name) + " kernel " +
                                k->name + " q=" + queries[i];
        ExpectIdentical(ref[i], ProbeLaesa(index, queries[i]), ctx);
        ExpectIdentical(dup_ref[i], ProbeLaesa(dup, queries[i]),
                        ctx + " [dup pivots]");
      }
    }
  }
}

TEST(SweepKernelIndexTest, ShardedIndexAndEngineBitIdenticalAcrossKernels) {
  KernelGuard guard;
  const auto words = Words(180, 20260801);
  Rng rng(777);
  const auto query_vec = MakeQueries(words, 10, 2, Alphabet::Latin(), rng);
  PrototypeStore queries(query_vec);

  for (const char* dist_name : {"dE", "dYB"}) {
    auto dist = MakeDistance(dist_name);
    for (std::size_t shards : {1u, 3u, 4u}) {
      ShardedPrototypeStore store(words, shards);
      ShardedLaesa index(store, dist, 6);
      BatchQueryEngine::Options opt;
      opt.pivot_stage = true;
      BatchQueryEngine engine(index, opt);

      ASSERT_TRUE(SetActiveSweepKernels("scalar"));
      std::vector<Probe> ref;
      for (const auto& q : query_vec) ref.push_back(ProbeSharded(index, q));
      QueryStats ref_stats;
      const auto ref_batch = engine.Nearest(queries, &ref_stats);

      for (const SweepKernels* k : VariantKernels()) {
        ASSERT_TRUE(SetActiveSweepKernels(k->name));
        for (std::size_t i = 0; i < query_vec.size(); ++i) {
          const std::string ctx = std::string(dist_name) + " S=" +
                                  std::to_string(shards) + " kernel " +
                                  k->name + " q=" + query_vec[i];
          ExpectIdentical(ref[i], ProbeSharded(index, query_vec[i]), ctx);
        }
        QueryStats got_stats;
        const auto got_batch = engine.Nearest(queries, &got_stats);
        EXPECT_TRUE(ref_stats == got_stats)
            << dist_name << " S=" << shards << " kernel " << k->name;
        ASSERT_EQ(ref_batch.size(), got_batch.size());
        for (std::size_t i = 0; i < ref_batch.size(); ++i) {
          EXPECT_EQ(ref_batch[i].index, got_batch[i].index)
              << dist_name << " S=" << shards << " kernel " << k->name;
          EXPECT_EQ(ref_batch[i].distance, got_batch[i].distance)
              << dist_name << " S=" << shards << " kernel " << k->name;
        }
      }
    }
  }
}

}  // namespace
}  // namespace cned
