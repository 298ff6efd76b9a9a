// Bounded-kernel engine benchmark: (1) raw kernel throughput of the banded
// contextual DP with and without a caller bound, counting DP cells; (2)
// end-to-end LAESA nearest-neighbour queries on the dictionary workload with
// the bound-passing engine versus an adapter that ignores bounds (the
// pre-engine baseline) — same pivots, same elimination trajectory, so any
// delta is pure kernel work. Results must be identical; wall time and DP
// cells must not be.
//
// Human-readable progress goes to stderr; a single JSON object for the perf
// trajectory goes to stdout.

#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/config.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/contextual.h"
#include "datasets/perturb.h"
#include "distances/levenshtein.h"
#include "distances/registry.h"
#include "search/laesa.h"
#include "strings/string_gen.h"

namespace cned {
namespace {

/// Baseline adapter: forwards `Distance` but *ignores* the bound, restoring
/// the pre-engine behaviour where every evaluation runs to completion.
class UnboundedAdapter final : public StringDistance {
 public:
  explicit UnboundedAdapter(StringDistancePtr inner)
      : inner_(std::move(inner)) {}
  double Distance(std::string_view x, std::string_view y) const override {
    return inner_->Distance(x, y);
  }
  double DistanceBounded(std::string_view x, std::string_view y,
                         double) const override {
    return inner_->Distance(x, y);
  }
  std::string name() const override { return inner_->name() + "(unbounded)"; }
  bool is_metric() const override { return inner_->is_metric(); }

 private:
  StringDistancePtr inner_;
};

struct KernelRun {
  double seconds = 0.0;
  std::uint64_t cells = 0;
  std::uint64_t abandons = 0;
};

// `exact` holds every pair's unbounded distance, computed before any run,
// so a bounded run's cells and seconds count only its own evaluations.
KernelRun RunContextualPairs(
    const std::vector<std::pair<std::string, std::string>>& pairs,
    const std::vector<double>& exact, double bound_factor) {
  KernelRun run;
  ResetContextualCellsEvaluated();
  Stopwatch w;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto& [x, y] = pairs[i];
    if (bound_factor <= 0.0) {
      (void)ContextualDistanceDetailed(x, y);
    } else {
      // Simulate an index incumbent at `bound_factor` times the true value.
      const double bound = exact[i] * bound_factor;
      if (ContextualDistanceDetailed(x, y, bound).distance >= bound) {
        ++run.abandons;
      }
    }
  }
  run.seconds = w.Seconds();
  run.cells = ContextualCellsEvaluated();
  return run;
}

int Run() {
  std::ostream& log = std::cerr;
  log << "micro_bounded_kernel: bounded-vs-unbounded contextual kernel and "
         "end-to-end LAESA (scale=" << Config::Scale() << ")\n";

  // -------------------------------------------------------------------
  // Part 1: raw kernel, near-duplicate pairs (the index query regime).
  // -------------------------------------------------------------------
  const auto pair_count =
      static_cast<std::size_t>(Config::ScaledInt("MBK_PAIRS", 400));
  Rng rng(Config::Seed() + 31);
  Alphabet latin = Alphabet::Latin();
  std::vector<std::pair<std::string, std::string>> pairs;
  pairs.reserve(pair_count);
  std::size_t total_len = 0;
  for (std::size_t i = 0; i < pair_count; ++i) {
    std::string x = StringGen::UniformLength(rng, latin, 16, 48);
    std::string y = x;
    for (int e = 0; e < 3 && !y.empty(); ++e) {
      y[rng.Index(y.size())] = latin.symbol(rng.Index(latin.size()));
    }
    total_len += x.size() + y.size();
    pairs.emplace_back(std::move(x), std::move(y));
  }

  std::vector<double> exact;
  exact.reserve(pairs.size());
  for (const auto& [x, y] : pairs) {
    exact.push_back(ContextualDistanceDetailed(x, y).distance);
  }
  KernelRun unbounded = RunContextualPairs(pairs, exact, 0.0);
  KernelRun tight = RunContextualPairs(pairs, exact, 0.5);  // incumbent below d
  KernelRun loose = RunContextualPairs(pairs, exact, 1.5);  // incumbent above d
  log << "  kernel: " << pairs.size() << " pairs, unbounded "
      << unbounded.cells << " cells in " << unbounded.seconds * 1e3
      << " ms; tight-bound pass abandoned " << tight.abandons << "\n";

  // -------------------------------------------------------------------
  // Part 2: end-to-end LAESA on the dictionary workload, exact dC.
  // -------------------------------------------------------------------
  const auto pool =
      static_cast<std::size_t>(Config::ScaledInt("MBK_POOL", 1000));
  const auto num_queries =
      static_cast<std::size_t>(Config::ScaledInt("MBK_QUERIES", 150));
  const auto pivots =
      static_cast<std::size_t>(Config::ScaledInt("MBK_PIVOTS", 30));

  Dataset dict = bench::MakeDictionary(pool, Config::Seed());
  Rng qrng(Config::Seed() + 32);
  auto queries = MakeQueries(dict.strings, num_queries, 2, latin, qrng);

  auto contextual = MakeDistance("dC");
  auto baseline = std::make_shared<UnboundedAdapter>(contextual);

  Laesa laesa_bounded(dict.strings, contextual, pivots);
  Laesa laesa_baseline(dict.strings, baseline, pivots);

  Laesa::QueryStats stats_bounded, stats_baseline;
  std::vector<NeighborResult> results_bounded, results_baseline;
  results_bounded.reserve(queries.size());
  results_baseline.reserve(queries.size());

  ResetContextualCellsEvaluated();
  Stopwatch w_baseline;
  for (const auto& q : queries) {
    results_baseline.push_back(laesa_baseline.Nearest(q, &stats_baseline));
  }
  const double baseline_s = w_baseline.Seconds();
  const std::uint64_t baseline_cells = ContextualCellsEvaluated();

  ResetContextualCellsEvaluated();
  Stopwatch w_bounded;
  for (const auto& q : queries) {
    results_bounded.push_back(laesa_bounded.Nearest(q, &stats_bounded));
  }
  const double bounded_s = w_bounded.Seconds();
  const std::uint64_t bounded_cells = ContextualCellsEvaluated();

  bool identical = results_bounded.size() == results_baseline.size();
  for (std::size_t i = 0; identical && i < results_bounded.size(); ++i) {
    identical = results_bounded[i].index == results_baseline[i].index &&
                results_bounded[i].distance == results_baseline[i].distance;
  }

  log << "  laesa: " << pool << " prototypes, " << queries.size()
      << " queries, " << pivots << " pivots\n"
      << "    baseline " << baseline_s * 1e3 << " ms, " << baseline_cells
      << " cells; bounded " << bounded_s * 1e3 << " ms, " << bounded_cells
      << " cells, " << stats_bounded.bounded_abandons << " abandons\n"
      << "    identical results: " << (identical ? "yes" : "NO") << "\n";

  // -------------------------------------------------------------------
  // JSON for the perf trajectory.
  // -------------------------------------------------------------------
  std::cout.precision(6);
  std::cout << "{\n"
            << "  \"bench\": \"micro_bounded_kernel\",\n"
            << "  \"kernel\": {\n"
            << "    \"pairs\": " << pairs.size() << ",\n"
            << "    \"avg_pair_len\": "
            << static_cast<double>(total_len) /
                   static_cast<double>(pairs.empty() ? 1 : pairs.size())
            << ",\n"
            << "    \"unbounded\": {\"seconds\": " << unbounded.seconds
            << ", \"cells\": " << unbounded.cells << "},\n"
            << "    \"tight_bound\": {\"seconds\": " << tight.seconds
            << ", \"cells\": " << tight.cells
            << ", \"abandons\": " << tight.abandons << "},\n"
            << "    \"loose_bound\": {\"seconds\": " << loose.seconds
            << ", \"cells\": " << loose.cells
            << ", \"abandons\": " << loose.abandons << "}\n"
            << "  },\n"
            << "  \"laesa\": {\n"
            << "    \"prototypes\": " << pool << ",\n"
            << "    \"queries\": " << queries.size() << ",\n"
            << "    \"pivots\": " << pivots << ",\n"
            << "    \"baseline\": {\"seconds\": " << baseline_s
            << ", \"cells\": " << baseline_cells << ", \"computations\": "
            << stats_baseline.distance_computations << "},\n"
            << "    \"bounded\": {\"seconds\": " << bounded_s
            << ", \"cells\": " << bounded_cells << ", \"computations\": "
            << stats_bounded.distance_computations
            << ", \"abandons\": " << stats_bounded.bounded_abandons << "},\n"
            << "    \"cell_reduction\": "
            << (baseline_cells == 0
                    ? 0.0
                    : 1.0 - static_cast<double>(bounded_cells) /
                                static_cast<double>(baseline_cells))
            << ",\n"
            << "    \"speedup\": "
            << (bounded_s == 0.0 ? 0.0 : baseline_s / bounded_s) << ",\n"
            << "    \"identical_results\": " << (identical ? "true" : "false")
            << "\n"
            << "  }\n"
            << "}\n";
  return identical ? 0 : 1;
}

}  // namespace
}  // namespace cned

int main() { return cned::Run(); }
