// Distributed serving benchmark: one scatter/gather router (serve/router.h)
// over 1/2/4/8 forked shard workers versus the in-process ShardedLaesa,
// on a fig3-style dictionary workload.
//
// Measured:
//   * per-query latency (p50/p99) of the served pivot-row path at each
//     worker count (unreplicated, R=1), against the in-process pivot-row
//     baseline (ComputePivotRow + KNearestWithPivotRow) — the IPC
//     round-trip cost of the scatter/gather sweep;
//   * the same with one deliberately slow shard (an injected per-step
//     delay), showing how a straggler stretches the tail while results
//     stay exact;
//   * a crashed-worker query, checking degradation is *flagged* rather
//     than silent;
//   * the replica-group tier at R=2: healthy replication overhead, the
//     latency of a query that loses a primary mid-sweep and fails over,
//     and the slow-primary Eval tail hedged vs unhedged.
//
// Contracts checked (CI greps the booleans):
//   * "identical_results": every healthy distributed answer is
//     bit-identical — neighbours, distances AND QueryStats — to the
//     in-process pivot-row path, at every worker count, at R=2, and under
//     the slow shard;
//   * "degraded_flagged": the crashed-shard query reports partial=true
//     and names the missing shard;
//   * "failover_exact": the query whose primary is killed mid-sweep
//     still returns the bit-identical answer, unflagged, with the
//     failover counted;
//   * "hedged_tail_cut": with one shard's primary slow on Evals, the
//     hedged p99 beats the unhedged p99.
//
// Human-readable progress goes to stderr; a single JSON object goes to
// stdout.

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>


#include "bench/bench_util.h"
#include "common/config.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "datasets/perturb.h"
#include "datasets/sharded_prototype_store.h"
#include "distances/registry.h"
#include "search/sharded_laesa.h"
#include "serve/router.h"
#include "serve/shard_snapshot.h"

namespace cned {
namespace {

using bench::Identical;
using bench::Percentile;
using bench::TempDir;

int Run() {
  std::ostream& log = std::cerr;
  const auto pool =
      static_cast<std::size_t>(Config::ScaledInt("MDIST_POOL", 3000));
  const auto pivots =
      static_cast<std::size_t>(Config::ScaledInt("MDIST_PIVOTS", 32));
  const auto num_queries =
      static_cast<std::size_t>(Config::ScaledInt("MDIST_QUERIES", 20));
  const int reps = static_cast<int>(Config::Int("MDIST_REPS", 2));
  const std::size_t k = 5;

  log << "micro_distributed: scatter/gather router vs in-process sweep "
         "(scale=" << Config::Scale() << ")\n";

  Dataset dict = bench::MakeDictionary(pool, Config::Seed());
  Rng rng(Config::Seed() + 97);
  const auto queries =
      MakeQueries(dict.strings, num_queries, 2, Alphabet::Latin(), rng);
  auto dist = MakeDistance("dE");

  bool identical = true;
  const std::vector<std::size_t> worker_counts = {1, 2, 4, 8};
  std::vector<double> p50_ms, p99_ms;
  double inprocess_p50 = 0.0, inprocess_p99 = 0.0;
  double slow_p50 = 0.0, slow_p99 = 0.0;
  bool degraded_flagged = false;
  double replicated_p50 = 0.0, replicated_p99 = 0.0;
  double failover_query_ms = 0.0;
  bool failover_exact = false;
  double unhedged_slow_p99 = 0.0, hedged_slow_p99 = 0.0;
  std::size_t hedged_evals = 0;
  bool hedged_tail_cut = false;
  std::size_t checked = 0;

  for (std::size_t shards : worker_counts) {
    ShardedPrototypeStore store(dict.strings, shards);
    ShardedLaesa index(store, dist, pivots);
    TempDir dir;
    SaveServingSnapshot(index, dir.path);

    // Reference answers + in-process latency of the same pivot-row path
    // (reported at S=4's build — any shard count gives the identical
    // sweep).
    std::vector<std::vector<NeighborResult>> want(queries.size());
    std::vector<QueryStats> want_stats(queries.size());
    std::vector<double> inproc_samples;
    std::vector<double> row(index.pivot_count());
    for (int rep = 0; rep < reps; ++rep) {
      for (std::size_t i = 0; i < queries.size(); ++i) {
        QueryStats st;
        Stopwatch w;
        index.ComputePivotRow(queries[i], row.data(), &st);
        auto r = index.KNearestWithPivotRow(queries[i], k, row.data(), &st);
        inproc_samples.push_back(w.Seconds() * 1e3);
        want[i] = std::move(r);
        want_stats[i] = st;
      }
    }
    if (shards == 4) {
      inprocess_p50 = Percentile(inproc_samples, 0.50);
      inprocess_p99 = Percentile(inproc_samples, 0.99);
    }

    ServeOptions opt;
    opt.distance = "dE";
    // The ladder measures the unreplicated tier: R=2 costs an extra
    // process per shard and is benched separately below.
    opt.replicas = 1;
    ServeRouter router(dir.path, opt);
    std::vector<double> samples;
    for (int rep = 0; rep < reps; ++rep) {
      for (std::size_t i = 0; i < queries.size(); ++i) {
        Stopwatch w;
        const ServeResult got = router.KNearest(queries[i], k);
        samples.push_back(w.Seconds() * 1e3);
        identical = identical && Identical(got, want[i], want_stats[i]);
        ++checked;
      }
    }
    p50_ms.push_back(Percentile(samples, 0.50));
    p99_ms.push_back(Percentile(samples, 0.99));
    log << "  S=" << shards << ": p50 " << p50_ms.back() << " ms, p99 "
        << p99_ms.back() << " ms\n";

    if (shards == 4) {
      // One slow shard: every 10th Step on shard 3 sleeps a millisecond —
      // a straggler, not a dead worker. Results stay exact; only the tail
      // pays (a sweep is hundreds of steps, so queries slow visibly).
      ServeOptions slow_opt = opt;
      slow_opt.fault_spec = "delay:shard=3,op=step,every=10,ms=1";
      ServeRouter slow(dir.path, slow_opt);
      std::vector<double> slow_samples;
      const std::size_t slow_queries = std::min<std::size_t>(8, queries.size());
      for (std::size_t i = 0; i < slow_queries; ++i) {
        Stopwatch w;
        const ServeResult got = slow.KNearest(queries[i], k);
        slow_samples.push_back(w.Seconds() * 1e3);
        identical = identical && Identical(got, want[i], want_stats[i]);
        ++checked;
      }
      slow_p50 = Percentile(slow_samples, 0.50);
      slow_p99 = Percentile(slow_samples, 0.99);
      log << "  S=4 slow shard: p50 " << slow_p50 << " ms, p99 " << slow_p99
          << " ms\n";

      // One crashed shard: the answer must be flagged, not silently wrong.
      ServeOptions crash_opt = opt;
      crash_opt.fault_spec = "crash:shard=1,op=step,nth=1";
      crash_opt.auto_respawn = false;
      ServeRouter crashed(dir.path, crash_opt);
      const ServeResult got = crashed.KNearest(queries[0], k);
      degraded_flagged =
          got.partial &&
          got.missing_shards == std::vector<std::size_t>{1} &&
          got.stats.shards_degraded == 1;
      log << "  S=4 crashed shard flagged: "
          << (degraded_flagged ? "yes" : "NO") << "\n";

      // --- Replica groups (R=2) ---------------------------------------

      // Healthy replication overhead: every mutating op now fans out to
      // two processes per shard and waits for both.
      ServeOptions rep_opt = opt;
      rep_opt.replicas = 2;
      {
        ServeRouter rep(dir.path, rep_opt);
        std::vector<double> rep_samples;
        for (int rep_i = 0; rep_i < reps; ++rep_i) {
          for (std::size_t i = 0; i < queries.size(); ++i) {
            Stopwatch w;
            const ServeResult got_r = rep.KNearest(queries[i], k);
            rep_samples.push_back(w.Seconds() * 1e3);
            identical = identical && Identical(got_r, want[i], want_stats[i]);
            ++checked;
          }
        }
        replicated_p50 = Percentile(rep_samples, 0.50);
        replicated_p99 = Percentile(rep_samples, 0.99);
        log << "  S=4 R=2: p50 " << replicated_p50 << " ms, p99 "
            << replicated_p99 << " ms\n";
      }

      // Failover latency: shard 2's primary is killed on its 5th visit
      // pass; the standby is promoted mid-sweep and the answer must stay
      // bit-identical and unflagged. The reported time is that one
      // query, end to end — promotion cost included.
      {
        ServeOptions fo_opt = rep_opt;
        fo_opt.fault_spec = "crash:shard=2,op=step,nth=5,replica=0";
        fo_opt.auto_respawn = false;
        ServeRouter fo(dir.path, fo_opt);
        Stopwatch w;
        const ServeResult got_f = fo.KNearest(queries[0], k);
        failover_query_ms = w.Seconds() * 1e3;
        failover_exact = !got_f.partial && got_f.failovers == 1 &&
                         Identical(got_f, want[0], want_stats[0]);
        ++checked;
        log << "  S=4 R=2 failover query: " << failover_query_ms
            << " ms, exact+unflagged: " << (failover_exact ? "yes" : "NO")
            << "\n";
      }

      // Hedged vs unhedged unresponsive-primary tail: shard 3's primary
      // swallows every 20th Eval (the standby is healthy). Unhedged, each
      // lost reply costs a full op timeout plus the retry; hedged, the
      // router races the standby after 5ms and takes its identical
      // answer. (A *delay* fault would not show the win: the worker is
      // single-threaded, so a sleeping primary stalls the next Step
      // broadcast by the same amount whether or not the Eval was hedged.
      // Hedging pays for lost or stalled replies, not for a uniformly
      // slow replica.)
      {
        const std::size_t hedge_queries =
            std::min<std::size_t>(4, queries.size());
        ServeOptions slow_eval = rep_opt;
        slow_eval.fault_spec = "drop:shard=3,op=eval,replica=0,every=20";
        slow_eval.op_timeout_ms = 60;

        slow_eval.hedge_delay_ms = -1;  // hedging off
        {
          ServeRouter unhedged(dir.path, slow_eval);
          std::vector<double> s_samples;
          for (std::size_t i = 0; i < hedge_queries; ++i) {
            Stopwatch w;
            const ServeResult got_u = unhedged.KNearest(queries[i], k);
            s_samples.push_back(w.Seconds() * 1e3);
            identical = identical && Identical(got_u, want[i], want_stats[i]);
            ++checked;
          }
          unhedged_slow_p99 = Percentile(s_samples, 0.99);
        }

        slow_eval.hedge_delay_ms = 5;
        {
          ServeRouter hedged(dir.path, slow_eval);
          std::vector<double> s_samples;
          for (std::size_t i = 0; i < hedge_queries; ++i) {
            Stopwatch w;
            const ServeResult got_h = hedged.KNearest(queries[i], k);
            s_samples.push_back(w.Seconds() * 1e3);
            identical = identical && Identical(got_h, want[i], want_stats[i]);
            hedged_evals += got_h.hedged_evals;
            ++checked;
          }
          hedged_slow_p99 = Percentile(s_samples, 0.99);
        }
        hedged_tail_cut = hedged_evals > 0 && hedged_slow_p99 < unhedged_slow_p99;
        log << "  S=4 R=2 slow-primary evals: unhedged p99 "
            << unhedged_slow_p99 << " ms, hedged p99 " << hedged_slow_p99
            << " ms (" << hedged_evals << " hedges)\n";
      }
    }
  }

  log << "  identical results over " << checked
      << " distributed queries: " << (identical ? "yes" : "NO") << "\n";

  std::cout.precision(6);
  std::cout << "{\n"
            << "  \"bench\": \"micro_distributed\",\n"
            << "  \"prototypes\": " << dict.strings.size() << ",\n"
            << "  \"pivots\": " << pivots << ",\n"
            << "  \"queries\": " << queries.size() << ",\n"
            << "  \"workers\": [1, 2, 4, 8],\n"
            << "  \"p50_ms\": [" << p50_ms[0] << ", " << p50_ms[1] << ", "
            << p50_ms[2] << ", " << p50_ms[3] << "],\n"
            << "  \"p99_ms\": [" << p99_ms[0] << ", " << p99_ms[1] << ", "
            << p99_ms[2] << ", " << p99_ms[3] << "],\n"
            << "  \"inprocess_p50_ms\": " << inprocess_p50 << ",\n"
            << "  \"inprocess_p99_ms\": " << inprocess_p99 << ",\n"
            << "  \"slow_shard_p50_ms\": " << slow_p50 << ",\n"
            << "  \"slow_shard_p99_ms\": " << slow_p99 << ",\n"
            << "  \"replicated_p50_ms\": " << replicated_p50 << ",\n"
            << "  \"replicated_p99_ms\": " << replicated_p99 << ",\n"
            << "  \"failover_query_ms\": " << failover_query_ms << ",\n"
            << "  \"unhedged_slow_p99_ms\": " << unhedged_slow_p99 << ",\n"
            << "  \"hedged_slow_p99_ms\": " << hedged_slow_p99 << ",\n"
            << "  \"hedged_evals\": " << hedged_evals << ",\n"
            << "  \"identical_results\": " << (identical ? "true" : "false")
            << ",\n"
            << "  \"degraded_flagged\": "
            << (degraded_flagged ? "true" : "false") << ",\n"
            << "  \"failover_exact\": " << (failover_exact ? "true" : "false")
            << ",\n"
            << "  \"hedged_tail_cut\": "
            << (hedged_tail_cut ? "true" : "false") << "\n}\n";

  return identical && degraded_flagged && failover_exact && hedged_tail_cut
             ? 0
             : 1;
}

}  // namespace
}  // namespace cned

int main() { return cned::Run(); }
