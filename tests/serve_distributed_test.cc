// The distributed serving tier's two contracts, pinned end to end over
// real forked worker processes:
//
//   1. Healthy = bit-identical. A router over 1/2/4/8 workers returns the
//      same neighbours, the same distances AND the same QueryStats as the
//      in-process ShardedLaesa pivot-row path (ComputePivotRow +
//      KNearestWithPivotRow) — the one protocol the tier serves.
//   2. Degraded = correctly flagged. Crashed (kill -9), unresponsive,
//      and corrupt-stream workers cost exactly their shard: results come
//      back partial with the missed shards named, surviving distances
//      stay exact, respawn restores full health, and the same fault
//      schedule over the same queries reproduces identical partial
//      results run to run.
//   3. Replicated = exact through failure. With a replica group of R=2
//      per shard (the default), losing any shard's *primary* mid-sweep —
//      injected crash or a real kill -9 — promotes the standby, whose
//      slab state is bit-identical by state-machine replication, and the
//      query completes exact and UNFLAGGED. Only losing a whole group
//      degrades. Slow primaries are hedged on Evals; disagreeing
//      standbys are evicted; the health loop revives dead replicas in
//      the background.
//
// Fault directives without a `replica=` selector fire on every group
// member (identical op sequences), so the contract-2 tests above keep
// their exact semantics at R=2: the injected fault takes out the whole
// group.

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "common/rng.h"
#include "datasets/dictionary_gen.h"
#include "datasets/perturb.h"
#include "datasets/sharded_prototype_store.h"
#include "distances/registry.h"
#include "search/sharded_laesa.h"
#include "search/sweep_kernel.h"
#include "search/table_quant.h"
#include "serve/replica.h"
#include "serve/router.h"
#include "serve/shard_snapshot.h"
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

/// In-process reference index + its serving snapshot on disk.
struct Deployment {
  TempDir dir;
  std::unique_ptr<ShardedPrototypeStore> store;
  std::unique_ptr<ShardedLaesa> index;

  Deployment(const std::vector<std::string>& protos, std::size_t shards,
             std::size_t pivots,
             TablePrecision precision = DefaultTablePrecision()) {
    store = std::make_unique<ShardedPrototypeStore>(protos, shards);
    index = std::make_unique<ShardedLaesa>(*store, MakeDistance("dE"), pivots,
                                           /*first_pivot=*/0, precision);
    SaveServingSnapshot(*index, dir.path);
  }

  /// d(q, pivot p) for every pivot, computed in process.
  std::vector<double> PivotRow(const std::string& q,
                               QueryStats* stats = nullptr) const {
    std::vector<double> row(index->pivot_count());
    index->ComputePivotRow(q, row.data(), stats);
    return row;
  }

  /// The in-process reference of one served query: the pivot-row path,
  /// its stats including the row evaluations.
  std::vector<NeighborResult> Reference(const std::string& q, std::size_t k,
                                        QueryStats* stats) const {
    const std::vector<double> row = PivotRow(q, stats);
    return index->KNearestWithPivotRow(q, k, row.data(), stats);
  }
};

ServeOptions FastOptions() {
  ServeOptions opt;
  opt.distance = "dE";
  opt.op_timeout_ms = 400;  // drop faults resolve in sub-second time
  opt.op_retries = 2;
  opt.backoff_base_ms = 2;
  return opt;
}

void ExpectHealthyIdentical(const ServeResult& got,
                            const std::vector<NeighborResult>& want,
                            const QueryStats& want_stats,
                            const std::string& context) {
  EXPECT_FALSE(got.partial) << context;
  EXPECT_TRUE(got.missing_shards.empty()) << context;
  ASSERT_EQ(got.neighbors.size(), want.size()) << context;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.neighbors[i].index, want[i].index) << context << " i=" << i;
    EXPECT_EQ(got.neighbors[i].distance, want[i].distance)
        << context << " i=" << i;
  }
  EXPECT_TRUE(got.stats == want_stats)
      << context << ": distributed (" << got.stats.distance_computations
      << ", " << got.stats.bounded_abandons << ", "
      << got.stats.pivot_computations << ", " << got.stats.shards_degraded
      << ") != in-process (" << want_stats.distance_computations << ", "
      << want_stats.bounded_abandons << ", " << want_stats.pivot_computations
      << ", " << want_stats.shards_degraded << ")";
}

// --- Contract 1: healthy bit-identity --------------------------------------

TEST(ServeDistributedTest, HealthyPathBitIdenticalAcrossWorkerCounts) {
  // Two workloads: the first through Nearest and KNearest(k=5), the
  // second through KNearest(k=4).
  struct Case {
    std::uint64_t seed;
    std::vector<std::size_t> ks;
  };
  for (const Case& c : {Case{7100, {1, 5}}, Case{7200, {4}}}) {
    Workload w = MakeWorkload(120, 8, c.seed);
    for (std::size_t shards : {1u, 2u, 4u, 8u}) {
      Deployment dep(w.protos, shards, 8);
      ServeRouter router(dep.dir.path, FastOptions());
      ASSERT_EQ(router.shard_count(), shards);
      ASSERT_EQ(router.size(), w.protos.size());
      ASSERT_EQ(router.pivots(), dep.index->pivots());
      for (const auto& q : w.queries) {
        for (const std::size_t k : c.ks) {
          const std::string ctx = "seed=" + std::to_string(c.seed) +
                                  " S=" + std::to_string(shards) +
                                  " q=" + q + " k=" + std::to_string(k);
          QueryStats ref;
          const auto want = dep.Reference(q, k, &ref);
          ExpectHealthyIdentical(
              k == 1 ? router.Nearest(q) : router.KNearest(q, k), want, ref,
              ctx);
        }
      }
    }
  }
}

// --- Contract 2: flagged degradation ---------------------------------------

TEST(ServeDistributedTest, CrashDegradesExactlyThatShardAndRespawns) {
  {
    Workload w = MakeWorkload(150, 3, 7300);
    Deployment dep(w.protos, 4, 8);
    ServeOptions opt = FastOptions();
    opt.fault_spec = "crash:shard=2,op=step,nth=2";
    opt.auto_respawn = false;
    ServeRouter router(dep.dir.path, opt);

    const ServeResult r = router.KNearest(w.queries[0], 3);
    EXPECT_TRUE(r.partial);
    ASSERT_EQ(r.missing_shards, std::vector<std::size_t>{2});
    EXPECT_EQ(r.stats.shards_degraded, 1u);
    EXPECT_FALSE(router.worker_alive(2));
    // Every distance the degraded answer reports is still exact.
    auto dist = MakeDistance("dE");
    for (const NeighborResult& nb : r.neighbors) {
      EXPECT_EQ(nb.distance, dist->Distance(w.queries[0], w.protos[nb.index]));
    }

    // Respawn restores full health and bit-identity. The no-replica-selector
    // crash directive fired on both group members, so respawn revives two
    // processes.
    EXPECT_FALSE(router.PingAll());
    EXPECT_EQ(router.RespawnDead(), 2u);
    EXPECT_TRUE(router.PingAll());
    QueryStats ref;
    const auto want = dep.Reference(w.queries[1], 3, &ref);
    ExpectHealthyIdentical(router.KNearest(w.queries[1], 3), want, ref,
                           "post-respawn");
  }

  // A crash at a begin costs exactly one query of a stream: the worker for
  // shard 1 dies when query 3's BeginRow arrives, and auto_respawn runs
  // between queries.
  Workload w = MakeWorkload(120, 6, 7800);
  Deployment dep(w.protos, 4, 8);
  ServeOptions opt = FastOptions();
  opt.fault_spec = "crash:shard=1,op=begin,nth=3";
  ServeRouter router(dep.dir.path, opt);
  std::size_t partials = 0;
  for (const auto& q : w.queries) {
    const ServeResult got = router.KNearest(q, 3);
    if (got.partial) {
      ++partials;
      EXPECT_EQ(got.missing_shards, std::vector<std::size_t>{1}) << q;
      continue;
    }
    QueryStats ref;
    const auto want = dep.Reference(q, 3, &ref);
    ExpectHealthyIdentical(got, want, ref, "stream q=" + q);
  }
  EXPECT_EQ(partials, 1u);
  EXPECT_TRUE(router.worker_alive(1));
}

TEST(ServeDistributedTest, UnresponsiveStepIsNeverRetriedAndDegrades) {
  Workload w = MakeWorkload(100, 2, 7400);
  Deployment dep(w.protos, 4, 8);
  ServeOptions opt = FastOptions();
  // The worker swallows one Step: the router must not resend a mutating
  // op — the shard is degraded on the first timeout.
  opt.fault_spec = "drop:shard=1,op=step,nth=1";
  opt.auto_respawn = false;
  ServeRouter router(dep.dir.path, opt);
  const ServeResult r = router.Nearest(w.queries[0]);
  EXPECT_TRUE(r.partial);
  EXPECT_EQ(r.missing_shards, std::vector<std::size_t>{1});
  EXPECT_FALSE(router.worker_alive(1));
}

TEST(ServeDistributedTest, UnresponsiveIdempotentOpIsRetriedTransparently) {
  Workload w = MakeWorkload(100, 4, 7500);
  Deployment dep(w.protos, 4, 8);
  ServeOptions opt = FastOptions();
  // Dropped Eval and dropped BeginRow replies: both are idempotent, so
  // the retry path must absorb them with no effect on the answer.
  opt.fault_spec = "drop:shard=1,op=eval,nth=1|drop:shard=3,op=begin,nth=1";
  ServeRouter router(dep.dir.path, opt);
  for (const auto& q : w.queries) {
    QueryStats ref;
    const auto want = dep.Reference(q, 3, &ref);
    ExpectHealthyIdentical(router.KNearest(q, 3), want, ref,
                           "retried q=" + q);
  }
  EXPECT_TRUE(router.PingAll());
}

TEST(ServeDistributedTest, CorruptReplyIsTreatedAsDeadShard) {
  Workload w = MakeWorkload(100, 2, 7600);
  Deployment dep(w.protos, 4, 8);
  ServeOptions opt = FastOptions();
  opt.fault_spec = "corrupt:shard=0,op=step,nth=1";
  opt.auto_respawn = false;
  ServeRouter router(dep.dir.path, opt);
  const ServeResult r = router.Nearest(w.queries[0]);
  EXPECT_TRUE(r.partial);
  EXPECT_EQ(r.missing_shards, std::vector<std::size_t>{0});
  EXPECT_FALSE(router.worker_alive(0));
}

TEST(ServeDistributedTest, DeadlineExpiryReturnsFlaggedPartialIncumbents) {
  Workload w = MakeWorkload(200, 1, 7700);
  Deployment dep(w.protos, 4, 12);
  ServeOptions opt = FastOptions();
  // Every remote evaluation outsleeps the per-op window, so the retries
  // burn the whole budget: the sweep hits the deadline with candidates
  // still live and must hand back flagged incumbents, not block.
  opt.fault_spec = "delay:op=eval,ms=300";
  opt.query_deadline_ms = 250;
  opt.auto_respawn = false;
  ServeRouter router(dep.dir.path, opt);
  const ServeResult r = router.KNearest(w.queries[0], 5);
  EXPECT_TRUE(r.partial);
  EXPECT_FALSE(r.missing_shards.empty());
  EXPECT_EQ(r.stats.shards_degraded, r.missing_shards.size());
  // Whatever incumbents made it in before the deadline are exact.
  auto dist = MakeDistance("dE");
  for (const NeighborResult& nb : r.neighbors) {
    EXPECT_EQ(nb.distance, dist->Distance(w.queries[0], w.protos[nb.index]));
  }
}

TEST(ServeDistributedTest, KillNineOfWholeGroupIsSurvivedFlaggedAndRecovered) {
  Workload w = MakeWorkload(120, 5, 7900);
  Deployment dep(w.protos, 4, 8);
  ServeRouter router(dep.dir.path, FastOptions());

  QueryStats ref0;
  const auto want0 = dep.Reference(w.queries[0], 3, &ref0);
  ExpectHealthyIdentical(router.KNearest(w.queries[0], 3), want0, ref0,
                         "pre-kill");

  // A real kill -9 of shard 2's *entire replica group*, not an injected
  // fault: the workers vanish between queries and the router finds out
  // mid-query from the dead sockets. With no member left to promote, the
  // shard degrades.
  std::vector<pid_t> victims;
  for (std::size_t r = 0; r < router.replica_count(); ++r) {
    const pid_t victim = router.replica_pid(2, r);
    ASSERT_GT(victim, 0);
    ASSERT_EQ(kill(victim, SIGKILL), 0);
    victims.push_back(victim);
  }

  const ServeResult during = router.KNearest(w.queries[1], 3);
  EXPECT_TRUE(during.partial);
  EXPECT_EQ(during.missing_shards, std::vector<std::size_t>{2});
  auto dist = MakeDistance("dE");
  for (const NeighborResult& nb : during.neighbors) {
    EXPECT_EQ(nb.distance, dist->Distance(w.queries[1], w.protos[nb.index]));
  }

  // auto_respawn brings shard 2 back for the next query: full bit-identity
  // again, under fresh pids.
  QueryStats ref2;
  const auto want2 = dep.Reference(w.queries[2], 3, &ref2);
  ExpectHealthyIdentical(router.KNearest(w.queries[2], 3), want2, ref2,
                         "post-respawn");
  EXPECT_TRUE(router.worker_alive(2));
  EXPECT_NE(router.worker_pid(2), victims[0]);
}

// --- Contract 3: replica-group failover ------------------------------------

TEST(ServeDistributedTest, EveryPrimaryCrashedMidSweepStaysExactUnflagged) {
  {
    Workload w = MakeWorkload(150, 3, 8400);
    Deployment dep(w.protos, 4, 8);
    ServeOptions opt = FastOptions();
    // Each shard's *primary* (replica 0) crashes on its 2nd visit pass.
    // The standby holds bit-identical slab state, so every shard fails
    // over mid-sweep and the query must come back exact and unflagged.
    opt.fault_spec = "crash:op=step,nth=2,replica=0";
    opt.auto_respawn = false;
    ServeRouter router(dep.dir.path, opt);

    QueryStats ref;
    const auto want = dep.Reference(w.queries[0], 3, &ref);
    const ServeResult r = router.KNearest(w.queries[0], 3);
    ExpectHealthyIdentical(r, want, ref, "mid-sweep failover");
    EXPECT_EQ(r.failovers, 4u);
    for (std::size_t s = 0; s < 4; ++s) {
      EXPECT_EQ(router.primary_of(s), 1u) << "shard " << s;
      EXPECT_FALSE(router.replica_alive(s, 0)) << "shard " << s;
      EXPECT_TRUE(router.replica_alive(s, 1)) << "shard " << s;
    }

    // The promotion is durable: the next query runs on the standbys with no
    // further failovers (and no respawn ever happened).
    QueryStats ref1;
    const auto want1 = dep.Reference(w.queries[1], 3, &ref1);
    const ServeResult r1 = router.KNearest(w.queries[1], 3);
    ExpectHealthyIdentical(r1, want1, ref1, "post-failover");
    EXPECT_EQ(r1.failovers, 0u);
  }

  // The same schedule over a query stream with auto_respawn on: every
  // answer stays exact, and the only promotions are the one per shard in
  // the query that crashed the primaries.
  Workload w = MakeWorkload(150, 5, 8500);
  Deployment dep(w.protos, 4, 8);
  ServeOptions opt = FastOptions();
  opt.fault_spec = "crash:op=step,nth=2,replica=0";
  ServeRouter router(dep.dir.path, opt);
  std::size_t failovers = 0;
  for (const auto& q : w.queries) {
    QueryStats ref;
    const auto want = dep.Reference(q, 3, &ref);
    const ServeResult got = router.KNearest(q, 3);
    ExpectHealthyIdentical(got, want, ref, "stream failover q=" + q);
    failovers += got.failovers;
  }
  EXPECT_EQ(failovers, 4u);
}

TEST(ServeDistributedTest, RealKillNineOfPrimaryFailsOverMidQuery) {
  Workload w = MakeWorkload(120, 5, 8600);
  Deployment dep(w.protos, 4, 8);
  ServeRouter router(dep.dir.path, FastOptions());

  QueryStats ref0;
  const auto want0 = dep.Reference(w.queries[0], 3, &ref0);
  ExpectHealthyIdentical(router.KNearest(w.queries[0], 3), want0, ref0,
                         "pre-kill");

  // A real kill -9 of shard 2's primary. The router has no idea until the
  // next query's scatter hits the dead socket — mid-query it promotes the
  // standby and the answer stays exact and unflagged.
  const pid_t victim = router.worker_pid(2);
  ASSERT_GT(victim, 0);
  ASSERT_EQ(kill(victim, SIGKILL), 0);

  QueryStats ref1;
  const auto want1 = dep.Reference(w.queries[1], 3, &ref1);
  const ServeResult during = router.KNearest(w.queries[1], 3);
  ExpectHealthyIdentical(during, want1, ref1, "kill -9 failover");
  EXPECT_GE(during.failovers, 1u);
  EXPECT_TRUE(router.worker_alive(2));
  EXPECT_NE(router.worker_pid(2), victim);

  // auto_respawn refills the group between queries; the revived process
  // rejoins at the next begin and the group is back to full strength.
  QueryStats ref2;
  const auto want2 = dep.Reference(w.queries[2], 3, &ref2);
  ExpectHealthyIdentical(router.KNearest(w.queries[2], 3), want2, ref2,
                         "post-respawn");
  EXPECT_TRUE(router.PingAll());
  for (std::size_t r = 0; r < router.replica_count(); ++r) {
    EXPECT_TRUE(router.replica_alive(2, r)) << "replica " << r;
  }
}

TEST(ServeDistributedTest, SlowPrimaryEvalsAreHedgedToTheStandby) {
  Workload w = MakeWorkload(120, 2, 8700);
  Deployment dep(w.protos, 4, 8);
  ServeOptions opt = FastOptions();
  // Shard 1's primary answers Evals 100ms late — well inside the op
  // timeout, so without hedging the query would simply crawl. With a
  // 10ms hedge delay the router races each such Eval to the standby and
  // takes its (identical) answer; nobody dies, nothing degrades.
  opt.fault_spec = "delay:shard=1,op=eval,replica=0,ms=100";
  opt.hedge_delay_ms = 10;
  opt.auto_respawn = false;
  ServeRouter router(dep.dir.path, opt);

  std::size_t hedged = 0;
  for (const auto& q : w.queries) {
    QueryStats ref;
    const auto want = dep.Reference(q, 3, &ref);
    const ServeResult r = router.KNearest(q, 3);
    ExpectHealthyIdentical(r, want, ref, "hedged q=" + q);
    EXPECT_EQ(r.failovers, 0u);
    EXPECT_EQ(r.replicas_evicted, 0u);
    hedged += r.hedged_evals;
  }
  EXPECT_GT(hedged, 0u);
  // Hedging is a race, not a verdict: the slow primary keeps its job.
  EXPECT_TRUE(router.replica_alive(1, 0));
  EXPECT_TRUE(router.replica_alive(1, 1));
  EXPECT_EQ(router.primary_of(1), 0u);
}

TEST(ServeDistributedTest, DisagreeingStandbyIsEvictedAndQueryStaysExact) {
  Workload w = MakeWorkload(120, 2, 8800);
  Deployment dep(w.protos, 4, 8);
  ServeOptions opt = FastOptions();
  // Shard 2's *standby* mangles its 3rd visit-pass reply: byte-wrong but
  // CRC-valid, so only the router's replica agreement check can catch
  // it. The primary's reply drives the merge — the answer stays exact —
  // and the corrupt standby is evicted.
  opt.fault_spec = "mangle:shard=2,op=step,nth=3,replica=1";
  opt.auto_respawn = false;
  ServeRouter router(dep.dir.path, opt);

  QueryStats ref;
  const auto want = dep.Reference(w.queries[0], 3, &ref);
  const ServeResult r = router.KNearest(w.queries[0], 3);
  ExpectHealthyIdentical(r, want, ref, "mangled standby");
  EXPECT_EQ(r.replicas_evicted, 1u);
  EXPECT_EQ(r.failovers, 0u);
  EXPECT_TRUE(router.replica_alive(2, 0));
  EXPECT_FALSE(router.replica_alive(2, 1));
  EXPECT_EQ(router.primary_of(2), 0u);
}

TEST(ServeDistributedTest, AllShardsDeadReturnsAllMissingAscending) {
  Workload w = MakeWorkload(100, 2, 8900);
  Deployment dep(w.protos, 4, 8);
  ServeOptions opt = FastOptions();
  // Every replica of every shard crashes on its first begin: the whole
  // fleet is gone, and every shard is named, ascending. The pivot row is
  // evaluated router-side, so the answer still holds the exact pivot
  // incumbents: the k nearest pivots.
  opt.fault_spec = "crash:op=begin,nth=1";
  opt.auto_respawn = false;
  auto dist = MakeDistance("dE");
  const std::vector<std::size_t>& pivots = dep.index->pivots();
  // Two queries, each on a fresh fleet (a crashed one stays dead).
  for (const std::string& q : w.queries) {
    ServeRouter router(dep.dir.path, opt);
    const ServeResult r = router.KNearest(q, 3);
    EXPECT_TRUE(r.partial) << q;
    EXPECT_EQ(r.missing_shards, (std::vector<std::size_t>{0, 1, 2, 3})) << q;
    EXPECT_EQ(r.stats.shards_degraded, 4u) << q;
    std::vector<double> pivot_d;
    for (const std::size_t p : pivots) {
      pivot_d.push_back(dist->Distance(q, w.protos[p]));
    }
    std::sort(pivot_d.begin(), pivot_d.end());
    ASSERT_EQ(r.neighbors.size(), 3u) << q;
    for (std::size_t i = 0; i < r.neighbors.size(); ++i) {
      const NeighborResult& nb = r.neighbors[i];
      EXPECT_NE(std::find(pivots.begin(), pivots.end(), nb.index),
                pivots.end())
          << q << " rank " << i << " is not a pivot";
      EXPECT_EQ(nb.distance, dist->Distance(q, w.protos[nb.index])) << q;
      EXPECT_EQ(nb.distance, pivot_d[i]) << q << " rank " << i;
    }
  }
}

TEST(ServeDistributedTest, HealthLoopRevivesKilledReplicasInBackground) {
  Workload w = MakeWorkload(100, 2, 9000);
  Deployment dep(w.protos, 2, 6);
  ServeOptions opt = FastOptions();
  // Synchronous respawn off: only the background health loop can bring
  // the killed group back.
  opt.auto_respawn = false;
  opt.health_interval_ms = 25;
  ServeRouter router(dep.dir.path, opt);

  QueryStats ref0;
  const auto want0 = dep.Reference(w.queries[0], 3, &ref0);
  ExpectHealthyIdentical(router.KNearest(w.queries[0], 3), want0, ref0,
                         "pre-kill");

  for (std::size_t r = 0; r < router.replica_count(); ++r) {
    const pid_t victim = router.replica_pid(1, r);
    ASSERT_GT(victim, 0);
    ASSERT_EQ(kill(victim, SIGKILL), 0);
  }

  // The loop pings (failure detection), reaps, respawns, re-pings. Give
  // it a generous window; the test only needs eventual recovery.
  bool healthy = false;
  for (int i = 0; i < 400 && !healthy; ++i) {
    healthy = router.replica_alive(1, 0) && router.replica_alive(1, 1) &&
              router.PingAll();
    if (!healthy) usleep(20 * 1000);
  }
  EXPECT_TRUE(healthy);
  QueryStats ref1;
  const auto want1 = dep.Reference(w.queries[1], 3, &ref1);
  ExpectHealthyIdentical(router.KNearest(w.queries[1], 3), want1, ref1,
                         "post-revival");
}

TEST(ServeDistributedTest, UnreplicatedTierStillServesExactlyAtROne) {
  Workload w = MakeWorkload(100, 3, 9100);
  Deployment dep(w.protos, 4, 8);
  ServeOptions opt = FastOptions();
  opt.replicas = 1;
  ServeRouter router(dep.dir.path, opt);
  ASSERT_EQ(router.replica_count(), 1u);
  for (const auto& q : w.queries) {
    QueryStats ref;
    const auto want = dep.Reference(q, 3, &ref);
    const ServeResult r = router.KNearest(q, 3);
    ExpectHealthyIdentical(r, want, ref, "R=1 q=" + q);
    EXPECT_EQ(r.failovers, 0u);
    EXPECT_EQ(r.hedged_evals, 0u);
  }
}

// --- Satellite: option validation ------------------------------------------

TEST(ServeDistributedTest, InvalidOptionsThrowNamingTheField) {
  Workload w = MakeWorkload(40, 1, 9200);
  Deployment dep(w.protos, 2, 4);
  auto expect_invalid = [&](ServeOptions opt, const std::string& field) {
    try {
      ServeRouter router(dep.dir.path, opt);
      FAIL() << "expected std::invalid_argument for " << field;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << "message '" << e.what() << "' does not name " << field;
    }
  };
  ServeOptions opt = FastOptions();
  opt.replicas = 0;
  expect_invalid(opt, "replicas");
  opt = FastOptions();
  opt.op_timeout_ms = 0;
  expect_invalid(opt, "op_timeout_ms");
  opt = FastOptions();
  opt.query_deadline_ms = -5;
  expect_invalid(opt, "query_deadline_ms");
  opt = FastOptions();
  opt.op_retries = -1;
  expect_invalid(opt, "op_retries");
  opt = FastOptions();
  opt.backoff_base_ms = -1;
  expect_invalid(opt, "backoff_base_ms");
  opt = FastOptions();
  opt.health_interval_ms = -1;
  expect_invalid(opt, "health_interval_ms");
  opt = FastOptions();
  opt.distance = "";
  expect_invalid(opt, "distance");
}

// An unparsable fault schedule, initial or respawn, is refused by the
// constructor before any worker is forked: a worker that threw on it
// could only die with nothing to report.
TEST(ServeDistributedTest, UnparsableFaultSpecsThrowBeforeAnyFork) {
  Workload w = MakeWorkload(40, 1, 9210);
  Deployment dep(w.protos, 2, 4);
  auto expect_invalid = [&](ServeOptions opt, const std::string& field) {
    try {
      ServeRouter router(dep.dir.path, opt);
      FAIL() << "expected std::invalid_argument for " << field;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("ServeOptions." + field),
                std::string::npos)
          << "message '" << e.what() << "' does not name " << field;
    }
  };
  ServeOptions opt = FastOptions();
  opt.fault_spec = "crash:op=scan,nth=1";
  expect_invalid(opt, "fault_spec");
  opt = FastOptions();
  opt.respawn_fault_spec = "explode:shard=0";
  expect_invalid(opt, "respawn_fault_spec");
}

// --- Satellite: degraded-mode determinism ----------------------------------

void ExpectSameServeResult(const ServeResult& a, const ServeResult& b,
                           const std::string& context) {
  EXPECT_EQ(a.partial, b.partial) << context;
  EXPECT_EQ(a.missing_shards, b.missing_shards) << context;
  EXPECT_TRUE(a.stats == b.stats) << context;
  ASSERT_EQ(a.neighbors.size(), b.neighbors.size()) << context;
  for (std::size_t i = 0; i < a.neighbors.size(); ++i) {
    EXPECT_EQ(a.neighbors[i].index, b.neighbors[i].index) << context;
    EXPECT_EQ(a.neighbors[i].distance, b.neighbors[i].distance) << context;
  }
}

TEST(ServeDistributedTest, DegradedResultsAreDeterministicAcrossRuns) {
  // Fault schedules are counted per directive, so each is a pure function
  // of the request sequence — two fresh routers over the same queries must
  // degrade identically, down to the stats. Two schedules: a mixed one (a
  // crash and a swallowed mutating op, respawns clean), and a crash at a
  // begin that costs exactly one query.
  struct Case {
    std::uint64_t seed;
    std::size_t queries;
    std::string fault_spec;
  };
  for (const Case& c :
       {Case{8000, 5, "crash:shard=2,op=step,nth=4|drop:shard=0,op=step,nth=6"},
        Case{8100, 6, "crash:shard=3,op=begin,nth=2"}}) {
    Workload w = MakeWorkload(140, c.queries, c.seed);
    Deployment dep(w.protos, 4, 8);
    ServeOptions opt = FastOptions();
    opt.fault_spec = c.fault_spec;
    opt.respawn_fault_spec = "";
    auto run = [&]() {
      ServeRouter router(dep.dir.path, opt);
      std::vector<ServeResult> out;
      for (const auto& q : w.queries) out.push_back(router.KNearest(q, 3));
      return out;
    };
    const auto first = run();
    const auto second = run();
    ASSERT_EQ(first.size(), second.size());
    std::size_t partials = 0;
    for (std::size_t i = 0; i < first.size(); ++i) {
      ExpectSameServeResult(first[i], second[i],
                            c.fault_spec + " q=" + w.queries[i]);
      partials += first[i].partial ? 1 : 0;
    }
    if (c.seed == 8000) {
      EXPECT_GT(partials, 0u);  // the schedule really fired
    } else {
      EXPECT_EQ(partials, 1u);
    }
  }
}

// --- Snapshot-level robustness ---------------------------------------------

TEST(ServeDistributedTest, CorruptShardSnapshotNeverServes) {
  Workload w = MakeWorkload(80, 2, 8200);
  Deployment dep(w.protos, 2, 6);
  // Flip one payload byte in shard 1's index slice: its worker must fail
  // the pre-map checksum pass and answer with errors, degrading the shard
  // — corrupted bytes are never silently merged into results.
  {
    const std::string path = ShardIndexPath(dep.dir.path, 1);
    FILE* f = fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    fseek(f, 200, SEEK_SET);
    int c = fgetc(f);
    fseek(f, 200, SEEK_SET);
    fputc(c ^ 0x40, f);
    fclose(f);
  }
  ServeOptions opt = FastOptions();
  opt.auto_respawn = false;
  ServeRouter router(dep.dir.path, opt);
  const ServeResult r = router.Nearest(w.queries[0]);
  EXPECT_TRUE(r.partial);
  EXPECT_EQ(r.missing_shards, std::vector<std::size_t>{1});
}

TEST(ServeDistributedTest, ExecFormWorkerBinaryServesIdentically) {
  // The fork+exec deployment form (ServeOptions::worker_binary) must be
  // the same protocol peer as the default in-process fork. The built
  // `cned_shard_worker` sits next to this test binary.
  std::error_code ec;
  const auto self = std::filesystem::read_symlink("/proc/self/exe", ec);
  if (ec) GTEST_SKIP() << "cannot resolve own binary path";
  const auto bin = self.parent_path() / "cned_shard_worker";
  if (!std::filesystem::exists(bin)) {
    GTEST_SKIP() << "cned_shard_worker not built";
  }
  Workload w = MakeWorkload(100, 4, 8300);
  Deployment dep(w.protos, 3, 8);
  ServeOptions opt = FastOptions();
  opt.worker_binary = bin.string();
  ServeRouter router(dep.dir.path, opt);
  for (const auto& q : w.queries) {
    QueryStats ref;
    const auto want = dep.Reference(q, 3, &ref);
    ExpectHealthyIdentical(router.KNearest(q, 3), want, ref,
                           "exec q=" + q);
  }
}

TEST(ServeDistributedTest, RouterRejectsMissingManifest) {
  TempDir empty;
  EXPECT_THROW(ServeRouter(empty.path, FastOptions()), std::exception);
}

TEST(ServeDistributedTest, RouterRejectsManifestPastTheSweepIdLimit) {
  // A well-formed manifest (valid CRC footer, consistent sections) whose
  // prototype count cannot be addressed by 32-bit sweep ids: the router
  // must refuse it by name before sizing anything by n, and before any
  // worker is spawned.
  TempDir dir;
  const std::uint64_t n = 0xFFFFFFFFull;  // 2^32 - 1
  {
    BinaryWriter writer(ManifestPath(dir.path));
    const std::string pivot = "casa";
    const std::uint64_t counts[4] = {n, 1, 1, pivot.size()};
    writer.Header(kRouterManifestMagic, kRouterManifestVersion, counts, 4);
    const std::uint64_t shard_size = n;
    const std::uint64_t pivot_id = 0;
    const std::uint64_t pivot_len = pivot.size();
    writer.Align();
    writer.Raw(&shard_size, sizeof(shard_size));
    writer.Align();
    writer.Raw(&pivot_id, sizeof(pivot_id));
    writer.Align();
    writer.Raw(&pivot_len, sizeof(pivot_len));
    writer.Align();
    writer.Raw(pivot.data(), pivot.size());
    writer.Finish();
  }
  try {
    ServeRouter router(dir.path, FastOptions());
    FAIL() << "expected the router to refuse n = 2^32 - 1";
  } catch (const std::length_error& e) {
    EXPECT_EQ(std::string(e.what()),
              "ServeRouter: 4294967295 prototypes exceed the sweep limit of "
              "2147483648 (32-bit candidate ids)");
  }
}

TEST(ServeDistributedTest, ReplicaRejectsShardSlicePastTheSweepIdLimit) {
  // The worker-side twin: a checksum-valid shard slice whose header claims
  // 2^32 - 1 prototypes in total is refused by name at load.
  Workload w = MakeWorkload(40, 1, 9210);
  Deployment dep(w.protos, 2, 4);
  const std::string index_path = ShardIndexPath(dep.dir.path, 0);
  {
    BinaryWriter writer(index_path);
    const std::uint64_t counts[6] = {0xFFFFFFFFull, 2, 4, 0,
                                     dep.store->shard(0).size(), 0};
    writer.Header(kShardSliceMagic, kShardSliceVersion, counts, 6);
    writer.Finish();
  }
  try {
    ShardReplica replica(ShardStorePath(dep.dir.path, 0), index_path, "dE");
    FAIL() << "expected the replica to refuse n = 2^32 - 1";
  } catch (const std::length_error& e) {
    EXPECT_EQ(std::string(e.what()),
              "ShardReplica: 4294967295 prototypes exceed the sweep limit of "
              "2147483648 (32-bit candidate ids)");
  }
}

// --- Satellite: retry waits are gated by the query deadline -----------------

TEST(ServeDistributedTest, DeadlineGatesRetryWaitsToQueryBudget) {
  // Every begin is swallowed and the per-op timeout (4s) dwarfs the query
  // deadline (200ms). SendRecv used to check the deadline only *after* a
  // full op-timeout recv window and still slept + resent once the budget
  // was gone, so this query burned multiple op timeouts past its deadline.
  // The fix caps every recv window by the remaining budget and refuses to
  // back off or resend once it is spent: the query must come back (flagged
  // partial) in deadline-order time, not op-timeout-order time.
  Workload w = MakeWorkload(80, 1, 9300);
  Deployment dep(w.protos, 2, 6);
  ServeOptions opt = FastOptions();
  opt.fault_spec = "drop:op=begin";
  opt.op_timeout_ms = 4000;
  opt.op_retries = 2;
  opt.backoff_base_ms = 0;
  opt.query_deadline_ms = 200;
  opt.auto_respawn = false;
  ServeRouter router(dep.dir.path, opt);

  const auto t0 = std::chrono::steady_clock::now();
  const ServeResult r = router.KNearest(w.queries[0], 3);
  const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
  EXPECT_TRUE(r.partial);
  EXPECT_EQ(r.missing_shards.size(), 2u);
  // Generous slop for CI, still an order of magnitude under one op timeout.
  EXPECT_LT(elapsed_ms, 1500) << "deadline did not gate the retry waits";
}

// --- The mutable tier over the wire -----------------------------------------

/// Distance-exactness oracle for a mutated deployment: the same contract
/// the flat mutable tier pins (tests/mutable_laesa_test.cc) — exact
/// distance profile rank for rank vs brute force over the live map, only
/// live ids, reported distances true, no duplicates. Tie winners follow
/// sweep order, so ids are not pinned on tied ranks.
void ExpectServesLiveOracle(const ServeResult& got,
                            const std::map<std::uint64_t, std::string>& live,
                            const StringDistance& dist, const std::string& q,
                            std::size_t k, const std::string& ctx) {
  EXPECT_FALSE(got.partial) << ctx;
  std::vector<NeighborResult> want;
  for (const auto& [id, s] : live) {
    want.push_back({static_cast<std::size_t>(id), dist.Distance(q, s)});
  }
  std::sort(want.begin(), want.end(), NeighborLess);
  if (want.size() > k) want.resize(k);
  ASSERT_EQ(got.neighbors.size(), want.size()) << ctx;
  std::vector<std::size_t> seen;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const NeighborResult& nb = got.neighbors[i];
    EXPECT_EQ(nb.distance, want[i].distance) << ctx << " rank " << i;
    const auto it = live.find(nb.index);
    ASSERT_NE(it, live.end())
        << ctx << " rank " << i << " returned dead/unknown id " << nb.index;
    EXPECT_EQ(nb.distance, dist.Distance(q, it->second)) << ctx << " rank "
                                                         << i;
    EXPECT_EQ(std::count(seen.begin(), seen.end(), nb.index), 0)
        << ctx << " duplicate id " << nb.index;
    seen.push_back(nb.index);
  }
}

TEST(ServeDistributedTest, MutationsServeExactlyOnBothEntryPointsReplicated) {
  Workload w = MakeWorkload(120, 5, 9400);
  Deployment dep(w.protos, 4, 8);
  ServeRouter router(dep.dir.path, FastOptions());  // default R=2
  auto dist = MakeDistance("dE");

  std::map<std::uint64_t, std::string> live;
  for (std::size_t i = 0; i < w.protos.size(); ++i) live[i] = w.protos[i];

  // Inserts land in per-shard deltas, round-robin by id.
  for (int i = 0; i < 10; ++i) {
    const std::string s = w.protos[i * 7] + "+" + std::to_string(i);
    const std::uint64_t id = router.Insert(s);
    EXPECT_EQ(id, w.protos.size() + i);
    live[id] = s;
  }
  // Insert-only: the base stays unmasked, only the delta phase runs.
  for (const auto& q : w.queries) {
    ExpectServesLiveOracle(router.KNearest(q, 5), live, *dist, q, 5,
                           "delta-only q=" + q);
  }

  // Removes: base ids (0 is a shard pivot), plus one delta id — with dedup
  // and unknown-id rejection.
  for (const std::uint64_t id :
       {std::uint64_t{0}, std::uint64_t{5}, std::uint64_t{61},
        std::uint64_t{w.protos.size() + 2}}) {
    EXPECT_TRUE(router.Remove(id)) << id;
    live.erase(id);
  }
  EXPECT_FALSE(router.Remove(0)) << "double remove must dedup";
  EXPECT_FALSE(router.Remove(w.protos.size() + 1000)) << "unknown id";
  EXPECT_EQ(router.live_size(), live.size());
  EXPECT_EQ(router.next_insert_id(), w.protos.size() + 10);

  for (const auto& q : w.queries) {
    // Tombstoned base + delta...
    ExpectServesLiveOracle(router.KNearest(q, 5), live, *dist, q, 5,
                           "masked q=" + q);
    // ...and the top-1 special case.
    ExpectServesLiveOracle(router.Nearest(q), live, *dist, q, 1,
                           "masked nearest q=" + q);
  }
  // A caller-computed row (the engine's entry point) masks too — including
  // the removed pivot id 0, which seeds no incumbent and is never returned.
  for (const auto& q : w.queries) {
    ExpectServesLiveOracle(router.KNearestWithRow(q, 5, dep.PivotRow(q)), live,
                           *dist, q, 5, "masked with-row q=" + q);
  }
  EXPECT_TRUE(router.PingAll());
}

TEST(ServeDistributedTest, MutationsServeExactlyAtROne) {
  Workload w = MakeWorkload(80, 4, 9500);
  Deployment dep(w.protos, 2, 6);
  ServeOptions opt = FastOptions();
  opt.replicas = 1;
  ServeRouter router(dep.dir.path, opt);
  auto dist = MakeDistance("dE");

  std::map<std::uint64_t, std::string> live;
  for (std::size_t i = 0; i < w.protos.size(); ++i) live[i] = w.protos[i];
  for (int i = 0; i < 6; ++i) {
    const std::string s = w.protos[i * 5] + "~" + std::to_string(i);
    live[router.Insert(s)] = s;
  }
  for (const std::uint64_t id : {std::uint64_t{3}, std::uint64_t{40},
                                 std::uint64_t{w.protos.size()}}) {
    ASSERT_TRUE(router.Remove(id));
    live.erase(id);
  }
  EXPECT_EQ(router.live_size(), live.size());
  for (const auto& q : w.queries) {
    ExpectServesLiveOracle(router.KNearest(q, 4), live, *dist, q, 4,
                           "R=1 q=" + q);
    ExpectServesLiveOracle(router.KNearestWithRow(q, 4, dep.PivotRow(q)), live,
                           *dist, q, 4, "R=1 with-row q=" + q);
  }
}

TEST(ServeDistributedTest, CancelledMutationsServeBitIdenticallyAgain) {
  // Inserts that were all removed again leave no live delta and no base
  // tombstone: the world is the snapshot's again, so served answers are
  // bit-identical to the in-process pivot-row path once more, stats
  // included — on both entry points, at R=1 and R=2.
  Workload w = MakeWorkload(120, 4, 9550);
  Deployment dep(w.protos, 4, 8);
  for (const int replicas : {1, 2}) {
    ServeOptions opt = FastOptions();
    opt.replicas = replicas;
    ServeRouter router(dep.dir.path, opt);
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 6; ++i) {
      ids.push_back(router.Insert(w.protos[i * 13] + "%" + std::to_string(i)));
    }
    for (const std::uint64_t id : ids) ASSERT_TRUE(router.Remove(id));
    EXPECT_EQ(router.live_size(), w.protos.size());
    for (const auto& q : w.queries) {
      const std::string ctx = "R=" + std::to_string(replicas) + " q=" + q;
      QueryStats ref;
      const auto want = dep.Reference(q, 4, &ref);
      ExpectHealthyIdentical(router.KNearest(q, 4), want, ref, ctx);
      ExpectHealthyIdentical(router.KNearestWithRow(q, 4, dep.PivotRow(q)),
                             want, ref, ctx + " with-row");
    }
  }
}

TEST(ServeDistributedTest, RespawnedReplicaReplaysJournalBeforeRejoining) {
  Workload w = MakeWorkload(100, 4, 9600);
  Deployment dep(w.protos, 2, 6);
  ServeRouter router(dep.dir.path, FastOptions());
  auto dist = MakeDistance("dE");

  std::map<std::uint64_t, std::string> live;
  for (std::size_t i = 0; i < w.protos.size(); ++i) live[i] = w.protos[i];
  for (int i = 0; i < 8; ++i) {
    const std::string s = w.protos[i * 9] + "#" + std::to_string(i);
    live[router.Insert(s)] = s;
  }
  ASSERT_TRUE(router.Remove(7));
  live.erase(7);

  // Kill shard 0's standby. It missed nothing yet — but the next mutation
  // only reaches the survivors, so the journal is now the sole record.
  const pid_t standby = router.replica_pid(0, 1);
  ASSERT_GT(standby, 0);
  ASSERT_EQ(kill(standby, SIGKILL), 0);
  const std::string after_kill = w.protos[3] + "#late";
  live[router.Insert(after_kill)] = after_kill;
  ASSERT_TRUE(router.Remove(11));
  live.erase(11);

  // A query routes around the corpse; the respawn then must replay the
  // whole journal into the fresh process before it rejoins the group.
  ExpectServesLiveOracle(router.KNearest(w.queries[0], 4), live, *dist,
                         w.queries[0], 4, "around the corpse");
  router.RespawnDead();
  ASSERT_TRUE(router.PingAll());

  // Promote the replayed replica the hard way: kill the primary. If the
  // replay was incomplete the standby would now serve a stale world —
  // missing #late, resurrecting id 11 — and the oracle check would catch
  // either.
  const pid_t primary = router.replica_pid(0, 0);
  ASSERT_GT(primary, 0);
  ASSERT_EQ(kill(primary, SIGKILL), 0);
  for (const auto& q : w.queries) {
    ExpectServesLiveOracle(router.KNearest(q, 4), live, *dist, q, 4,
                           "replayed standby q=" + q);
  }
  EXPECT_EQ(router.live_size(), live.size());
}

TEST(ServeDistributedTest, MutatedTierStaysExactAcrossPrecisionsAndKernels) {
  // The tombstone mask writes +inf into the lower-bound slab *after*
  // dequantization, so the admissible-rounding guarantee must survive at
  // every table precision, under every compiled kernel — now over the
  // wire. Workers are forked, so the active kernel is set before the
  // router spawns them.
  Workload w = MakeWorkload(60, 3, 9700);
  auto dist = MakeDistance("dE");
  const std::string saved_kernel = ActiveSweepKernels().name;
  for (const TablePrecision precision :
       {TablePrecision::kF32, TablePrecision::kU8}) {
    Deployment dep(w.protos, 2, 6, precision);
    for (const SweepKernels* kern : AvailableSweepKernels()) {
      ASSERT_TRUE(SetActiveSweepKernels(kern->name));
      ServeRouter router(dep.dir.path, FastOptions());
      const std::string ctx = std::string("precision ") +
                              std::to_string(static_cast<int>(precision)) +
                              " kernel " + kern->name;

      std::map<std::uint64_t, std::string> live;
      for (std::size_t i = 0; i < w.protos.size(); ++i) live[i] = w.protos[i];
      for (int i = 0; i < 4; ++i) {
        const std::string s = w.protos[i * 11] + "^" + std::to_string(i);
        live[router.Insert(s)] = s;
      }
      for (const std::uint64_t id : {std::uint64_t{0}, std::uint64_t{13},
                                     std::uint64_t{w.protos.size() + 1}}) {
        ASSERT_TRUE(router.Remove(id)) << ctx;
        live.erase(id);
      }
      for (const auto& q : w.queries) {
        ExpectServesLiveOracle(router.KNearest(q, 3), live, *dist, q, 3,
                               ctx + " q=" + q);
      }
      ExpectServesLiveOracle(
          router.KNearestWithRow(w.queries[0], 3, dep.PivotRow(w.queries[0])),
          live, *dist, w.queries[0], 3, ctx + " with-row");
    }
  }
  ASSERT_TRUE(SetActiveSweepKernels(saved_kernel));
}


/// A fixed batch of jobs for `ServeRouter::DriveSweeps`, driven on the
/// calling thread: every job is admitted, and each delivery is recorded.
class BatchFeed : public SweepFeed {
 public:
  BatchFeed(const std::vector<std::string>& queries,
            const std::vector<std::vector<double>>& rows, std::size_t k)
      : queries_(queries), rows_(rows), k_(k),
        results_(queries.size()), bailed_(queries.size(), false),
        delivered_(queries.size(), false) {}

  bool Next(SweepJob* out) override {
    if (next_ == queries_.size()) return false;
    out->query = queries_[next_];
    out->k = k_;
    out->row = rows_[next_].data();
    out->tag = next_++;
    return true;
  }
  bool Finished() override { return next_ == queries_.size(); }
  void Deliver(std::uint64_t tag, ServeResult res, bool bailed) override {
    results_[tag] = std::move(res);
    bailed_[tag] = bailed;
    delivered_[tag] = true;
  }

  const ServeResult& result(std::size_t i) const { return results_[i]; }
  bool bailed(std::size_t i) const { return bailed_[i]; }
  bool delivered(std::size_t i) const { return delivered_[i]; }

 private:
  const std::vector<std::string>& queries_;
  const std::vector<std::vector<double>>& rows_;
  std::size_t k_;
  std::size_t next_ = 0;
  std::vector<ServeResult> results_;
  std::vector<bool> bailed_, delivered_;
};

TEST(ServeDistributedTest, PipelinedPathServesAMutatedWorldWithoutBailing) {
  // Inserts and removes change only the workers' sweep segments, so the
  // multiplexed `DriveSweeps` loop keeps serving after them: no job bails, every
  // answer matches the live oracle, and each is bit-identical — stats
  // included — to the robust per-query path over the same world.
  Workload w = MakeWorkload(120, 6, 9800);
  Deployment dep(w.protos, 4, 8);
  ServeRouter router(dep.dir.path, FastOptions());
  auto dist = MakeDistance("dE");

  std::map<std::uint64_t, std::string> live;
  for (std::size_t i = 0; i < w.protos.size(); ++i) live[i] = w.protos[i];
  for (int i = 0; i < 9; ++i) {
    const std::string s = w.protos[i * 11] + "=" + std::to_string(i);
    live[router.Insert(s)] = s;
  }
  for (const std::uint64_t id : {std::uint64_t{0}, std::uint64_t{33},
                                 std::uint64_t{w.protos.size() + 4}}) {
    ASSERT_TRUE(router.Remove(id));
    live.erase(id);
  }
  // Queries that hit the inserts themselves, next to the perturbed ones.
  std::vector<std::string> queries = w.queries;
  queries.push_back(live.at(w.protos.size() + 1));
  queries.push_back(live.at(w.protos.size() + 8));
  std::vector<std::vector<double>> rows;
  for (const auto& q : queries) rows.push_back(dep.PivotRow(q));

  BatchFeed feed(queries, rows, 5);
  router.DriveSweeps(feed);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const std::string ctx = "q=" + queries[i];
    ASSERT_TRUE(feed.delivered(i)) << ctx;
    EXPECT_FALSE(feed.bailed(i)) << ctx;
    if (feed.bailed(i)) continue;
    ExpectServesLiveOracle(feed.result(i), live, *dist, queries[i], 5, ctx);
    const ServeResult robust = router.KNearestWithRow(queries[i], 5, rows[i]);
    ASSERT_EQ(feed.result(i).neighbors.size(), robust.neighbors.size()) << ctx;
    for (std::size_t j = 0; j < robust.neighbors.size(); ++j) {
      EXPECT_EQ(feed.result(i).neighbors[j].index, robust.neighbors[j].index)
          << ctx << " rank " << j;
      EXPECT_EQ(feed.result(i).neighbors[j].distance,
                robust.neighbors[j].distance)
          << ctx << " rank " << j;
    }
    EXPECT_TRUE(feed.result(i).stats == robust.stats) << ctx;
  }
}

TEST(ServeDistributedTest, InsertsBeyondEveryKthNeighbourCostNoEvaluation) {
  // An insert is a column of pivot distances in its owner's delta
  // segment: one whose length bound lies beyond every query's k-th
  // neighbour is eliminated at the seed, never evaluated — the queries'
  // answers AND QueryStats are exactly those before the inserts.
  Workload w = MakeWorkload(120, 6, 9850);
  Deployment dep(w.protos, 4, 8);
  ServeRouter router(dep.dir.path, FastOptions());
  std::vector<ServeResult> before;
  for (const auto& q : w.queries) before.push_back(router.KNearest(q, 5));

  Rng rng(9851);
  for (int i = 0; i < 12; ++i) {
    std::string s(80, 'a');
    for (char& c : s) c = static_cast<char>('a' + rng.Index(26));
    router.Insert(s);
  }
  for (std::size_t i = 0; i < w.queries.size(); ++i) {
    const std::string ctx = "q=" + w.queries[i];
    QueryStats ref;
    const auto want = dep.Reference(w.queries[i], 5, &ref);
    ExpectHealthyIdentical(before[i], want, ref, ctx + " before");
    ExpectHealthyIdentical(router.KNearest(w.queries[i], 5), want, ref,
                           ctx + " after");
  }
}

TEST(ServeDistributedTest, MangledInsertReplyEvictsTheStandbyAndReplayHeals) {
  // A standby whose kInsert reply disagrees with the primary's is evicted
  // by the mutation's byte check; its respawn replays the journal, with
  // every insert column recomputed from the manifest's pivot strings, and
  // once promoted it serves the live world exactly.
  Workload w = MakeWorkload(100, 4, 9900);
  Deployment dep(w.protos, 2, 6);
  ServeOptions opt = FastOptions();
  opt.fault_spec = "mangle:shard=0,op=insert,replica=1,nth=1";
  // No respawn until asked: the later mutations reach only the primary, so
  // the journal is the standby's sole record of them.
  opt.auto_respawn = false;
  ServeRouter router(dep.dir.path, opt);
  auto dist = MakeDistance("dE");

  std::map<std::uint64_t, std::string> live;
  for (std::size_t i = 0; i < w.protos.size(); ++i) live[i] = w.protos[i];
  // The first insert id is size(): shard 0's first delta slot.
  const std::string first = w.protos[8] + "!0";
  const std::uint64_t first_id = router.Insert(first);
  ASSERT_EQ(first_id, w.protos.size());
  live[first_id] = first;
  EXPECT_TRUE(router.replica_alive(0, 0));
  EXPECT_FALSE(router.replica_alive(0, 1)) << "mangled standby not evicted";

  for (int i = 1; i < 6; ++i) {
    const std::string s = w.protos[i * 13] + "!" + std::to_string(i);
    live[router.Insert(s)] = s;
  }
  ASSERT_TRUE(router.Remove(w.protos.size() + 2));
  live.erase(w.protos.size() + 2);
  EXPECT_GE(router.RespawnDead(), 1u);
  ASSERT_TRUE(router.PingAll());

  // Kill the primary: the replayed replica now answers for shard 0.
  const pid_t primary = router.replica_pid(0, 0);
  ASSERT_GT(primary, 0);
  ASSERT_EQ(kill(primary, SIGKILL), 0);
  for (const auto& q : w.queries) {
    ExpectServesLiveOracle(router.KNearest(q, 4), live, *dist, q, 4,
                           "replayed q=" + q);
  }
  const ServeResult hit = router.Nearest(first);
  ASSERT_EQ(hit.neighbors.size(), 1u);
  EXPECT_EQ(hit.neighbors[0].index, first_id);
  EXPECT_EQ(hit.neighbors[0].distance, 0.0);
}

TEST(ServeDistributedTest, SeededPivotTiesGoToTheLowerIdOverTheWire) {
  // Max-min selection from prototype 3 picks pivots {3, 1}: the later
  // ordinal holds the lower id. The query is at distance 4 from both and
  // farther from everything else, so the pivot-row seed decides the
  // 1-NN, and the router must admit the tie to the lower id — as the
  // in-process row sweep does.
  const std::vector<std::string> protos = {"zzzz", "yyyyyyyy", "wwwww",
                                           "xxxx"};
  TempDir dir;
  const ShardedPrototypeStore store(protos, 2);
  const ShardedLaesa index(store, MakeDistance("dE"), 2, /*first_pivot=*/3);
  ASSERT_EQ(index.pivots(), (std::vector<std::size_t>{3, 1}));
  SaveServingSnapshot(index, dir.path);
  ServeOptions opt = FastOptions();
  opt.replicas = 1;
  ServeRouter router(dir.path, opt);
  const ServeResult got = router.Nearest("xxxxyyyy");
  ASSERT_EQ(got.neighbors.size(), 1u);
  EXPECT_EQ(got.neighbors[0].index, 1u);
  EXPECT_EQ(got.neighbors[0].distance, 4.0);
}

}  // namespace
}  // namespace cned
