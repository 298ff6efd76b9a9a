// The repository benchmark. One invocation runs one named workload from a
// seed for a fixed window, checks every operation against an in-process
// oracle, and prints its metrics; the last line of stdout is one JSON
// object. With --trace 1 it instead prints the per-layer metrics of a
// traced run, plus the tracing overhead against an untraced window.
//
//   perfbench --workload <serve_read_dE|serve_mixed_dE|inproc_dC>
//             --seed <n> --seconds <s> --trace <0|1> [--scratch <dir>]
//
// Layers are measured from outside: spans sit around the calls the
// benchmark makes into the library, distance kernels are timed through a
// forwarding StringDistance, and process counters come from getrusage and
// /proc. See README.md next to this directory's CMakeLists.txt.

#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/contextual.h"
#include "datasets/perturb.h"
#include "datasets/sharded_prototype_store.h"
#include "distances/registry.h"
#include "search/laesa.h"
#include "search/sharded_laesa.h"
#include "serve/engine.h"
#include "serve/router.h"
#include "serve/shard_snapshot.h"
#include "strings/alphabet.h"

#include "proc_stats.h"
#include "trace.h"

namespace perfbench {
namespace {

using cned::NeighborResult;
using cned::QueryStats;
using cned::Rng;
using cned::ServeResult;

/// The fig3 dictionary: 2000 words from the seed the fig3 bench uses by
/// default. It is the fixed deployment; --seed varies everything the
/// clients do (queries, their popularity, writes). Drawing the dictionary
/// from --seed too would move per-operation cost by ~13% from seed to
/// seed, through its stem-family structure alone.
constexpr std::size_t kWords = 2000;
constexpr std::uint64_t kDictionarySeed = 20080401;
constexpr std::size_t kPivots = 16;
constexpr std::size_t kK = 5;
constexpr std::size_t kShards = 4;
constexpr std::size_t kQueryEdits = 2;
constexpr std::size_t kPoolSize = 2000;
constexpr double kZipfExponent = 0.5;
constexpr std::size_t kMaxClients = 4;
/// serve_mixed_dE: every tenth operation of each client is a write.
constexpr std::uint64_t kWriteEvery = 10;
constexpr int kSetupRepeats = 5;
constexpr std::size_t kWarmupOpsPerClient = 4;
constexpr std::size_t kInflightMaxOps = 64;
/// Distances within this of each other count as a tie when an answer is
/// checked against exhaustive search. One rational d_C value can round to
/// two doubles along different edit paths (d_C("mao","rao") =
/// 0.33333333333333331, d_C("mao","ma") = 0.33333333333333326, both 1/3),
/// and Laesa::KNearest can then return the first of them where exhaustive
/// search ranks the second, an ulp closer. The library's own
/// LAESA-vs-exhaustive tests compare at 1e-9 too.
constexpr double kTieTolerance = 1e-9;
/// The window's completions are cut into this many slices; throughput and
/// the latency percentiles are medians over slices, so a few seconds of
/// contention from outside the benchmark move them less than a
/// whole-window value would.
constexpr std::size_t kSlices = 10;
/// A measured window during which the hypervisor gave more than this share
/// of the machine's CPU to other tenants is run once more (/proc/stat
/// steal). On the shared virtual machines this benchmark runs on, clean
/// windows show under 3% steal and contended ones 10-18%, with served
/// throughput down by up to 60%.
constexpr double kMaxStealFrac = 0.05;

enum class Workload { kServeRead, kServeMixed, kInprocDC };

bool Served(Workload w) { return w != Workload::kInprocDC; }

struct Args {
  Workload workload = Workload::kServeRead;
  std::string workload_name;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string scratch = ".bench_build/perfbench-run";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") {
        a->workload_name = val;
        if (val == "serve_read_dE") {
          a->workload = Workload::kServeRead;
        } else if (val == "serve_mixed_dE") {
          a->workload = Workload::kServeMixed;
        } else if (val == "inproc_dC") {
          a->workload = Workload::kInprocDC;
        } else {
          return false;
        }
        have_workload = true;
      } else if (key == "--seed") {
        a->seed = std::stoull(val);
        have_seed = true;
      } else if (key == "--seconds") {
        a->seconds = std::stod(val);
        have_seconds = a->seconds > 0.0;
      } else if (key == "--trace") {
        if (val != "0" && val != "1") return false;
        a->trace = val == "1";
      } else if (key == "--scratch") {
        a->scratch = val;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return (argc % 2) == 1 && have_workload && have_seed && have_seconds;
}

std::size_t ClientCount() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max<std::size_t>(1, std::min<std::size_t>(kMaxClients, hw));
}

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Set-up: one deployment of a workload, everything setup_s pays for.
// ---------------------------------------------------------------------------

struct SetupTimes {
  double total_s = 0.0;
  double index_build_s = 0.0;
  double snapshot_write_s = 0.0;
  double router_start_s = 0.0;
  std::uint64_t snapshot_bytes = 0;
};

struct World {
  Workload workload = Workload::kServeRead;
  std::vector<std::string> words;
  std::vector<std::string> pool;        // perturbed queries
  std::vector<std::size_t> zipf_order;  // popularity rank -> pool index
  std::vector<double> zipf_cdf;
  cned::StringDistancePtr distance;
  std::unique_ptr<cned::ShardedPrototypeStore> store;
  std::unique_ptr<cned::ShardedLaesa> sharded;  // served workloads
  std::unique_ptr<cned::Laesa> flat;            // inproc_dC
  std::string snapshot_dir;
  std::unique_ptr<cned::ServeRouter> router;
  std::unique_ptr<cned::ServeEngine> engine;
  SetupTimes times;

  World() = default;
  World(const World&) = delete;
  World& operator=(const World&) = delete;
  ~World() {
    engine.reset();
    router.reset();  // kills and reaps the workers
    if (!snapshot_dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(snapshot_dir, ec);
    }
  }

  /// The pool index at popularity quantile `u` in [0, 1).
  std::size_t QueryAt(double u) const {
    u *= zipf_cdf.back();
    const auto it = std::upper_bound(zipf_cdf.begin(), zipf_cdf.end(), u);
    const auto rank = std::min<std::size_t>(
        static_cast<std::size_t>(it - zipf_cdf.begin()), pool.size() - 1);
    return zipf_order[rank];
  }

  std::vector<pid_t> WorkerPids() const {
    std::vector<pid_t> pids;
    if (!router) return pids;
    for (std::size_t s = 0; s < router->shard_count(); ++s) {
      for (std::size_t r = 0; r < router->replica_count(); ++r) {
        pids.push_back(router->replica_pid(s, r));
      }
    }
    return pids;
  }
};

/// Zipf-distributed pool indices for one client: a golden-ratio
/// (low-discrepancy) walk through the popularity quantiles from a seeded
/// start, so the share of popular and rare queries in a window follows the
/// zipf weights whatever the window's length.
class QueryStream {
 public:
  QueryStream(const World& w, double start) : w_(w), u_(start) {}
  std::size_t Next() {
    u_ += 0.6180339887498949;
    if (u_ >= 1.0) u_ -= 1.0;
    return w_.QueryAt(u_);
  }

 private:
  const World& w_;
  double u_;
};

const char* DistanceName(Workload w) { return Served(w) ? "dE" : "dC"; }

/// Runs body(c) on its own thread for each client c, joins them all, then
/// rethrows the first exception a body threw.
template <typename Body>
void RunClients(std::size_t clients, const Body& body) {
  std::mutex mu;
  std::exception_ptr first;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        body(c);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!first) first = std::current_exception();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  if (first) std::rethrow_exception(first);
}

std::unique_ptr<World> Setup(Workload workload, std::uint64_t seed,
                             bool timed, const std::string& scratch,
                             std::size_t clients) {
  static int serial = 0;
  const std::int64_t t_start = NowNs();
  auto w = std::make_unique<World>();
  w->workload = workload;
  w->words = cned::bench::MakeDictionary(kWords, kDictionarySeed).strings;
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  w->pool = cned::MakeQueries(w->words, kPoolSize, kQueryEdits,
                              cned::Alphabet::Latin(), rng);
  w->zipf_order.resize(w->pool.size());
  std::iota(w->zipf_order.begin(), w->zipf_order.end(), std::size_t{0});
  rng.Shuffle(w->zipf_order);
  double acc = 0.0;
  for (std::size_t r = 0; r < w->pool.size(); ++r) {
    acc += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    w->zipf_cdf.push_back(acc);
  }
  cned::StringDistancePtr raw = cned::MakeDistance(DistanceName(workload));
  w->distance = timed ? std::make_shared<TimedDistance>(raw) : raw;

  std::int64_t t = NowNs();
  if (Served(workload)) {
    w->store = std::make_unique<cned::ShardedPrototypeStore>(w->words, kShards);
    w->sharded =
        std::make_unique<cned::ShardedLaesa>(*w->store, w->distance, kPivots);
    w->times.index_build_s = static_cast<double>(NowNs() - t) * 1e-9;

    t = NowNs();
    w->snapshot_dir = scratch + "/snapshot-" + std::to_string(getpid()) +
                      "-" + std::to_string(serial++);
    std::filesystem::create_directories(w->snapshot_dir);
    cned::SaveServingSnapshot(*w->sharded, w->snapshot_dir);
    w->times.snapshot_write_s = static_cast<double>(NowNs() - t) * 1e-9;
    w->times.snapshot_bytes = DirBytes(w->snapshot_dir);

    t = NowNs();
    cned::ServeOptions opt;
    opt.distance = "dE";
    opt.replicas = 1;
    w->router = std::make_unique<cned::ServeRouter>(w->snapshot_dir, opt);
    cned::ServeEngineOptions eng;
    // Closed-loop clients never queue more than one query each; a long
    // admission deadline keeps a busy machine from turning into sheds.
    eng.admission_timeout_ms = 60000;
    w->engine = std::make_unique<cned::ServeEngine>(*w->router, eng);
    w->times.router_start_s = static_cast<double>(NowNs() - t) * 1e-9;
  } else {
    w->flat = std::make_unique<cned::Laesa>(w->words, w->distance, kPivots);
    w->times.index_build_s = static_cast<double>(NowNs() - t) * 1e-9;
  }

  // Warm-up: every client thread runs a few reads (caches, thread-local
  // DP workspaces, the engine's driver and the workers' first sweeps).
  RunClients(clients, [&w](std::size_t c) {
    for (std::size_t j = 0; j < kWarmupOpsPerClient; ++j) {
      const std::string& q = w->pool[w->zipf_order[(c + j * 7) % 32]];
      if (w->engine) {
        w->engine->KNearest(q, kK);
      } else {
        w->flat->KNearest(q, kK);
      }
    }
  });
  w->times.total_s = static_cast<double>(NowNs() - t_start) * 1e-9;
  return w;
}

// ---------------------------------------------------------------------------
// Oracle: per pool query, the reference path's answer and the exhaustive
// distance row. Not part of setup_s.
// ---------------------------------------------------------------------------

struct Oracle {
  /// The reference path: ShardedLaesa pivot row (served) or the untraced
  /// flat Laesa::KNearest (inproc_dC), with its QueryStats.
  std::vector<std::vector<NeighborResult>> ref;
  std::vector<QueryStats> ref_stats;
  /// Exhaustive search by the bare distance: the k smallest distances to
  /// the base words, ascending, and every base word within kTieTolerance
  /// of the k-th of them (all valid members of a k-NN answer, ties
  /// included).
  std::vector<std::vector<double>> top;
  std::vector<std::vector<NeighborResult>> near;
  /// Base ids farther from every pool query than its k-th neighbour, in
  /// seeded random order: removing them changes no expected answer.
  std::vector<std::size_t> removable;
  /// Insert length whose |len| lower bound exceeds every query's k-th
  /// distance: inserted strings can never enter a top-k.
  std::size_t insert_len = 0;
};

Oracle BuildOracle(const World& w, std::uint64_t seed) {
  const std::size_t nq = w.pool.size();
  const std::size_t n = w.words.size();
  const cned::StringDistancePtr bare =
      cned::MakeDistance(DistanceName(w.workload));
  Oracle o;
  o.ref.resize(nq);
  o.ref_stats.resize(nq);
  o.top.resize(nq);
  o.near.resize(nq);
  cned::ParallelFor(nq, [&](std::size_t q) {
    std::vector<double> row(n);
    for (std::size_t i = 0; i < n; ++i) {
      row[i] = bare->Distance(w.pool[q], w.words[i]);
    }
    std::vector<double> sorted = row;
    std::partial_sort(sorted.begin(), sorted.begin() + kK, sorted.end());
    o.top[q].assign(sorted.begin(), sorted.begin() + kK);
    for (std::size_t i = 0; i < n; ++i) {
      if (row[i] <= o.top[q].back() + kTieTolerance) {
        o.near[q].push_back({i, row[i]});
      }
    }
    QueryStats st;
    if (w.sharded) {
      std::vector<double> pivot_row(w.sharded->pivot_count());
      w.sharded->ComputePivotRow(w.pool[q], pivot_row.data(), &st);
      o.ref[q] = w.sharded->KNearestWithPivotRow(w.pool[q], kK,
                                                 pivot_row.data(), &st);
    } else {
      o.ref[q] = w.flat->KNearest(w.pool[q], kK, &st);
    }
    o.ref_stats[q] = st;
  });

  std::size_t max_len = 0;
  double max_kth = 0.0;
  std::vector<char> is_near(n, 0);
  for (std::size_t q = 0; q < nq; ++q) {
    max_len = std::max(max_len, w.pool[q].size());
    max_kth = std::max(max_kth, o.top[q].back());
    for (const NeighborResult& r : o.near[q]) is_near[r.index] = 1;
  }
  o.insert_len = max_len + static_cast<std::size_t>(std::ceil(max_kth)) + 1;
  for (std::size_t i = 0; i < n; ++i) {
    if (!is_near[i]) o.removable.push_back(i);
  }
  Rng rng(seed + 3);
  rng.Shuffle(o.removable);
  return o;
}

bool SameAnswer(const std::vector<NeighborResult>& a,
                const std::vector<NeighborResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].index != b[i].index || a[i].distance != b[i].distance) {
      return false;
    }
  }
  return true;
}

/// An exact k-NN answer over the base words: the exhaustive distances (to
/// kTieTolerance), each neighbour a distinct base id at exactly the
/// distance the bare kernel gives it (any member of a tie at the k-th
/// distance is accepted).
bool ExactKnn(const Oracle& o, std::size_t q,
              const std::vector<NeighborResult>& got) {
  if (got.size() != o.top[q].size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::fabs(got[i].distance - o.top[q][i]) > kTieTolerance) {
      return false;
    }
    const auto at = std::find_if(
        o.near[q].begin(), o.near[q].end(),
        [&](const NeighborResult& r) { return r.index == got[i].index; });
    if (at == o.near[q].end() || at->distance != got[i].distance) {
      return false;
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (got[j].index == got[i].index) return false;
    }
  }
  return true;
}

/// The per-workload check of one served read: bit-identical to the
/// pivot-row reference (stats included) in the read-only world; exact
/// neighbours and distances once writes run.
bool ServedReadOk(const Oracle& o, Workload w, std::size_t q,
                  const ServeResult& r) {
  if (r.shed || r.partial || !r.missing_shards.empty()) return false;
  if (!ExactKnn(o, q, r.neighbors)) return false;
  return w == Workload::kServeMixed ||
         (SameAnswer(r.neighbors, o.ref[q]) && r.stats == o.ref_stats[q]);
}

// ---------------------------------------------------------------------------
// Measured window: closed-loop clients.
// ---------------------------------------------------------------------------

/// Shared state of the writers in serve_mixed_dE.
struct WriteState {
  std::mutex mu;
  std::uint64_t writes = 0;
  std::vector<std::uint64_t> inserted;  // inserted, not yet removed
  std::size_t next_base = 0;            // cursor into Oracle::removable
};

/// One completed operation: when, from the window start, and its latency
/// if it was a read (< 0 for a write).
struct Done {
  std::int64_t end_ns;
  double read_ms;
};

struct ClientTally {
  std::vector<double> read_ms, insert_ms, remove_ms;
  std::vector<Done> done;
  std::uint64_t attempted = 0, failed = 0;
  QueryStats stats;  // summed over reads
  DpCounters dp;
  std::uint64_t cells = 0;
};

struct Window {
  double elapsed_s = 0.0;
  /// Throughput of each of kSlices runs of consecutive completions.
  std::vector<double> slice_ops_s;
  /// Read latencies in completion order.
  std::vector<double> reads_in_order;
  std::uint64_t reads = 0, attempted = 0, failed = 0;
  std::vector<double> insert_ms, remove_ms;
  QueryStats stats;
  DpCounters dp;
  std::uint64_t cells = 0;
  CpuSample self, workers;  // deltas over the window
  double steal_frac = 0.0;  // machine CPU taken by other tenants
  std::uint64_t batches = 0, claimed = 0, deduped = 0, shed = 0;
  double peak_rss_mb = 0.0;
  std::vector<SpanLog> spans;
};

CpuSample Minus(const CpuSample& a, const CpuSample& b) {
  CpuSample d;
  d.user_ms = a.user_ms - b.user_ms;
  d.sys_ms = a.sys_ms - b.sys_ms;
  d.voluntary_ctx = a.voluntary_ctx - b.voluntary_ctx;
  d.involuntary_ctx = a.involuntary_ctx - b.involuntary_ctx;
  return d;
}

CpuSample WorkersCpu(const std::vector<pid_t>& pids) {
  CpuSample sum;
  for (pid_t pid : pids) {
    CpuSample s;
    if (!PidCpu(pid, &s)) continue;
    sum.user_ms += s.user_ms;
    sum.sys_ms += s.sys_ms;
    sum.voluntary_ctx += s.voluntary_ctx;
    sum.involuntary_ctx += s.involuntary_ctx;
  }
  return sum;
}

std::string RandomWord(Rng& rng, std::size_t len) {
  std::string s(len, 'a');
  for (char& c : s) c = static_cast<char>('a' + rng.Index(26));
  return s;
}

/// One write of serve_mixed_dE: even writes insert, odd writes remove —
/// alternating an earlier insert (delta tombstone) and a far base id (base
/// tombstone). Returns false when the router refused or threw.
bool MixedWrite(World& w, const Oracle& o, WriteState& ws, Rng& rng,
                SpanLog* log, std::uint64_t op, ClientTally& tally) {
  std::uint64_t n = 0;
  {
    std::lock_guard<std::mutex> lock(ws.mu);
    n = ws.writes++;
  }
  try {
    if (n % 2 == 0) {
      const std::string s = RandomWord(rng, o.insert_len);
      const std::int64_t t0 = NowNs();
      std::uint64_t id = 0;
      {
        ScopedSpan span(log, "serve.router.insert", op);
        id = w.router->Insert(s);
      }
      tally.insert_ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
      std::lock_guard<std::mutex> lock(ws.mu);
      ws.inserted.push_back(id);
      return id >= w.words.size();
    }
    std::uint64_t id = 0;
    {
      std::lock_guard<std::mutex> lock(ws.mu);
      if (n % 4 == 1 && !ws.inserted.empty()) {
        id = ws.inserted.back();
        ws.inserted.pop_back();
      } else if (ws.next_base < o.removable.size()) {
        id = o.removable[ws.next_base++];
      } else {
        throw std::runtime_error("no removable base id left");
      }
    }
    const std::int64_t t0 = NowNs();
    bool removed = false;
    {
      ScopedSpan span(log, "serve.router.remove", op);
      removed = w.router->Remove(id);
    }
    tally.remove_ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
    return removed;
  } catch (const std::exception&) {
    return false;
  }
}

/// One read; returns whether it was correct.
bool Read(World& w, const Oracle& o, std::size_t q, SpanLog* log,
          std::uint64_t op, ClientTally& tally) {
  const std::string& query = w.pool[q];
  const std::int64_t t0 = NowNs();
  bool ok = false;
  try {
    if (w.engine) {
      ServeResult r;
      {
        ScopedSpan span(log, "serve.engine.knearest", op);
        r = w.engine->KNearest(query, kK);
      }
      ok = ServedReadOk(o, w.workload, q, r);
      tally.stats += r.stats;
    } else {
      QueryStats st;
      std::vector<NeighborResult> got;
      {
        ScopedSpan span(log, "search.laesa.knearest", op);
        got = w.flat->KNearest(query, kK, &st);
      }
      // Same trajectory as the untraced reference (neighbours AND stats),
      // and exact against exhaustive search.
      ok = SameAnswer(got, o.ref[q]) && st == o.ref_stats[q] &&
           ExactKnn(o, q, got);
      tally.stats += st;
    }
  } catch (const std::exception&) {
    ok = false;
  }
  tally.read_ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
  return ok;
}

Window RunWindow(World& w, const Oracle& o, double seconds, bool traced,
                 std::uint64_t seed, std::size_t clients) {
  Window win;
  win.spans.resize(traced ? clients : 0);
  std::vector<ClientTally> tallies(clients);
  WriteState ws;
  const std::vector<pid_t> pids = w.WorkerPids();

  const std::uint64_t batches0 = w.engine ? w.engine->batches() : 0;
  const std::uint64_t claimed0 = w.engine ? w.engine->batched_queries() : 0;
  const std::uint64_t deduped0 = w.engine ? w.engine->deduped_rows() : 0;
  const std::uint64_t shed0 = w.engine ? w.engine->shed_queries() : 0;
  const CpuSample self0 = SelfCpu();
  const CpuSample workers0 = WorkersCpu(pids);
  const MachineTicks machine0 = ReadMachineTicks();
  const std::int64_t start = NowNs();
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);

  RunClients(clients, [&](std::size_t c) {
    ClientTally& tally = tallies[c];
    SpanLog* log = traced ? &win.spans[c] : nullptr;
    Rng rng(seed * 1000003ULL + 7919ULL * (c + 1));
    QueryStream stream(w, rng.Uniform());
    const DpCounters dp0 = ThreadDp();
    const std::uint64_t cells0 = cned::ContextualCellsEvaluated();
    for (std::uint64_t j = 0; NowNs() < end; ++j) {
      const std::uint64_t op = (static_cast<std::uint64_t>(c) << 40) | j;
      ScopedSpan root(log, "op", op);
      bool ok = false;
      const bool read = w.workload != Workload::kServeMixed ||
                        j % kWriteEvery != kWriteEvery - 1;
      if (!read) {
        ok = MixedWrite(w, o, ws, rng, log, op, tally);
      } else {
        ok = Read(w, o, stream.Next(), log, op, tally);
      }
      ++tally.attempted;
      if (!ok) ++tally.failed;
      tally.done.push_back(
          {NowNs() - start, read ? tally.read_ms.back() : -1.0});
    }
    tally.dp.ns = ThreadDp().ns - dp0.ns;
    tally.dp.evals = ThreadDp().evals - dp0.evals;
    tally.cells = cned::ContextualCellsEvaluated() - cells0;
  });
  win.elapsed_s = static_cast<double>(NowNs() - start) * 1e-9;
  // Every completion in time order, then kSlices runs of equal count;
  // a run's throughput is its count over the time since the previous run
  // ended.
  std::vector<Done> done;
  for (const ClientTally& t : tallies) {
    done.insert(done.end(), t.done.begin(), t.done.end());
  }
  std::sort(done.begin(), done.end(),
            [](const Done& x, const Done& y) { return x.end_ns < y.end_ns; });
  const std::size_t per_slice = done.size() / kSlices;
  std::int64_t prev_end = 0;
  for (std::size_t i = 0; per_slice > 0 && i < kSlices; ++i) {
    const std::int64_t end_ns = done[(i + 1) * per_slice - 1].end_ns;
    win.slice_ops_s.push_back(static_cast<double>(per_slice) /
                              (static_cast<double>(end_ns - prev_end) * 1e-9));
    prev_end = end_ns;
  }
  for (const Done& d : done) {
    if (d.read_ms >= 0.0) win.reads_in_order.push_back(d.read_ms);
  }
  win.self = Minus(SelfCpu(), self0);
  win.workers = Minus(WorkersCpu(pids), workers0);
  const MachineTicks machine1 = ReadMachineTicks();
  win.steal_frac =
      Ratio(static_cast<double>(machine1.steal - machine0.steal),
            static_cast<double>(machine1.total - machine0.total));
  if (w.engine) {
    win.batches = w.engine->batches() - batches0;
    win.claimed = w.engine->batched_queries() - claimed0;
    win.deduped = w.engine->deduped_rows() - deduped0;
    win.shed = w.engine->shed_queries() - shed0;
  }
  win.peak_rss_mb = PeakRssMb(0);
  for (pid_t pid : pids) win.peak_rss_mb += PeakRssMb(pid);

  for (const ClientTally& t : tallies) {
    win.insert_ms.insert(win.insert_ms.end(), t.insert_ms.begin(),
                         t.insert_ms.end());
    win.remove_ms.insert(win.remove_ms.end(), t.remove_ms.begin(),
                         t.remove_ms.end());
    win.attempted += t.attempted;
    win.failed += t.failed;
    win.stats += t.stats;
    win.dp.ns += t.dp.ns;
    win.dp.evals += t.dp.evals;
    win.cells += t.cells;
  }
  win.reads = win.reads_in_order.size();
  return win;
}

// ---------------------------------------------------------------------------
// One query in flight (traced served runs): the pivot row, the router's
// row sweep and the engine, each alone, so the engine's share is isolated.
// ---------------------------------------------------------------------------

struct Inflight {
  std::uint64_t ops = 0, attempted = 0, failed = 0;
  double pivot_row_ms = 0.0, router_sweep_ms = 0.0, engine_ms = 0.0;
  double dp_ms = 0.0;
  std::uint64_t dp_evals = 0;
  SpanLog spans;
};

Inflight RunInflight(World& w, const Oracle& o, double budget_s,
                     std::uint64_t seed) {
  Inflight in;
  Rng rng(seed + 99);
  QueryStream stream(w, rng.Uniform());
  const DpCounters dp0 = ThreadDp();
  const std::int64_t end = NowNs() + static_cast<std::int64_t>(budget_s * 1e9);
  std::vector<double> row(w.sharded->pivot_count());
  while (in.ops < kInflightMaxOps && NowNs() < end) {
    const std::size_t q = stream.Next();
    const std::string& query = w.pool[q];
    const std::uint64_t op = (std::uint64_t{1} << 48) | in.ops;
    ScopedSpan root(&in.spans, "inflight.op", op);
    ServeResult by_row, by_engine;
    bool threw = false;
    try {
      QueryStats st;
      {
        ScopedSpan span(&in.spans, "search.pivot_row", op);
        w.sharded->ComputePivotRow(query, row.data(), &st);
      }
      {
        ScopedSpan span(&in.spans, "serve.router.knearest_with_row", op);
        by_row = w.router->KNearestWithRow(query, kK, row);
      }
      {
        ScopedSpan span(&in.spans, "serve.engine.knearest_alone", op);
        by_engine = w.engine->KNearest(query, kK);
      }
    } catch (const std::exception&) {
      threw = true;
    }
    ++in.ops;
    in.attempted += 2;
    if (threw || !ServedReadOk(o, w.workload, q, by_row)) ++in.failed;
    if (threw || !ServedReadOk(o, w.workload, q, by_engine)) ++in.failed;
  }
  in.dp_ms = static_cast<double>(ThreadDp().ns - dp0.ns) * 1e-6;
  in.dp_evals = ThreadDp().evals - dp0.evals;
  const auto totals = Summarize({in.spans});
  const auto mean = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() || it->second.count == 0
               ? 0.0
               : it->second.total_ms / static_cast<double>(it->second.count);
  };
  in.pivot_row_ms = mean("search.pivot_row");
  in.router_sweep_ms = mean("serve.router.knearest_with_row");
  in.engine_ms = mean("serve.engine.knearest_alone");
  return in;
}

// ---------------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------------

/// Nearest-rank percentile: the ceil(p*n)-th smallest sample.
struct Percentile {
  double value = 0.0;
  std::size_t n = 0;
  std::size_t beyond = 0;  // samples above the rank
};

Percentile NearestRank(std::vector<double> v, double p) {
  Percentile r;
  r.n = v.size();
  if (v.empty()) return r;
  std::sort(v.begin(), v.end());
  const auto rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size()))));
  r.value = v[rank - 1];
  r.beyond = v.size() - rank;
  return r;
}

/// The median (mean of the middle two for an even count).
double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Cuts the reads, in completion order, into kSlices runs of equal count
/// (fewer when there are fewer reads) and returns the median of the runs'
/// nearest-rank p50s.
double SlicedP50(const std::vector<double>& reads) {
  const std::size_t runs = std::max<std::size_t>(
      1, std::min<std::size_t>(kSlices, reads.size()));
  const std::size_t per_run = reads.size() / runs;
  std::vector<double> values;
  for (std::size_t i = 0; per_run > 0 && i < runs; ++i) {
    const auto first = reads.begin() + static_cast<std::ptrdiff_t>(i * per_run);
    values.push_back(NearestRank({first, first + static_cast<std::ptrdiff_t>(
                                                     per_run)},
                                 0.50)
                         .value);
  }
  return Median(values);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Human-readable percentile line; a tail percentile with fewer than ten
/// samples beyond it is flagged and its value withheld.
void PrintPercentile(const std::string& name, const Percentile& p, bool tail) {
  std::cout << "  " << name << " = ";
  if (p.n == 0) {
    std::cout << "n/a (no samples)\n";
  } else if (tail && p.beyond < 10) {
    std::cout << "FLAGGED (n=" << p.n << ", " << p.beyond
              << " beyond; needs >= 10)\n";
  } else {
    std::cout << p.value << " ms (n=" << p.n << ", " << p.beyond
              << " beyond)\n";
  }
}

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    std::cout << (i ? ", " : "") << '"' << metrics[i].name
              << "\": {\"value\": " << buf << ", \"unit\": \""
              << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
  }
}

std::string TempScratch(const Args& a) {
  std::filesystem::create_directories(a.scratch);
  return a.scratch;
}

int RunUntraced(const Args& a) {
  const std::size_t clients = ClientCount();
  const std::string scratch = TempScratch(a);
  // Set up several times and keep the last deployment for the window.
  std::vector<double> setups;
  std::unique_ptr<World> w;
  for (int i = 0; i < kSetupRepeats; ++i) {
    w.reset();
    w = Setup(a.workload, a.seed, false, scratch, clients);
    setups.push_back(w->times.total_s);
  }
  const std::int64_t t_oracle = NowNs();
  const Oracle o = BuildOracle(*w, a.seed);
  const double oracle_s = static_cast<double>(NowNs() - t_oracle) * 1e-9;
  Window win = RunWindow(*w, o, a.seconds, false, a.seed, clients);
  std::uint64_t attempted = win.attempted, failed = win.failed;
  // A retry's set-up and threads would add to this process's high-water
  // mark, so memory is always read from the first window.
  const double peak_rss_mb = win.peak_rss_mb;
  int windows = 1;
  if (win.steal_frac > kMaxStealFrac) {
    // Measured on a contended host: run the window once more on a fresh
    // deployment (serve_mixed_dE has mutated this one) and keep whichever
    // window had less steal. Every operation of both stays checked.
    w.reset();
    w = Setup(a.workload, a.seed, false, scratch, clients);
    Window again = RunWindow(*w, o, a.seconds, false, a.seed, clients);
    attempted += again.attempted;
    failed += again.failed;
    ++windows;
    if (again.steal_frac < win.steal_frac) win = std::move(again);
  }
  w.reset();

  const Percentile p50 = NearestRank(win.reads_in_order, 0.50);
  const Percentile p95 = NearestRank(win.reads_in_order, 0.95);
  const Percentile p99 = NearestRank(win.reads_in_order, 0.99);
  std::vector<double> writes = win.insert_ms;
  writes.insert(writes.end(), win.remove_ms.begin(), win.remove_ms.end());
  const double cpu_ms = win.self.user_ms + win.self.sys_ms +
                        win.workers.user_ms + win.workers.sys_ms;
  const auto ops = static_cast<double>(win.attempted);

  std::vector<Metric> metrics = {
      {"setup_s", Median(setups), "s"},
      {"throughput_ops_s", Median(win.slice_ops_s), "ops/s"},
      {"latency_p50_ms", SlicedP50(win.reads_in_order), "ms"},
      {"cpu_ms_per_op", cpu_ms / ops, "ms"},
      {"peak_rss_mb", peak_rss_mb, "MiB"},
  };
  std::cout << "perfbench " << a.workload_name << " seed=" << a.seed
            << " clients=" << clients << " window=" << win.elapsed_s
            << " s oracle=" << oracle_s << " s steal="
            << 100.0 * win.steal_frac << "% windows=" << windows << "\n";
  PrintMetrics(metrics);
  std::cout << "  whole-window throughput = " << ops / win.elapsed_s
            << " ops/s\n";
  PrintPercentile("whole-window latency_p50_ms", p50, false);
  PrintPercentile("whole-window latency_p95_ms", p95, true);
  PrintPercentile("whole-window latency_p99_ms", p99, true);
  if (a.workload == Workload::kServeMixed) {
    PrintPercentile("write_p50_ms", NearestRank(writes, 0.50), false);
    PrintPercentile("write_p90_ms", NearestRank(writes, 0.90), true);
    std::cout << "  writes: " << win.insert_ms.size() << " inserts, "
              << win.remove_ms.size() << " removes\n";
  }
  std::cout << "  evals_per_read = "
            << Ratio(static_cast<double>(win.stats.distance_computations),
                     static_cast<double>(win.reads))
            << "\n  attempted = " << attempted << ", failed = " << failed
            << ", failed_frac = "
            << Ratio(static_cast<double>(failed), static_cast<double>(attempted))
            << "\n";
  PrintResult(failed == 0, attempted, failed, metrics);
  return 0;
}

int RunTraced(const Args& a) {
  const std::size_t clients = ClientCount();
  const std::string scratch = TempScratch(a);
  const double half = a.seconds / 2.0;

  // Untraced half: the baseline for the tracing overhead, and the source
  // of the oracle every traced answer is compared against.
  std::unique_ptr<World> w = Setup(a.workload, a.seed, false, scratch, clients);
  const SetupTimes setup = w->times;
  const Oracle o = BuildOracle(*w, a.seed);
  const Window plain = RunWindow(*w, o, half, false, a.seed, clients);
  w.reset();

  // Traced half on a fresh deployment whose index evaluates through the
  // timing wrapper.
  w = Setup(a.workload, a.seed, true, scratch, clients);
  const std::uint64_t preprocessing =
      w->sharded ? w->sharded->preprocessing_computations()
                 : w->flat->preprocessing_computations();
  const Window traced = RunWindow(*w, o, half, true, a.seed, clients);
  Inflight in;
  if (Served(a.workload)) in = RunInflight(*w, o, a.seconds / 3.0, a.seed);
  w.reset();

  const auto ops = static_cast<double>(traced.attempted);
  const auto reads = static_cast<double>(traced.reads);
  const auto totals = Summarize(traced.spans);
  const auto total_ms = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_ms;
  };
  const bool served = Served(a.workload);
  const double evals =
      static_cast<double>(traced.stats.distance_computations);
  const double router_cpu = traced.self.user_ms + traced.self.sys_ms;
  const double all_cpu =
      router_cpu + traced.workers.user_ms + traced.workers.sys_ms;
  const double plain_tput = static_cast<double>(plain.attempted) / plain.elapsed_s;
  const double traced_tput = ops / traced.elapsed_s;

  // inproc_dC: the kernels run on the client threads inside the
  // Laesa::KNearest span. Served: the benchmark only evaluates distances
  // for the pivot rows of the one-in-flight phase.
  const double dp_ms = served ? in.dp_ms : static_cast<double>(traced.dp.ns) * 1e-6;
  const double dp_evals =
      served ? static_cast<double>(in.dp_evals) : static_cast<double>(traced.dp.evals);
  const double dp_ops = served ? static_cast<double>(in.ops) : ops;
  const double knn_ms = total_ms("search.laesa.knearest");

  std::vector<Metric> metrics = {
      {"distances.evals_per_op", Ratio(evals, reads), "count"},
      {"distances.pivot_evals_per_op",
       Ratio(static_cast<double>(traced.stats.pivot_computations), reads),
       "count"},
      {"distances.abandon_frac",
       Ratio(static_cast<double>(traced.stats.bounded_abandons), evals),
       "fraction"},
      {"distances.dp_ms_per_op", Ratio(dp_ms, dp_ops), "ms"},
      {"distances.ns_per_eval", Ratio(dp_ms * 1e6, dp_evals), "ns"},
      {"core.dp_cells_per_op", Ratio(static_cast<double>(traced.cells), ops),
       "count"},
      {"search.sweep_ms_per_op",
       served ? 0.0 : Ratio(knn_ms - static_cast<double>(traced.dp.ns) * 1e-6,
                            reads),
       "ms"},
      {"search.pivot_row_ms_per_op", in.pivot_row_ms, "ms"},
      {"search.preprocessing_evals", static_cast<double>(preprocessing),
       "count"},
      {"serve.router.sweep_ms_per_op", in.router_sweep_ms, "ms"},
      {"serve.engine.overhead_ms_per_op",
       served ? in.engine_ms - in.pivot_row_ms - in.router_sweep_ms : 0.0,
       "ms"},
      {"serve.engine.claim_size",
       Ratio(static_cast<double>(traced.claimed),
             static_cast<double>(traced.batches)),
       "count"},
      {"serve.engine.dedup_frac",
       Ratio(static_cast<double>(traced.deduped),
             static_cast<double>(traced.claimed)),
       "fraction"},
      {"serve.engine.shed_frac",
       Ratio(static_cast<double>(traced.shed), served ? reads : 0.0),
       "fraction"},
      {"serve.worker.cpu_ms_per_op",
       Ratio(traced.workers.user_ms + traced.workers.sys_ms, ops), "ms"},
      {"serve.worker.wakeups_per_op",
       Ratio(static_cast<double>(traced.workers.voluntary_ctx), ops),
       "count"},
      {"serve.router.user_ms_per_op",
       served ? Ratio(traced.self.user_ms, ops) : 0.0, "ms"},
      {"serve.router.sys_ms_per_op",
       served ? Ratio(traced.self.sys_ms, ops) : 0.0, "ms"},
      {"serve.router.ctx_switches_per_op",
       served ? Ratio(static_cast<double>(traced.self.voluntary_ctx +
                                          traced.self.involuntary_ctx),
                      ops)
              : 0.0,
       "count"},
      {"serve.sys_share",
       served ? Ratio(traced.self.sys_ms + traced.workers.sys_ms, all_cpu)
              : 0.0,
       "fraction"},
      {"serve.router.insert_ms", Median(traced.insert_ms), "ms"},
      {"serve.router.remove_ms", Median(traced.remove_ms), "ms"},
      {"setup.index_build_s", setup.index_build_s, "s"},
      {"setup.snapshot_write_s", setup.snapshot_write_s, "s"},
      {"setup.router_start_s", setup.router_start_s, "s"},
      {"setup.snapshot_bytes", static_cast<double>(setup.snapshot_bytes),
       "bytes"},
      {"trace.overhead_frac", 1.0 - Ratio(traced_tput, plain_tput),
       "fraction"},
  };

  std::filesystem::path span_file = std::filesystem::path(scratch) /
                                    ("spans-" + a.workload_name + "-" +
                                     std::to_string(a.seed) + ".tsv");
  {
    std::vector<SpanLog> logs = traced.spans;
    logs.push_back(in.spans);
    std::ofstream out(span_file);
    WriteSpans(logs, out);
  }

  const std::uint64_t attempted =
      plain.attempted + traced.attempted + in.attempted;
  const std::uint64_t failed = plain.failed + traced.failed + in.failed;
  std::cout << "perfbench " << a.workload_name << " seed=" << a.seed
            << " traced run (clients=" << clients << ", untraced "
            << plain.elapsed_s << " s at " << plain_tput << " ops/s, traced "
            << traced.elapsed_s << " s at " << traced_tput << " ops/s";
  if (served) std::cout << ", " << in.ops << " queries one in flight";
  std::cout << "; steal " << 100.0 * plain.steal_frac << "% / "
            << 100.0 * traced.steal_frac << "%)\n";
  PrintMetrics(metrics);
  for (const auto& [name, t] : totals) {
    std::cout << "  span " << name << ": n=" << t.count
              << " self_ms_per_span=" << Ratio(t.self_ms, t.count)
              << " dp_ms_per_span=" << Ratio(t.dp_ms, t.count) << "\n";
  }
  std::cout << "  spans written to " << span_file.string() << "\n";
  std::cout << "  attempted = " << attempted << ", failed = " << failed
            << " (traced answers checked against the untraced reference)\n";
  PrintResult(failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: perfbench --workload "
                 "<serve_read_dE|serve_mixed_dE|inproc_dC> --seed <n> "
                 "--seconds <s> --trace <0|1> [--scratch <dir>]\n";
    return 2;
  }
  try {
    return args.trace ? perfbench::RunTraced(args)
                      : perfbench::RunUntraced(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
