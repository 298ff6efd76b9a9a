#include "serve/router.h"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <list>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/binary_io.h"
#include "distances/registry.h"
#include "serve/fault.h"
#include "serve/frame.h"
#include "serve/shard_snapshot.h"
#include "serve/wire.h"
#include "serve/worker.h"

namespace cned {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

using Clock = std::chrono::steady_clock;

std::int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             Clock::now().time_since_epoch())
      .count();
}

void ValidateServeOptions(const ServeOptions& o) {
  auto fail = [](const char* field, long long got, const char* want) {
    throw std::invalid_argument(std::string("ServeOptions.") + field + " " +
                                want + " (got " + std::to_string(got) + ")");
  };
  if (o.distance.empty()) {
    throw std::invalid_argument(
        "ServeOptions.distance must name a registered distance");
  }
  if (o.replicas < 1) fail("replicas", o.replicas, "must be >= 1");
  if (o.op_timeout_ms <= 0) fail("op_timeout_ms", o.op_timeout_ms, "must be > 0");
  if (o.query_deadline_ms <= 0) {
    fail("query_deadline_ms", o.query_deadline_ms, "must be > 0");
  }
  if (o.op_retries < 0) fail("op_retries", o.op_retries, "must be >= 0");
  if (o.backoff_base_ms < 0) {
    fail("backoff_base_ms", o.backoff_base_ms, "must be >= 0");
  }
  if (o.health_interval_ms < 0) {
    fail("health_interval_ms", o.health_interval_ms, "must be >= 0");
  }
  if (o.max_respawns_per_tick < 0) {
    fail("max_respawns_per_tick", o.max_respawns_per_tick, "must be >= 0");
  }
  // Parsed here, before any fork: a worker that cannot parse its schedule
  // has no way to report it.
  auto check_spec = [](const char* field, const std::string& spec) {
    try {
      FaultSpec::Parse(spec);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(std::string("ServeOptions.") + field +
                                  ": " + e.what());
    }
  };
  check_spec("fault_spec", o.fault_spec);
  check_spec("respawn_fault_spec", o.respawn_fault_spec);
}

/// Exponential backoff before retry `attempt` (1-based), capped at the
/// time remaining before `deadline_ms` (-1 = unbounded) so a retrying op
/// can never sleep a query past its budget.
void BackoffSleep(int backoff_base_ms, int attempt, std::int64_t deadline_ms) {
  const int shift = attempt - 1 < 20 ? attempt - 1 : 20;
  std::int64_t sleep_ms = static_cast<std::int64_t>(backoff_base_ms) << shift;
  if (deadline_ms >= 0) {
    const std::int64_t left = deadline_ms - NowMs();
    if (left <= 0) return;
    if (sleep_ms > left) sleep_ms = left;
  }
  if (sleep_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
  }
}

constexpr std::uint32_t kReplyType =
    static_cast<std::uint32_t>(FrameType::kReply);

}  // namespace

// The distributed `LaesaRowSweep`: every decision of the row sweep, in one
// place — read side by side with search/laesa_sweep.h. Both
// drivers run it and keep only their transport: `QueryRow` blocks on
// Broadcast/GroupEval (retries, failover, hedging), `DriveSweeps`
// multiplexes buffered legs and bails to the robust path on any anomaly.
// Identical decisions on identical values in identical order, so both
// stay bit-identical to the in-process pivot-row path. A shard's segment
// is its base slice plus its insert delta (serve/replica.h).
struct ServeRouter::RowSweep {
  /// One shard's view of the sweep, mirrored from its primary's replies.
  struct ShardView {
    bool active = true;
    SweepCompactResult last;
  };

  const ServeRouter* router = nullptr;
  std::size_t k = 0;
  std::vector<ShardView> views;
  std::vector<NeighborResult> best;
  ServeResult res;
  std::uint64_t computations = 0, abandons = 0;
  /// The candidate being visited and the cap its evaluation runs under.
  std::size_t cand = kSweepNone;
  double cap = 0.0;

  double kth() const { return best.size() < k ? kInf : best.back().distance; }

  /// Clamps k to the live set. Unless it clamps to 0 (returns false:
  /// nothing to sweep), charges the row's evaluations, as the in-process
  /// batch engine does, and seeds the incumbents from the row — ties
  /// admitted, since the row is already paid for. A tombstoned pivot's
  /// entry still tightens every worker's bounds (the row is broadcast
  /// whole, an admissible use), but it never becomes an incumbent.
  bool Seed(const ServeRouter& r, std::size_t want_k, const double* row) {
    router = &r;
    k = std::min(want_k, r.LiveLocked());
    if (k == 0) return false;
    const std::size_t np = r.pivots_.size();
    views.assign(r.shard_sizes_.size(), ShardView());
    res.stats.distance_computations += np;
    res.stats.pivot_computations += np;
    best.reserve(k + 1);
    for (std::size_t p = 0; p < np; ++p) {
      if (!r.base_tombs_.empty() &&
          TestTombstone(r.base_tombs_.data(), r.pivots_[p])) {
        continue;
      }
      InsertNeighborTopK(best, k, {r.pivots_[p], row[p]}, /*admit_ties=*/true);
    }
    return true;
  }

  /// kBeginRow: the query, the seed bound, the whole row.
  PayloadWriter BeginPayload(std::string_view query, const double* row) const {
    const std::size_t np = router->pivots_.size();
    PayloadWriter w;
    w.Str(query);
    w.F64(kth());
    w.U64(np);
    w.Raw(row, np * sizeof(double));
    return w;
  }

  /// Takes shard `s`'s driving begin/step reply. False, with the view
  /// untouched, when it does not decode to a pass over that shard's own
  /// segment: its base slice and the insert ids it owns.
  bool Absorb(std::size_t s, const std::vector<char>& reply) {
    PayloadReader r(reply);
    const SweepCompactResult pass = DecodeCompact(r);
    const bool in_segment =
        pass.next == kSweepNone ||
        (pass.live > 0 && pass.next < router->next_insert_id_ &&
         router->ShardOf(pass.next) == s);
    if (!r.Done() || !in_segment ||
        pass.live > router->shard_sizes_[s] + router->next_insert_id_ -
                        router->n_) {
      return false;
    }
    views[s].last = pass;
    return true;
  }

  /// The next candidate: the minimal (key, id) survivor over the active
  /// shards' last passes — the lowest global id wins ties, exactly as in
  /// process (insert ids interleave across shards, so shard order alone
  /// would not give it). False when none is left.
  bool SelectNext() {
    cand = kSweepNone;
    double key = kInf;
    for (const ShardView& v : views) {
      if (v.active && v.last.next != kSweepNone &&
          (v.last.next_key < key ||
           (v.last.next_key == key && v.last.next < cand))) {
        key = v.last.next_key;
        cand = v.last.next;
      }
    }
    return cand != kSweepNone;
  }

  /// kEval for `cand`, capped by the current k-th incumbent.
  PayloadWriter EvalPayload() {
    cap = kth();
    PayloadWriter w;
    w.U64(cand);
    w.F64(cap);
    return w;
  }

  /// Takes the owner's eval reply as one visit: `d >= cap` abandons,
  /// anything else is a strict-improvement top-k insert. False, with no
  /// counter moved, when the reply does not decode.
  bool AbsorbEval(const std::vector<char>& reply) {
    PayloadReader r(reply);
    const double d = r.F64();
    if (!r.Done()) return false;
    ++computations;
    if (d >= cap) {
      ++abandons;
    } else {
      InsertNeighborTopK(best, k, {cand, d});
    }
    return true;
  }

  /// kStepRow: drop the visited candidate, eliminate against the k-th
  /// incumbent. The id fits in u32: the manifest load enforced
  /// kMaxSweepPrototypes.
  PayloadWriter StepPayload() const {
    PayloadWriter w;
    w.U32(static_cast<std::uint32_t>(cand));
    w.F64(kth());
    return w;
  }

  /// Shard `s` leaves the sweep; the answer becomes partial.
  void Drop(std::size_t s) {
    views[s].active = false;
    res.missing_shards.push_back(s);
  }

  /// The answer: the visit counters, missing shards ascending and unique.
  ServeResult Finish() {
    res.stats.distance_computations += computations;
    res.stats.bounded_abandons += abandons;
    std::sort(res.missing_shards.begin(), res.missing_shards.end());
    res.missing_shards.erase(
        std::unique(res.missing_shards.begin(), res.missing_shards.end()),
        res.missing_shards.end());
    res.partial = !res.missing_shards.empty();
    res.stats.shards_degraded = res.missing_shards.size();
    res.neighbors = std::move(best);
    return std::move(res);
  }
};

ServeRouter::ServeRouter(const std::string& snapshot_dir,
                         const ServeOptions& options)
    : distance_((ValidateServeOptions(options), MakeDistance(options.distance))),
      dir_(snapshot_dir),
      options_(options),
      replicas_per_shard_(static_cast<std::size_t>(options.replicas)) {
  // The manifest is small (pivot ids + strings); the copying reader also
  // gives the router the same always-on checksum verification the workers
  // run on their shard files.
  BinaryReader reader(ManifestPath(dir_));
  const auto counts =
      reader.Header(kRouterManifestMagic, kRouterManifestVersion);
  n_ = counts[0];
  // Before anything is sized by n: sweep slabs and the StepRow skip id
  // are 32-bit.
  CheckSweepPrototypeCount(n_, "ServeRouter");
  const std::uint64_t shards = counts[1];
  const std::uint64_t np = counts[2];
  const std::uint64_t arena_bytes = counts[3];
  if (shards == 0 || np == 0 || np > n_) {
    throw std::runtime_error("ServeRouter: malformed manifest counts");
  }
  reader.RequireArray(shards, sizeof(std::uint64_t));
  shard_sizes_.resize(shards);
  reader.Align();
  static_assert(sizeof(std::size_t) == sizeof(std::uint64_t),
                "64-bit shard sizes expected");
  reader.Raw(shard_sizes_.data(), shards * sizeof(std::uint64_t));
  bases_.resize(shards + 1);
  bases_[0] = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    bases_[s + 1] = bases_[s] + shard_sizes_[s];
  }
  if (bases_[shards] != n_) {
    throw std::runtime_error("ServeRouter: shard sizes do not sum to n");
  }
  reader.RequireArray(np, sizeof(std::uint64_t));
  pivots_.resize(np);
  reader.Align();
  reader.Raw(pivots_.data(), np * sizeof(std::uint64_t));
  {
    std::vector<std::size_t> sorted = pivots_;
    std::sort(sorted.begin(), sorted.end());
    if (sorted.back() >= n_ ||
        std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      throw std::runtime_error("ServeRouter: bad manifest pivot ids");
    }
  }
  reader.RequireArray(np, sizeof(std::uint64_t));
  std::vector<std::uint64_t> lens(np);
  reader.Align();
  reader.Raw(lens.data(), np * sizeof(std::uint64_t));
  std::uint64_t lens_total = 0;
  for (std::uint64_t l : lens) lens_total += l;
  if (lens_total != arena_bytes) {
    throw std::runtime_error("ServeRouter: manifest pivot arena mismatch");
  }
  reader.Align();
  pivot_strings_.resize(np);
  for (std::size_t p = 0; p < np; ++p) {
    pivot_strings_[p].resize(lens[p]);
    reader.Raw(pivot_strings_[p].data(), lens[p]);
  }

  next_insert_id_ = n_;
  shard_ops_.resize(shards);

  groups_.resize(shards);
  {
    std::lock_guard<std::mutex> rlock(respawn_mu_);
    for (std::size_t s = 0; s < shards; ++s) {
      groups_[s] = std::make_unique<Group>();
      groups_[s]->members.resize(replicas_per_shard_);
      for (std::size_t r = 0; r < replicas_per_shard_; ++r) {
        SpawnReplica(s, r, options_.fault_spec);
      }
    }
    if (!PingAllLocked()) {
      bool any = false;
      for (const auto& gp : groups_) {
        for (const Replica& m : gp->members) any = any || m.alive;
      }
      if (!any) {
        throw std::runtime_error("ServeRouter: no worker came up");
      }
    }
  }
  if (options_.health_interval_ms > 0) {
    health_thread_ = std::thread(&ServeRouter::HealthLoop, this);
  }
}

ServeRouter::~ServeRouter() {
  if (health_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(health_mu_);
      stop_health_ = true;
    }
    health_cv_.notify_all();
    health_thread_.join();
  }
  for (auto& gp : groups_) {
    for (Replica& m : gp->members) {
      if (m.conn != nullptr && !m.conn->failed()) {
        // Best-effort clean shutdown; the SIGKILL below is the guarantee.
        m.conn->Send(FrameType::kShutdown, m.conn->NextSeq(), 0, nullptr, 0);
      }
      m.conn.reset();
      if (m.pid > 0) {
        kill(m.pid, SIGKILL);
        int status = 0;
        waitpid(m.pid, &status, 0);
      }
    }
  }
}

// Drift-free ticking: each deadline is the previous deadline plus the
// interval, not "now + interval" after the work finished, so slow ticks
// do not stretch the period; ticks missed entirely are skipped (never
// bunched). The loop takes only respawn_mu_ — pings multiplex over the
// shared connections at query id 0 while queries are mid-sweep, and a
// replica revived here joins at a later query's begin.
void ServeRouter::HealthLoop() {
  const auto interval = std::chrono::milliseconds(options_.health_interval_ms);
  const std::size_t cap =
      options_.max_respawns_per_tick > 0
          ? static_cast<std::size_t>(options_.max_respawns_per_tick)
          : 0;
  auto next = Clock::now() + interval;
  std::unique_lock<std::mutex> lock(health_mu_);
  for (;;) {
    if (health_cv_.wait_until(lock, next, [this] { return stop_health_; })) {
      return;
    }
    lock.unlock();
    {
      std::lock_guard<std::mutex> rlock(respawn_mu_);
      PingAllLocked();
      RespawnDeadLocked(cap);
    }
    lock.lock();
    next += interval;
    const auto now = Clock::now();
    if (next <= now) {
      const auto behind = now - next;
      next += interval * (behind / interval + 1);
    }
  }
}

void ServeRouter::SpawnReplica(std::size_t s, std::size_t r,
                               const std::string& fault_spec) {
  // Gather every router-side fd before forking so the child can drop
  // them: a crashed sibling's socket must still read EOF at the router.
  // Connections cannot be retired concurrently — that happens only under
  // respawn_mu_, which the caller holds — so the fds stay valid across
  // the fork (a query marking one failed uses shutdown(2), not close(2)).
  std::vector<int> router_fds;
  for (const auto& gp : groups_) {
    if (gp == nullptr) continue;
    std::lock_guard<std::mutex> lock(gp->mu);
    for (const Replica& other : gp->members) {
      if (other.conn != nullptr) router_fds.push_back(other.conn->fd());
    }
  }
  Group& g = *groups_[s];
  int sv[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    std::lock_guard<std::mutex> lock(g.mu);
    g.members[r].alive = false;
    return;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    close(sv[0]);
    close(sv[1]);
    std::lock_guard<std::mutex> lock(g.mu);
    g.members[r].alive = false;
    return;
  }
  if (pid == 0) {
    // The child never returns into the router's stack: whatever it throws
    // ends the child, not the parent program's code running on in it.
    try {
      close(sv[0]);
      for (const int fd : router_fds) close(fd);
      WorkerConfig config;
      config.shard_id = s;
      config.replica_id = r;
      config.store_path = ShardStorePath(dir_, s);
      config.index_path = ShardIndexPath(dir_, s);
      config.distance = options_.distance;
      config.fault_spec = fault_spec;
      if (!options_.worker_binary.empty()) {
        // Exec form: hand the socket over as fd 3.
        if (sv[1] != 3) {
          dup2(sv[1], 3);
          close(sv[1]);
        }
        execl(options_.worker_binary.c_str(), options_.worker_binary.c_str(),
              "--fd=3", ("--shard=" + std::to_string(s)).c_str(),
              ("--replica=" + std::to_string(r)).c_str(),
              ("--store=" + config.store_path).c_str(),
              ("--index=" + config.index_path).c_str(),
              ("--distance=" + config.distance).c_str(),
              ("--fault=" + config.fault_spec).c_str(), (char*)nullptr);
        _exit(127);
      }
      _exit(RunShardWorker(sv[1], config));
    } catch (...) {
      _exit(1);
    }
  }
  close(sv[1]);
  std::lock_guard<std::mutex> lock(g.mu);
  Replica& rep = g.members[r];
  rep.pid = pid;
  rep.conn = std::make_shared<Conn>(sv[0]);
  rep.alive = true;
}

void ServeRouter::ReapReplica(std::size_t s, std::size_t r) {
  std::shared_ptr<Conn> conn;
  pid_t pid = -1;
  {
    Group& g = *groups_[s];
    std::lock_guard<std::mutex> lock(g.mu);
    Replica& rep = g.members[r];
    conn = std::move(rep.conn);
    rep.conn.reset();
    pid = rep.pid;
    rep.pid = -1;
    rep.alive = false;
  }
  // Fail before dropping our reference: queries still pinned to this
  // connection wake with kClosed instead of waiting out their timeouts.
  if (conn != nullptr) conn->Fail();
  conn.reset();
  if (pid > 0) {
    kill(pid, SIGKILL);
    int status = 0;
    waitpid(pid, &status, 0);
  }
}

void ServeRouter::MarkDeadGlobal(std::size_t s, std::size_t r) {
  std::shared_ptr<Conn> conn;
  {
    Group& g = *groups_[s];
    std::lock_guard<std::mutex> lock(g.mu);
    g.members[r].alive = false;
    conn = g.members[r].conn;
  }
  if (conn != nullptr) conn->Fail();
}

void ServeRouter::MarkDead(QueryCtx& ctx, std::size_t s, std::size_t r) {
  Participant& m = ctx.groups[s].members[r];
  m.alive = false;
  if (m.conn != nullptr) m.conn->Fail();
  // Propagate to the global member only while it still holds the same
  // connection: a respawn may already have replaced it, and the fresh
  // process must not be condemned for its predecessor's death.
  Group& g = *groups_[s];
  std::lock_guard<std::mutex> lock(g.mu);
  if (g.members[r].conn == m.conn) g.members[r].alive = false;
}

void ServeRouter::SnapshotCtx(QueryCtx* ctx) const {
  std::uint32_t qid = ++qid_counter_;
  if (qid == 0) qid = ++qid_counter_;  // 0 is the control plane
  ctx->qid = qid;
  ctx->groups.resize(groups_.size());
  for (std::size_t s = 0; s < groups_.size(); ++s) {
    Group& g = *groups_[s];
    GroupCtx& gc = ctx->groups[s];
    std::lock_guard<std::mutex> lock(g.mu);
    gc.members.resize(g.members.size());
    for (std::size_t r = 0; r < g.members.size(); ++r) {
      gc.members[r].conn = g.members[r].conn;
      gc.members[r].alive = g.members[r].alive &&
                            g.members[r].conn != nullptr &&
                            !g.members[r].conn->failed();
    }
    gc.primary = g.primary;
  }
}

void ServeRouter::EndSweeps(const QueryCtx& ctx) {
  for (const GroupCtx& g : ctx.groups) {
    for (const Participant& m : g.members) {
      if (m.conn == nullptr || m.conn->failed()) continue;
      // Fire-and-forget (no Expect): the worker retires the sweep slot
      // and sends nothing back.
      m.conn->Send(FrameType::kEndSweep, m.conn->NextSeq(), ctx.qid, nullptr,
                   0);
    }
  }
}

void ServeRouter::Promote(QueryCtx& ctx, std::size_t s, std::size_t r) {
  ctx.groups[s].primary = r;
  // Mirror to the global group when its member is unchanged, steering
  // later queries (and the monitoring accessors) at the live member.
  Group& g = *groups_[s];
  std::lock_guard<std::mutex> lock(g.mu);
  if (g.members[r].conn == ctx.groups[s].members[r].conn &&
      g.members[r].alive) {
    g.primary = r;
  }
}

bool ServeRouter::EnsurePrimary(QueryCtx& ctx, std::size_t s,
                                ServeResult* res) {
  GroupCtx& g = ctx.groups[s];
  if (g.members[g.primary].alive) return true;
  for (std::size_t r = 0; r < g.members.size(); ++r) {
    if (g.members[r].alive) {
      Promote(ctx, s, r);
      ++res->failovers;
      return true;
    }
  }
  return false;
}

bool ServeRouter::SendRecv(QueryCtx& ctx, std::size_t s, std::size_t r,
                           FrameType type, const std::vector<char>& payload,
                           std::vector<char>* reply, int timeout_ms,
                           bool retryable, std::int64_t deadline_ms) {
  Participant& m = ctx.groups[s].members[r];
  const int attempts = retryable ? 1 + options_.op_retries : 1;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (!m.alive) return false;
    // Gate on the remaining deadline before sleeping or sending: an
    // already-expired query must not burn a full send+recv window. The
    // break still reaches the MarkDead below — GroupEval's retry loop
    // relies on a false return leaving the replica dead.
    std::int64_t left = timeout_ms;
    if (deadline_ms >= 0) {
      left = deadline_ms - NowMs();
      if (left <= 0) break;
    }
    if (attempt > 0) {
      BackoffSleep(options_.backoff_base_ms, attempt, deadline_ms);
      if (deadline_ms >= 0) {
        left = deadline_ms - NowMs();
        if (left <= 0) break;
      }
    }
    const std::uint32_t seq = m.conn->NextSeq();
    m.conn->Expect(seq, ctx.qid);
    if (!m.conn->Send(type, seq, ctx.qid, payload.data(), payload.size())) {
      m.conn->Cancel(seq);
      MarkDead(ctx, s, r);
      return false;
    }
    // Cap the per-attempt recv window at the remaining deadline, so one
    // slow attempt cannot overshoot the whole query budget.
    const int window =
        deadline_ms >= 0 && left < timeout_ms ? static_cast<int>(left)
                                              : timeout_ms;
    Frame frame;
    const RecvStatus st = m.conn->Wait(seq, window, &frame);
    if (st == RecvStatus::kOk) {
      if (frame.type != kReplyType) {
        // kError (a worker-side exception) or an unexpected type: the
        // replica's state is suspect either way.
        MarkDead(ctx, s, r);
        return false;
      }
      if (reply != nullptr) *reply = std::move(frame.payload);
      return true;
    }
    if (st != RecvStatus::kTimeout) {
      // A corrupt or closed stream is never resynchronised: dead replica.
      MarkDead(ctx, s, r);
      return false;
    }
    // kTimeout: deregister (a late reply becomes stale) and retry when
    // the op allows it.
    m.conn->Cancel(seq);
    if (!retryable) {
      MarkDead(ctx, s, r);
      return false;
    }
  }
  MarkDead(ctx, s, r);
  return false;
}

bool ServeRouter::ControlSendRecv(std::size_t s, std::size_t r, FrameType type,
                                  const std::vector<char>& payload,
                                  std::vector<char>* reply, bool retryable) {
  std::shared_ptr<Conn> conn;
  {
    Group& g = *groups_[s];
    std::lock_guard<std::mutex> lock(g.mu);
    if (!g.members[r].alive) return false;
    conn = g.members[r].conn;
  }
  if (conn == nullptr || conn->failed()) {
    MarkDeadGlobal(s, r);
    return false;
  }
  const int attempts = retryable ? 1 + options_.op_retries : 1;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      BackoffSleep(options_.backoff_base_ms, attempt, /*deadline_ms=*/-1);
    }
    const std::uint32_t seq = conn->NextSeq();
    conn->Expect(seq, /*qid=*/0);
    if (!conn->Send(type, seq, /*qid=*/0, payload.data(), payload.size())) {
      conn->Cancel(seq);
      MarkDeadGlobal(s, r);
      return false;
    }
    Frame frame;
    const RecvStatus st = conn->Wait(seq, options_.op_timeout_ms, &frame);
    if (st == RecvStatus::kOk) {
      if (frame.type != kReplyType) {
        MarkDeadGlobal(s, r);
        return false;
      }
      if (reply != nullptr) *reply = std::move(frame.payload);
      return true;
    }
    if (st != RecvStatus::kTimeout) {
      MarkDeadGlobal(s, r);
      return false;
    }
    conn->Cancel(seq);
    if (!retryable) break;
  }
  MarkDeadGlobal(s, r);
  return false;
}

void ServeRouter::Broadcast(QueryCtx& ctx, FrameType type,
                            const std::vector<char>& payload, bool retryable,
                            std::int64_t deadline_ms, RowSweep& sweep) {
  const std::size_t shards = sweep.views.size();
  const std::size_t R = replicas_per_shard_;
  const int timeout_ms = RemainingMs(deadline_ms);
  // Per (shard, member) scatter state, flat-indexed s * R + r.
  std::vector<std::uint32_t> sent_seq(shards * R, 0);
  std::vector<char> pending(shards * R, 0), good(shards * R, 0);
  std::vector<std::vector<char>> member_reply(shards * R);

  // Scatter to every live pinned member of every active shard first, so
  // all replicas compute their pass concurrently — this is the
  // state-machine replication step: standbys consume the identical op
  // stream. With concurrent queries in flight, the reactor's send
  // coalescing merges these frames with other queries' into fewer
  // syscalls.
  for (std::size_t s = 0; s < shards; ++s) {
    if (!sweep.views[s].active) continue;
    GroupCtx& g = ctx.groups[s];
    for (std::size_t r = 0; r < g.members.size(); ++r) {
      Participant& m = g.members[r];
      if (!m.alive) continue;
      const std::size_t i = s * R + r;
      sent_seq[i] = m.conn->NextSeq();
      m.conn->Expect(sent_seq[i], ctx.qid);
      if (m.conn->Send(type, sent_seq[i], ctx.qid, payload.data(),
                       payload.size())) {
        pending[i] = 1;
      } else {
        m.conn->Cancel(sent_seq[i]);
        MarkDead(ctx, s, r);
      }
    }
  }
  // ...then gather in (shard, member) order. Later waits usually complete
  // instantly: whichever thread reads the socket completes every waiter
  // whose frame arrived in the same drain.
  for (std::size_t s = 0; s < shards; ++s) {
    for (std::size_t r = 0; r < R; ++r) {
      const std::size_t i = s * R + r;
      if (!pending[i]) continue;
      Participant& m = ctx.groups[s].members[r];
      Frame frame;
      const RecvStatus st = m.conn->Wait(sent_seq[i], timeout_ms, &frame);
      if (st == RecvStatus::kOk && frame.type == kReplyType) {
        member_reply[i] = std::move(frame.payload);
        good[i] = 1;
      } else if (st == RecvStatus::kTimeout) {
        // Deregister — the late reply becomes stale — then retry fresh
        // when the op is idempotent; a mutating op that timed out costs
        // the replica its life on the spot.
        m.conn->Cancel(sent_seq[i]);
        if (retryable) {
          if (SendRecv(ctx, s, r, type, payload, &member_reply[i], timeout_ms,
                       /*retryable=*/true, deadline_ms)) {
            good[i] = 1;
          }
        } else {
          MarkDead(ctx, s, r);
        }
      } else if (st == RecvStatus::kOk) {
        // kError or an unexpected type.
        MarkDead(ctx, s, r);
      } else {
        MarkDead(ctx, s, r);
      }
    }
  }
  // Reconcile each group: the primary's reply drives the merge; standbys
  // must agree byte-for-byte or be evicted as corrupt; a failed primary
  // is replaced by the first standby that answered (whose slab state is
  // bit-identical by construction) — the failover that keeps the query
  // exact and unflagged. The driving reply then updates the shard's view;
  // one that does not decode leaves no quorum to promote on, so the shard
  // sits the rest of this query out.
  for (std::size_t s = 0; s < shards; ++s) {
    if (!sweep.views[s].active) continue;
    GroupCtx& g = ctx.groups[s];
    std::size_t driver = g.members.size();
    if (good[s * R + g.primary]) {
      driver = g.primary;
    } else {
      for (std::size_t r = 0; r < g.members.size(); ++r) {
        if (good[s * R + r]) {
          driver = r;
          break;
        }
      }
      if (driver < g.members.size()) {
        Promote(ctx, s, driver);
        ++sweep.res.failovers;
      }
    }
    if (driver == g.members.size()) {
      // The whole replica group is gone: only now does the shard degrade.
      sweep.Drop(s);
      continue;
    }
    for (std::size_t r = 0; r < g.members.size(); ++r) {
      if (r == driver || !good[s * R + r]) continue;
      if (member_reply[s * R + r] != member_reply[s * R + driver]) {
        MarkDead(ctx, s, r);
        ++sweep.res.replicas_evicted;
      }
    }
    if (!sweep.Absorb(s, member_reply[s * R + driver])) {
      MarkDead(ctx, s, driver);
      sweep.Drop(s);
    }
  }
}

bool ServeRouter::GroupEval(QueryCtx& ctx, std::size_t s,
                            const std::vector<char>& payload,
                            std::vector<char>* reply, std::int64_t deadline_ms,
                            ServeResult* res) {
  constexpr FrameType type = FrameType::kEval;
  GroupCtx& g = ctx.groups[s];
  if (!EnsurePrimary(ctx, s, res)) return false;

  auto pick_standby = [&]() -> std::size_t {
    for (std::size_t r = 0; r < g.members.size(); ++r) {
      if (r != g.primary && g.members[r].alive) return r;
    }
    return g.members.size();
  };

  if (options_.hedge_delay_ms < 0 || pick_standby() == g.members.size()) {
    // No hedging possible: plain retried exchange, failing over to the
    // next member while any remains (the op is pure, so a promoted standby
    // answers identically).
    while (EnsurePrimary(ctx, s, res)) {
      if (SendRecv(ctx, s, g.primary, type, payload, reply,
                   RemainingMs(deadline_ms), /*retryable=*/true,
                   deadline_ms)) {
        return true;
      }
    }
    return false;
  }

  const int attempts = 1 + options_.op_retries;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      BackoffSleep(options_.backoff_base_ms, attempt, deadline_ms);
    }
    if (!EnsurePrimary(ctx, s, res)) return false;
    const int window = RemainingMs(deadline_ms);
    if (window == 0) break;
    const std::int64_t attempt_end = NowMs() + window;

    const std::size_t prim_idx = g.primary;
    Participant& prim = g.members[prim_idx];
    const std::uint32_t pseq = prim.conn->NextSeq();
    prim.conn->Expect(pseq, ctx.qid);
    if (!prim.conn->Send(type, pseq, ctx.qid, payload.data(),
                         payload.size())) {
      prim.conn->Cancel(pseq);
      MarkDead(ctx, s, prim_idx);
      continue;
    }
    bool p_pending = true;

    // Phase 1: give the primary the hedge window to itself.
    {
      const std::int64_t left = attempt_end - NowMs();
      int hedge = options_.hedge_delay_ms;
      if (hedge > left) hedge = static_cast<int>(left > 0 ? left : 0);
      Frame frame;
      const RecvStatus st = prim.conn->Wait(pseq, hedge, &frame);
      if (st == RecvStatus::kOk) {
        if (frame.type == kReplyType) {
          *reply = std::move(frame.payload);
          return true;
        }
        MarkDead(ctx, s, prim_idx);
        p_pending = false;
      } else if (st != RecvStatus::kTimeout) {
        MarkDead(ctx, s, prim_idx);
        p_pending = false;
      }
    }

    // Phase 2: race the standby against the (slow or dead) primary and
    // take the first valid reply — both hold the same snapshot, so either
    // answer is exact. Each connection has its own reactor (no
    // cross-connection poll), so the race alternates short waits between
    // the two sides; a winner is noticed at worst ~2ms late. When only
    // one side remains pending, its wait spans the rest of the window.
    const std::size_t stand_idx = pick_standby();
    bool s_pending = false;
    std::uint32_t sseq = 0;
    if (stand_idx < g.members.size()) {
      Participant& stand = g.members[stand_idx];
      sseq = stand.conn->NextSeq();
      stand.conn->Expect(sseq, ctx.qid);
      if (stand.conn->Send(type, sseq, ctx.qid, payload.data(),
                           payload.size())) {
        s_pending = true;
        ++res->hedged_evals;
      } else {
        stand.conn->Cancel(sseq);
        MarkDead(ctx, s, stand_idx);
      }
    }

    auto poll_side = [&](std::size_t idx, std::uint32_t seq, bool* pend,
                         int wait_ms) -> bool {
      Frame frame;
      const RecvStatus st = g.members[idx].conn->Wait(seq, wait_ms, &frame);
      if (st == RecvStatus::kOk) {
        if (frame.type == kReplyType) {
          *reply = std::move(frame.payload);
          return true;
        }
        MarkDead(ctx, s, idx);
        *pend = false;
      } else if (st != RecvStatus::kTimeout) {
        MarkDead(ctx, s, idx);
        *pend = false;
      }
      return false;
    };
    while (p_pending || s_pending) {
      const std::int64_t left = attempt_end - NowMs();
      if (left <= 0) break;
      const int slice = left < 2 ? static_cast<int>(left) : 2;
      if (p_pending &&
          poll_side(prim_idx, pseq, &p_pending,
                    s_pending ? slice : static_cast<int>(left))) {
        if (s_pending) g.members[stand_idx].conn->Cancel(sseq);
        return true;
      }
      if (s_pending &&
          poll_side(stand_idx, sseq, &s_pending,
                    p_pending ? slice : static_cast<int>(left))) {
        if (p_pending) g.members[prim_idx].conn->Cancel(pseq);
        return true;
      }
    }
    // Attempt window exhausted with no valid reply from either side:
    // deregister both (late replies become stale) and try again fresh.
    if (p_pending) g.members[prim_idx].conn->Cancel(pseq);
    if (s_pending) g.members[stand_idx].conn->Cancel(sseq);
  }
  // All attempts burned: whatever is still nominally pending has missed
  // every window — treat the participants as unresponsive, exactly as the
  // unreplicated tier treats a worker that exhausts its retries.
  MarkDead(ctx, s, g.primary);
  const std::size_t stand_idx = pick_standby();
  if (stand_idx < g.members.size()) MarkDead(ctx, s, stand_idx);
  return false;
}

std::size_t ServeRouter::ShardOf(std::size_t global) const {
  if (global >= n_) return (global - n_) % shard_sizes_.size();
  const auto it =
      std::upper_bound(bases_.begin() + 1, bases_.end(), global);
  return static_cast<std::size_t>(it - (bases_.begin() + 1));
}

std::size_t ServeRouter::LiveLocked() const {
  return next_insert_id_ - base_dead_total_ - dead_delta_ids_.size();
}

int ServeRouter::RemainingMs(std::int64_t deadline_ms) const {
  const std::int64_t left = deadline_ms - NowMs();
  if (left <= 0) return 0;
  const int cap = options_.op_timeout_ms;
  return left < cap ? static_cast<int>(left) : cap;
}

pid_t ServeRouter::worker_pid(std::size_t s) const {
  Group& g = *groups_[s];
  std::lock_guard<std::mutex> lock(g.mu);
  return g.members[g.primary].pid;
}

bool ServeRouter::worker_alive(std::size_t s) const {
  Group& g = *groups_[s];
  std::lock_guard<std::mutex> lock(g.mu);
  for (const Replica& m : g.members) {
    if (m.alive) return true;
  }
  return false;
}

std::size_t ServeRouter::primary_of(std::size_t s) const {
  Group& g = *groups_[s];
  std::lock_guard<std::mutex> lock(g.mu);
  return g.primary;
}

pid_t ServeRouter::replica_pid(std::size_t s, std::size_t r) const {
  Group& g = *groups_[s];
  std::lock_guard<std::mutex> lock(g.mu);
  return g.members[r].pid;
}

bool ServeRouter::replica_alive(std::size_t s, std::size_t r) const {
  Group& g = *groups_[s];
  std::lock_guard<std::mutex> lock(g.mu);
  return g.members[r].alive;
}

bool ServeRouter::AnyDead() const {
  for (const auto& gp : groups_) {
    std::lock_guard<std::mutex> lock(gp->mu);
    for (const Replica& m : gp->members) {
      if (!m.alive) return true;
    }
  }
  return false;
}

void ServeRouter::MaybeRespawn() {
  // Cheap any-dead scan first: the common healthy query never touches
  // respawn_mu_ and never serializes behind another caller's respawn.
  if (!options_.auto_respawn || !AnyDead()) return;
  std::lock_guard<std::mutex> lock(respawn_mu_);
  RespawnDeadLocked(/*limit=*/0);
}

ServeResult ServeRouter::Nearest(std::string_view query) {
  return KNearest(query, 1);
}

ServeResult ServeRouter::KNearest(std::string_view query, std::size_t k) {
  // Pivot stage, router-side from the manifest's pivot strings (immutable,
  // so no lock): the same row the in-process `ComputePivotRow` evaluates.
  std::vector<double> row(pivots_.size());
  for (std::size_t p = 0; p < row.size(); ++p) {
    row[p] = distance_->Distance(query, pivot_strings_[p]);
  }
  return KNearestWithRow(query, k, row);
}

ServeResult ServeRouter::KNearestWithRow(std::string_view query, std::size_t k,
                                         const std::vector<double>& row) {
  if (row.size() != pivots_.size()) {
    throw std::invalid_argument(
        "ServeRouter::KNearestWithRow: row must have num_pivots() entries");
  }
  // Shared world lock: N callers sweep concurrently; mutations (which
  // take it exclusive) never interleave with a sweep. Respawn runs before
  // the snapshot, so one lost group costs one partial answer and revived
  // replicas (re-mapped, checksum-verified) rejoin at this query's begin.
  std::shared_lock<std::shared_mutex> world(world_mu_);
  MaybeRespawn();
  QueryCtx ctx;
  SnapshotCtx(&ctx);
  ServeResult res = QueryRow(ctx, query, k, row.data());
  EndSweeps(ctx);
  return res;
}

bool ServeRouter::FastWorldLocked() const {
  for (const auto& g : groups_) {
    std::lock_guard<std::mutex> glock(g->mu);
    for (const Replica& m : g->members) {
      if (!m.alive || m.conn == nullptr || m.conn->failed()) return false;
    }
  }
  return true;
}

void ServeRouter::DriveSweeps(SweepFeed& feed, std::size_t max_concurrent) {
  const std::size_t wave = max_concurrent == 0 ? 16 : max_concurrent;
  const std::size_t shards = shard_sizes_.size();

  /// One outstanding request leg of a sweep's current phase.
  struct Leg {
    std::size_t s = 0, r = 0;
    std::uint32_t seq = 0;
    Conn* conn = nullptr;
    bool done = false;
    std::vector<char> payload;
  };
  enum class St { kBeginRow, kEval, kStepRow, kDone, kBail };
  struct Sweep {
    SweepJob job;
    St st = St::kBeginRow;
    std::int64_t deadline = 0;
    QueryCtx ctx;
    RowSweep state;
    std::vector<Leg> legs;
    std::int64_t last_progress_ms = 0;
    bool settled = false;  // kDone or kBail, awaiting delivery
  };

  std::list<Sweep> sweeps;
  std::shared_lock<std::shared_mutex> world(world_mu_, std::defer_lock);
  bool fast = false;

  // Per-connection request buffers for the current round; flushed as one
  // write per connection.
  std::vector<Conn*> flush_order;
  std::unordered_map<Conn*, std::vector<char>> outgoing;

  auto enqueue = [&](Sweep& sw, std::size_t s, std::size_t r, FrameType type,
                     const PayloadWriter& w) {
    const Participant& m = sw.ctx.groups[s].members[r];
    Leg leg;
    leg.s = s;
    leg.r = r;
    leg.conn = m.conn.get();
    leg.seq = m.conn->NextSeq();
    m.conn->Expect(leg.seq, sw.ctx.qid);
    auto& buf = outgoing[leg.conn];
    if (buf.empty()) flush_order.push_back(leg.conn);
    EncodeFrame(&buf, type, leg.seq, sw.ctx.qid, w.buf.data(), w.buf.size());
    sw.legs.push_back(leg);
  };
  // Begins and steps go to every member of every group (state-machine
  // replication); the fast gate guarantees all of them are alive.
  auto enqueue_all = [&](Sweep& sw, FrameType type, const PayloadWriter& w) {
    sw.legs.clear();
    for (std::size_t s = 0; s < shards; ++s) {
      for (std::size_t r = 0; r < sw.ctx.groups[s].members.size(); ++r) {
        enqueue(sw, s, r, type, w);
      }
    }
  };
  auto flush = [&] {
    for (Conn* conn : flush_order) {
      auto& buf = outgoing[conn];
      if (!buf.empty()) conn->SendRaw(buf.data(), buf.size());
      buf.clear();
    }
    flush_order.clear();
  };
  // EndSweeps, but riding the next round's flush instead of paying its
  // own write syscall per connection: the kEndSweep frames are
  // fire-and-forget, and the worker's slot table tolerates one round of
  // retirement lag. Every finish/bail is followed by a flush in the same
  // driver iteration, so nothing lingers.
  auto end_sweeps_buffered = [&](const QueryCtx& ctx) {
    for (const GroupCtx& g : ctx.groups) {
      for (const Participant& m : g.members) {
        if (m.conn == nullptr || m.conn->failed()) continue;
        auto& buf = outgoing[m.conn.get()];
        if (buf.empty()) flush_order.push_back(m.conn.get());
        EncodeFrame(&buf, FrameType::kEndSweep, m.conn->NextSeq(), ctx.qid,
                    nullptr, 0);
      }
    }
  };
  auto bail = [&](Sweep& sw) {
    for (const Leg& leg : sw.legs) {
      if (!leg.done) leg.conn->Cancel(leg.seq);
    }
    sw.legs.clear();
    end_sweeps_buffered(sw.ctx);
    sw.st = St::kBail;
    sw.settled = true;
    // A bail usually means a replica died under us: re-gate admission now
    // rather than feeding more sweeps into a world that will bail them.
    fast = FastWorldLocked();
  };
  auto finish = [&](Sweep& sw) {
    end_sweeps_buffered(sw.ctx);
    sw.st = St::kDone;
    sw.settled = true;
  };
  auto start_sweep = [&](Sweep& sw) {
    sw.st = St::kBeginRow;
    sw.deadline = NowMs() + options_.query_deadline_ms;
    sw.last_progress_ms = NowMs();
    if (!sw.state.Seed(*this, sw.job.k, sw.job.row)) {
      finish(sw);
      return;
    }
    SnapshotCtx(&sw.ctx);
    // The fast gate held when this wave's world lock was taken, but a
    // replica can die right up to the snapshot; an incomplete snapshot
    // bails to the robust path, which owns failover.
    for (std::size_t s = 0; s < shards; ++s) {
      for (const Participant& m : sw.ctx.groups[s].members) {
        if (!m.alive) {
          bail(sw);
          return;
        }
      }
    }
    enqueue_all(sw, FrameType::kBeginRow,
                sw.state.BeginPayload(sw.job.query, sw.job.row));
  };

  // Reconciles a completed begin/step round: the primary's reply drives
  // the shard view, every standby must byte-agree (the state-machine
  // replication check). Returns false on any malformed or disagreeing
  // reply — the caller bails to the robust path, which evicts properly.
  auto absorb_compacts = [&](Sweep& sw) {
    for (std::size_t s = 0; s < shards; ++s) {
      const Leg* primary = nullptr;
      for (const Leg& leg : sw.legs) {
        if (leg.s == s && leg.r == sw.ctx.groups[s].primary) primary = &leg;
      }
      if (primary == nullptr) return false;
      for (const Leg& leg : sw.legs) {
        if (leg.s == s && &leg != primary && leg.payload != primary->payload) {
          return false;
        }
      }
      if (!sw.state.Absorb(s, primary->payload)) return false;
    }
    return true;
  };

  auto deliver_settled = [&] {
    for (auto it = sweeps.begin(); it != sweeps.end();) {
      if (it->settled) {
        const bool bailed = it->st == St::kBail;
        feed.Deliver(it->job.tag,
                     bailed ? ServeResult() : it->state.Finish(), bailed);
        it = sweeps.erase(it);
      } else {
        ++it;
      }
    }
  };

  for (;;) {
    if (sweeps.empty() && feed.Finished()) break;

    if (!world.owns_lock()) {
      world.lock();
      MaybeRespawn();
      fast = FastWorldLocked();
    }
    // A writer announced itself: stop admitting so the wave drains and
    // the shared hold can be released below. In read-only steady state
    // this branch never fires and the driver keeps the lock indefinitely
    // — cycling it on a timer would decay the wave to nothing once per
    // cycle for no one's benefit.
    const bool writer_waiting =
        writers_waiting_.load(std::memory_order_relaxed) > 0;

    // Admit until the wave is full (or, when the world is not fast-path
    // eligible, hand every queued job straight back for a robust rerun on
    // its caller's thread — serializing robust queries through this one
    // thread would be a step backwards).
    if (!writer_waiting) {
      SweepJob job;
      while (sweeps.size() < wave && feed.Next(&job)) {
        if (!fast) {
          feed.Deliver(job.tag, ServeResult(), /*bailed=*/true);
          continue;
        }
        sweeps.emplace_back();
        Sweep& sw = sweeps.back();
        sw.job = job;
        start_sweep(sw);
      }
    }
    flush();
    deliver_settled();

    if (sweeps.empty()) {
      // Nothing in flight: give the world back (a writer may be waiting
      // on it) and park for new work. The deliberate gap after a
      // writer-forced drain lets the blocked Insert/Remove actually win
      // the lock before we re-take it.
      world.unlock();
      if (writer_waiting) {
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
      if (feed.Finished()) break;
      const int wfd = feed.wake_fd();
      if (wfd >= 0) {
        struct pollfd pfd{wfd, POLLIN, 0};
        ::poll(&pfd, 1, 50);
        if ((pfd.revents & POLLIN) != 0) {
          char buf[256];
          while (::read(wfd, buf, sizeof(buf)) > 0) {
          }
        }
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      continue;
    }

    // Park: one poll across every connection that still owes a reply,
    // plus the feed's wake fd so a fresh admission interrupts the park.
    // Readiness results then drive the scan — only a flagged connection
    // is worth a read syscall. The short cap bounds the stall if some
    // other reader (a robust rerun, the control plane) drains our frames
    // between the scan below and the next park.
    std::vector<struct pollfd> pfds;
    for (const Sweep& sw : sweeps) {
      for (const Leg& leg : sw.legs) {
        if (leg.done) continue;
        bool seen = false;
        for (const struct pollfd& p : pfds) {
          if (p.fd == leg.conn->fd()) seen = true;
        }
        if (!seen) pfds.push_back({leg.conn->fd(), POLLIN, 0});
      }
    }
    const std::size_t conn_pfds = pfds.size();
    const int wfd = feed.wake_fd();
    if (wfd >= 0 && !writer_waiting && sweeps.size() < wave &&
        !feed.Finished()) {
      pfds.push_back({wfd, POLLIN, 0});
    }
    if (!pfds.empty()) {
      ::poll(pfds.data(), pfds.size(), 20);
    }
    if (pfds.size() > conn_pfds && (pfds.back().revents & POLLIN) != 0) {
      char buf[256];
      while (::read(wfd, buf, sizeof(buf)) > 0) {
      }
    }
    const auto readable = [&](Conn* c) {
      for (std::size_t i = 0; i < conn_pfds; ++i) {
        if (pfds[i].fd == c->fd()) {
          return (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0;
        }
      }
      return false;
    };

    // Scan to quiescence: TryWait collects replies some reader already
    // drained for free, each readable connection is read at most once
    // per park (one recv empties it), and newly issued requests stay
    // buffered until the flush below — their replies cannot land
    // mid-scan, so the rescans are pure flag checks and the loop
    // terminates once every arrived reply is absorbed.
    std::vector<Conn*> probed;
    const auto conn_probed = [&](Conn* c) {
      for (Conn* d : probed) {
        if (d == c) return true;
      }
      return false;
    };
    bool progress = true;
    while (progress) {
      progress = false;
      for (Sweep& sw : sweeps) {
        if (sw.settled) continue;
        bool all_done = true;
        bool dead = false;
        for (Leg& leg : sw.legs) {
          if (leg.done) continue;
          Frame f;
          RecvStatus st = leg.conn->TryWait(leg.seq, &f);
          if (st == RecvStatus::kTimeout && readable(leg.conn) &&
              !conn_probed(leg.conn)) {
            probed.push_back(leg.conn);
            st = leg.conn->Wait(leg.seq, 0, &f);
          }
          if (st == RecvStatus::kOk) {
            if (f.type != kReplyType) {
              dead = true;
              break;
            }
            leg.payload = std::move(f.payload);
            leg.done = true;
            // A probe here may have drained replies for sweeps scanned
            // earlier in this pass; one more (syscall-free) pass picks
            // those up rather than stalling them into the next park.
            progress = true;
          } else if (st == RecvStatus::kClosed) {
            dead = true;
            break;
          } else {
            all_done = false;
          }
        }
        if (dead) {
          bail(sw);
          progress = true;
          continue;
        }
        if (!all_done) {
          const std::int64_t now = NowMs();
          if (now - sw.last_progress_ms >
                  static_cast<std::int64_t>(options_.op_timeout_ms) ||
              now >= sw.deadline) {
            bail(sw);
            progress = true;
          }
          continue;
        }

        // Phase complete: absorb the replies and issue the next round.
        progress = true;
        sw.last_progress_ms = NowMs();
        if (sw.st == St::kEval) {
          if (!sw.state.AbsorbEval(sw.legs[0].payload)) {
            bail(sw);
            continue;
          }
          enqueue_all(sw, FrameType::kStepRow, sw.state.StepPayload());
          sw.st = St::kStepRow;
          continue;
        }
        if (!absorb_compacts(sw)) {
          bail(sw);
          continue;
        }
        sw.legs.clear();
        if (!sw.state.SelectNext()) {
          finish(sw);
          continue;
        }
        const std::size_t owner = ShardOf(sw.state.cand);
        enqueue(sw, owner, sw.ctx.groups[owner].primary, FrameType::kEval,
                sw.state.EvalPayload());
        sw.st = St::kEval;
      }
    }
    flush();
    deliver_settled();
  }
}

bool ServeRouter::PingAll() {
  std::lock_guard<std::mutex> lock(respawn_mu_);
  return PingAllLocked();
}

bool ServeRouter::PingAllLocked() {
  bool all = true;
  for (std::size_t s = 0; s < groups_.size(); ++s) {
    for (std::size_t r = 0; r < groups_[s]->members.size(); ++r) {
      {
        std::lock_guard<std::mutex> lock(groups_[s]->mu);
        if (!groups_[s]->members[r].alive) {
          all = false;
          continue;
        }
      }
      std::vector<char> reply;
      if (!ControlSendRecv(s, r, FrameType::kPing, {}, &reply,
                           /*retryable=*/true)) {
        all = false;
        continue;
      }
      PayloadReader pr(reply);
      // The ping reply echoes the worker's identity: a replica serving
      // the wrong shard (or the wrong group slot) is as dead as one
      // serving nothing.
      if (pr.U64() != s || pr.U64() != r || !pr.Done()) {
        MarkDeadGlobal(s, r);
        all = false;
      }
    }
  }
  return all;
}

std::size_t ServeRouter::RespawnDead() {
  std::lock_guard<std::mutex> lock(respawn_mu_);
  return RespawnDeadLocked(/*limit=*/0);
}

std::size_t ServeRouter::RespawnDeadLocked(std::size_t limit) {
  std::size_t revived = 0, attempts = 0;
  for (std::size_t s = 0; s < groups_.size(); ++s) {
    Group& g = *groups_[s];
    for (std::size_t r = 0; r < g.members.size(); ++r) {
      {
        std::lock_guard<std::mutex> lock(g.mu);
        if (g.members[r].alive) continue;
      }
      // The cap counts respawn *attempts*, so a permanently failing spawn
      // cannot loop one tick forever; the remainder waits its turn.
      if (limit > 0 && attempts >= limit) continue;
      ++attempts;
      ReapReplica(s, r);
      SpawnReplica(s, r, options_.respawn_fault_spec);
      {
        std::lock_guard<std::mutex> lock(g.mu);
        if (!g.members[r].alive) continue;
      }
      std::vector<char> reply;
      if (ControlSendRecv(s, r, FrameType::kPing, {}, &reply,
                          /*retryable=*/true)) {
        // A fresh fork maps only the immutable snapshot; replay the
        // shard's mutation journal so it rejoins at the group's current
        // delta/tombstone state (ops are idempotent by id, so a partial
        // previous life is harmless).
        if (ReplayMutations(s, r)) ++revived;
      }
    }
    // A fully-restored group keeps its current primary; a group whose
    // primary slot is still dead points at the first live member so the
    // next query starts on a live primary without a mid-query promotion.
    std::lock_guard<std::mutex> lock(g.mu);
    if (!g.members[g.primary].alive) {
      for (std::size_t r = 0; r < g.members.size(); ++r) {
        if (g.members[r].alive) {
          g.primary = r;
          break;
        }
      }
    }
  }
  return revived;
}

std::uint64_t ServeRouter::Insert(std::string_view s) {
  // World-exclusive: mutations are globally serialized in journal order
  // and never interleave with an in-flight sweep (per-shard writer order
  // is a consequence). respawn_mu_ follows in the lock hierarchy — the
  // journal append below is thereby visible to both lock holders. The
  // waiting-writer announcement is what makes the sweep driver drain and
  // release its shared hold (see writers_waiting_).
  writers_waiting_.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock<std::shared_mutex> world(world_mu_);
  writers_waiting_.fetch_sub(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> rlock(respawn_mu_);
  // The id becomes a sweep id in the workers' 32-bit slabs: refuse it
  // before anything changes.
  CheckSweepPrototypeCount(next_insert_id_ + 1, "ServeRouter::Insert");
  if (options_.auto_respawn) RespawnDeadLocked(/*limit=*/0);
  const std::uint64_t id = next_insert_id_++;
  const std::size_t owner = ShardOf(id);
  MutationOp op;
  op.insert = true;
  op.id = id;
  op.s.assign(s);
  // Journal before replicating: even if the whole group is down right now,
  // the next respawn replays the journal, so the id is durably assigned
  // from the router's point of view either way.
  shard_ops_[owner].push_back(std::move(op));
  ReplicateMutation(owner, shard_ops_[owner].back());
  return id;
}

bool ServeRouter::Remove(std::uint64_t id) {
  writers_waiting_.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock<std::shared_mutex> world(world_mu_);
  writers_waiting_.fetch_sub(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> rlock(respawn_mu_);
  if (options_.auto_respawn) RespawnDeadLocked(/*limit=*/0);
  if (id < n_) {
    if (base_tombs_.empty()) base_tombs_.assign(TombstoneWords(n_), 0);
    if (TestTombstone(base_tombs_.data(), id)) return false;
    SetTombstone(base_tombs_.data(), id);
    ++base_dead_total_;
  } else if (id < next_insert_id_) {
    const auto it =
        std::lower_bound(dead_delta_ids_.begin(), dead_delta_ids_.end(), id);
    if (it != dead_delta_ids_.end() && *it == id) return false;
    dead_delta_ids_.insert(it, id);
  } else {
    return false;
  }
  const std::size_t owner = ShardOf(id);
  MutationOp op;
  op.id = id;
  shard_ops_[owner].push_back(std::move(op));
  ReplicateMutation(owner, shard_ops_[owner].back());
  return true;
}

std::size_t ServeRouter::live_size() const {
  std::shared_lock<std::shared_mutex> world(world_mu_);
  return LiveLocked();
}

std::uint64_t ServeRouter::next_insert_id() const {
  std::shared_lock<std::shared_mutex> world(world_mu_);
  return next_insert_id_;
}

void ServeRouter::ReplicateMutation(std::size_t owner, const MutationOp& op) {
  // The usual replication step at query id 0: every live member applies
  // the op, replies are byte-checked (dedup-stable, so retries after lost
  // replies still agree), and a member that fails is dead — to be
  // replayed at respawn. Caller holds respawn_mu_, so membership is
  // stable across the exchange.
  Group& g = *groups_[owner];
  const std::size_t R = replicas_per_shard_;
  std::vector<std::shared_ptr<Conn>> conns(R);
  std::vector<char> live(R, 0);
  std::size_t primary = 0;
  {
    std::lock_guard<std::mutex> lock(g.mu);
    for (std::size_t r = 0; r < R; ++r) {
      conns[r] = g.members[r].conn;
      live[r] = g.members[r].alive ? 1 : 0;
    }
    primary = g.primary;
  }
  const std::vector<char> payload = MutationPayload(op);
  const FrameType type = op.insert ? FrameType::kInsert : FrameType::kRemove;
  std::vector<std::uint32_t> seqs(R, 0);
  std::vector<char> pending(R, 0), good(R, 0);
  std::vector<std::vector<char>> reply(R);
  for (std::size_t r = 0; r < R; ++r) {
    if (!live[r] || conns[r] == nullptr || conns[r]->failed()) continue;
    seqs[r] = conns[r]->NextSeq();
    conns[r]->Expect(seqs[r], /*qid=*/0);
    if (conns[r]->Send(type, seqs[r], /*qid=*/0, payload.data(),
                       payload.size())) {
      pending[r] = 1;
    } else {
      conns[r]->Cancel(seqs[r]);
      MarkDeadGlobal(owner, r);
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    if (!pending[r]) continue;
    Frame f;
    const RecvStatus st = conns[r]->Wait(seqs[r], options_.op_timeout_ms, &f);
    if (st == RecvStatus::kOk && f.type == kReplyType) {
      reply[r] = std::move(f.payload);
      good[r] = 1;
    } else if (st == RecvStatus::kTimeout) {
      conns[r]->Cancel(seqs[r]);
      if (ControlSendRecv(owner, r, type, payload, &reply[r],
                          /*retryable=*/true)) {
        good[r] = 1;
      }
    } else {
      MarkDeadGlobal(owner, r);
    }
  }
  std::size_t driver = R;
  if (good[primary]) {
    driver = primary;
  } else {
    for (std::size_t r = 0; r < R; ++r) {
      if (good[r]) {
        driver = r;
        break;
      }
    }
  }
  if (driver == R) return;  // journal replay repairs at respawn
  if (driver != primary) {
    std::lock_guard<std::mutex> lock(g.mu);
    if (g.members[driver].alive) g.primary = driver;
  }
  for (std::size_t r = 0; r < R; ++r) {
    if (r == driver || !good[r]) continue;
    if (reply[r] != reply[driver]) MarkDeadGlobal(owner, r);
  }
}

std::vector<char> ServeRouter::MutationPayload(const MutationOp& op) const {
  PayloadWriter w;
  w.U64(op.id);
  if (op.insert) {
    // The insert's pivot-table column, d(pivot p, s) as a build stores it,
    // from the manifest's pivot strings.
    w.Str(op.s);
    w.U64(pivot_strings_.size());
    for (const std::string& pivot : pivot_strings_) {
      w.F64(distance_->Distance(pivot, op.s));
    }
  }
  return std::move(w.buf);
}

bool ServeRouter::ReplayMutations(std::size_t s, std::size_t r) {
  for (const MutationOp& op : shard_ops_[s]) {
    std::vector<char> reply;
    if (!ControlSendRecv(s, r,
                         op.insert ? FrameType::kInsert : FrameType::kRemove,
                         MutationPayload(op), &reply,
                         /*retryable=*/true)) {
      return false;  // ControlSendRecv already marked the replica dead
    }
  }
  return true;
}

// The robust driver of the row sweep (RowSweep): blocking exchanges with
// retries, failover and hedging, and partial flagging.
// The row (computed by the caller — KNearest router-side, the admission
// front end for its coalesced batches) is charged here, once per query,
// as the in-process batch engine charges it.
ServeResult ServeRouter::QueryRow(QueryCtx& ctx, std::string_view query,
                                  std::size_t k, const double* row) {
  RowSweep sweep;
  if (!sweep.Seed(*this, k, row)) return sweep.Finish();
  const std::int64_t deadline = NowMs() + options_.query_deadline_ms;
  for (std::size_t s = 0; s < sweep.views.size(); ++s) {
    if (!ctx.groups[s].AnyAlive()) sweep.Drop(s);
  }

  // Scatter the sweep start to every live replica. Idempotent: a member
  // that misses the timeout is retried before being declared dead.
  Broadcast(ctx, FrameType::kBeginRow, sweep.BeginPayload(query, row).buf,
            /*retryable=*/true, deadline, sweep);
  while (sweep.SelectNext()) {
    if (RemainingMs(deadline) == 0) {
      // Deadline: degrade to the incumbents; every shard still holding
      // live candidates is missing from the answer.
      for (std::size_t s = 0; s < sweep.views.size(); ++s) {
        if (sweep.views[s].active && sweep.views[s].last.live > 0) {
          sweep.Drop(s);
        }
      }
      break;
    }
    const std::size_t owner = ShardOf(sweep.cand);
    std::vector<char> reply;
    bool ok = GroupEval(ctx, owner, sweep.EvalPayload().buf, &reply, deadline,
                        &sweep.res);
    if (ok && !sweep.AbsorbEval(reply)) {
      MarkDead(ctx, owner, ctx.groups[owner].primary);
      ok = false;
    }
    if (!ok) {
      // The candidate's whole group is gone: drop the shard from the
      // sweep and pick the best survivor from the remaining shards' last
      // passes. No visit happened, so no counters move.
      sweep.Drop(owner);
      continue;
    }
    // Scatter the visit pass to every live replica; the elimination
    // radius tightens with the new incumbent. Mutating — never retried: a
    // member that misses the timeout here is dead on the spot, and only a
    // whole lost group degrades the shard.
    Broadcast(ctx, FrameType::kStepRow, sweep.StepPayload().buf,
              /*retryable=*/false, deadline, sweep);
  }
  return sweep.Finish();
}

}  // namespace cned
