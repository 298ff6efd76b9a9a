#ifndef CNED_SERVE_ROUTER_H_
#define CNED_SERVE_ROUTER_H_

#include <sys/types.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "distances/distance.h"
#include "search/nn_searcher.h"
#include "search/sweep_kernel.h"
#include "serve/reactor.h"

namespace cned {

/// Tuning and robustness knobs of the scatter/gather router. Validated at
/// router construction: an out-of-range field throws std::invalid_argument
/// naming the offending field.
struct ServeOptions {
  /// Distance registry name (distances/registry.h). Required; must match
  /// the distance the snapshot was built with.
  std::string distance;

  /// Replica-group size: every shard is served by `replicas` worker
  /// processes over the same snapshot files. State-machine replication —
  /// the router scatters the begin and every sweep-mutating step to all
  /// live members, so standbys hold bit-identical slab state and a dead
  /// primary is replaced mid-query with no loss. 1 = the unreplicated
  /// scatter/gather tier; must be >= 1.
  int replicas = 2;

  /// Per-operation reply timeout. A replica that misses it on an
  /// idempotent op (ping / begin / eval) is retried; on a sweep-mutating
  /// op (step) it is marked dead immediately — its slab state can no
  /// longer be trusted to match the router's accounting. The *shard*
  /// degrades only when its whole replica group is lost.
  int op_timeout_ms = 2000;
  /// Whole-query deadline. When it expires mid-sweep the router returns
  /// the incumbents it has, flagged partial, with every shard that still
  /// held live candidates listed as missing.
  int query_deadline_ms = 10000;
  /// Extra attempts (beyond the first) for idempotent ops.
  int op_retries = 2;
  /// Exponential backoff between retries: `backoff_base_ms << attempt`,
  /// with each sleep capped at the time remaining until the query
  /// deadline so retries can never sleep a query past its budget.
  int backoff_base_ms = 5;
  /// Hedging for idempotent Eval ops: when the primary has not replied
  /// after this long (and a live standby exists), the router races the
  /// same request to a standby and takes whichever reply lands first —
  /// either answer is exact, so this only cuts the slow-shard tail.
  /// Negative disables hedging.
  int hedge_delay_ms = 25;
  /// Respawn dead workers (kill, waitpid, fork, re-Map, ping) before each
  /// query, so one crash degrades one query, not the rest of the session.
  /// A replica respawned between queries rejoins its group at the next
  /// query's begin; a replica respawned while *other* queries are in
  /// flight never joins those sweeps — each query pinned its participants
  /// (and their connections) at its own begin.
  bool auto_respawn = true;
  /// > 0 runs a background health loop at this period: ping-based failure
  /// detection plus respawn/re-map of dead replicas. The loop is
  /// drift-free (each tick is scheduled from the previous deadline, not
  /// from when the work finished) and runs *concurrently* with queries —
  /// pings multiplex over the shared connections, and a replica it
  /// revives only joins queries that begin afterwards. 0 disables the
  /// thread — the synchronous `auto_respawn` path alone keeps groups at
  /// full strength.
  int health_interval_ms = 0;
  /// Caps how many dead replicas one health tick will respawn, bounding
  /// the fork/re-map/replay work a tick can inject into a loaded server;
  /// the remainder waits for the next tick (or for a query-path respawn,
  /// which is never capped — a caller already paying for a query wants
  /// full strength). 0 = uncapped.
  int max_respawns_per_tick = 4;

  /// CNED_FAULT-grammar fault schedule for the initial workers
  /// (serve/fault.h); empty = fault-free. Both schedules are parsed by the
  /// router's constructor, which throws std::invalid_argument on a bad one
  /// before any worker is forked.
  std::string fault_spec;
  /// Fault schedule handed to *respawned* workers. Kept separate (and
  /// default clean) so an nth-based crash directive does not re-fire on
  /// every respawn.
  std::string respawn_fault_spec;
  /// Path to the `cned_shard_worker` binary. Empty (the default) forks
  /// workers in-process — no exec, the test/bench path; non-empty
  /// fork+execs the binary per shard replica.
  std::string worker_binary;
};

/// One query's answer plus its degradation and failover record.
struct ServeResult {
  std::vector<NeighborResult> neighbors;
  QueryStats stats;
  /// True when any shard's candidates were not (fully) considered — the
  /// neighbours are then exact over the surviving shards only, possibly
  /// improved by evaluations that landed before a shard was lost. A shard
  /// whose primary failed but whose standby took over is NOT partial.
  bool partial = false;
  /// True when the admission front end (serve/engine.h) refused the query
  /// under overload instead of running it; neighbors/stats are empty. The
  /// router itself never sheds — only the engine sets this.
  bool shed = false;
  /// The shards this query is missing, ascending. A shard appears here
  /// only when its *entire replica group* was lost: dead at query start,
  /// failed mid-sweep, or still live at the deadline.
  std::vector<std::size_t> missing_shards;
  /// Primary promotions performed during this query (a standby with
  /// bit-identical slab state took over mid-sweep; the result stayed
  /// exact and unflagged).
  std::size_t failovers = 0;
  /// Eval requests that were raced to a standby after the hedge delay.
  std::size_t hedged_evals = 0;
  /// Standby replicas evicted because their reply disagreed byte-for-byte
  /// with the primary's (corrupt state; the primary's reply drove the
  /// merge).
  std::size_t replicas_evicted = 0;
};

/// Fault-tolerant scatter/gather serving tier over a per-shard snapshot
/// directory (serve/shard_snapshot.h).
///
/// Topology: this router process + a replica group of R worker processes
/// per shard (ServeOptions::replicas), each connected by a socketpair
/// speaking the checksummed framing of serve/frame.h. All members of a
/// group map the *same* shard snapshot files; the router loads only the
/// manifest (shard shapes + pivot ids + pivot strings), so no process
/// ever materialises the whole index.
///
/// A query runs the exact pivot-row sweep of `ShardedLaesa` — the one
/// protocol the tier speaks — with the per-shard passes scattered: the
/// router evaluates the query's pivot row from the manifest's pivot
/// strings, seeds the incumbents from it, and makes every global decision
/// (incumbents, elimination bound, next candidate — merged over the
/// per-shard compact results on (key, id), the lowest-global-index tie
/// rule); workers apply the row, run the kernel passes over their
/// segments and evaluate the candidates they own, and the elimination
/// radius tightens between rounds exactly as it does in process. A
/// healthy router is therefore bit-identical — neighbours, distances AND
/// QueryStats — to the in-process `ComputePivotRow` +
/// `KNearestWithPivotRow`, regardless of worker or replica count. (The
/// paper's lazy LAESA sweep runs only in process.) Inserts are slots of
/// the workers' segments too, so the same sweep covers them.
///
/// Concurrency model (the concurrent pipelined router): N caller threads
/// drive N simultaneous scatter/gather sweeps over the *shared* worker
/// connections. Every query multiplexes through three mechanisms:
///   * a router-assigned nonzero query id stamped on every frame; workers
///     keep per-query sweep slots keyed on it (serve/replica.h), so
///     interleaved sweeps cannot see each other's slab state;
///   * a per-connection reactor (serve/reactor.h) that matches replies to
///     callers by sequence number and coalesces concurrent sends, so N
///     in-flight queries cost far fewer syscalls than N serialized ones;
///   * a query context captured at begin: the set of (connection, alive)
///     participants this query may ever talk to. Failover and hedging act
///     only inside the context; a replica respawned mid-flight (new
///     connection) never joins an in-flight sweep — its slab state would
///     be stale.
/// Lock hierarchy (outer to inner): `world_mu_` (shared for queries,
/// exclusive for mutations — sweeps never interleave with Insert/Remove,
/// which keeps bit-identity and the per-shard journal order), then
/// `respawn_mu_` (spawn/reap/replay; the health loop takes only this, so
/// it pings and revives without blocking queries), then each group's
/// `mu` (membership snapshots, short).
///
/// Replication model (state-machine): a shard's slab state is a pure
/// deterministic function of its op sequence (BeginRow, then the StepRows),
/// so the router scatters the begin and every mutating step to ALL live
/// members of each group. The primary's reply drives the merge; every
/// standby's reply is checked for byte agreement (a disagreeing standby
/// is evicted as corrupt). When the primary crashes, times out, or
/// returns a malformed frame mid-sweep, the router promotes a standby
/// whose state is bit-identical by construction — the query completes
/// exact and unflagged. Idempotent Evals go to the primary only and are
/// hedged to a standby after `hedge_delay_ms`.
///
/// Failure semantics (the robustness contract the tests pin down):
///   * per-op timeouts; idempotent ops retry with exponential backoff
///     (each sleep capped at the remaining query deadline), sweep-
///     mutating ops never retry on the same replica;
///   * a crashed / timed-out / malformed-reply replica is marked dead; if
///     it was the primary a standby is promoted and the query continues
///     exact;
///   * `partial` / `missing_shards` fire only when a whole replica group
///     is lost; the per-query deadline degrades to partial results
///     instead of blocking;
///   * dead replicas are respawned (fresh fork + checksum-verified
///     re-map) and rejoin at a later query's begin — synchronously before
///     a query when `auto_respawn` is set, and/or from the background
///     health loop;
///   * `stats.shards_degraded` counts the missing shards, so healthy
///     queries still compare bit-equal to in-process stats (0 == 0).
/// One sweep for the multiplexed driver to run. `query` and `row` are
/// borrowed — they must stay valid until the job's result is Delivered.
struct SweepJob {
  std::string_view query;
  std::size_t k = 0;
  /// d(query, pivot p) for every pivot, `num_pivots()` entries.
  const double* row = nullptr;
  /// Opaque caller identifier, echoed back through Deliver.
  std::uint64_t tag = 0;
};

/// The pull/deliver seam between `ServeRouter::DriveSweeps` and an
/// admission front end. All methods are invoked from the single driver
/// thread; implementations that share state with other threads (an
/// admission queue) do their own locking.
class SweepFeed {
 public:
  virtual ~SweepFeed() = default;
  /// Pops the next job to admit. False when nothing is queued right now
  /// (the driver parks and asks again later).
  virtual bool Next(SweepJob* out) = 0;
  /// True once no further jobs will ever arrive: the driver finishes the
  /// sweeps it already admitted, delivers them, and returns.
  virtual bool Finished() = 0;
  /// One settled job. `bailed` means the fast path refused or aborted it
  /// (`res` is then empty) and the caller must rerun it on the robust
  /// per-query path (`KNearestWithRow`). Called with the router's world
  /// lock held shared — do not call back into the router from here.
  virtual void Deliver(std::uint64_t tag, ServeResult res, bool bailed) = 0;
  /// Optional readable fd the driver adds to its park poll, made readable
  /// by producers when Next() may have new jobs (self-pipe). The driver
  /// drains it when it polls readable. -1 = none; the driver then relies
  /// on its short park cap to notice new work.
  virtual int wake_fd() { return -1; }
};

class ServeRouter {
 public:
  /// Loads the manifest and spawns `options.replicas` workers per shard.
  /// Throws std::invalid_argument on out-of-range options,
  /// std::runtime_error on a malformed manifest or if *every* worker
  /// fails to come up, std::length_error when the manifest holds more than
  /// kMaxSweepPrototypes prototypes; individual dead workers only degrade
  /// queries.
  ServeRouter(const std::string& snapshot_dir, const ServeOptions& options);
  ~ServeRouter();
  ServeRouter(const ServeRouter&) = delete;
  ServeRouter& operator=(const ServeRouter&) = delete;

  std::size_t size() const { return n_; }
  std::size_t shard_count() const { return shard_sizes_.size(); }
  std::size_t replica_count() const { return replicas_per_shard_; }
  std::size_t num_pivots() const { return pivots_.size(); }
  const std::vector<std::size_t>& pivots() const { return pivots_; }
  /// The manifest's pivot strings (immutable), in pivot-ordinal order —
  /// what the admission front end needs to run the pivot stage itself.
  const std::vector<std::string>& pivot_strings() const {
    return pivot_strings_;
  }
  /// The router's distance (immutable after construction).
  const StringDistance& metric() const { return *distance_; }

  /// The robust per-query path: evaluates the query's pivot row
  /// router-side, then runs `KNearestWithRow`. Bit-identical when healthy
  /// to the in-process `ComputePivotRow` + `KNearestWithPivotRow` (stats
  /// include the row evaluations). Thread-safe: concurrent calls multiplex
  /// over the shared connections.
  ServeResult Nearest(std::string_view query);
  ServeResult KNearest(std::string_view query, std::size_t k);

  /// --- Live mutability (the distributed mutable tier). -------------------
  ///
  /// The router is the source of truth: every op is journaled per owner
  /// shard before it is replicated to all live members of that shard's
  /// group (like begins and steps), and a respawned replica is replayed
  /// from the journal before it rejoins — so a crash never loses a
  /// mutation the router acknowledged. Ops are idempotent worker-side
  /// (dedup by stable id) with dedup-stable replies, which keeps both the
  /// retry path and the group byte-agreement check sound. Mutations take
  /// the world lock exclusively: they are globally serialized in journal
  /// order and never interleave with an in-flight sweep.

  /// Appends one prototype; returns its stable global id (ids start at
  /// size() and are never reused). The owner shard is id-round-robin and
  /// gets the insert's pivot-table column (num_pivots() evaluations).
  /// Throws std::length_error, changing nothing, at kMaxSweepPrototypes.
  std::uint64_t Insert(std::string_view s);

  /// Tombstones a stable id (base or delta). Returns false when the id is
  /// unknown or already removed. A removed prototype is masked inside the
  /// workers' sweep compactions — it can never surface as a neighbour.
  bool Remove(std::uint64_t id);

  /// Live prototypes: base + inserts - removals. (size() stays the frozen
  /// base count, mirroring the snapshot.)
  std::size_t live_size() const;
  /// The id the next Insert will assign.
  std::uint64_t next_insert_id() const;

  /// One pivot-row query whose row the caller already computed (`row[p]` =
  /// d(query, pivot p), all pivots) — the seam the admission-batching
  /// front end (serve/engine.h) drives after its blocked query×pivot
  /// pass. Stats still count the `num_pivots()` row evaluations, exactly
  /// as the in-process batch engine charges them per query, so results
  /// stay bit-identical to KNearest of the same query. Respawns dead
  /// replicas first (`auto_respawn`), then runs with retries, failover,
  /// hedging and partial flagging; tie winners follow visit order, inserts
  /// included. Throws std::invalid_argument when
  /// `row.size() != num_pivots()`.
  ServeResult KNearestWithRow(std::string_view query, std::size_t k,
                              const std::vector<double>& row);

  /// The multiplexed sweep driver — the engine's throughput path. ONE
  /// caller thread drives every query's row-consuming sweep concurrently
  /// over the shared connections: each round it advances every sweep that
  /// has its replies, encodes the whole round's requests per connection,
  /// flushes each connection with a single write, and parks in one poll
  /// across all of them. N in-flight sweeps thus cost one wakeup and a
  /// handful of syscalls per round instead of N parked threads paying two
  /// context switches per exchange — on a single core this, not parallel
  /// compute, is where concurrent throughput comes from.
  ///
  /// Jobs are pulled from `feed` as sweeps settle (admission refills
  /// mid-flight, so rounds stay full instead of draining to a batch
  /// tail), each result is delivered through the feed, and the call
  /// returns once the feed is Finished and every admitted sweep has
  /// settled. `max_concurrent` caps in-flight sweeps (0 = a default cap).
  /// ServeEngine runs this on a dedicated thread.
  ///
  /// Exactness: per query the driver replays the exact KNearestWithRow
  /// exchange sequence (begin, eval, step, in the same order with the
  /// same payloads), so healthy results are bit-identical to it — before
  /// and after Insert/Remove, which only change the workers' segments.
  /// The fast path requires every replica alive; a query that hits any
  /// anomaly mid-sweep (timeout, death, byte disagreement, deadline)
  /// abandons its sweep slots and is delivered back `bailed`, for its
  /// caller to rerun through the robust per-query path (retries,
  /// failover, hedging, partial flagging).
  ///
  /// World-lock fairness: the driver holds the world lock shared while
  /// sweeps are in flight, which (on a reader-preferring rwlock) would
  /// starve Insert/Remove (exclusive) under sustained load; writers
  /// therefore announce themselves (`writers_waiting_`) before blocking,
  /// and the driver checks the counter each round — when one is waiting
  /// it stops admitting, drains, and releases with a real gap so the
  /// writer wins the lock. In read-only steady state the hold is never
  /// cycled. When the world is not fast-path eligible (a replica down),
  /// jobs are delivered back `bailed` immediately and run robustly on
  /// their callers' threads instead.
  void DriveSweeps(SweepFeed& feed, std::size_t max_concurrent = 0);

  /// Heartbeat: pings every replica (retrying per options), marking the
  /// ones that miss as dead. Returns true when all replicas are healthy.
  bool PingAll();

  /// Kills (SIGKILL + waitpid) and respawns every dead replica, re-mapping
  /// its shard. Returns the number of processes brought back to healthy.
  std::size_t RespawnDead();

  /// Group inspection hooks for tests and monitoring. `worker_pid` /
  /// `worker_alive` keep their PR-6 per-shard meaning: the pid of the
  /// current *primary*, and whether *any* member of the group is alive.
  pid_t worker_pid(std::size_t s) const;
  bool worker_alive(std::size_t s) const;
  std::size_t primary_of(std::size_t s) const;
  pid_t replica_pid(std::size_t s, std::size_t r) const;
  bool replica_alive(std::size_t s, std::size_t r) const;

 private:
  struct Replica {
    pid_t pid = -1;
    std::shared_ptr<Conn> conn;
    bool alive = false;
  };

  /// One shard's replica group. `primary` indexes `members`; promotion
  /// just moves it. Membership is fixed at construction — respawn revives
  /// dead members in place (with a *fresh* connection, so queries that
  /// pinned the old one keep failing cleanly instead of talking to a
  /// process with no slab state). `mu` guards members and primary; it is
  /// the innermost lock and is never held across an exchange.
  struct Group {
    mutable std::mutex mu;
    std::vector<Replica> members;
    std::size_t primary = 0;
  };

  /// One group member as pinned by a query at begin: the connection this
  /// query (and only this query's failover/hedging) may use, plus the
  /// query-local alive flag.
  struct Participant {
    std::shared_ptr<Conn> conn;
    bool alive = false;
  };
  struct GroupCtx {
    std::vector<Participant> members;
    std::size_t primary = 0;

    bool AnyAlive() const {
      for (const Participant& m : members) {
        if (m.alive) return true;
      }
      return false;
    }
  };
  /// A query's pinned world: its id and its participant snapshot.
  struct QueryCtx {
    std::uint32_t qid = 0;
    std::vector<GroupCtx> groups;
  };

  /// One row sweep's router-side decisions, shared by `QueryRow` and
  /// `DriveSweeps` (defined in router.cc).
  struct RowSweep;

  /// Spawn/reap run under `respawn_mu_`.
  void SpawnReplica(std::size_t s, std::size_t r,
                    const std::string& fault_spec);
  void ReapReplica(std::size_t s, std::size_t r);

  /// Global death: fails the member's connection (waking every query
  /// waiting on it) and clears the alive flag.
  void MarkDeadGlobal(std::size_t s, std::size_t r);
  /// Query-context death: fails the pinned connection and clears the ctx
  /// flag; propagates to the global member only if it still holds the
  /// *same* connection (a respawn may already have replaced it — the
  /// fresh process must not be condemned for its predecessor's death).
  void MarkDead(QueryCtx& ctx, std::size_t s, std::size_t r);

  /// New query id (nonzero) + participant snapshot under each group's mu.
  void SnapshotCtx(QueryCtx* ctx) const;
  /// Fire-and-forget kEndSweep to every pinned participant whose
  /// connection still works: retires the workers' per-query sweep slots.
  void EndSweeps(const QueryCtx& ctx);

  /// If the ctx group's primary is dead, promote the first live ctx
  /// member (in member order — deterministic), mirroring to the global
  /// group when its connection is unchanged. Returns true when a live
  /// primary exists afterwards; counts the promotion in `res` when one
  /// happened.
  bool EnsurePrimary(QueryCtx& ctx, std::size_t s, ServeResult* res);
  /// Promote ctx member `r` to ctx primary and, identity permitting, to
  /// global primary.
  void Promote(QueryCtx& ctx, std::size_t s, std::size_t r);

  /// One request/reply exchange with the query's pinned replica (s, r).
  /// Retries (with backoff, each sleep capped at the remaining time
  /// before `deadline_ms`; pass -1 for no deadline) only when
  /// `retryable`; marks the replica dead on any unrecoverable failure.
  /// Replies with stale sequence numbers (from a timed-out earlier
  /// attempt) are discarded by the reactor.
  bool SendRecv(QueryCtx& ctx, std::size_t s, std::size_t r, FrameType type,
                const std::vector<char>& payload, std::vector<char>* reply,
                int timeout_ms, bool retryable, std::int64_t deadline_ms);
  /// The control-plane (query id 0) form against the *current* global
  /// member — ping, respawn replay, mutation replication. Caller holds
  /// `respawn_mu_`, so membership is stable across the exchange.
  bool ControlSendRecv(std::size_t s, std::size_t r, FrameType type,
                       const std::vector<char>& payload,
                       std::vector<char>* reply, bool retryable);

  /// Scatters one identical begin/step request to every live pinned
  /// member of every active shard of `sweep` (the state-machine
  /// replication step), gathers, then reconciles each group: the
  /// primary's reply drives the shard's view, standbys are byte-checked
  /// against it (disagreement = eviction), and a failed primary is
  /// replaced by a standby that answered. A shard whose whole group failed,
  /// or whose driving reply does not decode, drops out of the sweep.
  void Broadcast(QueryCtx& ctx, FrameType type,
                 const std::vector<char>& payload, bool retryable,
                 std::int64_t deadline_ms, RowSweep& sweep);

  /// One `kEval` against shard `s`: primary first, hedged to a standby
  /// after `hedge_delay_ms`, first valid reply wins — an eval is a pure
  /// function of the shard's state, so either answer is exact. Falls back
  /// to plain retries when the group has no standby or hedging is off.
  bool GroupEval(QueryCtx& ctx, std::size_t s,
                 const std::vector<char>& payload, std::vector<char>* reply,
                 std::int64_t deadline_ms, ServeResult* res);

  /// One journaled mutation, replicated to every live member of the owner
  /// shard's group.
  struct MutationOp {
    bool insert = false;
    std::uint64_t id = 0;
    std::string s;
  };
  void ReplicateMutation(std::size_t owner, const MutationOp& op);
  /// Replays the owner shard's journal to a freshly respawned member —
  /// delta and tombstone state is process-local, so the journal is what
  /// brings the new process to the group's current state. Returns false
  /// (replica already marked dead) when any op fails to apply.
  bool ReplayMutations(std::size_t s, std::size_t r);
  /// The kInsert / kRemove payload of `op`; an insert's carries its
  /// pivot-table column, recomputed for every replication and replay.
  std::vector<char> MutationPayload(const MutationOp& op) const;

  /// The shard holding global id `global`: base ids by range, insert ids
  /// round-robin (id n + s + S·j is shard s's delta slot j).
  std::size_t ShardOf(std::size_t global) const;
  /// live_size() for a caller that holds `world_mu_`.
  std::size_t LiveLocked() const;
  int RemainingMs(std::int64_t deadline_ms) const;

  /// Cheap any-dead scan; only when one exists does the query path take
  /// `respawn_mu_` and run a full (uncapped) respawn.
  void MaybeRespawn();
  bool AnyDead() const;

  bool PingAllLocked();
  /// Respawns up to `limit` dead replicas (0 = all), then re-aims every
  /// group's primary at a live member. Caller holds `respawn_mu_`.
  std::size_t RespawnDeadLocked(std::size_t limit);
  void HealthLoop();

  /// The pivot-row sweep given an already-computed row (`row` has
  /// num_pivots() entries). Charges the row evaluations to the stats.
  ServeResult QueryRow(QueryCtx& ctx, std::string_view query, std::size_t k,
                       const double* row);
  /// True when the multiplexed fast path may run: every replica alive on
  /// a healthy connection (mutations live in the workers' segments, which
  /// both query paths sweep alike). Caller holds `world_mu_` shared.
  bool FastWorldLocked() const;

  // Manifest state (immutable after construction — read lock-free).
  std::size_t n_ = 0;
  std::vector<std::size_t> shard_sizes_;
  std::vector<std::size_t> bases_;        // size S+1
  std::vector<std::size_t> pivots_;  // global pivot ids
  std::vector<std::string> pivot_strings_;
  StringDistancePtr distance_;

  std::string dir_;
  ServeOptions options_;
  std::size_t replicas_per_shard_ = 1;
  /// unique_ptr: Group owns a mutex and must not move when the vector is
  /// sized. The vector itself is construction-immutable.
  std::vector<std::unique_ptr<Group>> groups_;

  /// Router-wide query-id source; 0 is reserved for the control plane.
  mutable std::atomic<std::uint32_t> qid_counter_{0};

  // Mutable-tier bookkeeping (the router-side mirror of the workers'
  // delta/tombstone state; drives the k clamp, pivot seeding, the reply
  // checks, and respawn replay). Guarded by `world_mu_`.
  std::uint64_t next_insert_id_ = 0;       // initialised to n_
  std::vector<std::uint64_t> base_tombs_;  // bitmap over base ids; lazy
  std::size_t base_dead_total_ = 0;
  std::vector<std::uint64_t> dead_delta_ids_;  // sorted, Remove dedup
  std::vector<std::vector<MutationOp>> shard_ops_;  // per-shard journal

  /// Queries hold this shared (N sweeps in flight at once); mutations
  /// hold it exclusive — a mutation never interleaves with a sweep, which
  /// preserves bit-identity and the per-shard journal/writer order.
  mutable std::shared_mutex world_mu_;
  /// Writers about to block on `world_mu_` announce themselves here
  /// (incremented before the exclusive lock call, decremented once it is
  /// held). glibc's rwlock is reader-preferring, so a continuously-held
  /// shared lock — which is exactly what DriveSweeps wants in steady
  /// state — would starve writers forever; the driver instead checks this
  /// counter each round and backs off (drain, release, yield) only when a
  /// writer is actually waiting.
  std::atomic<std::size_t> writers_waiting_{0};
  /// Serializes spawn/reap/replay (and the fork itself). Journal appends
  /// hold world-exclusive AND this, so holding either is enough to read
  /// the journal. The health loop takes only this — never the world lock.
  mutable std::mutex respawn_mu_;

  std::mutex health_mu_;  // stop flag + cv only
  std::condition_variable health_cv_;
  bool stop_health_ = false;
  std::thread health_thread_;
};

}  // namespace cned

#endif  // CNED_SERVE_ROUTER_H_
