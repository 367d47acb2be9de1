// Configuration and observability surface of the query-serving subsystem.
//
// ServeOptions sizes the service (shards, per-shard plan cache and
// manager pools, GC ceilings). Every service-wide serve counter lives in
// the service's obs::MetricsRegistry and nowhere else: ServeCounters
// holds one handle per counter, and the worker, supervisor, quarantine or
// admission code that sees an event bumps its counter there. ShardStats /
// ServiceStats are a view filled from one read of those handles, plus
// gauges (plan-cache occupancy, resident nodes, accounted bytes) read
// from the current workers and latency percentiles from the service's
// obs::Histogram recorders (src/obs/metrics.h).

#ifndef CTSDD_SERVE_SERVE_STATS_H_
#define CTSDD_SERVE_SERVE_STATS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "util/mem_governor.h"

namespace ctsdd {

struct ServeOptions {
  // Worker shards. Each shard owns its managers and plan-cache partition
  // and serves requests on its own thread; a request's (query, database)
  // signature picks its shard, so repeats always land where their plan
  // is cached.
  int num_shards = 4;
  // Compiled plans retained per shard (LRU past this).
  size_t plan_cache_capacity = 256;
  // Compile-scratch managers pooled per shard and kind (OBDD by variable
  // order, SDD by vtree); least-recently-used managers are destroyed past
  // the cap (0 acts as 1). Cached plans do not live in them, so they keep
  // answering.
  size_t manager_pool_capacity = 8;
  // Per-manager resident-node ceiling. When a policy check finds a
  // manager above it, the shard garbage-collects it (no plan holds its
  // nodes, so collection empties it down to its literals) and shrinks
  // its caches.
  int gc_live_node_ceiling = 1 << 20;
  // Requests between GC policy checks on a shard.
  int gc_check_interval = 16;
  // Workers in the shared exec/ pool the service lends to shards for
  // cold compiles (parallel apply/compile inside the managers; see
  // src/exec/). 0 or 1 keeps every compile on the shard's own thread —
  // the sequential path. The pool is shared: shards borrow it for the
  // duration of one compile, so `exec_workers` caps the *extra*
  // parallelism a single cold compile can recruit, not a per-shard
  // reservation.
  int exec_workers = 0;
  // Node-allocation budget per cold compile (0 = unlimited). A compile
  // that trips it aborts cleanly, the shard reclaims the partial nodes,
  // and the degradation ladder retries the alternate route (OBDD <-> SDD)
  // once with a fresh budget before reporting RESOURCE_EXHAUSTED.
  uint64_t compile_node_budget = 0;
  // Deadline applied to requests that do not carry their own (0 = none).
  // Measured from batch admission; requests still queued past it are
  // failed with DEADLINE_EXCEEDED without compiling, and in-flight
  // compiles abort at the deadline.
  double default_deadline_ms = 0;
  // Admission control: jobs beyond this per-shard queue depth are shed
  // with UNAVAILABLE and a retry-after hint instead of queueing without
  // bound (0 = unbounded).
  size_t max_queue_depth = 0;
  // Upper clamp on every retry_after_ms hint handed to clients. Deep
  // queues times a momentarily inflated service-time EWMA can otherwise
  // produce hints of minutes; a well-behaved client sleeping that long
  // turns one overload blip into an outage of its own making.
  double retry_after_max_ms = 250;
  // Supervision: a shard whose worker is busy but whose progress counter
  // has not advanced for this long is declared hung and restarted; a
  // worker thread that exited without being asked is declared dead.
  // Queued and in-flight requests of the torn-down shard fail typed
  // UNAVAILABLE with a retry hint. 0 disables the supervisor thread
  // entirely (no heartbeats, no hedging).
  double heartbeat_window_ms = 0;
  // Hedged re-dispatch: a request waiting on one shard longer than the
  // hedge threshold is re-submitted once to a healthy sibling shard; the
  // first exact answer wins and the loser's in-flight compile budget is
  // cancelled. 0 disables hedging. Requires the supervisor
  // (heartbeat_window_ms). The threshold adapts per shard: each worker
  // tracks a latency EWMA and deviation, and the supervisor hedges jobs
  // older than ewma + 2 sigma — this value is the *floor* of that
  // adaptive threshold and 8x this value is its ceiling, so a
  // misbehaving estimate can neither hedge instantly nor never.
  double hedge_after_ms = 0;
  // Memory governor watermarks over the process-total accounted bytes
  // (util/mem_governor.h). hard = 0 disables governing entirely;
  // soft = 0 derives soft as 3/4 of hard. With a hard ceiling set, every
  // byte-owning structure in every shard is charged to a per-shard
  // account rolled up into one service governor, compiles are admission-
  // checked at their allocation seams (deny-before-allocate, typed
  // RESOURCE_EXHAUSTED with a retry hint), and the shards run a tiered
  // shed ladder (shrink caches, GC, evict plans, evict managers) — the
  // hard ceiling is never crossed by accounted bytes.
  uint64_t mem_soft_bytes = 0;
  uint64_t mem_hard_bytes = 0;
  // Internal plumbing: the service stamps its governor here in the
  // options copy handed to each worker. Leave null in user-built
  // options (a non-null value is honored, for embedding scenarios that
  // share one governor across services).
  MemGovernor* mem_governor = nullptr;
  // Poison-query quarantine: a signature whose compiles exhaust the
  // node budget on BOTH ladder routes this many times is negative-cached
  // and fails RESOURCE_EXHAUSTED at admission without burning a compile
  // slot. 0 disables quarantine.
  int quarantine_threshold = 0;
  // Parole: after this long in quarantine one trial request is admitted;
  // success clears the entry, another double-route exhaustion doubles
  // the parole interval (capped below). Pre-quarantine strikes decay by
  // halving per parole interval, so transient pressure is forgiven.
  double quarantine_parole_ms = 1000;
  double quarantine_parole_max_ms = 60000;
  // Bound on distinct quarantined signatures (oldest strike evicted).
  size_t quarantine_capacity = 1024;
  // Flight recorder (obs/flight_recorder.h): most recent request records
  // retained for anomaly dumps. Always on; sizes the evidence window.
  size_t flight_recorder_capacity = 256;
  // When non-empty, anomaly dumps are also written to
  // <dir>/flight_<seq>.json (the latest dump is always readable via
  // QueryService::flight_recorder()->last_dump_json()).
  std::string flight_dump_dir;
  // Live introspection endpoint (obs/debug_server.h): -1 disables,
  // 0 binds an ephemeral port (read it back via
  // QueryService::debug_port()), otherwise the given port. The server
  // exposes /metrics, /healthz, /statusz, /memz, /plansz, /flightz,
  // /tracez and /profilez for the life of the service.
  int debug_port = -1;
  // Bind address for the debug server. Loopback by default on purpose:
  // the endpoints expose plans, memory maps and stacks — widen only on
  // trusted networks.
  std::string debug_bind_addr = "127.0.0.1";
  // Width-prediction gate for per-plan telemetry: cold compiles whose
  // lineage circuit has at most this many gates also run the min-fill
  // treewidth heuristic (and the exact treewidth/pathwidth engines when
  // small enough), recording predicted-width vs. actual-size pairs for
  // the admission-router training set. 0 disables prediction. The
  // default keeps the heuristic's cost well under a typical compile.
  int width_predict_max_gates = 256;
};

// Counters owned by the supervision layer (service-level, not summed
// from shards): detection/restart events, hedging, and quarantine.
struct SupervisionStats {
  uint64_t hangs_detected = 0;
  uint64_t deaths_detected = 0;
  uint64_t shard_restarts = 0;
  // Queued or in-flight requests failed typed UNAVAILABLE when their
  // shard was torn down.
  uint64_t failed_on_restart = 0;
  uint64_t hedges_dispatched = 0;
  // Hedge submissions dropped because the sibling's queue was full (the
  // primary copy is still in flight, so nothing is lost).
  uint64_t hedge_sheds = 0;
  // Requests answered by the hedge copy (the primary lost the claim).
  uint64_t hedge_wins = 0;
  // In-flight compile budgets cancelled by a claim winner.
  uint64_t hedge_cancels = 0;
  uint64_t quarantine_rejects = 0;
  // Double-route budget exhaustions recorded against a signature — each
  // strike is one full ladder compile burned on a poison query.
  uint64_t quarantine_strikes = 0;
  uint64_t parole_trials = 0;
  uint64_t parole_successes = 0;
  uint64_t quarantine_entries = 0;  // current negative-cache size
};

// Serve counters and gauges. In ServiceStats::totals the counters are
// the service-wide registry values and the gauges sum the current
// workers. A per-shard row (ShardWorker::stats) fills only its worker's
// own requests, failures, retry hint and gauges.
struct ShardStats {
  uint64_t requests = 0;
  uint64_t failures = 0;
  uint64_t plan_hits = 0;
  uint64_t plan_misses = 0;
  uint64_t plan_evictions = 0;
  uint64_t compiles = 0;
  uint64_t gc_runs = 0;
  uint64_t gc_reclaimed = 0;
  // Compile-scratch managers destroyed (pool capacity or the shed
  // ladder); the plans they compiled stay cached.
  uint64_t manager_evictions = 0;
  // Requests failed with DEADLINE_EXCEEDED — expired while queued or
  // aborted mid-compile by their deadline.
  uint64_t timeouts = 0;
  // Jobs rejected at admission (queue depth over max_queue_depth).
  uint64_t sheds = 0;
  // Degradation-ladder retries on the alternate route after a budget
  // abort on the requested one.
  uint64_t fallbacks = 0;
  // Compiles aborted by the node-allocation budget.
  uint64_t budget_aborts = 0;
  // Jobs this worker dequeued after another copy (hedge or supervisor)
  // had already answered them — skipped without compiling.
  uint64_t duplicate_skips = 0;
  // Largest retry_after_ms hint handed out by this shard's admission
  // control (post-clamp), for observing hint sanity under deep queues.
  double max_retry_hint_ms = 0;
  // Memory-governor interactions (all zero when ungoverned):
  // cold compiles rejected typed RESOURCE_EXHAUSTED at the critical
  // pressure tier, compiles tripped mid-flight by the governor's
  // deny-before-allocate admission (distinguished from node-budget
  // aborts by WorkBudget's memory-pressure marker), and plan/manager
  // evictions forced by the pressure shed ladder.
  uint64_t mem_rejects = 0;
  uint64_t mem_aborts = 0;
  uint64_t pressure_evictions = 0;
  // Accounted resident bytes (total and by layer), read from the shard
  // accounts at stats() time.
  uint64_t mem_bytes = 0;
  std::array<uint64_t, kMemLayerCount> mem_bytes_by_layer = {};
  int live_nodes = 0;       // resident nodes across the shard's managers
  int peak_live_nodes = 0;  // max of live_nodes over policy checks
  // Plans currently resident in this shard's cache (occupancy gauge,
  // not a monotone counter).
  uint64_t plan_cache_size = 0;
};

// Snapshot of the service's memory governor (all zero / disabled when no
// hard watermark is configured).
struct MemGovernorStats {
  bool enabled = false;
  uint64_t soft_bytes = 0;
  uint64_t hard_bytes = 0;
  uint64_t bytes = 0;       // current governor-accounted process bytes
  uint64_t peak_bytes = 0;  // high-water mark of the above
  int tier = 0;             // MemGovernor::Tier at snapshot time
  uint64_t admit_denials = 0;
  uint64_t optional_growth_denials = 0;
  uint64_t compile_cancels = 0;
  uint64_t injected_denials = 0;  // mem.reserve fault-injected denials
  uint64_t soft_transitions = 0;
  uint64_t critical_transitions = 0;
  // Charges observed above the hard ceiling — zero by construction when
  // every allocating path reserves first; tests and the bench gate on it.
  uint64_t hard_breaches = 0;
};

inline MemGovernorStats SnapshotGovernor(const MemGovernor* gov) {
  MemGovernorStats out;
  if (gov == nullptr) return out;
  out.enabled = gov->enabled();
  out.soft_bytes = gov->soft_bytes();
  out.hard_bytes = gov->hard_bytes();
  out.bytes = gov->bytes();
  out.peak_bytes = gov->peak_bytes();
  out.tier = static_cast<int>(gov->tier());
  out.admit_denials = gov->admit_denials();
  out.optional_growth_denials = gov->optional_growth_denials();
  out.compile_cancels = gov->compile_cancels();
  out.injected_denials = gov->injected_denials();
  out.soft_transitions = gov->soft_transitions();
  out.critical_transitions = gov->critical_transitions();
  out.hard_breaches = gov->hard_breaches();
  return out;
}

// The service view: registry counters, current-worker gauges and latency
// percentiles. The counters outlive restarted workers, so they stay
// monotone across the life of the service.
struct ServiceStats {
  ShardStats totals;
  SupervisionStats supervision;
  MemGovernorStats governor;
  // RESOURCE_EXHAUSTED responses split by cause: memory pressure
  // (critical-tier cold-compile rejects + governor-tripped compiles) vs
  // poison-query quarantine. Memory rejects never feed quarantine
  // strikes, so the two populations are disjoint.
  uint64_t rejected_memory = 0;
  uint64_t rejected_quarantine = 0;
  int num_shards = 0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  // Garbage-collection pause percentiles (one sample per collection).
  double gc_pause_p50_ms = 0.0;
  double gc_pause_p99_ms = 0.0;

  double plan_hit_rate() const {
    const uint64_t lookups = totals.plan_hits + totals.plan_misses;
    return lookups == 0
               ? 0.0
               : static_cast<double>(totals.plan_hits) /
                     static_cast<double>(lookups);
  }
};

// One handle per service-wide serve counter, fetched once from the
// service's registry under the name /metrics exports. The service shares
// one set with its workers, supervisor and quarantine; whoever sees an
// event calls Add() on its handle. A new counter is one handle here, its
// registry name in the constructor, and its field in Read.
struct ServeCounters {
  explicit ServeCounters(obs::MetricsRegistry* registry);

  // Fills every counter field of `out` (totals, supervision, rejected_*).
  void Read(ServiceStats* out) const;

  // A request answered without reaching a worker (invalid argument,
  // admission shed, quarantine reject, restart failure).
  void CountFailedRequest() const {
    requests->Add();
    failures->Add();
  }

  obs::Counter* const requests;
  obs::Counter* const failures;
  obs::Counter* const timeouts;
  obs::Counter* const sheds;
  obs::Counter* const fallbacks;
  obs::Counter* const budget_aborts;
  obs::Counter* const duplicate_skips;
  obs::Counter* const compiles;
  obs::Counter* const mem_rejects;
  obs::Counter* const mem_aborts;
  obs::Counter* const rejected_memory;
  obs::Counter* const rejected_quarantine;
  obs::Counter* const plan_hits;
  obs::Counter* const plan_misses;
  obs::Counter* const plan_evictions;
  obs::Counter* const manager_evictions;
  obs::Counter* const pressure_evictions;
  obs::Counter* const gc_runs;
  obs::Counter* const gc_reclaimed;
  obs::Counter* const hangs_detected;
  obs::Counter* const deaths_detected;
  obs::Counter* const shard_restarts;
  obs::Counter* const failed_on_restart;
  obs::Counter* const hedges_dispatched;
  obs::Counter* const hedge_sheds;
  obs::Counter* const hedge_wins;
  obs::Counter* const hedge_cancels;
  obs::Counter* const quarantine_rejects;
  obs::Counter* const quarantine_strikes;
  obs::Counter* const parole_trials;
  obs::Counter* const parole_successes;
};

}  // namespace ctsdd

#endif  // CTSDD_SERVE_SERVE_STATS_H_
