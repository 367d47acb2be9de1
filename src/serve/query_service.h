// QueryService: the long-lived query-serving front end (the paper's
// payoff — probabilistic UCQ evaluation through compiled lineage — run
// as a service instead of a one-shot pipeline).
//
// A request is (query, database, weights): lineage L(Q, D) compiles to
// an OBDD or SDD once per (query shape, database content, strategy) and
// is cached; every repeat — including weight-varied repeats, since
// tuple probabilities enter only at weighted-model-count time — pays a
// WMC pass over the compiled diagram and nothing else.
//
// Each (query, database) signature has an owner shard, a worker thread
// that owns its managers (the managers stay single-threaded; see
// util/thread_check.h) and its plan-cache partition. Misses compile on
// the owner; hits carry the plan's immutable flat copy and are answered
// by the owner when it is idle, else by any idle shard (serve/shard.h).
// A plan's flat copy holds its answer outright, so the managers are
// compile scratch: each owner collects a manager over its resident-node
// ceiling down to its permanent nodes and shrinks its caches back to
// baseline — so the service runs indefinitely where the one-shot
// pipeline's managers grow without limit.

#ifndef CTSDD_SERVE_QUERY_SERVICE_H_
#define CTSDD_SERVE_QUERY_SERVICE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "db/database.h"
#include "exec/task_pool.h"
#include "db/query.h"
#include "db/query_compile.h"
#include "obs/debug_server.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "serve/plan_cache.h"
#include "serve/plan_stats.h"
#include "serve/quarantine.h"
#include "serve/serve_stats.h"
#include "util/status.h"

namespace ctsdd {

class ShardWorker;
class Supervisor;
struct ShardSlot;

// One probability query against a tuple-independent database.
struct QueryRequest {
  Ucq query;
  // Must outlive the request's execution (the service never copies it).
  const Database* db = nullptr;
  // Per-request tuple probabilities indexed by tuple id; ids beyond the
  // vector (or an empty vector) fall back to the database's own
  // probabilities. Weights never invalidate a cached plan.
  std::vector<double> weights;
  VtreeStrategy strategy = VtreeStrategy::kBalanced;
  PlanRoute route = PlanRoute::kSdd;
  // Per-request deadline measured from batch admission; 0 falls back to
  // ServeOptions::default_deadline_ms (0 there too = no deadline). A
  // request still queued past its deadline fails with DEADLINE_EXCEEDED
  // without compiling; an in-flight compile aborts at the deadline.
  double deadline_ms = 0;
};

struct QueryResponse {
  Status status;  // OK unless lineage/compilation failed
  double probability = 0.0;
  bool plan_cache_hit = false;
  int shard = -1;
  double latency_ms = 0.0;
  // True when the serving plan came off the degradation ladder: the
  // requested route's compile tripped its budget and the alternate
  // representation (OBDD <-> SDD) answered instead. The answer itself is
  // exact — both routes compute the same weighted model count.
  bool degraded = false;
  // Set alongside transient typed failures — an UNAVAILABLE shed or
  // shard restart, or a RESOURCE_EXHAUSTED quarantine reject: the
  // caller's backoff hint (queue drain estimate, detection window, or
  // time to the next parole, respectively), clamped to
  // ServeOptions::retry_after_max_ms for the queue-derived cases.
  double retry_after_ms = 0;
  // Compile-time statistics of the serving plan.
  int lineage_gates = 0;
  int size = 0;
  int width = 0;
};

class QueryService {
 public:
  explicit QueryService(ServeOptions options = {});
  ~QueryService();  // drains and joins every shard

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // Executes one request (blocks until its shard answers).
  QueryResponse Execute(const QueryRequest& request);

  // Admits the whole batch at once, fans it out across shards by
  // signature, and blocks until every response is filled. Responses are
  // positionally aligned with requests.
  std::vector<QueryResponse> ExecuteBatch(
      const std::vector<QueryRequest>& requests);

  // Aggregated counters over all shards plus latency percentiles.
  ServiceStats stats() const;

  // The service's always-on flight recorder (never null): recent request
  // records plus anomaly/dump counters, for tests and embedders.
  obs::FlightRecorder* flight_recorder() const { return flight_.get(); }

  // The unified metrics registry. Serve counters are bumped in it where
  // they happen; each call refreshes the gauges and the values owned
  // outside serve/. JSON is a stable flat object; Prometheus is a text
  // exposition. Both include the latency/GC histograms.
  std::string MetricsJson();
  std::string MetricsPrometheus();
  obs::MetricsRegistry* metrics_registry() { return metrics_.get(); }

  // Per-plan telemetry registry (never null): live stats block per
  // cached plan plus the evicted-plan merge totals.
  PlanStatsRegistry* plan_stats() const { return plan_stats_.get(); }

  // Live introspection server (ServeOptions::debug_port). debug_port()
  // is the actually-bound port — useful with port 0 — or -1 when the
  // server is disabled or failed to bind.
  obs::DebugServer* debug_server() const { return debug_server_.get(); }
  int debug_port() const {
    return debug_server_ != nullptr && debug_server_->running()
               ? debug_server_->port()
               : -1;
  }

  const ServeOptions& options() const { return options_; }

 private:
  std::shared_ptr<ShardWorker> MakeWorker(int shard_id);
  void StartDebugServer();

  // Sets the registry's gauges from the current workers, and its
  // flight, governor, exec, tracer, profiler and debug-server values
  // from their owners.
  void PublishMetrics();

  ServeOptions options_;
  // Service-wide work-stealing pool lent to shards for cold compiles
  // (null when options_.exec_workers <= 1). Declared before the shards
  // so it outlives every manager that borrowed it.
  std::unique_ptr<exec::TaskPool> exec_pool_;
  // Unified metrics registry; counters_ are its serve counter handles and
  // latency_us_/gc_pause_us_ its shared histograms (microsecond samples,
  // recorded by every shard). flight_ is the bounded ring of recent
  // request records with anomaly dumps.
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  const ServeCounters counters_;
  obs::Histogram* latency_us_ = nullptr;
  obs::Histogram* gc_pause_us_ = nullptr;
  std::unique_ptr<obs::FlightRecorder> flight_;
  // Poison-query negative cache, checked at admission and before cold
  // compiles. Service-level on purpose: it must survive shard restarts,
  // or every restart would buy a poisonous signature `threshold` more
  // ladder compiles.
  std::unique_ptr<Quarantine> quarantine_;
  // Per-plan telemetry registry. Declared after metrics_ (it holds
  // registry pointers) and before slots_ (workers publish into it and
  // merge on eviction — including the evictions their destructors run).
  std::unique_ptr<PlanStatsRegistry> plan_stats_;
  // Process-wide memory governor (created when mem_hard_bytes > 0 and no
  // external governor was supplied); options_.mem_governor points at it.
  // Declared before slots_: every shard account parents into it.
  std::unique_ptr<MemGovernor> governor_;
  // Shard table: worker pointers swap under per-slot mutexes when the
  // supervisor restarts a shard.
  std::vector<std::unique_ptr<ShardSlot>> slots_;
  // Declared after slots_: the supervisor's scan thread walks slots_, so
  // it must stop before any of the above is torn down.
  std::unique_ptr<Supervisor> supervisor_;
  // Declared very last: the debug server's handlers read everything
  // above (slots, governor, registries), so it must stop serving first.
  std::unique_ptr<obs::DebugServer> debug_server_;
  std::chrono::steady_clock::time_point start_time_;
};

}  // namespace ctsdd

#endif  // CTSDD_SERVE_QUERY_SERVICE_H_
