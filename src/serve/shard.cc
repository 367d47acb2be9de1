#include "serve/shard.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "circuit/eval.h"
#include "circuit/primal_graph.h"
#include "db/lineage.h"
#include "graph/exact_treewidth.h"
#include "obdd/obdd_compile.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "sdd/sdd_compile.h"
#include "serve/signature.h"
#include "util/fault_injection.h"
#include "util/timer.h"

namespace ctsdd {

namespace {

// Fault-action hooks run on the worker's own thread (HitSlow calls the
// armed action inline at the fault point), so thread-locals address
// "this worker" without any registry.
thread_local bool t_death_requested = false;
thread_local WorkBudget* t_active_budget = nullptr;

}  // namespace

void ShardWorker::RequestDeathOnCurrentThread() { t_death_requested = true; }

void ShardWorker::TripActiveBudgetOnCurrentThread(StatusCode code) {
  if (t_active_budget != nullptr) t_active_budget->Cancel(code);
}

ShardWorker::ShardWorker(int shard_id, const ServeOptions& options,
                         obs::Histogram* latency_us, obs::Histogram* gc_pause_us,
                         obs::FlightRecorder* flight, exec::TaskPool* exec_pool,
                         Quarantine* quarantine, const ServeCounters* counters,
                         PlanStatsRegistry* plan_stats)
    : id_(shard_id),
      options_(options),
      latency_us_(latency_us),
      gc_pause_us_(gc_pause_us),
      flight_(flight),
      exec_pool_(exec_pool),
      quarantine_(quarantine),
      counters_(counters),
      plan_stats_(plan_stats),
      plans_(options.plan_cache_capacity,
             [this](const PlanKey&, CompiledPlan& plan) {
               // Telemetry conservation: fold the evicted plan's
               // histogram and counters into the service totals before
               // the block leaves the live table. Covers every removal
               // path — LRU pressure, memory pressure, shard restart,
               // cache destruction.
               if (plan_stats_ != nullptr && plan.stats != nullptr) {
                 plan_stats_->OnEviction(plan.stats);
               }
             },
             counters),
      gc_interval_(std::max(1, options.gc_check_interval)),
      thread_(&ShardWorker::Loop, this) {
  // Safe after the worker thread started: no job can be submitted (and
  // so no byte charged) before this constructor returns the worker.
  account_.SetGovernor(options_.mem_governor);
  plans_.SetMemAccount(&account_);
}

ShardWorker::~ShardWorker() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

bool ShardWorker::Submit(const ShardJob& job, double* retry_after_ms) {
  size_t depth;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!stopping_ && (options_.max_queue_depth == 0 ||
                       queue_.size() < options_.max_queue_depth)) {
      queue_.push_back(job);
      cv_.notify_one();
      return true;
    }
    depth = queue_.size();
  }
  if (retry_after_ms != nullptr) {
    // Expected drain time of the queue ahead of a retry: depth jobs at
    // the smoothed per-request service time — clamped, because a deep
    // queue times a momentarily inflated EWMA would otherwise tell a
    // well-behaved client to go away for minutes.
    const double hint = std::clamp(
        static_cast<double>(depth) *
            ewma_service_ms_.load(std::memory_order_relaxed),
        0.1, std::max(0.1, options_.retry_after_max_ms));
    *retry_after_ms = hint;
    double seen = max_retry_hint_.load(std::memory_order_relaxed);
    while (hint > seen && !max_retry_hint_.compare_exchange_weak(
                              seen, hint, std::memory_order_relaxed)) {
    }
  }
  return false;
}

bool ShardWorker::Admit(const PlanKey& key, PlanHit* hit) {
  plans_.LookupHit(key, [hit](const CompiledPlan& plan) {
    *hit = plan.Hit();
    if (plan.stats != nullptr) {
      plan.stats->hits.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::lock_guard<std::mutex> lock(gc_mu_);
  if (++requests_since_gc_check_ < gc_interval_) return false;
  requests_since_gc_check_ = 0;
  return true;
}

void ShardWorker::RearmGcCheck() {
  std::lock_guard<std::mutex> lock(gc_mu_);
  requests_since_gc_check_ =
      std::max(requests_since_gc_check_, gc_interval_ - 1);
}

bool ShardWorker::idle() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !stopping_ && queue_.empty() && current_ == nullptr &&
         !exited_.load(std::memory_order_acquire);
}

ShardStats ShardWorker::stats() const {
  ShardStats out;
  out.requests = requests_.load(std::memory_order_relaxed);
  out.failures = failures_.load(std::memory_order_relaxed);
  out.max_retry_hint_ms = max_retry_hint_.load(std::memory_order_relaxed);
  out.live_nodes = live_nodes_.load(std::memory_order_relaxed);
  out.peak_live_nodes = peak_live_nodes_.load(std::memory_order_relaxed);
  out.plan_cache_size = plans_.size();
  // Byte accounting reads straight from the shard account's atomics —
  // always current, even mid-compile.
  out.mem_bytes = account_.bytes();
  for (int l = 0; l < kMemLayerCount; ++l) {
    out.mem_bytes_by_layer[static_cast<size_t>(l)] =
        account_.bytes(static_cast<MemLayer>(l));
  }
  return out;
}

double ShardWorker::AdaptiveHedgeMs(double floor_ms) const {
  const double ewma = ewma_service_ms_.load(std::memory_order_relaxed);
  const double var = ewma_var_ms2_.load(std::memory_order_relaxed);
  const double threshold = ewma + 2.0 * std::sqrt(std::max(var, 0.0));
  return std::clamp(threshold, floor_ms, 8.0 * floor_ms);
}

void ShardWorker::Retire(std::vector<ShardJob>* drained, ShardJob* in_flight) {
  std::lock_guard<std::mutex> lock(mu_);
  stopping_ = true;
  while (!queue_.empty()) {
    drained->push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  if (current_ != nullptr) {
    in_flight->state = current_;
    in_flight->is_hedge = current_is_hedge_;
  }
  cv_.notify_all();
}

void ShardWorker::CollectHedgeCandidates(
    std::chrono::steady_clock::time_point cutoff,
    std::vector<std::shared_ptr<JobState>>* out) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto consider = [&](const std::shared_ptr<JobState>& state) {
    if (state == nullptr) return;
    if (state->submitted_at > cutoff) return;
    if (state->claimed.load(std::memory_order_acquire)) return;
    // One hedge per request: the exchange both tests and marks.
    if (state->hedged.exchange(true, std::memory_order_acq_rel)) return;
    out->push_back(state);
  };
  consider(current_);
  for (const ShardJob& job : queue_) consider(job.state);
}

void ShardWorker::Loop() {
  obs::SetCurrentThreadName("shard-" + std::to_string(id_));
  for (;;) {
    ShardJob job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        exited_.store(true, std::memory_order_release);
        return;  // stopping and drained
      }
      job = std::move(queue_.front());
      queue_.pop_front();
      current_ = job.state;
      current_is_hedge_ = job.is_hedge;
    }
    busy_.store(true, std::memory_order_release);
    Beat();
    // Chaos sites: a hang stalls the worker here (supervisor sees busy +
    // stale progress), a death makes the thread exit abandoning the
    // in-flight job (supervisor sees an exit it did not request).
    CTSDD_FAULT_POINT_COARSE("serve.shard.hang");
    CTSDD_FAULT_POINT_COARSE("serve.shard.death");
    if (t_death_requested) {
      t_death_requested = false;
      exited_.store(true, std::memory_order_release);
      return;
    }
    Process(job);
    {
      std::lock_guard<std::mutex> lock(mu_);
      current_.reset();
    }
    busy_.store(false, std::memory_order_release);
    Beat();
  }
}

void ShardWorker::Process(const ShardJob& job) {
  JobState& state = *job.state;
  if (state.claimed.load(std::memory_order_acquire)) {
    // Another copy (hedge sibling or the supervisor) already answered.
    if (job.gc_check) RunGcPolicy();
    counters_->duplicate_skips->Add();
    PublishLiveNodes();
    return;
  }
  CTSDD_FAULT_POINT_COARSE("serve.shard.process");
  Timer timer;
  const QueryRequest& request = state.request;
  QueryResponse response;  // local: delivered only through the claim
  response.shard = id_;

  // Start the request's flight record (completed in FinishJob on a claim
  // win; duplicate skips never record).
  pending_record_ = obs::FlightRecord{};
  pending_record_.trace_id = state.trace.trace_id;
  pending_record_.query_sig = state.key.query_sig;
  pending_record_.db_sig = state.key.db_sig;
  pending_record_.shard = id_;
  pending_record_.hedged = job.is_hedge;
  pending_record_.queue_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - state.submitted_at)
          .count();
  request_gc_ms_ = 0;
  bytes_at_request_start_ = account_.bytes();
  // Queue wait lives on the request's async track, not this thread's:
  // it started while this worker was busy with earlier requests, so an
  // 'X' event here would overlap and break per-thread span nesting.
  if (obs::TraceArmed() && state.submit_ts_us > 0 &&
      state.trace.trace_id != 0) {
    obs::TraceAsyncSince("serve", "queue.wait", state.trace.trace_id,
                         state.submit_ts_us);
  }
  obs::TraceSpan process_span("serve", "shard.process", state.trace);
  if (process_span.armed()) {
    process_span.AddArg("shard", static_cast<uint64_t>(id_));
    if (job.is_hedge) process_span.AddArg2("hedge", 1);
  }

  // Deadline respect at dequeue: a job that expired while queued fails
  // typed, without paying for a compile it can no longer use.
  if (state.has_deadline &&
      std::chrono::steady_clock::now() >= state.deadline) {
    response.status =
        Status::DeadlineExceeded("deadline expired while queued");
    FinishJob(job, response, timer);
    return;
  }

  // A hit found at admission brings its plan along; a miss is looked up
  // again here, where the owner counts it (a compile of the same key that
  // ran ahead of this request turns it into a hit).
  PlanHit hit = state.hit;
  if (hit.flat == nullptr) {
    if (CompiledPlan* cached = plans_.Lookup(state.key)) {
      hit = cached->Hit();
      if (hit.stats != nullptr) {
        hit.stats->hits.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  response.plan_cache_hit = hit.flat != nullptr;
  pending_record_.cache_hit = response.plan_cache_hit;
  Beat();
  if (hit.flat == nullptr) {
    // Quarantine re-check at compile time: the signature may have been
    // quarantined after this copy was admitted (several poison requests
    // in flight at once), and a restart must not buy poison a fresh
    // compile. Parole trials skip the check — they *are* the probe.
    if (quarantine_ != nullptr && !state.is_parole_trial &&
        quarantine_->Rejects(state.key.query_sig, state.key.db_sig,
                             std::chrono::steady_clock::now())) {
      response.status = Status::ResourceExhausted(
          "query signature quarantined; retry after parole");
      FinishJob(job, response, timer);
      return;
    }
    // Critical-tier admission tightening: a cold compile is the one
    // discretionary load a pressured process can refuse outright. Reject
    // it typed with a backoff hint (cache hits above keep serving) and
    // run the shed ladder now — the reject alone frees nothing.
    if (options_.mem_governor != nullptr &&
        options_.mem_governor->tier() == MemGovernor::Tier::kCritical) {
      counters_->mem_rejects->Add();
      counters_->rejected_memory->Add();
      if (flight_ != nullptr) {
        flight_->NoteAnomaly(obs::Anomaly::kMemoryDenial,
                             "shard " + std::to_string(id_) +
                                 ": critical tier rejected cold compile");
      }
      RunMemPressureLadder();
      response.status = Status::ResourceExhausted(
          "memory pressure: cold compile rejected; retry later");
      response.retry_after_ms = MemRetryHintMs();
      FinishJob(job, response, timer);
      return;
    }
    Timer compile_timer;
    auto compiled = CompilePlan(job);
    pending_record_.compile_ms = compile_timer.ElapsedMillis();
    if (compiled.ok()) {
      CompiledPlan* plan =
          plans_.Insert(state.key, std::move(compiled).value());
      if (plan->stats != nullptr) {
        // Finish the descriptive fields, then publish: the registry's
        // readers only ever see a complete block.
        plan->stats->compile_us =
            static_cast<uint64_t>(pending_record_.compile_ms * 1000.0);
        plan->stats->query_sig = state.key.query_sig;
        plan->stats->db_sig = state.key.db_sig;
        plan->stats->shard = id_;
        if (plan_stats_ != nullptr) plan_stats_->Register(plan->stats);
      }
      if (quarantine_ != nullptr) {
        quarantine_->ReportSuccess(state.key.query_sig, state.key.db_sig);
      }
      hit = plan->Hit();
    } else {
      response.status = compiled.status();
      if (last_compile_mem_pressure_) {
        // The governor tripped this compile at an allocation seam: hand
        // the client a backoff hint and shed before the next request.
        response.retry_after_ms = MemRetryHintMs();
        if (flight_ != nullptr) {
          flight_->NoteAnomaly(obs::Anomaly::kMemoryDenial,
                               "shard " + std::to_string(id_) +
                                   ": governor tripped in-flight compile");
        }
        RunMemPressureLadder();
      }
    }
  }
  Beat();
  if (hit.flat != nullptr) {
    const FlatDiagram& flat = *hit.flat;
    pending_record_.route = static_cast<int>(hit.route);
    pending_record_.plan_size = flat.size();
    {
      obs::TraceSpan wmc_span("serve", "wmc", state.trace);
      Timer wmc_timer;
      StatusOr<double> probability = EvaluatePlan(flat, request);
      pending_record_.wmc_ms = wmc_timer.ElapsedMillis();
      if (probability.ok()) {
        response.probability = probability.value();
        if (hit.stats != nullptr) {
          hit.stats->wmc_us.Record(
              static_cast<uint64_t>(pending_record_.wmc_ms * 1000.0));
        }
      } else {
        response.status = probability.status();
      }
      if (wmc_span.armed()) {
        wmc_span.AddArg("plan_size", static_cast<uint64_t>(flat.size()));
      }
    }
    response.lineage_gates = hit.lineage_gates;
    response.size = flat.size();
    response.width = flat.width();
    // A cached ladder plan keeps answering for the original key, so
    // repeats report degraded too.
    response.degraded = hit.route != request.route;
    pending_record_.degraded = response.degraded;
  }
  Beat();
  FinishJob(job, response, timer);
}

void ShardWorker::FinishJob(const ShardJob& job, QueryResponse& response,
                            const Timer& timer) {
  // The owner's GC check runs before the response is published, so the
  // request that completed the interval is the one that pays for it, and
  // the client's next request sees the policy's effects.
  if (job.gc_check) RunGcPolicy();
  const double ms = timer.ElapsedMillis();
  response.latency_ms = ms;
  Beat();
  if (!job.state->TryClaim()) {
    // The computed result is discarded; the plan (if any) stays cached,
    // so the duplicate work still warms this shard.
    counters_->duplicate_skips->Add();
    PublishLiveNodes();
    return;
  }
  if (job.is_hedge) counters_->hedge_wins->Add();
  if (job.state->CancelLoserBudgets(StatusCode::kCancelled)) {
    counters_->hedge_cancels->Add();
  }
  counters_->requests->Add();
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (!response.status.ok()) {
    counters_->failures->Add();
    failures_.fetch_add(1, std::memory_order_relaxed);
    if (response.status.code() == StatusCode::kDeadlineExceeded) {
      counters_->timeouts->Add();
    }
  }
  latency_us_->Record(static_cast<uint64_t>(ms * 1000.0));
  if (flight_ != nullptr) {
    pending_record_.status_code = static_cast<int>(response.status.code());
    pending_record_.total_ms = ms;
    pending_record_.gc_ms = request_gc_ms_;
    pending_record_.bytes_charged =
        static_cast<int64_t>(account_.bytes()) -
        static_cast<int64_t>(bytes_at_request_start_);
    flight_->Record(pending_record_);
    // Refresh the outlier bar from the live latency distribution every
    // so often: far-above-p99 completions then dump the ring.
    if (++wins_since_outlier_refresh_ >= 64) {
      wins_since_outlier_refresh_ = 0;
      const double p99_ms = latency_us_->ValueAtPercentile(0.99) / 1000.0;
      if (p99_ms > 0) flight_->SetLatencyOutlierMs(8.0 * p99_ms);
    }
  }
  const double ewma = ewma_service_ms_.load(std::memory_order_relaxed);
  const double next_ewma = 0.8 * ewma + 0.2 * ms;
  ewma_service_ms_.store(next_ewma, std::memory_order_relaxed);
  // Squared-deviation EWMA of the same stream: the spread estimate
  // behind the adaptive hedge threshold (ewma + 2 sigma).
  const double dev = ms - next_ewma;
  const double var = ewma_var_ms2_.load(std::memory_order_relaxed);
  ewma_var_ms2_.store(0.8 * var + 0.2 * dev * dev,
                      std::memory_order_relaxed);
  // Count before waking the submitter: a stats() call racing the batch's
  // return must already see this request accounted for.
  PublishLiveNodes();
  job.state->Publish(response);
}

namespace {

// Remaining milliseconds until the job's deadline (0 = no deadline,
// which WorkBudget reads as "none"). A job whose deadline just passed
// gets an expired-but-armed budget, tripping on the first lease.
double DeadlineLeftMs(const JobState& state) {
  if (!state.has_deadline) return 0;
  const double left =
      std::chrono::duration<double, std::milli>(
          state.deadline - std::chrono::steady_clock::now())
          .count();
  return std::max(left, 1e-9);
}

PlanRoute AlternateRoute(PlanRoute route) {
  return route == PlanRoute::kObdd ? PlanRoute::kSdd : PlanRoute::kObdd;
}

// The least recently used entry of a manager pool; end() when empty.
template <typename Pool>
typename Pool::iterator LruEntry(Pool& pool) {
  return std::min_element(pool.begin(), pool.end(),
                          [](const auto& a, const auto& b) {
                            return a.last_used < b.last_used;
                          });
}

}  // namespace

StatusOr<CompiledPlan> ShardWorker::CompilePlan(const ShardJob& job) {
  CTSDD_FAULT_POINT_COARSE("serve.compile");
  JobState& state = *job.state;
  const QueryRequest& request = state.request;
  const int side = job.is_hedge ? 1 : 0;
  counters_->compiles->Add();
  last_compile_mem_pressure_ = false;
  obs::TraceSpan compile_span("compile", "compile", state.trace);
  if (compile_span.armed()) {
    compile_span.AddArg("route", static_cast<uint64_t>(request.route));
  }
  auto lineage = BuildLineage(request.query, *request.db);
  CTSDD_RETURN_IF_ERROR(lineage.status());
  const Circuit& circuit = lineage.value();
  std::vector<int> vars = circuit.Vars();
  if (vars.empty()) {
    // Constant lineage: no diagram to build, the truth value is the plan.
    CompiledPlan plan;
    plan.route = request.route;
    plan.lineage_gates = circuit.num_gates();
    plan.is_constant = true;
    plan.constant_value = Evaluate(
        circuit, std::vector<bool>(std::max(circuit.num_vars(), 0), false));
    plan.flat = std::make_shared<const FlatDiagram>(
        FlatDiagram::Constant(plan.constant_value));
    plan.stats = std::make_shared<PlanStats>();
    plan.stats->route = static_cast<int>(plan.route);
    plan.stats->requested_route = static_cast<int>(request.route);
    plan.stats->is_constant = true;
    plan.stats->lineage_gates = plan.lineage_gates;
    return plan;
  }

  // Width predictions for the admission-router training set (ROADMAP
  // item 4): a min-fill upper bound on the lineage circuit's treewidth,
  // plus exact treewidth/pathwidth when the circuit fits the exact
  // engines. Gated on gate count so the heuristic stays a small fixed
  // fraction of a cold compile; results are stamped onto whichever
  // ladder plan ultimately wins.
  int pred_tw = -1;
  int exact_tw = -1;
  int exact_pw = -1;
  if (options_.width_predict_max_gates > 0 &&
      circuit.num_gates() <= options_.width_predict_max_gates) {
    pred_tw = HeuristicCircuitTreewidth(circuit);
    if (circuit.num_gates() <= kMaxExactVertices) {
      auto tw = ExactCircuitTreewidth(circuit);
      if (tw.ok()) exact_tw = tw.value();
      auto pw = ExactPathwidth(PrimalGraph(circuit));
      if (pw.ok()) exact_pw = pw.value();
    }
  }
  Beat();
  const auto stamp = [&](StatusOr<CompiledPlan>& result, int hops) {
    if (!result.ok() || result.value().stats == nullptr) return;
    PlanStats& s = *result.value().stats;
    s.ladder_hops = hops;
    s.predicted_treewidth = pred_tw;
    s.exact_treewidth = exact_tw;
    s.exact_pathwidth = exact_pw;
  };

  // Every compile runs budgeted, even with unlimited limits: the lease
  // pulse keeps a long compile's heartbeat alive, and the budget is the
  // handle that hedging, restarts and fault sites cancel.
  WorkBudget primary(options_.compile_node_budget, DeadlineLeftMs(state));
  primary.BindPulse(&progress_);
  if (obs::TraceArmed()) primary.SetTraceContext(obs::CurrentContext());
  state.RegisterBudget(side, &primary);
  t_active_budget = &primary;
  auto first = CompileRoute(request, request.route, circuit, vars, &primary);
  t_active_budget = nullptr;
  state.RegisterBudget(side, nullptr);
  if (first.ok() || primary.reason() != StatusCode::kResourceExhausted ||
      primary.memory_pressure()) {
    // Success, a non-budget failure (e.g. bad vtree), or a deadline/
    // cancel trip — the ladder only retries node-budget exhaustion
    // (more time cannot be bought, but a different representation can
    // be smaller). A memory-pressure trip also returns directly: the
    // alternate route would hit the same process-wide ceiling, so the
    // caller sheds and backs the client off instead.
    if (!first.ok() && primary.memory_pressure()) {
      counters_->mem_aborts->Add();
      counters_->rejected_memory->Add();
      last_compile_mem_pressure_ = true;
    }
    stamp(first, 1);
    return first;
  }
  counters_->budget_aborts->Add();
  counters_->fallbacks->Add();
  WorkBudget fallback(options_.compile_node_budget, DeadlineLeftMs(state));
  fallback.BindPulse(&progress_);
  if (obs::TraceArmed()) fallback.SetTraceContext(obs::CurrentContext());
  state.RegisterBudget(side, &fallback);
  t_active_budget = &fallback;
  auto second = CompileRoute(request, AlternateRoute(request.route), circuit,
                             std::move(vars), &fallback);
  t_active_budget = nullptr;
  state.RegisterBudget(side, nullptr);
  stamp(second, 2);
  if (second.ok()) return second;
  if (fallback.reason() == StatusCode::kResourceExhausted) {
    if (fallback.memory_pressure()) {
      // The fallback died at the memory ceiling, not on its node budget:
      // a process-state problem, not a poison signature — no strike.
      counters_->mem_aborts->Add();
      counters_->rejected_memory->Add();
      last_compile_mem_pressure_ = true;
      return second;
    }
    counters_->budget_aborts->Add();
    // Both ladder routes exhausted their budgets: this signature is
    // poison for the current budget — strike it so repeats stop burning
    // full ladder compiles.
    if (quarantine_ != nullptr) {
      quarantine_->ReportExhausted(state.key.query_sig, state.key.db_sig,
                                   std::chrono::steady_clock::now());
      if (flight_ != nullptr) {
        flight_->NoteAnomaly(obs::Anomaly::kQuarantineStrike,
                             "shard " + std::to_string(id_) +
                                 ": double-route budget exhaustion");
      }
    }
  }
  return second;
}

StatusOr<CompiledPlan> ShardWorker::CompileRoute(const QueryRequest& request,
                                                 PlanRoute route,
                                                 const Circuit& circuit,
                                                 std::vector<int> vars,
                                                 WorkBudget* budget) {
  CTSDD_FAULT_POINT_COARSE("serve.compile.route");
  CompiledPlan plan;
  plan.route = route;
  plan.lineage_gates = circuit.num_gates();
  plan.vars = std::move(vars);
  plan.stats = std::make_shared<PlanStats>();
  plan.stats->route = static_cast<int>(route);
  plan.stats->requested_route = static_cast<int>(request.route);
  plan.stats->lineage_gates = plan.lineage_gates;
  plan.stats->num_vars = static_cast<int>(plan.vars.size());
  MemGovernor* gov = options_.mem_governor;
  // One budgeted compile in the scratch `manager`: on success the root is
  // flattened into the plan, which keeps no reference into the manager —
  // its nodes are garbage for the next collection.
  const auto compile = [&](auto* manager, auto compile_fn) -> Status {
    // Acquiring a manager may build one, which is slow enough under
    // sanitizers to look like a stall: stamp progress before the compile
    // (whose leases stamp it from there on) and before the flattening.
    Beat();
    if (budget != nullptr) manager->AttachBudget(budget);
    // Register with the governor while the compile is in flight: when
    // another shard drives the process to the hard ceiling, the governor
    // cancels the largest registered compile by account bytes.
    if (gov != nullptr && budget != nullptr) {
      gov->RegisterCompile(budget, manager->mem_account());
    }
    const auto root = compile_fn(manager);
    if (gov != nullptr && budget != nullptr) gov->UnregisterCompile(budget);
    if (budget != nullptr) manager->DetachBudget();
    if (root < 0) {
      // Reclaim the aborted compile's partial nodes now instead of
      // letting them ride until the next policy check.
      TimedGc(manager);
      return budget->status();
    }
    Beat();
    plan.flat = std::make_shared<const FlatDiagram>(manager->Flatten(root));
    plan.stats->nodes = static_cast<uint64_t>(plan.flat->size());
    plan.stats->edges = 2 * static_cast<uint64_t>(plan.flat->size());
    plan.stats->width = static_cast<uint64_t>(plan.flat->width());
    plan.stats->flat_bytes = static_cast<uint64_t>(plan.flat->MemoryBytes());
    return Status::Ok();
  };
  if (route == PlanRoute::kObdd) {
    CTSDD_RETURN_IF_ERROR(compile(ObddFor(plan.vars), [&](ObddManager* m) {
      return CompileCircuitToObdd(m, circuit);
    }));
  } else {
    auto vtree = VtreeForStrategy(circuit, plan.vars, request.strategy);
    CTSDD_RETURN_IF_ERROR(vtree.status());
    CTSDD_RETURN_IF_ERROR(
        compile(SddFor(std::move(vtree).value()), [&](SddManager* m) {
          return CompileCircuitToSdd(m, circuit);
        }));
  }
  return plan;
}

StatusOr<double> ShardWorker::EvaluatePlan(const FlatDiagram& flat,
                                           const QueryRequest& request) {
  std::vector<double> prob;
  prob.reserve(flat.vars().size());
  for (const int tuple : flat.vars()) {
    const double p = static_cast<size_t>(tuple) < request.weights.size()
                         ? request.weights[tuple]
                         : request.db->TupleProb(tuple);
    if (!(p >= 0.0 && p <= 1.0)) {
      return Status::InvalidArgument("tuple probability outside [0, 1]");
    }
    prob.push_back(p);
  }
  return flat.WeightedModelCount(prob);
}

ObddManager* ShardWorker::ObddFor(const std::vector<int>& order) {
  for (PooledObdd& e : obdd_pool_) {
    if (e.order == order) {
      e.last_used = ++use_clock_;
      return e.manager.get();
    }
  }
  // A capacity of 0 acts as 1: the compile about to run needs a manager.
  if (!obdd_pool_.empty() &&
      obdd_pool_.size() >= options_.manager_pool_capacity) {
    obdd_pool_.erase(LruEntry(obdd_pool_));
    counters_->manager_evictions->Add();
  }
  obdd_pool_.push_back({order, std::make_unique<MemAccount>(&account_),
                        std::make_unique<ObddManager>(order), ++use_clock_});
  // Lend the managers the service-wide pool: cold compiles inside this
  // manager fork across its workers (exec-managed parallel regions).
  obdd_pool_.back().manager->AttachExecutor(exec_pool_);
  obdd_pool_.back().manager->AttachMemAccount(obdd_pool_.back().account.get());
  return obdd_pool_.back().manager.get();
}

SddManager* ShardWorker::SddFor(Vtree vtree) {
  std::string key = VtreeKeyString(vtree);
  for (PooledSdd& e : sdd_pool_) {
    if (e.vtree_key == key) {
      e.last_used = ++use_clock_;
      return e.manager.get();
    }
  }
  if (!sdd_pool_.empty() &&
      sdd_pool_.size() >= options_.manager_pool_capacity) {
    sdd_pool_.erase(LruEntry(sdd_pool_));
    counters_->manager_evictions->Add();
  }
  sdd_pool_.push_back({std::move(key), std::make_unique<MemAccount>(&account_),
                       std::make_unique<SddManager>(std::move(vtree)),
                       ++use_clock_});
  sdd_pool_.back().manager->AttachExecutor(exec_pool_);
  sdd_pool_.back().manager->AttachMemAccount(sdd_pool_.back().account.get());
  return sdd_pool_.back().manager.get();
}

template <typename Manager>
size_t ShardWorker::TimedGc(Manager* manager) {
  Timer timer;
  const size_t reclaimed = manager->GarbageCollect();
  const double ms = timer.ElapsedMillis();
  gc_pause_us_->Record(static_cast<uint64_t>(ms * 1000.0));
  request_gc_ms_ += ms;
  counters_->gc_runs->Add();
  counters_->gc_reclaimed->Add(reclaimed);
  return reclaimed;
}

double ShardWorker::MemRetryHintMs() const {
  // A few service times of backoff: enough for the ladder run the caller
  // just triggered to take effect before the client retries.
  return std::clamp(4.0 * ewma_service_ms_.load(std::memory_order_relaxed),
                    0.1, std::max(0.1, options_.retry_after_max_ms));
}

bool ShardWorker::EvictLruManager() {
  const auto obdd_it = LruEntry(obdd_pool_);
  const auto sdd_it = LruEntry(sdd_pool_);
  const bool have_obdd = obdd_it != obdd_pool_.end();
  const bool have_sdd = sdd_it != sdd_pool_.end();
  if (!have_obdd && !have_sdd) return false;
  if (have_obdd && (!have_sdd || obdd_it->last_used <= sdd_it->last_used)) {
    obdd_pool_.erase(obdd_it);
  } else {
    sdd_pool_.erase(sdd_it);
  }
  counters_->manager_evictions->Add();
  return true;
}

void ShardWorker::RunMemPressureLadder() {
  MemGovernor* gov = options_.mem_governor;
  if (gov == nullptr || gov->tier() == MemGovernor::Tier::kNone) return;
  // Soft tier: give back everything that regrows on demand — collect
  // garbage and shrink the computed caches in every pooled manager.
  for (PooledObdd& e : obdd_pool_) {
    TimedGc(e.manager.get());
    e.manager->ShrinkCaches();
  }
  for (PooledSdd& e : sdd_pool_) {
    TimedGc(e.manager.get());
    e.manager->ShrinkCaches();
  }
  // Critical tier: shed state — whole LRU managers first (destroying a
  // manager is the only step that returns node-store and arena chunks to
  // the allocator, and the plans it compiled keep answering), then LRU
  // plans, whose flat copies are the only bytes left.
  while (gov->tier() == MemGovernor::Tier::kCritical &&
         (EvictLruManager() || plans_.EvictOne())) {
    counters_->pressure_evictions->Add();
  }
}

void ShardWorker::RunGcPolicy() {
  RunMemPressureLadder();
  size_t reclaimed_this_check = 0;
  bool saw_pressure = false;
  const auto enforce = [&](auto* manager) {
    if (manager->NumLiveNodes() <= options_.gc_live_node_ceiling) return;
    saw_pressure = true;
    // No plan holds a root here, so the collection leaves only the
    // manager's permanent nodes (terminals and literals).
    reclaimed_this_check += TimedGc(manager);
    // Return cache capacity sized up by the pre-GC workload to baseline
    // (the SDD manager repopulates its semantic cache from survivors).
    manager->ShrinkCaches();
  };
  for (PooledObdd& e : obdd_pool_) enforce(e.manager.get());
  for (PooledSdd& e : sdd_pool_) enforce(e.manager.get());
  // Reclaim-rate feedback: when a check finds pressure (a manager over
  // its ceiling, or nodes actually reclaimed) check again sooner; when
  // it finds nothing, back off — up to 8x the configured cadence.
  std::lock_guard<std::mutex> lock(gc_mu_);
  if (saw_pressure || reclaimed_this_check > 0) {
    gc_interval_ = std::max(1, gc_interval_ / 2);
  } else {
    gc_interval_ = std::min(gc_interval_ * 2,
                            8 * std::max(1, options_.gc_check_interval));
  }
}

void ShardWorker::PublishLiveNodes() {
  int live = 0;
  for (const PooledObdd& e : obdd_pool_) live += e.manager->NumLiveNodes();
  for (const PooledSdd& e : sdd_pool_) live += e.manager->NumLiveNodes();
  live_nodes_.store(live, std::memory_order_relaxed);
  if (live > peak_live_nodes_.load(std::memory_order_relaxed)) {
    peak_live_nodes_.store(live, std::memory_order_relaxed);
  }
}

}  // namespace ctsdd
