// One shard of the query service: a worker thread owning its managers.
//
// The managers are single-threaded by contract, so the shard is the unit
// of compilation and memory accounting: it runs one thread and pools
// its managers (OBDD managers keyed by exact variable order, SDD
// managers keyed by exact vtree structure — the one shared structure,
// the process-wide WidthCache, carries its own mutex). The managers are
// compile scratch: a compile flattens its root into the plan's
// FlatDiagram and keeps no reference into the manager, so the shard's
// plan cache never depends on them. The shard enforces the resident-node
// ceiling by collecting (and shrinking the caches of) any manager over
// it, which empties it down to its permanent nodes. Manager pools are
// LRU-bounded; evicting a manager costs its plans nothing.
//
// Supervision surface: the worker stamps an atomic progress counter at
// every job phase and flags busy/exited, so the service's supervisor can
// detect a hang (busy with stale progress past the heartbeat window) or
// a death (thread exited unbidden) from outside. A request may be
// dispatched more than once — a hedge copy to a sibling shard, or a
// supervisor failing it typed when its shard is torn down — so the
// request/response slots live in a shared, claim-guarded JobState:
// exactly one completer wins the atomic claim and fills the response,
// and the winner cancels every other copy's in-flight compile budget.

#ifndef CTSDD_SERVE_SHARD_H_
#define CTSDD_SERVE_SHARD_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "circuit/circuit.h"
#include "exec/task_pool.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obdd/obdd.h"
#include "sdd/sdd.h"
#include "serve/plan_cache.h"
#include "serve/quarantine.h"
#include "serve/query_service.h"
#include "serve/serve_stats.h"
#include "util/budget.h"
#include "util/flat_diagram.h"
#include "util/timer.h"

namespace ctsdd {

// Shared completion record for one request. Every dispatched copy
// (primary shard job, hedge copy, supervisor fail-over) holds a
// reference; the request/response slots point into the batch
// submitter's frame, which blocks on (remaining, done_mu, done_cv)
// until every response is filled — so they are valid exactly until the
// claim winner decrements `remaining`.
struct JobState {
  QueryRequest request;  // owned copy: outlives the submitter's loop frame
  QueryResponse* response = nullptr;
  PlanKey key;  // signatures precomputed by the router
  int primary_shard = -1;
  // Absolute deadline (from the request's or the service's default
  // deadline_ms, stamped at admission). Checked at dequeue — a job that
  // expired while queued fails without compiling — and threaded into the
  // compile's WorkBudget so in-flight work aborts at the deadline too.
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline;
  std::chrono::steady_clock::time_point submitted_at;
  // True when quarantine admission let this request through as a parole
  // trial; workers skip the quarantine re-check for it.
  bool is_parole_trial = false;
  // Tracing hand-off (zero when the tracer was disarmed at admission):
  // every dispatched copy roots its spans under the same trace id, and
  // the claim winner emits the terminal async end event in Publish.
  obs::TraceContext trace;
  double submit_ts_us = 0;  // TraceNowUs() at admission, for queue.wait
  // The plan when admission found it cached (flat == nullptr on a miss).
  // Shared by every dispatched copy, so a hedge copy answers it too.
  PlanHit hit;
  std::atomic<int>* remaining = nullptr;
  std::mutex* done_mu = nullptr;
  std::condition_variable* done_cv = nullptr;

  // First completer wins; every other copy observes `claimed` and
  // discards its result.
  std::atomic<bool> claimed{false};
  // At most one hedge copy per request (set by the supervisor when it
  // collects the candidate).
  std::atomic<bool> hedged{false};

  // In-flight compile budgets of the dispatched copies (slot 0 =
  // primary shard, slot 1 = hedge), registered around the compile under
  // `budget_mu` so the claim winner can cancel a loser's stack-allocated
  // budget without racing its destruction.
  std::mutex budget_mu;
  WorkBudget* budgets[2] = {nullptr, nullptr};

  // Registers (or, with null, deregisters) a copy's compile budget. If
  // the job was claimed while the budget was being set up, it is
  // cancelled immediately — closing the race with a winner that
  // cancelled before registration.
  void RegisterBudget(int side, WorkBudget* budget) {
    std::lock_guard<std::mutex> lock(budget_mu);
    budgets[side] = budget;
    if (budget != nullptr && claimed.load(std::memory_order_acquire)) {
      budget->Cancel(StatusCode::kCancelled);
    }
  }

  // Completion happens in three steps so the winner can finish its
  // bookkeeping between winning and waking the submitter (a stats()
  // call racing the batch return must already see the request counted):
  //   if (TryClaim()) { CancelLoserBudgets(...); <account>; Publish(r); }

  // Wins or loses the one claim. A loser discards its result.
  bool TryClaim() { return !claimed.exchange(true, std::memory_order_acq_rel); }

  // Winner-only: cancels every still-registered copy's budget with
  // `loser_reason` (duplicate work dies through WorkBudget::Cancel).
  // Returns whether a live budget was actually cancelled.
  bool CancelLoserBudgets(StatusCode loser_reason) {
    bool cancelled_any = false;
    std::lock_guard<std::mutex> lock(budget_mu);
    for (WorkBudget*& budget : budgets) {
      if (budget != nullptr) {
        budget->Cancel(loser_reason);
        cancelled_any = true;
        budget = nullptr;
      }
    }
    return cancelled_any;
  }

  // Winner-only: fills the response slot and releases the submitter.
  void Publish(const QueryResponse& result) {
    *response = result;
    // Exactly-once terminal span of the request's async track: only the
    // claim winner reaches Publish.
    if (trace.trace_id != 0) {
      obs::TraceAsyncEnd("request", "request", trace.trace_id);
    }
    // Decrement and notify inside the critical section: the submitter's
    // wait predicate can then only observe zero after acquiring the
    // mutex this thread holds, so it cannot wake, return, and destroy
    // the mutex/condvar while this thread still touches them.
    std::lock_guard<std::mutex> lock(*done_mu);
    if (remaining->fetch_sub(1) == 1) done_cv->notify_all();
  }
};

// A unit of work handed to a shard.
struct ShardJob {
  std::shared_ptr<JobState> state;
  bool is_hedge = false;
  // Set on the request that completed its owner's GC-check interval
  // (see ShardWorker::Admit); the owner runs its GC policy after it.
  bool gc_check = false;
};

class ShardWorker {
 public:
  // `exec_pool` (optional, may be null) is the service-wide work-stealing
  // pool lent to this shard's managers for cold compiles; the shard
  // attaches it to every manager it pools, and the managers open
  // exec-managed parallel regions around their apply/compile operations.
  // `quarantine` (may be null) is the service-level poison negative
  // cache: workers re-check it before a cold compile and report compile
  // outcomes into it. `counters` is the service's registry counter set,
  // which the worker bumps where each event happens and which outlives
  // it. `latency_us` / `gc_pause_us` are the service's shared
  // histograms (microsecond samples); `flight` (may be
  // null) is the service's flight recorder — the worker appends one
  // record per claim-winning completion and raises quarantine-strike /
  // memory-denial anomalies. `plan_stats` (may be null) is the service's
  // per-plan telemetry registry: every compiled plan gets a stats block
  // published there and merged back on eviction.
  ShardWorker(int shard_id, const ServeOptions& options,
              obs::Histogram* latency_us, obs::Histogram* gc_pause_us,
              obs::FlightRecorder* flight, exec::TaskPool* exec_pool,
              Quarantine* quarantine, const ServeCounters* counters,
              PlanStatsRegistry* plan_stats = nullptr);
  ~ShardWorker();  // drains the queue, joins the thread

  ShardWorker(const ShardWorker&) = delete;
  ShardWorker& operator=(const ShardWorker&) = delete;

  // Enqueues a job for the worker thread (thread-safe). Returns false —
  // shedding the job — when the queue is at max_queue_depth or the
  // worker is retiring; the caller gets a backoff hint (queue depth x
  // smoothed service time, clamped to ServeOptions::retry_after_max_ms)
  // in `*retry_after_ms` and must complete (and count) the response
  // itself.
  bool Submit(const ShardJob& job, double* retry_after_ms);

  // Admission against this shard as the request's owner (thread-safe):
  // copies the plan into `*hit` when it is cached (counting the hit and
  // bumping it in LRU order), and counts the request toward the GC-check
  // interval. Returns true when this request completes the interval; it
  // must then be submitted here with ShardJob::gc_check set.
  bool Admit(const PlanKey& key, PlanHit* hit);

  // Hands the GC check of a request that Admit made due but Submit shed
  // to this shard's next admission (thread-safe).
  void RearmGcCheck();

  // True when the worker is running, holds no job and has none queued
  // (thread-safe): the shard a hit can go to without waiting.
  bool idle() const;

  // This worker's row: the requests it answered, its retry hint and its
  // gauges (thread-safe). Service-wide counters live in the registry.
  ShardStats stats() const;

  // The shard's memory account (root of its managers' and plan cache's
  // accounting subtree); chains to the service governor when one is
  // configured. Byte reads are thread-safe.
  const MemAccount& mem_account() const { return account_; }

  // Adaptive hedge threshold for this shard: latency EWMA plus two
  // standard deviations (of the same smoothing window), clamped to
  // [floor_ms, 8 * floor_ms] so a cold or misbehaving estimate can
  // neither hedge instantly nor never. Thread-safe (supervisor reads it
  // each scan).
  double AdaptiveHedgeMs(double floor_ms) const;

  // --- Supervision surface (all thread-safe) ---

  // Progress counter stamped at every job phase; a busy worker whose
  // progress does not advance within the heartbeat window is hung.
  uint64_t progress() const {
    return progress_.load(std::memory_order_relaxed);
  }
  // True while a job is being processed (between dequeue and completion).
  bool busy() const { return busy_.load(std::memory_order_acquire); }
  // Jobs waiting in the shard queue right now (thread-safe; /statusz).
  size_t queue_depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size();
  }
  // True once the worker thread has returned — after a requested drain,
  // or unbidden (a death fault); the supervisor treats an exit it did
  // not request as a crash.
  bool exited() const { return exited_.load(std::memory_order_acquire); }

  // Begins teardown: marks the worker stopping (subsequent Submits
  // shed), steals every queued job into `*drained`, and reports the
  // in-flight job (state left null when idle). The caller fails the
  // stolen jobs typed; the worker thread exits once its current job —
  // if any — finishes or its budget is cancelled.
  void Retire(std::vector<ShardJob>* drained, ShardJob* in_flight);

  // Collects jobs submitted before `cutoff` that are still unclaimed and
  // not yet hedged, marking them hedged. Called by the supervisor.
  void CollectHedgeCandidates(std::chrono::steady_clock::time_point cutoff,
                              std::vector<std::shared_ptr<JobState>>* out);

  // Fault-injection hooks, to be called from a fault action running on
  // this worker's thread: make the worker thread exit before its next
  // job (abandoning the current one), or trip the budget of the compile
  // currently running on this thread (simulating budget exhaustion or
  // external cancellation mid-compile).
  static void RequestDeathOnCurrentThread();
  static void TripActiveBudgetOnCurrentThread(StatusCode code);

 private:
  // The account is declared before the manager so the manager is
  // destroyed first and releases its bytes into it. Heap-held (and the
  // pools are std::list, whose entries are never moved or re-assigned)
  // so the address the manager's structures charge through is stable —
  // and so no container operation can destroy an account while a live
  // manager still points at it.
  struct PooledObdd {
    std::vector<int> order;  // exact key: the manager's variable order
    std::unique_ptr<MemAccount> account;
    std::unique_ptr<ObddManager> manager;
    uint64_t last_used = 0;
  };
  struct PooledSdd {
    std::string vtree_key;  // exact key: serialized vtree structure
    std::unique_ptr<MemAccount> account;
    std::unique_ptr<SddManager> manager;
    uint64_t last_used = 0;
  };

  void Loop();
  void Process(const ShardJob& job);
  // Runs the GC policy if the job carries the owner's check, then
  // delivers `response` through the job's claim; on a win, records the
  // latency since `timer` started and counts the outcome.
  void FinishJob(const ShardJob& job, QueryResponse& response,
                 const Timer& timer);
  void Beat() { progress_.fetch_add(1, std::memory_order_relaxed); }
  // Compiles the request's plan, enforcing the compile budget/deadline
  // and running the degradation ladder: requested route first; on a
  // node-budget abort, the alternate route once with a fresh budget; then
  // the typed over-budget status. Deadline/cancel trips never retry.
  // Reports double-route budget exhaustion into the quarantine.
  StatusOr<CompiledPlan> CompilePlan(const ShardJob& job);
  // One budgeted compile on `route` (budget may be null = unbudgeted).
  // On abort the partial nodes are collected immediately and the
  // budget's typed status is returned.
  StatusOr<CompiledPlan> CompileRoute(const QueryRequest& request,
                                      PlanRoute route, const Circuit& circuit,
                                      std::vector<int> vars,
                                      WorkBudget* budget);
  // The request's probability from the plan's flat copy; a weight
  // outside [0, 1] fails typed instead of breaking the evaluator's
  // normalization contract.
  StatusOr<double> EvaluatePlan(const FlatDiagram& flat,
                                const QueryRequest& request);
  ObddManager* ObddFor(const std::vector<int>& order);
  SddManager* SddFor(Vtree vtree);
  // Ceiling enforcement (see file comment), after the shed ladder.
  void RunGcPolicy();
  // Memory-pressure shed ladder, run when the governor reports pressure:
  // shrink caches + collect every pooled manager (soft tier), then while
  // still critical evict whole LRU managers — manager destruction being
  // the only step that returns store/arena chunk bytes to the allocator —
  // and finally LRU plans.
  void RunMemPressureLadder();
  // Backoff hint attached to memory-pressure rejects.
  double MemRetryHintMs() const;
  // LRU manager eviction across both pools; false when both are empty.
  bool EvictLruManager();
  // GarbageCollect with the pause recorded into the service's GC pause
  // histogram and the reclaim counted.
  template <typename Manager>
  size_t TimedGc(Manager* manager);
  // Stores the managers' resident-node total (and its peak) for readers
  // on other threads; the managers themselves are single-threaded.
  void PublishLiveNodes();

  const int id_;
  const ServeOptions options_;
  obs::Histogram* const latency_us_;   // shared service histogram
  obs::Histogram* const gc_pause_us_;  // shared service histogram
  obs::FlightRecorder* const flight_;  // shared, may be null
  exec::TaskPool* const exec_pool_;    // shared, may be null
  Quarantine* const quarantine_;       // shared, may be null
  const ServeCounters* const counters_;  // shared
  PlanStatsRegistry* const plan_stats_;  // shared, may be null

  // Shard memory account: parent of the per-manager accounts and the
  // plan cache's charges; chains to the service governor (stamped into
  // options_.mem_governor). Declared before the pools and the plan
  // cache so everything releasing bytes into it is destroyed first.
  MemAccount account_;

  // Worker-thread state (no locking: only the worker touches it), except
  // the plan cache, which carries its own lock for admission lookups.
  std::list<PooledObdd> obdd_pool_;
  std::list<PooledSdd> sdd_pool_;
  PlanCache plans_;
  uint64_t use_clock_ = 0;
  // GC-check cadence, counted at admission (Admit) and adapted by the
  // worker (RunGcPolicy), both under gc_mu_. The interval is halved when
  // a check reclaims nodes or finds a manager over its ceiling, doubled
  // (up to 8x the configured interval) when a check finds nothing to do
  // — reclaim-rate feedback instead of a fixed period.
  std::mutex gc_mu_;
  int requests_since_gc_check_ = 0;
  int gc_interval_ = 1;
  // Set by CompilePlan when the compile it just ran was tripped by the
  // memory governor (worker-thread local; read by Process immediately
  // after the CompilePlan call).
  bool last_compile_mem_pressure_ = false;
  // Flight-record assembly for the request being processed (worker-
  // thread local): Process fills the identity and phase fields, TimedGc
  // accumulates pause time, FinishJob completes and appends it on a
  // claim win.
  obs::FlightRecord pending_record_;
  double request_gc_ms_ = 0;
  uint64_t bytes_at_request_start_ = 0;
  // Claim wins since the outlier bar was last refreshed from the
  // latency histogram.
  uint32_t wins_since_outlier_refresh_ = 0;
  // Written by the worker thread, read by Submit on client threads for
  // the retry-after hint.
  std::atomic<double> ewma_service_ms_{1.0};
  // Squared-deviation EWMA of the same latency stream (same 0.8/0.2
  // smoothing), read by the supervisor for the adaptive hedge threshold.
  std::atomic<double> ewma_var_ms2_{0.0};
  // Largest post-clamp retry hint handed out (client threads; CAS max).
  std::atomic<double> max_retry_hint_{0};
  // This worker's /statusz row: claim wins it answered and how many of
  // them failed, and the resident nodes PublishLiveNodes last saw.
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> failures_{0};
  std::atomic<int> live_nodes_{0};
  std::atomic<int> peak_live_nodes_{0};

  // Supervision heartbeats (see accessors above).
  std::atomic<uint64_t> progress_{0};
  std::atomic<bool> busy_{false};
  std::atomic<bool> exited_{false};

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<ShardJob> queue_;
  // In-flight job (guarded by mu_): set at dequeue, cleared after
  // completion; Retire reports it so the supervisor can fail it typed.
  std::shared_ptr<JobState> current_;
  bool current_is_hedge_ = false;
  bool stopping_ = false;
  std::thread thread_;
};

}  // namespace ctsdd

#endif  // CTSDD_SERVE_SHARD_H_
