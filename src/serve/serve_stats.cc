#include "serve/serve_stats.h"

namespace ctsdd {

ServeCounters::ServeCounters(obs::MetricsRegistry* registry)
    : requests(registry->GetCounter("serve.requests")),
      failures(registry->GetCounter("serve.failures")),
      timeouts(registry->GetCounter("serve.timeouts")),
      sheds(registry->GetCounter("serve.sheds")),
      fallbacks(registry->GetCounter("serve.fallbacks")),
      budget_aborts(registry->GetCounter("serve.budget_aborts")),
      duplicate_skips(registry->GetCounter("serve.duplicate_skips")),
      compiles(registry->GetCounter("serve.compiles")),
      mem_rejects(registry->GetCounter("serve.mem_rejects")),
      mem_aborts(registry->GetCounter("serve.mem_aborts")),
      rejected_memory(registry->GetCounter("serve.rejected_memory")),
      rejected_quarantine(registry->GetCounter("serve.rejected_quarantine")),
      plan_hits(registry->GetCounter("plan_cache.hits")),
      plan_misses(registry->GetCounter("plan_cache.misses")),
      plan_evictions(registry->GetCounter("plan_cache.evictions")),
      manager_evictions(registry->GetCounter("plan_cache.manager_evictions")),
      pressure_evictions(
          registry->GetCounter("plan_cache.pressure_evictions")),
      gc_runs(registry->GetCounter("gc.runs")),
      gc_reclaimed(registry->GetCounter("gc.reclaimed_nodes")),
      hangs_detected(registry->GetCounter("supervision.hangs_detected")),
      deaths_detected(registry->GetCounter("supervision.deaths_detected")),
      shard_restarts(registry->GetCounter("supervision.shard_restarts")),
      failed_on_restart(
          registry->GetCounter("supervision.failed_on_restart")),
      hedges_dispatched(
          registry->GetCounter("supervision.hedges_dispatched")),
      hedge_sheds(registry->GetCounter("supervision.hedge_sheds")),
      hedge_wins(registry->GetCounter("supervision.hedge_wins")),
      hedge_cancels(registry->GetCounter("supervision.hedge_cancels")),
      quarantine_rejects(registry->GetCounter("quarantine.rejects")),
      quarantine_strikes(registry->GetCounter("quarantine.strikes")),
      parole_trials(registry->GetCounter("quarantine.parole_trials")),
      parole_successes(registry->GetCounter("quarantine.parole_successes")) {}

void ServeCounters::Read(ServiceStats* out) const {
  ShardStats& t = out->totals;
  t.requests = requests->value();
  t.failures = failures->value();
  t.timeouts = timeouts->value();
  t.sheds = sheds->value();
  t.fallbacks = fallbacks->value();
  t.budget_aborts = budget_aborts->value();
  t.duplicate_skips = duplicate_skips->value();
  t.compiles = compiles->value();
  t.mem_rejects = mem_rejects->value();
  t.mem_aborts = mem_aborts->value();
  t.plan_hits = plan_hits->value();
  t.plan_misses = plan_misses->value();
  t.plan_evictions = plan_evictions->value();
  t.manager_evictions = manager_evictions->value();
  t.pressure_evictions = pressure_evictions->value();
  t.gc_runs = gc_runs->value();
  t.gc_reclaimed = gc_reclaimed->value();
  out->rejected_memory = rejected_memory->value();
  out->rejected_quarantine = rejected_quarantine->value();
  SupervisionStats& s = out->supervision;
  s.hangs_detected = hangs_detected->value();
  s.deaths_detected = deaths_detected->value();
  s.shard_restarts = shard_restarts->value();
  s.failed_on_restart = failed_on_restart->value();
  s.hedges_dispatched = hedges_dispatched->value();
  s.hedge_sheds = hedge_sheds->value();
  s.hedge_wins = hedge_wins->value();
  s.hedge_cancels = hedge_cancels->value();
  s.quarantine_rejects = quarantine_rejects->value();
  s.quarantine_strikes = quarantine_strikes->value();
  s.parole_trials = parole_trials->value();
  s.parole_successes = parole_successes->value();
}

}  // namespace ctsdd
