// Poison-query quarantine: a bounded negative cache over query
// signatures whose compiles exhaust the node budget on BOTH degradation-
// ladder routes, again and again. Re-admitting such a signature burns a
// full ladder compile (the most expensive failure the service has) every
// time, so after `threshold` strikes the signature fails typed
// RESOURCE_EXHAUSTED at admission without touching a shard.
//
// Two forgiveness mechanisms keep transient pressure from blacklisting
// forever:
//   - Pre-quarantine strikes decay: halved for every parole interval
//     that passes without a new strike, so a signature that exhausted the
//     budget once during a load spike is forgotten.
//   - Parole: after `parole_ms` in quarantine exactly one trial request
//     is admitted (concurrent requests keep failing fast). A clean
//     compile clears the entry entirely — the plan is now cached and
//     repeats are hits. Another double-route exhaustion doubles the
//     parole interval, up to `parole_max_ms` (exponential backoff on
//     genuinely poisonous queries).
//
// The quarantine is owned by the QueryService, not by any worker: it
// must survive shard restarts, otherwise every restart would reset the
// strike count and a supervisor-heavy chaos stream would re-pay
// `threshold` compiles per restart. All methods are thread-safe (one
// mutex; admission is a hash-map probe). Rejects, strikes and paroles are
// counted on the service's shared ServeCounters.

#ifndef CTSDD_SERVE_QUARANTINE_H_
#define CTSDD_SERVE_QUARANTINE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "serve/serve_stats.h"
#include "util/hashing.h"

namespace ctsdd {

class Quarantine {
 public:
  struct Options {
    int threshold = 0;  // strikes before quarantine; 0 disables
    double parole_ms = 1000;
    double parole_max_ms = 60000;
    size_t capacity = 1024;
    // A parole trial that neither succeeds nor strikes within this long
    // (its worker died mid-compile) releases the trial slot.
    double trial_timeout_ms = 10000;
  };

  enum class Admission { kAdmit, kTrial, kReject };

  Quarantine(Options options, const ServeCounters* counters)
      : options_(options), counters_(counters) {}

  bool enabled() const { return options_.threshold > 0; }

  // Admission check for one request keyed by (query_sig, db_sig). On
  // kReject, `*retry_after_ms` is the time until the next parole window.
  Admission Admit(uint64_t query_sig, uint64_t db_sig,
                  std::chrono::steady_clock::time_point now,
                  double* retry_after_ms) {
    if (!enabled()) return Admission::kAdmit;
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(Hash2(query_sig, db_sig));
    if (it == map_.end()) return Admission::kAdmit;
    Entry& e = it->second;
    Decay(e, now);
    if (e.strikes <= 0) {
      map_.erase(it);
      return Admission::kAdmit;
    }
    if (e.strikes < options_.threshold) return Admission::kAdmit;
    if (e.trial_in_flight &&
        SinceMs(e.trial_started, now) < options_.trial_timeout_ms) {
      counters_->quarantine_rejects->Add();
      if (retry_after_ms != nullptr) {
        *retry_after_ms = options_.parole_ms;
      }
      return Admission::kReject;
    }
    if (now >= e.parole_until) {
      e.trial_in_flight = true;
      e.trial_started = now;
      counters_->parole_trials->Add();
      return Admission::kTrial;
    }
    counters_->quarantine_rejects->Add();
    if (retry_after_ms != nullptr) {
      *retry_after_ms = std::max(
          0.1, std::chrono::duration<double, std::milli>(e.parole_until - now)
                   .count());
    }
    return Admission::kReject;
  }

  // Probe used by workers immediately before a cold compile: true when
  // the signature is quarantined and not due for parole, so a job that
  // was admitted before its signature crossed the threshold (or that
  // survived a shard restart) still cannot buy poison a fresh compile.
  // Unlike Admit, never starts a parole trial, and does not count a
  // reject (the worker counts the failed request; counting here too would
  // double-book it).
  bool Rejects(uint64_t query_sig, uint64_t db_sig,
               std::chrono::steady_clock::time_point now) const {
    if (!enabled()) return false;
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(Hash2(query_sig, db_sig));
    if (it == map_.end()) return false;
    const Entry& e = it->second;
    if (e.strikes < options_.threshold) return false;
    if (e.trial_in_flight &&
        SinceMs(e.trial_started, now) < options_.trial_timeout_ms) {
      return true;
    }
    return now < e.parole_until;
  }

  // A compile of this signature exhausted the budget on both ladder
  // routes — the only event that counts as poison (deadline and cancel
  // trips are the client's or the supervisor's doing, not the query's).
  void ReportExhausted(uint64_t query_sig, uint64_t db_sig,
                       std::chrono::steady_clock::time_point now) {
    if (!enabled()) return;
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t key = Hash2(query_sig, db_sig);
    auto it = map_.find(key);
    if (it == map_.end()) {
      if (map_.size() >= options_.capacity) EvictOldestLocked();
      it = map_.emplace(key, Entry{}).first;
    }
    Entry& e = it->second;
    Decay(e, now);
    counters_->quarantine_strikes->Add();
    e.last_strike = now;
    if (e.trial_in_flight) {
      // Failed parole: back off exponentially.
      e.trial_in_flight = false;
      ++e.failed_paroles;
      e.strikes = std::max(e.strikes, options_.threshold);
      e.parole_until = now + MsToDuration(std::min(
                                 options_.parole_ms *
                                     static_cast<double>(uint64_t{1}
                                                         << std::min(
                                                                e.failed_paroles,
                                                                20)),
                                 options_.parole_max_ms));
      return;
    }
    ++e.strikes;
    if (e.strikes >= options_.threshold && e.parole_until.time_since_epoch() ==
                                               Duration::zero()) {
      e.parole_until = now + MsToDuration(options_.parole_ms);
    }
  }

  // A compile of this signature succeeded: full forgiveness (the plan is
  // cached now; keeping stale strikes around would only delay repeats).
  void ReportSuccess(uint64_t query_sig, uint64_t db_sig) {
    if (!enabled()) return;
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(Hash2(query_sig, db_sig));
    if (it == map_.end()) return;
    if (it->second.trial_in_flight) counters_->parole_successes->Add();
    map_.erase(it);
  }

  // Signatures currently tracked (struck or quarantined).
  size_t entries() const {
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
  }

 private:
  using Clock = std::chrono::steady_clock;
  using Duration = Clock::duration;

  struct Entry {
    int strikes = 0;
    int failed_paroles = 0;
    Clock::time_point last_strike;
    Clock::time_point parole_until;  // epoch = not quarantined yet
    bool trial_in_flight = false;
    Clock::time_point trial_started;
  };

  static Duration MsToDuration(double ms) {
    return std::chrono::duration_cast<Duration>(
        std::chrono::duration<double, std::milli>(ms));
  }

  static double SinceMs(Clock::time_point then, Clock::time_point now) {
    return std::chrono::duration<double, std::milli>(now - then).count();
  }

  // Exponential strike decay for entries below the quarantine threshold:
  // one halving per parole interval since the last strike. Quarantined
  // entries do not decay — their only way out is a parole trial, so the
  // "at most threshold compiles" bound holds for permanent poison.
  void Decay(Entry& e, Clock::time_point now) {
    if (e.strikes >= options_.threshold || e.strikes <= 0) return;
    const double elapsed = SinceMs(e.last_strike, now);
    const int halvings =
        static_cast<int>(elapsed / std::max(options_.parole_ms, 1.0));
    if (halvings <= 0) return;
    e.strikes >>= std::min(halvings, 30);
    e.last_strike = now;
  }

  void EvictOldestLocked() {
    auto victim = map_.begin();
    for (auto it = map_.begin(); it != map_.end(); ++it) {
      if (it->second.last_strike < victim->second.last_strike) victim = it;
    }
    if (victim != map_.end()) map_.erase(victim);
  }

  const Options options_;
  const ServeCounters* const counters_;
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, Entry> map_;
};

}  // namespace ctsdd

#endif  // CTSDD_SERVE_QUARANTINE_H_
