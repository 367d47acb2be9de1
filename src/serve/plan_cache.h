// Bounded LRU cache of compiled query plans.
//
// A plan is the reusable product of one (query, database, strategy)
// compilation: the rooted OBDD or SDD lineage inside a pooled manager,
// pinned against garbage collection via the manager's external-root
// refs, plus its flattened copy (util/flat_diagram.h) that answers every
// request for it. Repeats — including weight-varied repeats — skip
// recompilation entirely and pay only one linear pass over the flat copy.
//
// Threading: each shard owns one cache (see serve/shard.h), and a mutex
// inside guards every method. Only the owning shard's thread inserts and
// evicts; admission threads look plans up (LookupHit) and copy the flat
// copy out under the lock, so a hit can be answered by any shard. A plan
// pointer returned by Lookup or Insert therefore stays valid on the
// owning thread until that thread's next Insert/Evict*/EraseIf.
//
// Capacity is bounded with LRU eviction. Eviction runs the owner's
// callback so the plan's root refs are released before the entry is
// destroyed — that is what turns an evicted plan's nodes into garbage
// the next collection can reclaim. A flat copy still held by a hit in
// flight lives on until that hit is answered.

#ifndef CTSDD_SERVE_PLAN_CACHE_H_
#define CTSDD_SERVE_PLAN_CACHE_H_

#include <cstdint>
#include <functional>
#include <iterator>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "db/query_compile.h"
#include "obdd/obdd.h"
#include "sdd/sdd.h"
#include "serve/plan_stats.h"
#include "serve/serve_stats.h"
#include "util/flat_diagram.h"
#include "util/hashing.h"
#include "util/mem_governor.h"

namespace ctsdd {

// Which decision-diagram route a plan was compiled through.
enum class PlanRoute : uint8_t { kObdd, kSdd };

struct PlanKey {
  uint64_t query_sig = 0;
  uint64_t db_sig = 0;
  VtreeStrategy strategy = VtreeStrategy::kBalanced;
  PlanRoute route = PlanRoute::kSdd;
  bool operator==(const PlanKey&) const = default;
};

struct PlanKeyHash {
  size_t operator()(const PlanKey& k) const {
    return static_cast<size_t>(
        Hash3(k.query_sig, k.db_sig,
              (static_cast<uint64_t>(k.strategy) << 8) |
                  static_cast<uint64_t>(k.route)));
  }
};

// What answering a request needs from a cached plan. Nothing in it points
// into the owner's managers, so any shard can serve it, even after the
// owner evicted the plan and collected its nodes.
struct PlanHit {
  std::shared_ptr<const FlatDiagram> flat;  // null: no plan
  std::shared_ptr<PlanStats> stats;         // may be null (tests)
  PlanRoute route = PlanRoute::kSdd;
  int lineage_gates = 0;
};

struct CompiledPlan {
  PlanRoute route = PlanRoute::kSdd;
  // Exactly one manager pointer is set for non-constant lineages; the
  // pointed-to manager is owned by the shard's pool and outlives the
  // plan (plan eviction precedes manager eviction).
  ObddManager* obdd = nullptr;
  ObddManager::NodeId obdd_root = 0;
  SddManager* sdd = nullptr;
  SddManager::NodeId sdd_root = 0;
  // Sorted lineage variables (tuple ids); doubles as the OBDD order.
  std::vector<int> vars;
  // Constant lineage (no variables): the fixed truth value.
  bool is_constant = false;
  bool constant_value = false;
  // The plan flattened at compile time (a constant diagram for constant
  // lineages); every request for the plan is answered from it, and its
  // size() and width() are the ones responses report.
  std::shared_ptr<const FlatDiagram> flat;
  int lineage_gates = 0;
  // Nodes this plan pins in its manager while cached (reachable internal
  // OBDD nodes / SDD decision nodes from the pinned root). The GC policy
  // uses it to target eviction at the manager actually over its
  // resident-node ceiling instead of shedding in global LRU order.
  int pinned_nodes = 0;
  // Per-plan telemetry, shared with the PlanStatsRegistry live table so
  // the debug server reads it without taking this cache's lock. Null
  // only for plans built before telemetry wiring (tests).
  std::shared_ptr<PlanStats> stats;

  PlanHit Hit() const { return {flat, stats, route, lineage_gates}; }
};

class PlanCache {
 public:
  // `on_evict` runs for every entry leaving the cache (LRU pressure,
  // EvictOne, EraseIf) — the owner releases the plan's root refs there.
  using EvictFn = std::function<void(const PlanKey&, CompiledPlan&)>;

  // Capacity 0 is clamped to 1: Insert must return a resident plan for
  // the request being served, so "cache nothing" still holds the newest
  // entry (and silently-unbounded would defeat the subsystem). Hits,
  // misses and evictions are counted on `counters` (may be null).
  PlanCache(size_t capacity, EvictFn on_evict,
            const ServeCounters* counters = nullptr)
      : capacity_(capacity == 0 ? 1 : capacity),
        on_evict_(std::move(on_evict)),
        counters_(counters) {}
  ~PlanCache() {
    // Teardown drops the plans without counting them as evictions.
    counters_ = nullptr;
    EraseIf([](const CompiledPlan&) { return true; });
  }

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  // Attaches the governor account; entry overhead (the entry itself, the
  // plan's variable list and its flat copy) is charged under
  // MemLayer::kPlanCache at Insert and released at eviction. The pinned diagram nodes themselves
  // are store/arena bytes of the owning manager's account, not counted
  // here (no double-charging). Attach before the first Insert.
  void SetMemAccount(MemAccount* account) { account_ = account; }

  size_t MemoryBytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return charged_bytes_;
  }

  // Returns the cached plan (bumped to most-recently-used) or nullptr,
  // counting a hit or a miss. Owning thread only (see the file comment).
  CompiledPlan* Lookup(const PlanKey& key) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(key);
    if (it == index_.end()) {
      if (counters_ != nullptr) counters_->plan_misses->Add();
      return nullptr;
    }
    if (counters_ != nullptr) counters_->plan_hits->Add();
    entries_.splice(entries_.begin(), entries_, it->second);
    return &entries_.front().second;
  }

  // Admission-side lookup, safe on any thread: when `key` is cached,
  // counts a hit, bumps it to most-recently-used and runs `on_hit` on the
  // plan under the lock; returns false and counts nothing otherwise (the
  // owner's Lookup counts the miss when it takes the request).
  template <typename F>
  bool LookupHit(const PlanKey& key, F&& on_hit) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(key);
    if (it == index_.end()) return false;
    if (counters_ != nullptr) counters_->plan_hits->Add();
    entries_.splice(entries_.begin(), entries_, it->second);
    on_hit(static_cast<const CompiledPlan&>(entries_.front().second));
    return true;
  }

  // Inserts (the key must not be present — callers Lookup first) and
  // returns the resident plan, evicting LRU entries past capacity.
  CompiledPlan* Insert(const PlanKey& key, CompiledPlan plan) {
    std::lock_guard<std::mutex> lock(mu_);
    while (entries_.size() >= capacity_) Erase(std::prev(entries_.end()));
    entries_.emplace_front(key, std::move(plan));
    index_.emplace(key, entries_.begin());
    ChargeEntry(entries_.front().second, +1);
    return &entries_.front().second;
  }

  // Evicts the least-recently-used entry; false when empty. Shards call
  // this under memory pressure.
  bool EvictOne() {
    return EvictOneMatching([](const CompiledPlan&) { return true; });
  }

  // Evicts the least-recently-used entry for which `pred` holds; false
  // when none matches. The GC policy uses this to shed plans pinned in
  // the one manager over its resident-node ceiling, preserving every
  // other manager's cached plans (LRU order still decides *which* of the
  // matching plans goes).
  template <typename Pred>
  bool EvictOneMatching(Pred&& pred) {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
      if (!pred(static_cast<const CompiledPlan&>(it->second))) continue;
      Erase(std::prev(it.base()));
      return true;
    }
    return false;
  }

  // Total pinned_nodes over cached plans for which `pred` holds — the
  // per-manager pinned-node accounting behind the eviction policy.
  template <typename Pred>
  int PinnedNodesMatching(Pred&& pred) const {
    std::lock_guard<std::mutex> lock(mu_);
    int total = 0;
    for (const auto& [key, plan] : entries_) {
      if (pred(static_cast<const CompiledPlan&>(plan))) {
        total += plan.pinned_nodes;
      }
    }
    return total;
  }

  // Evicts every plan for which `pred` holds (e.g. all plans inside a
  // manager about to be destroyed).
  template <typename Pred>
  void EraseIf(Pred&& pred) {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (pred(static_cast<const CompiledPlan&>(it->second))) {
        it = Erase(it);
      } else {
        ++it;
      }
    }
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }

 private:
  using Entries = std::list<std::pair<PlanKey, CompiledPlan>>;

  // Heap overhead of one cached entry: the list node payload, the plan's
  // variable list, its flat copy and its stats block (dominated by the
  // inline histogram). Computed identically at insert and evict (the
  // plan is immutable while cached), so charges round-trip exactly.
  static size_t EntryBytes(const CompiledPlan& plan) {
    return sizeof(std::pair<PlanKey, CompiledPlan>) +
           plan.vars.capacity() * sizeof(int) +
           (plan.flat != nullptr ? plan.flat->MemoryBytes() : 0) +
           (plan.stats != nullptr ? sizeof(PlanStats) : 0);
  }

  // Evicts one entry (lock held); returns the entry after it.
  Entries::iterator Erase(Entries::iterator it) {
    if (on_evict_) on_evict_(it->first, it->second);
    ChargeEntry(it->second, -1);
    index_.erase(it->first);
    if (counters_ != nullptr) counters_->plan_evictions->Add();
    return entries_.erase(it);
  }

  void ChargeEntry(const CompiledPlan& plan, int sign) {
    const size_t bytes = EntryBytes(plan);
    if (sign > 0) {
      charged_bytes_ += bytes;
    } else {
      charged_bytes_ -= bytes;
    }
    if (account_ != nullptr) {
      account_->Charge(MemLayer::kPlanCache,
                       sign * static_cast<int64_t>(bytes));
    }
  }

  mutable std::mutex mu_;
  size_t capacity_;
  EvictFn on_evict_;
  const ServeCounters* counters_;
  MemAccount* account_ = nullptr;
  size_t charged_bytes_ = 0;
  // MRU-first entry list + key index (classic LRU layout; list iterators
  // stay valid across splice, so the index never goes stale).
  Entries entries_;
  std::unordered_map<PlanKey, Entries::iterator, PlanKeyHash> index_;
};

}  // namespace ctsdd

#endif  // CTSDD_SERVE_PLAN_CACHE_H_
