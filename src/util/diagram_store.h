// One storage core under both decision-diagram managers.
//
// OBDDs are the linear-vtree special case of SDDs (Section 3.2.2 of the
// paper), and the two managers share everything below their apply
// algorithms: a node store, a unique table, node-id allocation with GC
// recycling, external root references, budget leases, memory-governor
// admission and the mark/sweep collector. DiagramStore<Node, Traits> is
// that layer, written once; ObddManager and SddManager each own one and
// keep only their apply, ITE, n-ary, cache and WMC code.
//
// Ids and slots. Ids 0 and 1 are the two terminals, pushed first by the
// manager and never freed. Every allocation goes through a *slot*: slot 0
// is the sequential path, and slot 1 + p is pool slot p inside a parallel
// region. A slot's cursor holds its claimed id block, its batch of
// GC-recycled ids and its budget lease, so workers never contend on
// allocation except for one fetch_add per block and one spin-locked
// free-list refill per batch. When a region ends, unused block tails and
// batches go back onto the free list, dead-marked, so recycled ids are
// reused by the next allocation on any path and stay invisible to GC.
//
// Memory lifecycle. The store never frees nodes on its own: canonicity
// requires every reachable node to stay in the unique table, and the
// store cannot see which ids a caller still holds. Callers register the
// roots they care about (AddRootRef, ref-counted: k adds need k
// releases); Collect() then marks from the terminals, the manager's
// permanent roots and the registered roots, sweeps every unreachable
// node onto the free list, and rebuilds the unique table over the
// survivors. Live ids never change, so held ids of protected roots (and
// everything they reach) stay valid, and recompiling a collected
// function reproduces pointer-identical ids for every surviving
// subgraph. The manager's computed caches name freed ids and must be
// invalidated in the sweep callback; that only costs recomputation.
//
// Budgets and cancellation. While a WorkBudget is attached, every node
// allocation is charged to it through the slot's lease: the shared
// budget atomic is touched once per lease chunk, not once per node.
// Sequential charges may be denied (the manager then unwinds with its
// kAborted sentinel before allocating); charges inside a region never
// deny, so a worker that loses the refill race still allocates and the
// overshoot stays bounded by the number of in-flight workers. Attach and
// detach outside operations and parallel regions. With no budget the
// allocation path pays one predictable branch; the refill stays out of
// line because inlining it (atomics, clock reads) into the managers'
// node constructors measurably slows the layered compilers.
//
// Memory accounting. AttachMemAccount charges the node store and unique
// table to the account, transferring resident bytes (the manager
// attaches its caches and memos alongside). When the account chains to
// an enabled MemGovernor and a budget is attached, every lease refill is
// an enforcement point: a refill whose worst-case allocation burst no
// longer fits under the hard watermark trips the budget typed
// RESOURCE_EXHAUSTED with the memory-pressure marker *before*
// allocating, so accounted bytes never cross the ceiling. Debug builds
// assert after every collection that the account equals the manager's
// recomputed bytes.
//
// Traits describes the node type to the store:
//   static Node Dead();                  // the freed-slot sentinel
//   static bool IsDead(const Node&);
//   static void ForEachChild(const Node&, F f);   // f(NodeId) per child
//   static bool HashConsed(const Node&);  // held by the unique table
//   static uint64_t Hash(const Node&);    // its unique-table hash

#ifndef CTSDD_UTIL_DIAGRAM_STORE_H_
#define CTSDD_UTIL_DIAGRAM_STORE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "exec/task_pool.h"
#include "obs/trace.h"
#include "util/budget.h"
#include "util/logging.h"
#include "util/mem_governor.h"
#include "util/node_store.h"
#include "util/spinlock.h"
#include "util/status.h"
#include "util/unique_table.h"

namespace ctsdd {

struct GcStats {
  uint64_t runs = 0;       // collections run
  uint64_t reclaimed = 0;  // nodes freed across all runs
};

// The node-type-independent half of DiagramStore; its slow paths live in
// diagram_store.cc.
class DiagramStoreBase {
 public:
  using NodeId = int;

  // Ids per block claim inside a parallel region.
  static constexpr size_t kAllocBlock = 128;
  // Slack in the admission burst for fixed-size mandatory allocations a
  // lease can trigger: node-store and arena chunks, lazy memo-shard
  // arrays across all stripes, and the computed caches' floor arrays.
  static constexpr uint64_t kMemBurstSlack = 1u << 20;

  DiagramStoreBase() : cursors_(1) {}
  DiagramStoreBase(const DiagramStoreBase&) = delete;
  DiagramStoreBase& operator=(const DiagramStoreBase&) = delete;

  UniqueTable& unique() { return unique_; }
  const UniqueTable& unique() const { return unique_; }

  // --- Budget --------------------------------------------------------------
  void AttachBudget(WorkBudget* budget);
  WorkBudget* budget() const { return budget_; }
  // Charges one node allocation on `slot`'s lease. A budget must be
  // attached, and slots >= 1 exist once a region has opened them. False
  // when the budget denies (tripped, exhausted, or the governor refused
  // the lease's burst); region callers ignore a denial.
  bool Charge(size_t slot) {
    Cursor& cursor = cursors_[slot];
    if (cursor.lease == 0 && !RefillLease(cursor)) return false;
    --cursor.lease;
    return true;
  }

  MemAccount* mem_account() const { return mem_account_; }

  // --- Parallel regions ----------------------------------------------------
  // Opens slots 1..worker_slots for AllocIn. Regions do not nest, and GC,
  // budget and account attachment are refused while one is open.
  void BeginRegion(size_t worker_slots);
  bool in_region() const { return in_region_; }

  // --- Roots ---------------------------------------------------------------
  // Drops one reference added by AddRootRef. Terminals need none.
  void ReleaseRootRef(NodeId id);
  const GcStats& gc_stats() const { return gc_stats_; }

 protected:
  struct Cursor {
    size_t next = 0;  // claimed id block [next, end)
    size_t end = 0;
    std::vector<NodeId> recycled;  // batch taken from the free list
    uint32_t lease = 0;            // pre-charged allocations left
  };

  void SetMemAccount(MemAccount* account);
  // Moves up to kAllocBlock ids from the free list into the cursor's
  // batch; false when the free list is empty.
  bool TakeRecycled(Cursor& cursor);
  // Governor admission, then the shared-atomic lease acquisition.
  bool RefillLease(Cursor& cursor);
  // Deny-before-allocate: asks the governor for headroom covering one
  // lease's worst-case burst and trips the budget on denial.
  bool AdmitMemGrowth();

  UniqueTable unique_;
  std::vector<Cursor> cursors_;  // [0] sequential, [1 + p] pool slot p
  bool in_region_ = false;
  std::vector<NodeId> free_ids_;
  // Guards free_ids_ inside regions only; sequential access is ordered by
  // the region bracket.
  SpinLock free_ids_lock_;
  std::vector<int32_t> root_refs_;  // by id, grown lazily
  GcStats gc_stats_;
  WorkBudget* budget_ = nullptr;
  uint32_t lease_chunk_ = 0;
  // The governor is resolved once at attach so refills pay loads, not a
  // parent walk.
  MemAccount* mem_account_ = nullptr;
  MemGovernor* mem_governor_ = nullptr;
};

template <typename Node, typename Traits>
class DiagramStore : public DiagramStoreBase {
 public:
  Node& operator[](NodeId id) { return nodes_[id]; }
  const Node& operator[](NodeId id) const { return nodes_[id]; }
  // Slots ever created, terminals and free slots included.
  size_t size() const { return nodes_.size(); }
  // Slots minus the free list.
  size_t NumLive() const { return nodes_.size() - free_ids_.size(); }
  size_t MemoryBytes() const {
    return nodes_.MemoryBytes() + unique_.MemoryBytes();
  }

  void AttachMemAccount(MemAccount* account) {
    SetMemAccount(account);
    nodes_.SetMemAccount(account);
  }

  // Sequential allocation: reuses the most recently freed id, else appends.
  NodeId Alloc(const Node& node) {
    NodeId id;
    if (!free_ids_.empty()) {
      id = free_ids_.back();
      free_ids_.pop_back();
      nodes_[id] = node;
    } else {
      id = static_cast<NodeId>(nodes_.PushBack(node));
    }
    return id;
  }

  // Allocation on `slot` (>= 1) inside a region: the slot's recycled
  // batch first, then a refill from the free list, then a fresh block.
  // Without the free-list refill every parallel compile would grow the
  // store past what collection can ever reclaim.
  NodeId AllocIn(size_t slot, const Node& node) {
    Cursor& cursor = cursors_[slot];
    if (cursor.recycled.empty() && cursor.next == cursor.end &&
        !TakeRecycled(cursor)) {
      cursor.next = nodes_.ClaimBlock(kAllocBlock);
      cursor.end = cursor.next + kAllocBlock;
    }
    NodeId id;
    if (!cursor.recycled.empty()) {
      id = cursor.recycled.back();
      cursor.recycled.pop_back();
    } else {
      id = static_cast<NodeId>(cursor.next++);
    }
    nodes_[id] = node;
    return id;
  }

  // Closes the region: unused block tails are dead-marked and, with the
  // unused recycled ids, go back onto the free list. Leases persist.
  void EndRegion() {
    CTSDD_CHECK(in_region_);
    in_region_ = false;
    for (Cursor& cursor : cursors_) {
      for (size_t id = cursor.next; id < cursor.end; ++id) {
        nodes_[id] = Traits::Dead();
        free_ids_.push_back(static_cast<NodeId>(id));
      }
      free_ids_.insert(free_ids_.end(), cursor.recycled.begin(),
                       cursor.recycled.end());
      cursor.next = cursor.end = 0;
      cursor.recycled.clear();
    }
  }

  // Registers `id` as an external root (ref-counted). Terminals need none.
  void AddRootRef(NodeId id) {
    if (id <= 1) return;
    CTSDD_CHECK(!Traits::IsDead(nodes_[id])) << "AddRootRef on a freed node";
    if (root_refs_.size() < nodes_.size()) {
      root_refs_.resize(nodes_.size(), 0);
    }
    ++root_refs_[id];
  }

  // Free-list integrity: every listed id is an in-range, dead-marked,
  // non-terminal slot listed once, and every dead slot is listed.
  Status Validate() const {
    const size_t n = nodes_.size();
    std::vector<bool> listed(n, false);
    for (const NodeId id : free_ids_) {
      if (id < 2 || static_cast<size_t>(id) >= n) {
        return Status::Internal("free-list id out of range");
      }
      if (!Traits::IsDead(nodes_[id])) {
        return Status::Internal("free-list id not dead-marked");
      }
      if (listed[id]) return Status::Internal("free-list id listed twice");
      listed[id] = true;
    }
    for (size_t id = 2; id < n; ++id) {
      if (Traits::IsDead(nodes_[id]) && !listed[id]) {
        return Status::Internal("dead node missing from the free list");
      }
    }
    return Status::Ok();
  }

  // Mark-from-roots collection; returns the number of nodes reclaimed.
  // Marks from the terminals, `permanent_roots` and every registered
  // root — as one exec task per root on a parallel `pool`, so a cold
  // compile on another shard overlaps the pause instead of serializing
  // behind it. Then sweeps: `on_free(id, node)` sees each unreachable
  // node before it is dead-marked and free-listed, and the unique table
  // is rebuilt over the survivors (open addressing cannot delete in
  // place). `after_sweep()` invalidates whatever names freed ids;
  // `memory_bytes()` is the manager's recomputed byte count, checked
  // against the account in debug builds. `trace_name` names the span.
  template <typename OnFree, typename AfterSweep, typename MemoryBytesFn>
  size_t Collect(const char* trace_name, exec::TaskPool* pool,
                 std::span<const NodeId> permanent_roots, OnFree&& on_free,
                 AfterSweep&& after_sweep,
                 [[maybe_unused]] MemoryBytesFn&& memory_bytes) {
    CTSDD_CHECK(!in_region_) << "GC inside a parallel region";
    obs::TraceSpan gc_span("gc", trace_name);
    ++gc_stats_.runs;
    std::vector<uint8_t> marked(nodes_.size(), 0);
    marked[0] = marked[1] = 1;
    std::vector<NodeId> roots(permanent_roots.begin(), permanent_roots.end());
    for (size_t id = 0; id < root_refs_.size(); ++id) {
      if (root_refs_[id] > 0) roots.push_back(static_cast<NodeId>(id));
    }
    Mark(pool, std::move(roots), marked);
    size_t live = 0;
    for (size_t id = 2; id < nodes_.size(); ++id) {
      if (marked[id] && Traits::HashConsed(nodes_[id])) ++live;
    }
    unique_.Clear(live);
    size_t reclaimed = 0;
    for (size_t id = 2; id < nodes_.size(); ++id) {
      Node& node = nodes_[id];
      if (Traits::IsDead(node)) continue;  // already on the free list
      if (!marked[id]) {
        on_free(static_cast<NodeId>(id), node);
        node = Traits::Dead();
        free_ids_.push_back(static_cast<NodeId>(id));
        ++reclaimed;
      } else if (Traits::HashConsed(node)) {
        unique_.Insert(Traits::Hash(node), static_cast<int32_t>(id));
      }
    }
    after_sweep();
    gc_stats_.reclaimed += reclaimed;
#ifndef NDEBUG
    // GC is a quiescent point: the rolled-up account must agree with the
    // recomputed per-structure bytes exactly, or accounting has drifted.
    if (mem_account_ != nullptr) {
      CTSDD_CHECK_EQ(mem_account_->bytes(),
                     static_cast<uint64_t>(memory_bytes()))
          << trace_name << ": memory accounting drift after GC";
    }
#endif
    gc_span.AddArg("reclaimed", reclaimed);
    return reclaimed;
  }

 private:
  void Mark(exec::TaskPool* pool, std::vector<NodeId> roots,
            std::vector<uint8_t>& marked) const {
    if (pool != nullptr && pool->parallel() && roots.size() > 1) {
      // A relaxed atomic exchange claims each node, so subgraphs shared
      // between roots are traversed once.
      exec::ParallelFor(pool, roots.size(), [&](size_t i) {
        std::vector<NodeId> stack{roots[i]};
        while (!stack.empty()) {
          const NodeId u = stack.back();
          stack.pop_back();
          if (std::atomic_ref<uint8_t>(marked[u]).exchange(
                  1, std::memory_order_relaxed)) {
            continue;
          }
          Traits::ForEachChild(nodes_[u],
                               [&](NodeId c) { stack.push_back(c); });
        }
      });
      return;
    }
    std::vector<NodeId> stack = std::move(roots);
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      if (marked[u]) continue;
      marked[u] = 1;
      Traits::ForEachChild(nodes_[u], [&](NodeId c) { stack.push_back(c); });
    }
  }

  NodeStore<Node> nodes_;
};

}  // namespace ctsdd

#endif  // CTSDD_UTIL_DIAGRAM_STORE_H_
