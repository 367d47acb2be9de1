// A reduced ordered binary decision diagram (OBDD) package with a shared
// unique table, apply/ite with memoization, model counting, and weighted
// model counting (the probability computation of Section 1).
//
// OBDDs are the linear-vtree special case of SDDs (Section 3.2.2); the
// paper measures functions by OBDD *width* — the largest number of nodes
// labeled by the same variable — which this package reports alongside size.
//
// Storage follows the classic BDD-package layout: nodes live in the
// diagram store shared with the SDD manager (util/diagram_store.h: a
// chunked stable-address node store indexed by dense ids, hash-consed
// through an open-addressed unique table); operation results are
// memoized in bounded computed caches (util/computed_cache.h) that stay
// fixed-size no matter how long the operation sequence runs. Cache
// eviction can only cost recomputation, never change results — canonicity
// lives in the unique table alone.
//
// Parallel apply (exec/): AttachExecutor hands the manager a
// work-stealing pool; Ite and the n-ary folds then fork their independent
// cofactor branches across the pool's workers inside a *parallel region*
// — the one window where the single-owner contract relaxes. Within a
// region the unique table runs its CAS insert-or-find protocol, the
// computed caches and per-operation memos are lock-striped, node ids are
// claimed in per-worker blocks, and the debug-build owning-thread
// assertion is suspended (util/thread_check.h ParallelRegion). Results
// are pointer-identical to the sequential path: canonicity hash-conses
// every (level, lo, hi) to one id regardless of which worker builds it
// first.

#ifndef CTSDD_OBDD_OBDD_H_
#define CTSDD_OBDD_OBDD_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "exec/task_pool.h"
#include "util/budget.h"
#include "util/computed_cache.h"
#include "util/diagram_store.h"
#include "util/hashing.h"
#include "util/logging.h"
#include "util/mem_governor.h"
#include "util/scoped_memo.h"
#include "util/status.h"
#include "util/thread_check.h"

namespace ctsdd {

// Computed-cache bounds (maximum slot counts; rounded up to powers of
// two — the caches start small and grow under eviction pressure up to the
// bound). Small bounds force eviction and recomputation but never wrong
// results; the apply-core tests exercise exactly that. Namespace-scope
// (not nested) so it can serve as a defaulted constructor argument.
struct ObddOptions {
  size_t ite_cache_slots = 1 << 22;
  size_t nary_cache_slots = 1 << 18;
};

class ObddManager {
 public:
  // Node ids: 0 = false terminal, 1 = true terminal, >= 2 internal.
  // kAborted is the cooperative-abort sentinel: when an attached
  // WorkBudget trips, operations unwind by returning it instead of a
  // node. It is never stored in the unique table, caches, or memos, so
  // an aborted operation leaves no trace beyond unreferenced garbage
  // nodes (reclaimed by the next GarbageCollect).
  using NodeId = int;
  static constexpr NodeId kFalse = 0;
  static constexpr NodeId kTrue = 1;
  static constexpr NodeId kAborted = -2;

  using Options = ObddOptions;

  // `var_order[i]` is the global variable id tested at level i.
  explicit ObddManager(std::vector<int> var_order, Options options = {});

  const std::vector<int>& var_order() const { return var_order_; }
  int num_levels() const { return static_cast<int>(var_order_.size()); }
  // Level of a global variable id; -1 if not in the order.
  int LevelOf(int var) const;

  NodeId False() const { return kFalse; }
  NodeId True() const { return kTrue; }
  NodeId Literal(int var, bool positive);

  NodeId Not(NodeId f);
  NodeId And(NodeId f, NodeId g);
  NodeId Or(NodeId f, NodeId g);
  NodeId Xor(NodeId f, NodeId g);
  NodeId Ite(NodeId f, NodeId g, NodeId h);

  // Multi-way conjunction/disjunction by simultaneous cofactoring: all
  // operands are cofactored on the smallest live level at once, so a wide
  // gate costs one sweep instead of a chain of binary applies that re-walks
  // the accumulated result per operand. Neutral operands are dropped and
  // absorbing terminals short-circuit before any recursion.
  NodeId AndN(std::vector<NodeId> ops);
  NodeId OrN(std::vector<NodeId> ops);

  // Hash-conses the node (level, lo, hi), applying the reduction rule
  // (lo == hi collapses). Both children must already be normalized at
  // deeper levels — the caller asserts the ordering invariant, as in the
  // classic bdd_makenode interface. Compilers that Shannon-expand along
  // the variable order use this to sidestep a full Ite per node.
  NodeId MakeNode(int level, NodeId lo, NodeId hi);

  // Shannon cofactors of f by the level-`level` variable.
  NodeId CofactorLo(NodeId f, int level) const;
  NodeId CofactorHi(NodeId f, int level) const;

  // Restricts f by var := value.
  NodeId Restrict(NodeId f, int var, bool value);

  bool Evaluate(NodeId f, const std::vector<bool>& values_by_level) const;

  // Number of models over the full variable order.
  uint64_t CountModels(NodeId f) const;

  // Probability of f when variable at level i is independently true with
  // probability prob_by_level[i].
  double WeightedModelCount(NodeId f,
                            const std::vector<double>& prob_by_level) const;

  // Reachable node count, terminals excluded.
  int Size(NodeId f) const;

  // Max number of reachable nodes on a single level (OBDD width).
  int Width(NodeId f) const;

  // Nodes per level, for profile plots.
  std::vector<int> LevelProfile(NodeId f) const;

  // Total node slots ever created (manager footprint high-water mark).
  int NumNodes() const { return static_cast<int>(store_.size()); }
  // Nodes currently resident (slots minus the GC free list), terminals
  // included. This is the quantity a long-running service bounds.
  int NumLiveNodes() const { return static_cast<int>(store_.NumLive()); }

  // --- Parallel execution ------------------------------------------------
  //
  // AttachExecutor lends the manager a work-stealing pool; while one with
  // workers() > 1 is attached, Ite/AndN/OrN (and everything built on
  // them) fork independent cofactor branches across the pool inside a
  // parallel region. BeginParallelRegion/EndParallelRegion expose the
  // region explicitly so a compiler driving many operations (or the
  // serve/ layer's cold compiles) pays the region transition once rather
  // than per operation. Regions must not overlap GC/root bookkeeping, and
  // results are pointer-identical to sequential execution (canonicity).

  void AttachExecutor(exec::TaskPool* pool) { pool_ = pool; }
  exec::TaskPool* executor() const { return pool_; }
  bool InParallelRegion() const { return store_.in_region(); }

  void BeginParallelRegion();
  void EndParallelRegion();

  // --- Budgets and cancellation ------------------------------------------
  //
  // Contract: see util/diagram_store.h. Allocating operations unwind with
  // kAborted once the budget trips, leaving no trace in the unique table
  // or caches, so a post-abort recompile is pointer-identical.

  void AttachBudget(WorkBudget* budget);
  void DetachBudget() { AttachBudget(nullptr); }
  WorkBudget* budget() const { return store_.budget(); }
  bool AbortRequested() const {
    return budget() != nullptr && budget()->tripped();
  }
  // Cancel token for exec::ParallelFor, or nullptr without a budget.
  const std::atomic<bool>* budget_token() const {
    return budget() == nullptr ? nullptr : budget()->token();
  }

  // Structural self-check: every live node is reduced (lo != hi), level-
  // ordered, reachable children are live, and the unique table maps each
  // live node to itself (no duplicates, no strays). Used by tests to
  // assert aborted operations left the manager consistent. O(nodes).
  Status Validate() const;

  // --- Memory accounting --------------------------------------------------
  //
  // Contract: see util/diagram_store.h. The account covers the node
  // store, unique table, computed caches and per-operation memos.

  void AttachMemAccount(MemAccount* account);
  MemAccount* mem_account() const { return store_.mem_account(); }
  // Recomputed accounted-resident bytes across all instrumented
  // structures; equals mem_account()->bytes() at quiescent points
  // (debug-asserted at the end of every GarbageCollect).
  size_t MemoryBytes() const {
    return store_.MemoryBytes() + ite_cache_.MemoryBytes() +
           nary_cache_.MemoryBytes() + ite_memo_.MemoryBytes() +
           nary_memo_.MemoryBytes();
  }

  // --- Memory lifecycle -------------------------------------------------
  //
  // Contract: see util/diagram_store.h. Roots are the terminals plus the
  // registered ones; a collection invalidates the computed caches.

  // Registers `id` as an external root (ref-counted: k calls require k
  // releases). Terminals need no protection.
  void AddRootRef(NodeId id);
  // Drops one reference added by AddRootRef.
  void ReleaseRootRef(NodeId id);

  // Mark-from-roots collection; returns the number of nodes reclaimed.
  // Must not be called from inside an operation (apply depth 0) or a
  // parallel region.
  size_t GarbageCollect();

  // Returns the computed caches and per-operation memos to their initial
  // footprint (contents dropped — only recomputation cost). Pair with
  // GarbageCollect() when a service wants a manager back to baseline.
  void ShrinkCaches();

  using GcStats = ctsdd::GcStats;
  const GcStats& gc_stats() const { return store_.gc_stats(); }

  // Releases thread-affinity (debug builds assert single-threaded use);
  // the next operation binds the manager to its calling thread.
  void DetachOwningThread() { thread_check_.Detach(); }

  struct Node {
    int level;  // index into var_order_
    NodeId lo;
    NodeId hi;
  };
  const Node& node(NodeId id) const { return store_[id]; }
  bool IsTerminal(NodeId id) const { return id <= 1; }

 private:
  // Two-level memoization, mirroring the SDD apply path: the bounded
  // global caches give cross-operation reuse; exact memos scoped to each
  // top-level operation preserve the polynomial recursion bound even when
  // the lossy caches evict (a lossy cache alone turns deep recursions
  // exponential once the live set outgrows it). Ite and ApplyN nest into
  // each other, so they share one depth counter and reset together when
  // the outermost operation returns. In a parallel region the memos are
  // region-scoped instead (reset at EndParallelRegion), and both
  // memoization levels go through their lock-striped protocols.
  //
  // The recursions are templated on the protocol: kPar == false is the
  // single-owner path; kPar == true forks cofactor branches while depth <
  // kForkDepth and uses the concurrent unique-table/cache entry points.
  NodeId ApplyN(std::vector<NodeId> ops, bool is_and);
  template <bool kPar>
  NodeId MakeNodeT(int level, NodeId lo, NodeId hi);
  template <bool kPar>
  NodeId IteRecT(NodeId f, NodeId g, NodeId h, int depth);
  template <bool kPar>
  NodeId ApplyNRecT(std::vector<NodeId> ops, bool is_and, int depth);
  void LeaveOp() {
    if (--op_depth_ == 0) {
      ite_memo_.Reset();
      nary_memo_.Reset();
    }
  }

  struct IteKey {
    NodeId f = 0, g = 0, h = 0;
    bool operator==(const IteKey&) const = default;
  };
  struct NaryKey {
    bool is_and = false;
    std::vector<NodeId> ops;
    bool operator==(const NaryKey&) const = default;
  };

  // Fork cutoff: cofactor branches fork while the recursion is at depth
  // < kForkDepth, then run sequentially (still on concurrent data
  // structures). 2^kForkDepth potential tasks keep every worker fed
  // through the unbalanced subproblem sizes apply produces, while deep
  // recursions stay fork-free.
  static constexpr int kForkDepth = 7;

  // A freed slot's level, so stale-id use trips level checks fast.
  static constexpr int kDeadLevel = -2;
  static uint64_t NodeHash(int level, NodeId lo, NodeId hi) {
    return Hash3(static_cast<uint64_t>(level), static_cast<uint64_t>(lo),
                 static_cast<uint64_t>(hi));
  }
  struct StoreTraits {
    static Node Dead() { return {kDeadLevel, -1, -1}; }
    static bool IsDead(const Node& n) { return n.level == kDeadLevel; }
    template <typename F>
    static void ForEachChild(const Node& n, F f) {
      f(n.lo);
      f(n.hi);
    }
    static bool HashConsed(const Node& n) { return !IsDead(n); }
    static uint64_t Hash(const Node& n) {
      return NodeHash(n.level, n.lo, n.hi);
    }
  };

  std::vector<int> var_order_;
  std::unordered_map<int, int> level_of_var_;
  DiagramStore<Node, StoreTraits> store_;
  ComputedCache<IteKey, NodeId> ite_cache_;
  ComputedCache<NaryKey, NodeId> nary_cache_;
  ScopedMemo<IteKey, NodeId> ite_memo_;
  ScopedMemo<NaryKey, NodeId> nary_memo_;
  int op_depth_ = 0;
  exec::TaskPool* pool_ = nullptr;
  ThreadChecker thread_check_;
};

}  // namespace ctsdd

#endif  // CTSDD_OBDD_OBDD_H_
