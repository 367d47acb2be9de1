#include "sdd/sdd.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <functional>

#include "util/fault_injection.h"
#include "util/hashing.h"
#include "util/logging.h"

namespace ctsdd {
namespace {

// Truth table word of "index bit p is set" (the positive literal pattern
// for a variable at scope position p < 6).
constexpr uint64_t kIndexBitSet[6] = {
    0xaaaaaaaaaaaaaaaaULL, 0xccccccccccccccccULL, 0xf0f0f0f0f0f0f0f0ULL,
    0xff00ff00ff00ff00ULL, 0xffff0000ffff0000ULL, 0xffffffff00000000ULL,
};

}  // namespace

SddManager::SddManager(Vtree vtree, Options options)
    : vtree_(std::move(vtree)),
      apply_cache_(options.apply_cache_slots),
      sem_cache_(options.sem_cache_slots, options.sem_cache_init_slots) {
  CTSDD_CHECK_GE(vtree_.root(), 0) << "vtree must be rooted";
  // Small anchors: topmost ancestor (parents before children) whose scope
  // still fits one truth-table word.
  anchor_of_vnode_.assign(vtree_.num_nodes(), -1);
  anchor_mask_of_vnode_.assign(vtree_.num_nodes(), 0);
  std::vector<int> stack = {vtree_.root()};
  while (!stack.empty()) {
    const int v = stack.back();
    stack.pop_back();
    if (static_cast<int>(vtree_.VarsBelow(v).size()) <= kSmallScopeVars) {
      const int parent = vtree_.parent(v);
      const int up = (parent >= 0) ? anchor_of_vnode_[parent] : -1;
      const int anchor = (up >= 0) ? up : v;
      anchor_of_vnode_[v] = anchor;
      const int bits = 1 << vtree_.VarsBelow(anchor).size();
      anchor_mask_of_vnode_[v] =
          (bits >= 64) ? ~0ULL : ((1ULL << bits) - 1);
    }
    if (!vtree_.is_leaf(v)) {
      stack.push_back(vtree_.right(v));
      stack.push_back(vtree_.left(v));
    }
  }
  EnsureCtxSlots(1);
  // Terminal constants (negations of each other).
  store_.Alloc({Kind::kConst, false, -1, -1, nullptr, 0});
  store_.Alloc({Kind::kConst, true, -1, -1, nullptr, 0});
  // Constant FastInfo entries are mostly unused (constants short-circuit
  // before any probe), but the negation links keep KnownNegation total.
  fast_info_.Reserve(2);
  fast_info_[0] = {kTrue, -1, 0};
  fast_info_[1] = {kFalse, -1, ~0ULL};
  const std::vector<int>& vars = vtree_.Vars();
  const int max_var = vars.empty() ? -1 : vars.back();
  literal_ids_.assign(2 * (max_var + 1), -1);
}

void SddManager::LinkNegations(NodeId a, NodeId b) {
  NegationOf(fast_info_[a]).store(b, std::memory_order_release);
  NegationOf(fast_info_[b]).store(a, std::memory_order_release);
}

uint64_t SddManager::Hash2SemKey(int anchor, uint64_t word) {
  return Hash2(static_cast<uint64_t>(anchor), word);
}

uint64_t SddManager::DecisionHash(int vnode, ElementSpan elements) {
  uint64_t hash = HashMix64(static_cast<uint64_t>(vnode));
  for (const auto& [p, s] : elements) {
    hash = HashCombine(hash, (static_cast<uint64_t>(p) << 32) |
                                 static_cast<uint32_t>(s));
  }
  return hash;
}

template <bool kPar>
void SddManager::RegisterSemanticT(NodeId id) {
  const Node& n = store_[id];
  const int anchor = anchor_of_vnode_[n.vnode];
  FastInfo& info = fast_info_[id];
  NegationOf(info).store(-1, std::memory_order_relaxed);
  if (anchor < 0) {
    info.anchor = -1;
    info.word = 0;
    return;
  }
  const uint64_t mask = anchor_mask_of_vnode_[n.vnode];
  uint64_t w = 0;
  if (n.kind == Kind::kLiteral) {
    const std::vector<int>& scope = vtree_.VarsBelow(anchor);
    const int pos = static_cast<int>(
        std::lower_bound(scope.begin(), scope.end(), n.var) - scope.begin());
    w = (n.sense ? kIndexBitSet[pos] : ~kIndexBitSet[pos]) & mask;
  } else {
    // Primes and non-constant subs live below n.vnode, so they share its
    // anchor and their words are directly composable.
    for (uint32_t i = 0; i < n.num_elems; ++i) {
      const auto& [p, s] = n.elems[i];
      const uint64_t ws =
          (s == kFalse) ? 0 : (s == kTrue) ? mask : fast_info_[s].word;
      w |= fast_info_[p].word & ws;
    }
  }
  info.anchor = anchor;
  info.word = w;
  const uint64_t hash = Hash2SemKey(anchor, w);
  if constexpr (kPar) {
    sem_cache_.StoreC(hash, SemKey{anchor, w}, id);
  } else {
    sem_cache_.Store(hash, SemKey{anchor, w}, id);
  }
}

SddManager::NodeId SddManager::LookupSemantic(int vnode, uint64_t word) {
  const int anchor = anchor_of_vnode_[vnode];
  CTSDD_CHECK_GE(anchor, 0);
  if (word == 0) return kFalse;
  if (word == anchor_mask_of_vnode_[vnode]) return kTrue;
  NodeId hit;
  const uint64_t hash = Hash2SemKey(anchor, word);
  const SemKey key{anchor, word};
  const bool found = InParallelRegion() ? sem_cache_.LookupC(hash, key, &hit)
                                        : sem_cache_.Lookup(hash, key, &hit);
  return found ? hit : -1;
}

void SddManager::AddCounters(const PerfCounters& delta) {
  counters_.apply_calls += delta.apply_calls;
  counters_.element_products += delta.element_products;
  counters_.absorb_collapses += delta.absorb_collapses;
  counters_.compression_merges += delta.compression_merges;
  counters_.nary_applies += delta.nary_applies;
  counters_.nary_fallbacks += delta.nary_fallbacks;
  counters_.sem_apply_hits += delta.sem_apply_hits;
  counters_.semantic_partitions += delta.semantic_partitions;
  counters_.semantic_memo_hits += delta.semantic_memo_hits;
}

void SddManager::BeginParallelRegion() {
  CTSDD_CHECK(pool_ != nullptr && pool_->parallel())
      << "BeginParallelRegion without a parallel executor attached";
  CTSDD_CHECK_EQ(apply_depth_, 0) << "parallel region inside an operation";
  thread_check_.Check();  // verify ownership before suspending it
  // Pre-intern every literal: parallel tasks then always hit the
  // literal_ids_ cache and never write it (or link negations through the
  // sequential Literal path).
  for (const int v : vtree_.Vars()) {
    Literal(v, true);
    Literal(v, false);
  }
  const size_t worker_slots = static_cast<size_t>(pool_->max_slots());
  EnsureCtxSlots(1 + worker_slots);
  store_.BeginRegion(worker_slots);
  thread_check_.BeginShared();
  // Pre-size the striped caches: they cannot grow while the region runs,
  // and a semantic-cache miss cascades into recompilation.
  apply_cache_.BeginConcurrent(1 << 16);
  sem_cache_.BeginConcurrent(1 << 14);
  apply_memo_.BeginConcurrent();
}

void SddManager::EndParallelRegion() {
  store_.EndRegion();
  for (Ctx& cx : ctxs_) {
    cx.nary_memo.clear();
    AddCounters(cx.counters);
    cx.counters = PerfCounters{};
  }
  apply_cache_.EndConcurrent();
  sem_cache_.EndConcurrent();
  apply_memo_.EndConcurrent();
  apply_memo_.Reset();  // region-scoped, like LeaveOp for an operation
  thread_check_.EndShared();
}

void SddManager::AttachBudget(WorkBudget* budget) {
  thread_check_.Check();
  CTSDD_CHECK_EQ(apply_depth_, 0) << "AttachBudget inside an operation";
  store_.AttachBudget(budget);
}

void SddManager::AttachMemAccount(MemAccount* account) {
  thread_check_.Check();
  CTSDD_CHECK_EQ(apply_depth_, 0) << "AttachMemAccount inside an operation";
  store_.AttachMemAccount(account);
  fast_info_.SetMemAccount(account);
  apply_cache_.SetMemAccount(account);
  sem_cache_.SetMemAccount(account);
  apply_memo_.SetMemAccount(account);
  for (Ctx& cx : ctxs_) cx.element_arena.SetMemAccount(account);
}

Status SddManager::Validate() const {
  CTSDD_RETURN_IF_ERROR(store_.Validate());
  const size_t n = store_.size();
  for (size_t id = 2; id < n; ++id) {
    const Node& node = store_[id];
    if (StoreTraits::IsDead(node)) continue;
    if (node.kind == Kind::kConst) {
      return Status::Internal("non-terminal constant node");
    }
    if (node.kind == Kind::kLiteral) {
      if (node.var < 0 || !vtree_.is_leaf(node.vnode) ||
          vtree_.LeafOf(node.var) != node.vnode) {
        return Status::Internal("malformed literal node");
      }
      const size_t key = (static_cast<size_t>(node.var) << 1) | node.sense;
      if (key >= literal_ids_.size() ||
          literal_ids_[key] != static_cast<NodeId>(id)) {
        return Status::Internal("literal not interned under its variable");
      }
      continue;
    }
    if (vtree_.is_leaf(node.vnode)) {
      return Status::Internal("decision normalized at a vtree leaf");
    }
    if (node.num_elems < 2 || node.elems == nullptr) {
      return Status::Internal("untrimmed or element-less decision");
    }
    for (uint32_t i = 0; i < node.num_elems; ++i) {
      const auto& [p, s] = node.elems[i];
      for (const NodeId child : {p, s}) {
        if (child < 0 || static_cast<size_t>(child) >= n) {
          return Status::Internal("element id out of range");
        }
        const Node& c = store_[child];
        if (child > 1 && c.kind == Kind::kConst) {
          return Status::Internal("element references a dead node");
        }
      }
      if (p <= 1) {
        return Status::Internal("constant prime in multi-element decision");
      }
    }
    const int32_t found =
        store_.unique().Find(StoreTraits::Hash(node), [&](int32_t cand) {
          const Node& c = store_[cand];
          return c.vnode == node.vnode && c.num_elems == node.num_elems &&
                 std::equal(node.elems, node.elems + node.num_elems,
                            c.elems);
        });
    if (found != static_cast<int32_t>(id)) {
      return Status::Internal(
          found == UniqueTable::kEmpty
              ? "live decision missing from the unique table"
              : "duplicate decision in the unique table");
    }
  }
  return Status::Ok();
}

void SddManager::AddRootRef(NodeId id) {
  thread_check_.Check();
  store_.AddRootRef(id);
}

void SddManager::ReleaseRootRef(NodeId id) {
  thread_check_.Check();
  store_.ReleaseRootRef(id);
}

size_t SddManager::GarbageCollect() {
  thread_check_.Check();
  CTSDD_CHECK_EQ(apply_depth_, 0) << "GC inside an operation";
  std::vector<NodeId> literals;
  for (const NodeId lit : literal_ids_) {
    if (lit >= 0) literals.push_back(lit);
  }
  return store_.Collect(
      "sdd.gc", pool_, literals,
      [&](NodeId id, const Node& n) {
        if (n.kind == Kind::kDecision && n.num_elems > 0) {
          free_elements_[n.num_elems].push_back(const_cast<Element*>(n.elems));
        }
        fast_info_[id] = {-1, -1, 0};
      },
      [&] {
        // Sever negation links into collected nodes: the link slots are
        // id-valued, and a freed id may be recycled by an unrelated
        // function.
        for (size_t id = 0; id < store_.size(); ++id) {
          if (StoreTraits::IsDead(store_[id])) continue;
          NodeId& neg = fast_info_[id].negation;
          if (neg >= 0 && StoreTraits::IsDead(store_[neg])) neg = -1;
        }
        // Caches hold freed ids; invalidate them, then re-register the
        // survivors' semantic words so FastApply does not cold-start.
        apply_cache_.Clear();
        sem_cache_.Clear();
        RebuildSemanticCache();
      },
      [&] { return MemoryBytes(); });
}

void SddManager::RebuildSemanticCache() {
  for (size_t id = 2; id < store_.size(); ++id) {
    const Node& n = store_[id];
    // Non-terminal kConst slots are dead sentinels (real constants are
    // ids 0 and 1, skipped above).
    if (n.kind == Kind::kConst) continue;
    const FastInfo& fi = fast_info_[id];
    if (fi.anchor >= 0) {
      sem_cache_.Store(Hash2SemKey(fi.anchor, fi.word),
                       SemKey{fi.anchor, fi.word}, static_cast<NodeId>(id));
    }
  }
}

void SddManager::ShrinkCaches() {
  thread_check_.Check();
  CTSDD_CHECK_EQ(apply_depth_, 0) << "ShrinkCaches inside an operation";
  CTSDD_CHECK(!InParallelRegion()) << "ShrinkCaches inside a parallel region";
  apply_cache_.Shrink();
  apply_memo_.Shrink();
  for (Ctx& cx : ctxs_) cx.scratch.clear();
  // The semantic cache backs an invariant (live small-scope functions
  // resolve by word), not just memoized work: release its grown array,
  // then repopulate compactly from the live nodes.
  sem_cache_.Shrink();
  RebuildSemanticCache();
}

SddManager::NodeId SddManager::Literal(int var, bool positive) {
  thread_check_.Check();
  const size_t key = (static_cast<size_t>(var) << 1) | positive;
  CTSDD_CHECK(var >= 0 && key < literal_ids_.size())
      << "variable x" << var << " not in vtree";
  if (literal_ids_[key] >= 0) return literal_ids_[key];
  CTSDD_CHECK(!InParallelRegion())
      << "literal interning inside a parallel region (BeginParallelRegion "
         "pre-interns the full literal set)";
  const int leaf = vtree_.LeafOf(var);
  CTSDD_CHECK_GE(leaf, 0) << "variable x" << var << " not in vtree";
  const NodeId id = NewNode<false>(
      ctxs_[0], {Kind::kLiteral, positive, var, leaf, nullptr, 0});
  RegisterSemanticT<false>(id);
  literal_ids_[key] = id;
  // Complement literals are always linked: the second one created links
  // both, so Apply's x op !x short-circuit never misses a literal pair.
  if (literal_ids_[key ^ 1] >= 0) LinkNegations(id, literal_ids_[key ^ 1]);
  return id;
}

template <bool kPar>
SddManager::NodeId SddManager::MakeDecisionT(Ctx& cx, int vnode,
                                             Elements* elements_in,
                                             int depth) {
  Elements& elements = *elements_in;
  if (budget() != nullptr && budget()->tripped()) return kAborted;
  // Drop false primes.
  elements.erase(std::remove_if(elements.begin(), elements.end(),
                                [](const auto& e) { return e.first == kFalse; }),
                 elements.end());
  CTSDD_CHECK(!elements.empty())
      << "decision with no satisfiable prime (primes must be exhaustive)";
  // Compress: merge elements with equal subs by disjoining their primes.
  // Sorting by sub turns compression into one linear merge over the runs;
  // each run's primes (pairwise disjoint by construction) fuse with a
  // single balanced OrN instead of a sequential pairwise-Or chain. All
  // Apply calls happen before the unique-table probe below, so no table
  // operation intervenes between Find and Insert.
  std::sort(elements.begin(), elements.end(),
            [](const Element& x, const Element& y) {
              return x.second != y.second ? x.second < y.second
                                          : x.first < y.first;
            });
  size_t out = 0;
  for (size_t i = 0; i < elements.size();) {
    const NodeId sub = elements[i].second;
    NodeId prime = elements[i].first;
    size_t j = i + 1;
    while (j < elements.size() && elements[j].second == sub) ++j;
    if (j - i > 1) {
      ++cx.counters.compression_merges;
      // Balanced in-place fold of the run's primes (they are pairwise
      // disjoint, so operand sizes roughly add: pairing keeps each Or
      // small instead of one ever-growing accumulator).
      size_t len = j - i;
      while (len > 1) {
        size_t w = 0;
        for (size_t p = 0; p + 1 < len; p += 2) {
          elements[i + w++].first =
              ApplyRecT<kPar>(cx, elements[i + p].first,
                              elements[i + p + 1].first, Op::kOr, depth + 1);
        }
        if (len % 2 == 1) elements[i + w++].first = elements[i + len - 1].first;
        len = w;
      }
      prime = elements[i].first;
    }
    elements[out++] = {prime, sub};
    i = j;
  }
  elements.resize(out);
  // Abort propagation: a negative prime or sub is an upstream kAborted
  // (either passed in or produced by the compression applies above).
  // Checked before the trim-rule CHECKs and the unique-table probe so an
  // aborted partial decision never materializes.
  if (budget() != nullptr) {
    for (const auto& [p, s] : elements) {
      if ((p | s) < 0) return kAborted;
    }
  }
  // Trim rule 1: {(true, s)} -> s.
  if (elements.size() == 1) {
    CTSDD_CHECK_EQ(elements[0].first, kTrue)
        << "single-element decision must have a valid (exhaustive) prime";
    return elements[0].second;
  }
  // Trim rule 2: {(p, true), (q, false)} -> p (since q = !p by partition).
  if (elements.size() == 2) {
    NodeId true_prime = -1;
    NodeId false_prime = -1;
    for (const auto& [p, s] : elements) {
      if (s == kTrue) true_prime = p;
      if (s == kFalse) false_prime = p;
    }
    if (true_prime >= 0 && false_prime >= 0) return true_prime;
  }
  std::sort(elements.begin(), elements.end());
  const uint64_t hash = DecisionHash(vnode, {elements.data(), elements.size()});
  const auto eq = [&](int32_t id) {
    const Node& n = store_[id];
    return n.vnode == vnode && n.num_elems == elements.size() &&
           std::equal(elements.begin(), elements.end(), n.elems);
  };
  if constexpr (kPar) {
    return store_.unique().FindOrInsert(hash, eq, [&] {
      if (budget() != nullptr) store_.Charge(cx.slot);
      CTSDD_FAULT_POINT("sdd.alloc");
      Element* stored = AllocateElements<true>(cx, elements.size());
      std::copy(elements.begin(), elements.end(), stored);
      const NodeId id =
          NewNode<true>(cx, {Kind::kDecision, false, -1, vnode, stored,
                             static_cast<uint32_t>(elements.size())});
      RegisterSemanticT<true>(id);
      return id;
    });
  } else {
    const int32_t found = store_.unique().Find(hash, eq);
    if (found != UniqueTable::kEmpty) return found;
    if (budget() != nullptr && !store_.Charge(cx.slot)) return kAborted;
    CTSDD_FAULT_POINT("sdd.alloc");
    Element* stored = AllocateElements<false>(cx, elements.size());
    std::copy(elements.begin(), elements.end(), stored);
    const NodeId id =
        NewNode<false>(cx, {Kind::kDecision, false, -1, vnode, stored,
                            static_cast<uint32_t>(elements.size())});
    RegisterSemanticT<false>(id);
    store_.unique().Insert(hash, id);
    return id;
  }
}

template <bool kPar>
SddManager::NodeId SddManager::NewNode(Ctx& cx, const Node& n) {
  const NodeId id = kPar ? store_.AllocIn(cx.slot, n) : store_.Alloc(n);
  fast_info_.Reserve(static_cast<size_t>(id) + 1);
  return id;
}

template <bool kPar>
SddManager::Element* SddManager::AllocateElements(Ctx& cx, size_t n) {
  if (n == 0) return nullptr;
  if constexpr (!kPar) {
    // The free map stays empty until a collection has run, so pre-GC
    // workloads never pay the bucket probe on this hot path.
    if (!free_elements_.empty()) {
      const auto it = free_elements_.find(n);
      if (it != free_elements_.end() && !it->second.empty()) {
        Element* out = it->second.back();
        it->second.pop_back();
        return out;
      }
    }
  }
  return cx.element_arena.Allocate(n);
}

SddManager::NodeId SddManager::Decision(int vnode, Elements elements) {
  thread_check_.Check();
  CTSDD_CHECK(!vtree_.is_leaf(vnode))
      << "decisions are normalized at internal vtree nodes";
  if (InParallelRegion()) {
    return MakeDecisionT<true>(CurCtx(), vnode, &elements, 0);
  }
  ++apply_depth_;
  const NodeId result = MakeDecisionT<false>(ctxs_[0], vnode, &elements, 0);
  LeaveOp();
  return result;
}

template <bool kPar>
SddManager::ElementSpan SddManager::LiftTo(Ctx& cx, int vnode, NodeId a,
                                           std::array<Element, 2>* store,
                                           int depth) {
  const Node& n = store_[a];
  if (n.kind == Kind::kDecision && n.vnode == vnode) {
    return {n.elems, n.num_elems};
  }
  const int where = n.vnode;
  CTSDD_CHECK_GE(where, 0);
  if (vtree_.IsAncestorOrSelf(vtree_.left(vnode), where)) {
    // `a` lives in the left subtree: (a AND true) OR (!a AND false).
    // NotRec may grow the store, so `n` is dead after this point.
    const NodeId not_a = NotRecT<kPar>(cx, a, depth);
    // Valid lifts are never empty, so an empty span is the abort
    // sentinel (callers check before reading elements).
    if (budget() != nullptr && not_a < 0) return {};
    (*store)[0] = {a, kTrue};
    (*store)[1] = {not_a, kFalse};
    return {store->data(), 2};
  }
  CTSDD_CHECK(vtree_.IsAncestorOrSelf(vtree_.right(vnode), where))
      << "operand does not respect the vtree";
  (*store)[0] = {kTrue, a};
  return {store->data(), 1};
}

SddManager::NodeId SddManager::Apply(NodeId a, NodeId b, Op op) {
  thread_check_.Check();
  if (InParallelRegion()) {
    // Nested call from inside an open region (compiler task or a caller
    // spanning several operations): the region owner resets the memos.
    return ApplyRecT<true>(CurCtx(), a, b, op, 0);
  }
  if (pool_ != nullptr && pool_->parallel()) {
    BeginParallelRegion();
    const NodeId result = ApplyRecT<true>(CurCtx(), a, b, op, 0);
    EndParallelRegion();
    return result;
  }
  ++apply_depth_;
  const NodeId result = ApplyRecT<false>(ctxs_[0], a, b, op, 0);
  // The exact memos only live for the outermost operation; resetting them
  // here keeps apply memory bounded by a single operation's footprint.
  LeaveOp();
  return result;
}

template <bool kPar>
SddManager::NodeId SddManager::ApplyRecT(Ctx& cx, NodeId a, NodeId b, Op op,
                                         int depth) {
  if (budget() != nullptr && ((a | b) < 0 || budget()->tripped())) {
    return kAborted;
  }
  ++cx.counters.apply_calls;
  // Terminals, f op f, recorded negations, and the small-scope word
  // semantics — all resolved before any cache probe.
  const NodeId fast = FastApplyT<kPar>(cx, a, b, op);
  if (fast >= 0) return fast;
  if (a > b) std::swap(a, b);
  const ApplyKey key{a, b, op};
  const uint64_t hash = Hash3(static_cast<uint64_t>(a),
                              static_cast<uint64_t>(b),
                              static_cast<uint64_t>(op));
  NodeId cached;
  if constexpr (kPar) {
    if (apply_cache_.LookupC(hash, key, &cached)) return cached;
    if (apply_memo_.LookupC(hash, key, &cached)) return cached;
  } else {
    if (apply_cache_.Lookup(hash, key, &cached)) return cached;
    if (apply_memo_.Lookup(hash, key, &cached)) return cached;
  }

  // Distinct literals of one variable are complements, caught above; the
  // LCA of the remaining cases is internal.
  const int lca = vtree_.Lca(store_[a].vnode, store_[b].vnode);
  CTSDD_CHECK(!vtree_.is_leaf(lca));
  // The spans stay valid across the recursive Apply calls below: arena
  // chunks never move and the lift stores live on this frame.
  std::array<Element, 2> store_a, store_b;
  const ElementSpan ea = LiftTo<kPar>(cx, lca, a, &store_a, depth);
  const ElementSpan eb = LiftTo<kPar>(cx, lca, b, &store_b, depth);
  // An empty span is LiftTo's abort sentinel (valid lifts never are).
  if (budget() != nullptr && (ea.empty() || eb.empty())) return kAborted;
  // Depth-indexed scratch: deeper recursive frames (including the ones
  // MakeDecision's compression spawns) use deeper buffers, so this
  // frame's elements survive the recursion without a fresh allocation.
  while (cx.scratch.size() <= cx.rec_depth) cx.scratch.emplace_back();
  Elements& out = cx.scratch[cx.rec_depth];
  ++cx.rec_depth;
  out.clear();
  out.reserve(ea.size() + eb.size() + ea.size() * eb.size());
  // Absorbing-sub collapse: a row (column) whose sub is already the op's
  // absorbing terminal contributes that sub on its whole prime, and
  // since the other operand's primes are exhaustive the merged prime
  // collapses to the row's own prime — zero applies. (The emitted rows
  // and columns may overlap on the absorbing sub; compression disjoins
  // them, and X | (!X & Y) = X | Y keeps the partition exact.)
  const NodeId absorbing = (op == Op::kAnd) ? kFalse : kTrue;
  for (const auto& [p1, s1] : ea) {
    if (s1 == absorbing) out.emplace_back(p1, s1);
  }
  for (const auto& [p2, s2] : eb) {
    if (s2 == absorbing) out.emplace_back(p2, s2);
  }
  cx.counters.absorb_collapses += out.size();
  bool forked = false;
  if constexpr (kPar) {
    // Row-parallel element product: each row of `ea` crosses all of `eb`
    // independently — fork them across the pool while shallow. Rows
    // collect into per-row buffers and merge afterwards; MakeDecision
    // sorts, so emission order is immaterial (canonicity).
    if (depth < kForkDepth && ea.size() >= 2) {
      forked = true;
      std::vector<Elements> row_out(ea.size());
      exec::ParallelFor(
          pool_, ea.size(), budget_token(), [&](size_t r) {
            Ctx& wcx = CurCtx();
            const auto& [p1, s1] = ea[r];
            if (s1 == absorbing) return;
            Elements& row = row_out[r];
            for (const auto& [p2, s2] : eb) {
              if (s2 == absorbing) continue;
              NodeId p = FastApplyT<true>(wcx, p1, p2, Op::kAnd);
              if (p < 0) {
                p = ApplyRecT<true>(wcx, p1, p2, Op::kAnd, depth + 1);
              }
              if (p == kFalse) continue;
              NodeId s =
                  (s1 == s2) ? s1 : FastApplyT<true>(wcx, s1, s2, op);
              if (s < 0) s = ApplyRecT<true>(wcx, s1, s2, op, depth + 1);
              row.emplace_back(p, s);
            }
          });
      for (const Elements& row : row_out) {
        out.insert(out.end(), row.begin(), row.end());
      }
    }
  }
  if (!forked) {
    for (const auto& [p1, s1] : ea) {
      if (s1 == absorbing) continue;
      for (const auto& [p2, s2] : eb) {
        if (s2 == absorbing) continue;
        // Inline resolution first: for unstructured operands most prime
        // pairs are disjoint and die in FastApply's word compare without
        // a recursive call.
        NodeId p = FastApplyT<kPar>(cx, p1, p2, Op::kAnd);
        if (p < 0) p = ApplyRecT<kPar>(cx, p1, p2, Op::kAnd, depth + 1);
        if (p == kFalse) continue;
        NodeId s = (s1 == s2) ? s1 : FastApplyT<kPar>(cx, s1, s2, op);
        if (s < 0) s = ApplyRecT<kPar>(cx, s1, s2, op, depth + 1);
        out.emplace_back(p, s);
      }
    }
  }
  cx.counters.element_products += out.size();
  const NodeId result = MakeDecisionT<kPar>(cx, lca, &out, depth);
  --cx.rec_depth;
  if (budget() != nullptr && result < 0) return result;  // never cached
  if constexpr (kPar) {
    apply_cache_.StoreC(hash, key, result);
    apply_memo_.InsertC(hash, key, result);
  } else {
    apply_cache_.Store(hash, key, result);
    apply_memo_.Insert(hash, key, result);
  }
  return result;
}

SddManager::NodeId SddManager::And(NodeId a, NodeId b) {
  return Apply(a, b, Op::kAnd);
}

SddManager::NodeId SddManager::Or(NodeId a, NodeId b) {
  return Apply(a, b, Op::kOr);
}

bool SddManager::NormalizeNaryOps(Ctx& cx, std::vector<NodeId>* ops_in,
                                  Op op, NodeId* out) {
  std::vector<NodeId>& ops = *ops_in;
  // Abort propagation, checked before the fast_info_ negation probes
  // below dereference any operand.
  if (budget() != nullptr) {
    for (const NodeId x : ops) {
      if (x < 0) {
        *out = kAborted;
        return true;
      }
    }
  }
  const NodeId absorbing = (op == Op::kAnd) ? kFalse : kTrue;
  const NodeId identity = (op == Op::kAnd) ? kTrue : kFalse;
  size_t n = 0;
  for (const NodeId x : ops) {
    if (x == absorbing) {
      *out = absorbing;
      return true;
    }
    if (x != identity) ops[n++] = x;
  }
  ops.resize(n);
  // Duplicate and complementary operands decide or shrink the fold before
  // any apply runs. The sorted probe set is scratch (reused across calls
  // to keep this allocation-free on the hot path — NormalizeNaryOps never
  // re-enters itself within a context): the caller's operand order is
  // deliberate (fold locality) and must be preserved.
  std::vector<NodeId>& sorted = cx.nary_probe_scratch;
  sorted.assign(ops.begin(), ops.end());
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  for (const NodeId x : sorted) {
    const NodeId nx =
        NegationOf(fast_info_[x]).load(std::memory_order_relaxed);
    if (nx >= 0 && std::binary_search(sorted.begin(), sorted.end(), nx)) {
      *out = absorbing;  // x op !x
      return true;
    }
  }
  if (sorted.size() < ops.size()) {
    // Drop duplicates, keeping first occurrences in order.
    std::vector<NodeId> seen;
    seen.reserve(sorted.size());
    size_t kept = 0;
    for (const NodeId x : ops) {
      const auto it = std::lower_bound(seen.begin(), seen.end(), x);
      if (it != seen.end() && *it == x) continue;
      seen.insert(it, x);
      ops[kept++] = x;
    }
    ops.resize(kept);
  }
  if (ops.empty()) {
    *out = identity;
    return true;
  }
  if (ops.size() == 1) {
    *out = ops[0];
    return true;
  }
  return false;
}

template <bool kPar>
SddManager::NodeId SddManager::ApplyNT(Ctx& cx,
                                       const std::vector<NodeId>& ops, Op op,
                                       int depth) {
  if (ops.size() == 2) return ApplyRecT<kPar>(cx, ops[0], ops[1], op, depth);
  if (budget() != nullptr) {
    if (budget()->tripped()) return kAborted;
    for (const NodeId x : ops) {
      if (x < 0) return kAborted;
    }
  }
  NaryKey key{op, ops};
  std::sort(key.ops.begin(), key.ops.end());  // order-insensitive memo key
  const auto it = cx.nary_memo.find(key);
  if (it != cx.nary_memo.end()) return it->second;

  int lca = store_[ops[0]].vnode;
  for (size_t i = 1; i < ops.size(); ++i) {
    lca = vtree_.Lca(lca, store_[ops[i]].vnode);
  }
  CTSDD_CHECK(!vtree_.is_leaf(lca));
  // Lift every operand to `lca`. Lift stores are preallocated so the
  // spans stay valid; LiftTo may grow the store, never move arena chunks.
  std::vector<std::array<Element, 2>> stores(ops.size());
  std::vector<ElementSpan> spans(ops.size());
  size_t product = 1;
  for (size_t i = 0; i < ops.size(); ++i) {
    spans[i] = LiftTo<kPar>(cx, lca, ops[i], &stores[i], depth);
    // An empty span is LiftTo's abort sentinel.
    if (budget() != nullptr && spans[i].empty()) return kAborted;
    // Saturate at the cap: the running multiply must not wrap (eight
    // 256-element operands already reach 2^64).
    product = (product > kNaryProductCap)
                  ? product
                  : product * std::max<size_t>(spans[i].size(), 1);
  }
  NodeId result;
  if (product > kNaryProductCap) {
    // The meet of these partitions is too wide for one expansion; fold
    // with binary applies, whose per-step canonicalization keeps
    // intermediates compressed. Sequential for And (each conjunct
    // constrains the accumulator), balanced for Or (disjuncts don't).
    ++cx.counters.nary_fallbacks;
    if (op == Op::kAnd) {
      result = ops[0];
      for (size_t i = 1; i < ops.size() && result != kFalse; ++i) {
        result = ApplyRecT<kPar>(cx, result, ops[i], op, depth);
      }
    } else {
      std::vector<NodeId> fold = ops;
      while (fold.size() > 1) {
        size_t next = 0;
        for (size_t i = 0; i + 1 < fold.size(); i += 2) {
          fold[next++] = ApplyRecT<kPar>(cx, fold[i], fold[i + 1], op, depth);
        }
        if (fold.size() % 2 == 1) fold[next++] = fold.back();
        fold.resize(next);
      }
      result = fold[0];
    }
    if (budget() != nullptr && result < 0) return result;  // never memoized
    cx.nary_memo.emplace(std::move(key), result);
    return result;
  }

  ++cx.counters.nary_applies;
  while (cx.scratch.size() <= cx.rec_depth) cx.scratch.emplace_back();
  Elements& out = cx.scratch[cx.rec_depth];
  ++cx.rec_depth;
  out.clear();
  // Absorbing-sub collapse, n-ary: an element whose sub is already the
  // op's absorbing terminal contributes (prime, absorbing) outright (the
  // other operands' primes are exhaustive over its prime), and the
  // product below skips it — its cells are covered.
  const NodeId absorbing = (op == Op::kAnd) ? kFalse : kTrue;
  for (const ElementSpan& span : spans) {
    for (const auto& [p, s] : span) {
      if (s == absorbing) {
        out.emplace_back(p, s);
        ++cx.counters.absorb_collapses;
      }
    }
  }
  // Smallest element lists first: dead partial primes prune the widest
  // subtrees of the product as early as possible.
  std::vector<size_t> order(spans.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    return spans[x].size() < spans[y].size();
  });
  std::vector<NodeId> subs(spans.size());
  std::vector<NodeId> sub_ops;  // leaf fold buffer, reused across leaves
  sub_ops.reserve(spans.size());
  // Depth-first element product with live-prime pruning: each level picks
  // one element of one operand, conjoining its prime into the running
  // cell prime; a false cell prime cuts the whole subtree. Leaves fold
  // their collected subs with a recursive n-ary apply.
  auto dfs = [&](auto&& self, size_t level, NodeId acc) -> void {
    if (level == spans.size()) {
      sub_ops.assign(subs.begin(), subs.end());
      NodeId s;
      if (!NormalizeNaryOps(cx, &sub_ops, op, &s)) {
        s = ApplyNT<kPar>(cx, sub_ops, op, depth + 1);
      }
      out.emplace_back(acc, s);
      return;
    }
    for (const auto& [p, s] : spans[order[level]]) {
      if (s == absorbing) continue;  // collapsed above
      NodeId cell = p;
      if (acc != kTrue) {
        cell = FastApplyT<kPar>(cx, acc, p, Op::kAnd);
        if (cell < 0) cell = ApplyRecT<kPar>(cx, acc, p, Op::kAnd, depth + 1);
      }
      // Aborted cell prime: skip the subtree — the tripped check after
      // the product returns kAborted before anything uses `out`.
      if (budget() != nullptr && cell < 0) return;
      if (cell == kFalse) continue;
      subs[level] = s;
      self(self, level + 1, cell);
    }
  };
  dfs(dfs, 0, kTrue);
  if (budget() != nullptr && budget()->tripped()) {
    --cx.rec_depth;
    return kAborted;
  }
  cx.counters.element_products += out.size();
  result = MakeDecisionT<kPar>(cx, lca, &out, depth);
  --cx.rec_depth;
  if (budget() != nullptr && result < 0) return result;  // never memoized
  cx.nary_memo.emplace(std::move(key), result);
  return result;
}

template <bool kPar>
SddManager::NodeId SddManager::AndNT(Ctx& cx, std::vector<NodeId> ops) {
  NodeId result;
  if (NormalizeNaryOps(cx, &ops, Op::kAnd, &result)) return result;
  if (ops.size() <= kNaryFoldArity) {
    // One n-ary element product: wide gates canonicalize once instead of
    // paying MakeDecision per binary apply.
    result = ApplyNT<kPar>(cx, ops, Op::kAnd, 0);
  } else {
    // Sequential accumulation: each conjunct constrains the accumulator,
    // so intermediates shrink as constraints pile up (the CNF-compilation
    // regime, where a balanced fold would first build large unconstrained
    // halves — ~300x slower on the ladder workloads).
    result = ops[0];
    for (size_t i = 1; i < ops.size() && result != kFalse; ++i) {
      result = ApplyRecT<kPar>(cx, result, ops[i], Op::kAnd, 0);
    }
  }
  return result;
}

template <bool kPar>
SddManager::NodeId SddManager::OrNT(Ctx& cx, std::vector<NodeId> ops) {
  NodeId result;
  if (NormalizeNaryOps(cx, &ops, Op::kOr, &result)) return result;
  // Balanced chunked fold: disjuncts do not constrain each other, so a
  // sequential accumulator would re-walk an ever-growing DNF-like result
  // per operand; combining up to kNaryFoldArity scope-adjacent disjuncts
  // per n-ary product keeps intermediates local and skips their pairwise
  // canonicalization.
  while (ops.size() > 1) {
    size_t next = 0;
    bool saw_true = false;
    for (size_t i = 0; i < ops.size() && !saw_true; i += kNaryFoldArity) {
      const size_t end = std::min(ops.size(), i + kNaryFoldArity);
      std::vector<NodeId> chunk(ops.begin() + i, ops.begin() + end);
      NodeId combined;
      if (!NormalizeNaryOps(cx, &chunk, Op::kOr, &combined)) {
        combined = ApplyNT<kPar>(cx, chunk, Op::kOr, 0);
      }
      saw_true = (combined == kTrue);
      ops[next++] = combined;
    }
    ops.resize(next);
    if (saw_true) {
      ops = {kTrue};
      break;
    }
  }
  return ops[0];
}

SddManager::NodeId SddManager::AndN(std::vector<NodeId> ops) {
  thread_check_.Check();
  if (InParallelRegion()) {
    return AndNT<true>(CurCtx(), std::move(ops));
  }
  if (pool_ != nullptr && pool_->parallel()) {
    BeginParallelRegion();
    const NodeId result = AndNT<true>(CurCtx(), std::move(ops));
    EndParallelRegion();
    return result;
  }
  ++apply_depth_;
  const NodeId result = AndNT<false>(ctxs_[0], std::move(ops));
  LeaveOp();
  return result;
}

SddManager::NodeId SddManager::OrN(std::vector<NodeId> ops) {
  thread_check_.Check();
  if (InParallelRegion()) {
    return OrNT<true>(CurCtx(), std::move(ops));
  }
  if (pool_ != nullptr && pool_->parallel()) {
    BeginParallelRegion();
    const NodeId result = OrNT<true>(CurCtx(), std::move(ops));
    EndParallelRegion();
    return result;
  }
  ++apply_depth_;
  const NodeId result = OrNT<false>(ctxs_[0], std::move(ops));
  LeaveOp();
  return result;
}

SddManager::NodeId SddManager::Not(NodeId a) {
  thread_check_.Check();
  if (InParallelRegion()) {
    return NotRecT<true>(CurCtx(), a, 0);
  }
  ++apply_depth_;
  const NodeId result = NotRecT<false>(ctxs_[0], a, 0);
  LeaveOp();
  return result;
}

template <bool kPar>
SddManager::NodeId SddManager::NotRecT(Ctx& cx, NodeId a, int depth) {
  if (budget() != nullptr && (a < 0 || budget()->tripped())) return kAborted;
  if (a == kFalse) return kTrue;
  if (a == kTrue) return kFalse;
  // The exact negation links are a complete, unbounded memo: every
  // negation ever computed (and every complement literal pair) is linked,
  // so a hit here is O(1) and a whole-diagram negation visits each
  // unlinked node once.
  // Acquire pairs with LinkNegations' release: the caller goes on to read
  // the linked node, which another worker may have just created.
  const NodeId linked =
      NegationOf(fast_info_[a]).load(std::memory_order_acquire);
  if (linked >= 0) return linked;
  // Copy the node header: recursive calls below may grow the store. The
  // element pointer stays valid (arena chunks never move).
  const Node n = store_[a];
  NodeId result;
  if (n.kind == Kind::kLiteral) {
    result = Literal(n.var, !n.sense);
  } else {
    Elements out(n.elems, n.elems + n.num_elems);
    for (auto& [p, s] : out) s = NotRecT<kPar>(cx, s, depth);
    result = MakeDecisionT<kPar>(cx, n.vnode, &out, depth);
  }
  if (budget() != nullptr && result < 0) return result;  // never linked
  LinkNegations(a, result);
  return result;
}

SddManager::NodeId SddManager::Restrict(NodeId a, int var, bool value) {
  thread_check_.Check();
  CTSDD_CHECK(!InParallelRegion()) << "Restrict inside a parallel region";
  const int leaf = vtree_.LeafOf(var);
  CTSDD_CHECK_GE(leaf, 0);
  ++apply_depth_;
  std::unordered_map<NodeId, NodeId> memo;
  std::function<NodeId(NodeId)> rec = [&](NodeId u) -> NodeId {
    if (IsConst(u)) return u;
    // Copy the node header: recursive calls may grow the store.
    const Node n = store_[u];
    // If var is outside u's scope, u is unchanged.
    if (!vtree_.IsAncestorOrSelf(n.vnode, leaf)) return u;
    const auto it = memo.find(u);
    if (it != memo.end()) return it->second;
    NodeId result;
    if (n.kind == Kind::kLiteral) {
      result = (n.sense == value) ? kTrue : kFalse;
    } else {
      Elements out(n.elems, n.elems + n.num_elems);
      if (vtree_.IsAncestorOrSelf(vtree_.left(n.vnode), leaf)) {
        for (auto& [p, s] : out) p = rec(p);
      } else {
        for (auto& [p, s] : out) s = rec(s);
      }
      result = MakeDecisionT<false>(ctxs_[0], n.vnode, &out, 0);
    }
    memo.emplace(u, result);
    return result;
  };
  const NodeId result = rec(a);
  LeaveOp();
  return result;
}

SddManager::NodeId SddManager::Exists(NodeId a, int var) {
  return Or(Restrict(a, var, false), Restrict(a, var, true));
}

SddManager::NodeId SddManager::Forall(NodeId a, int var) {
  return And(Restrict(a, var, false), Restrict(a, var, true));
}

SddManager::NodeId SddManager::ExistsAll(NodeId a,
                                         const std::vector<int>& vars) {
  for (int var : vars) a = Exists(a, var);
  return a;
}

bool SddManager::AnyModel(NodeId a, std::map<int, bool>* out) const {
  out->clear();
  if (a == kFalse) return false;
  // Walk down: at each decision pick a satisfiable (prime, sub) pair with
  // sub != false; fill unconstrained variables with false.
  std::function<bool(NodeId)> descend = [&](NodeId u) -> bool {
    if (u == kFalse) return false;
    if (u == kTrue) return true;
    const Node& n = store_[u];
    if (n.kind == Kind::kLiteral) {
      out->emplace(n.var, n.sense);
      return true;
    }
    for (const auto& [p, s] : elements(u)) {
      if (s == kFalse) continue;
      // Primes are satisfiable by construction.
      if (!descend(p)) continue;
      return descend(s);
    }
    return false;
  };
  if (!descend(a)) return false;
  for (int v : vtree_.Vars()) out->try_emplace(v, false);
  return true;
}

bool SddManager::Evaluate(NodeId a,
                          const std::map<int, bool>& assignment) const {
  std::function<bool(NodeId)> rec = [&](NodeId u) -> bool {
    if (u == kFalse) return false;
    if (u == kTrue) return true;
    const Node& n = store_[u];
    if (n.kind == Kind::kLiteral) {
      const auto it = assignment.find(n.var);
      CTSDD_CHECK(it != assignment.end())
          << "assignment missing variable x" << n.var;
      return it->second == n.sense;
    }
    for (const auto& [p, s] : elements(u)) {
      if (rec(p)) return rec(s);
    }
    CTSDD_CHECK(false) << "primes must be exhaustive";
    return false;
  };
  return rec(a);
}

uint64_t SddManager::CountModelsAt(
    NodeId a, int vnode, std::unordered_map<uint64_t, uint64_t>* memo) const {
  const int scope = static_cast<int>(vtree_.VarsBelow(vnode).size());
  CTSDD_CHECK_LE(scope, 62);
  if (a == kFalse) return 0;
  if (a == kTrue) return 1ULL << scope;
  const uint64_t key = (static_cast<uint64_t>(a) << 20) |
                       static_cast<uint64_t>(vnode);
  const auto it = memo->find(key);
  if (it != memo->end()) return it->second;
  const Node& n = store_[a];
  CTSDD_CHECK(vtree_.IsAncestorOrSelf(vnode, n.vnode))
      << "node out of scope for model counting";
  uint64_t result;
  if (n.kind == Kind::kLiteral) {
    result = 1ULL << (scope - 1);
  } else {
    const int w = n.vnode;
    uint64_t base = 0;
    for (const auto& [p, s] : elements(a)) {
      base += CountModelsAt(p, vtree_.left(w), memo) *
              CountModelsAt(s, vtree_.right(w), memo);
    }
    const int w_scope = static_cast<int>(vtree_.VarsBelow(w).size());
    result = base << (scope - w_scope);
  }
  memo->emplace(key, result);
  return result;
}

uint64_t SddManager::CountModels(NodeId a) const {
  std::unordered_map<uint64_t, uint64_t> memo;
  return CountModelsAt(a, vtree_.root(), &memo);
}

double SddManager::WmcAt(NodeId a, int vnode,
                         const std::vector<double>& prob_of_var,
                         std::unordered_map<uint64_t, double>* memo) const {
  if (a == kFalse) return 0.0;
  if (a == kTrue) return 1.0;
  const uint64_t key = (static_cast<uint64_t>(a) << 20) |
                       static_cast<uint64_t>(vnode);
  const auto it = memo->find(key);
  if (it != memo->end()) return it->second;
  const Node& n = store_[a];
  double result;
  if (n.kind == Kind::kLiteral) {
    const double p = prob_of_var[n.var];
    result = n.sense ? p : 1.0 - p;
  } else {
    const int w = n.vnode;
    result = 0.0;
    for (const auto& [p, s] : elements(a)) {
      result += WmcAt(p, vtree_.left(w), prob_of_var, memo) *
                WmcAt(s, vtree_.right(w), prob_of_var, memo);
    }
  }
  memo->emplace(key, result);
  return result;
}

double SddManager::WeightedModelCount(
    NodeId a, const std::map<int, double>& prob) const {
  int max_var = 0;
  for (int v : vtree_.Vars()) max_var = std::max(max_var, v);
  std::vector<double> prob_of_var(max_var + 1, 0.5);
  for (const auto& [v, p] : prob) {
    if (v <= max_var) prob_of_var[v] = p;
  }
  std::unordered_map<uint64_t, double> memo;
  return WmcAt(a, vtree_.root(), prob_of_var, &memo);
}

BoolFunc SddManager::ToBoolFunc(NodeId a) const {
  const std::vector<int>& all = vtree_.Vars();
  CTSDD_CHECK_LE(static_cast<int>(all.size()), BoolFunc::kMaxVars);
  std::unordered_map<NodeId, BoolFunc> memo;
  std::function<BoolFunc(NodeId)> rec = [&](NodeId u) -> BoolFunc {
    if (u == kFalse) return BoolFunc::Constant(false);
    if (u == kTrue) return BoolFunc::Constant(true);
    const auto it = memo.find(u);
    if (it != memo.end()) return it->second;
    const Node& n = store_[u];
    BoolFunc result;
    if (n.kind == Kind::kLiteral) {
      result = BoolFunc::Literal(n.var, n.sense);
    } else {
      result = BoolFunc::Constant(false);
      for (const auto& [p, s] : elements(u)) {
        result = result | (rec(p) & rec(s));
      }
    }
    memo.emplace(u, result);
    return result;
  };
  return rec(a).ExpandTo(all);
}

int SddManager::Size(NodeId a) const {
  int total = 0;
  for (int count : VtreeProfile(a)) total += count;
  return total;
}

int SddManager::NumDecisions(NodeId a) const {
  int count = 0;
  std::vector<bool> seen(store_.size(), false);
  std::vector<NodeId> stack = {a};
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    if (IsConst(u) || seen[u]) continue;
    seen[u] = true;
    if (store_[u].kind == Kind::kDecision) {
      ++count;
      for (const auto& [p, s] : elements(u)) {
        stack.push_back(p);
        stack.push_back(s);
      }
    }
  }
  return count;
}

std::vector<int> SddManager::VtreeProfile(NodeId a) const {
  std::vector<int> profile(vtree_.num_nodes(), 0);
  std::vector<bool> seen(store_.size(), false);
  std::vector<NodeId> stack = {a};
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    if (IsConst(u) || seen[u]) continue;
    seen[u] = true;
    const Node& n = store_[u];
    if (n.kind == Kind::kDecision) {
      profile[n.vnode] += static_cast<int>(n.num_elems);
      for (const auto& [p, s] : elements(u)) {
        stack.push_back(p);
        stack.push_back(s);
      }
    }
  }
  return profile;
}

int SddManager::Width(NodeId a) const {
  int width = 0;
  for (int count : VtreeProfile(a)) width = std::max(width, count);
  return width;
}

Status SddManager::Validate(NodeId a) {
  std::vector<bool> seen(store_.size(), false);
  std::vector<NodeId> stack = {a};
  std::unordered_map<uint64_t, uint64_t> memo;
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    if (IsConst(u) || seen[u]) continue;
    seen[u] = true;
    // Copy the node header: the disjointness checks below may grow the store.
    // The element pointer stays valid (arena chunks never move).
    const Node n = store_[u];
    if (n.kind == Kind::kLiteral) continue;
    if (vtree_.is_leaf(n.vnode)) {
      return Status::Internal("decision normalized at a vtree leaf");
    }
    if (n.num_elems < 2) {
      return Status::Internal("untrimmed single-element decision");
    }
    const int left = vtree_.left(n.vnode);
    const int right = vtree_.right(n.vnode);
    const ElementSpan elems{n.elems, n.num_elems};
    uint64_t prime_models = 0;
    std::vector<NodeId> subs;
    for (const auto& [p, s] : elems) {
      if (p == kFalse || p == kTrue) {
        return Status::Internal("constant prime in multi-element decision");
      }
      if (!vtree_.IsAncestorOrSelf(left, store_[p].vnode)) {
        return Status::Internal("prime outside left vtree subtree");
      }
      if (!IsConst(s) && !vtree_.IsAncestorOrSelf(right, store_[s].vnode)) {
        return Status::Internal("sub outside right vtree subtree");
      }
      prime_models += CountModelsAt(p, left, &memo);
      subs.push_back(s);
      stack.push_back(p);
      stack.push_back(s);
    }
    // Pairwise disjointness of primes.
    for (size_t i = 0; i < elems.size(); ++i) {
      for (size_t j = i + 1; j < elems.size(); ++j) {
        if (And(elems[i].first, elems[j].first) != kFalse) {
          return Status::Internal("primes not pairwise disjoint");
        }
      }
    }
    // Exhaustiveness: disjoint primes partition iff counts sum to the cube.
    const int left_scope = static_cast<int>(vtree_.VarsBelow(left).size());
    if (prime_models != (1ULL << left_scope)) {
      return Status::Internal("primes do not partition their scope");
    }
    std::sort(subs.begin(), subs.end());
    if (std::adjacent_find(subs.begin(), subs.end()) != subs.end()) {
      return Status::Internal("duplicate subs (compression violated)");
    }
  }
  return Status::Ok();
}

}  // namespace ctsdd
