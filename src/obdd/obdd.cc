#include "obdd/obdd.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <set>

#include "util/fault_injection.h"
#include "util/hashing.h"

namespace ctsdd {

ObddManager::ObddManager(std::vector<int> var_order, Options options)
    : var_order_(std::move(var_order)),
      ite_cache_(options.ite_cache_slots),
      nary_cache_(options.nary_cache_slots) {
  for (int i = 0; i < num_levels(); ++i) {
    const auto [it, inserted] = level_of_var_.emplace(var_order_[i], i);
    CTSDD_CHECK(inserted) << "duplicate variable in order";
    (void)it;
  }
  // Terminals occupy ids 0 and 1 with a sentinel level beyond the last.
  store_.Alloc({num_levels(), -1, -1});
  store_.Alloc({num_levels(), -1, -1});
}

int ObddManager::LevelOf(int var) const {
  const auto it = level_of_var_.find(var);
  return it == level_of_var_.end() ? -1 : it->second;
}

template <bool kPar>
ObddManager::NodeId ObddManager::MakeNodeT(int level, NodeId lo, NodeId hi) {
  if (lo == hi) return lo;  // reduction rule
  // Abort-sentinel children unwind the construction. The register-only
  // sign test beats consulting the budget here: kAborted only arises
  // while a budget is attached, and a tripped budget is re-observed at
  // the next lease refill (denying the allocation) anyway.
  if ((lo | hi) < 0) return kAborted;
  CTSDD_CHECK_LT(level, store_[lo].level);
  CTSDD_CHECK_LT(level, store_[hi].level);
  const uint64_t hash = NodeHash(level, lo, hi);
  const auto eq = [&](int32_t id) {
    const Node& n = store_[id];
    return n.level == level && n.lo == lo && n.hi == hi;
  };
  if constexpr (kPar) {
    return store_.unique().FindOrInsert(hash, eq, [&] {
      const size_t slot = 1 + static_cast<size_t>(pool_->CurrentSlot());
      if (budget() != nullptr) store_.Charge(slot);
      CTSDD_FAULT_POINT("obdd.alloc");
      return store_.AllocIn(slot, {level, lo, hi});
    });
  } else {
    const int32_t found = store_.unique().Find(hash, eq);
    if (found != UniqueTable::kEmpty) return found;
    if (budget() != nullptr && !store_.Charge(0)) return kAborted;
    CTSDD_FAULT_POINT("obdd.alloc");
    const NodeId id = store_.Alloc({level, lo, hi});
    store_.unique().Insert(hash, id);
    return id;
  }
}

ObddManager::NodeId ObddManager::MakeNode(int level, NodeId lo, NodeId hi) {
  thread_check_.Check();
  return InParallelRegion() ? MakeNodeT<true>(level, lo, hi)
                            : MakeNodeT<false>(level, lo, hi);
}

void ObddManager::BeginParallelRegion() {
  CTSDD_CHECK(pool_ != nullptr && pool_->parallel())
      << "BeginParallelRegion without a parallel executor attached";
  CTSDD_CHECK_EQ(op_depth_, 0) << "parallel region inside an operation";
  thread_check_.Check();  // verify ownership before suspending it
  store_.BeginRegion(static_cast<size_t>(pool_->max_slots()));
  thread_check_.BeginShared();
  // Pre-size the striped caches: they cannot grow while the region runs,
  // and warm-up thrash on the apply path is pure recomputation.
  ite_cache_.BeginConcurrent(1 << 16);
  nary_cache_.BeginConcurrent(1 << 12);
  ite_memo_.BeginConcurrent();
  nary_memo_.BeginConcurrent();
}

void ObddManager::EndParallelRegion() {
  store_.EndRegion();
  ite_cache_.EndConcurrent();
  nary_cache_.EndConcurrent();
  ite_memo_.EndConcurrent();
  nary_memo_.EndConcurrent();
  // The memos were region-scoped: one reset bounds their footprint by
  // the region's largest live set, mirroring LeaveOp.
  ite_memo_.Reset();
  nary_memo_.Reset();
  thread_check_.EndShared();
}

void ObddManager::AttachBudget(WorkBudget* budget) {
  thread_check_.Check();
  CTSDD_CHECK_EQ(op_depth_, 0) << "AttachBudget inside an operation";
  store_.AttachBudget(budget);
}

void ObddManager::AttachMemAccount(MemAccount* account) {
  thread_check_.Check();
  CTSDD_CHECK_EQ(op_depth_, 0) << "AttachMemAccount inside an operation";
  store_.AttachMemAccount(account);
  ite_cache_.SetMemAccount(account);
  nary_cache_.SetMemAccount(account);
  ite_memo_.SetMemAccount(account);
  nary_memo_.SetMemAccount(account);
}

Status ObddManager::Validate() const {
  CTSDD_RETURN_IF_ERROR(store_.Validate());
  const int levels = num_levels();
  const size_t n = store_.size();
  for (size_t id = 2; id < n; ++id) {
    const Node& node = store_[id];
    if (StoreTraits::IsDead(node)) continue;
    if (node.level < 0 || node.level >= levels) {
      return Status::Internal("node level out of range");
    }
    if (node.lo < 0 || static_cast<size_t>(node.lo) >= n || node.hi < 0 ||
        static_cast<size_t>(node.hi) >= n) {
      return Status::Internal("node child out of range");
    }
    if (node.lo == node.hi) {
      return Status::Internal("unreduced node (lo == hi)");
    }
    if (store_[node.lo].level <= node.level ||
        store_[node.hi].level <= node.level) {
      return Status::Internal("child level not below parent (or dead child)");
    }
    const int32_t found =
        store_.unique().Find(StoreTraits::Hash(node), [&](int32_t cand) {
          const Node& c = store_[cand];
          return c.level == node.level && c.lo == node.lo && c.hi == node.hi;
        });
    if (found != static_cast<int32_t>(id)) {
      return Status::Internal(
          found == UniqueTable::kEmpty
              ? "live node missing from the unique table"
              : "duplicate node in the unique table");
    }
  }
  return Status::Ok();
}

void ObddManager::AddRootRef(NodeId id) {
  thread_check_.Check();
  store_.AddRootRef(id);
}

void ObddManager::ReleaseRootRef(NodeId id) {
  thread_check_.Check();
  store_.ReleaseRootRef(id);
}

size_t ObddManager::GarbageCollect() {
  thread_check_.Check();
  CTSDD_CHECK_EQ(op_depth_, 0) << "GC inside an operation";
  return store_.Collect(
      "obdd.gc", pool_, {}, [](NodeId, const Node&) {},
      [&] {
        // Freed ids may be reused, so cached results naming them must go.
        ite_cache_.Clear();
        nary_cache_.Clear();
      },
      [&] { return MemoryBytes(); });
}

void ObddManager::ShrinkCaches() {
  thread_check_.Check();
  CTSDD_CHECK_EQ(op_depth_, 0) << "ShrinkCaches inside an operation";
  CTSDD_CHECK(!InParallelRegion()) << "ShrinkCaches inside a parallel region";
  ite_cache_.Shrink();
  nary_cache_.Shrink();
  ite_memo_.Shrink();
  nary_memo_.Shrink();
}

ObddManager::NodeId ObddManager::Literal(int var, bool positive) {
  const int level = LevelOf(var);
  CTSDD_CHECK_GE(level, 0) << "variable x" << var << " not in order";
  return positive ? MakeNode(level, kFalse, kTrue)
                  : MakeNode(level, kTrue, kFalse);
}

ObddManager::NodeId ObddManager::CofactorLo(NodeId f, int level) const {
  const Node& n = store_[f];
  return n.level == level ? n.lo : f;
}

ObddManager::NodeId ObddManager::CofactorHi(NodeId f, int level) const {
  const Node& n = store_[f];
  return n.level == level ? n.hi : f;
}

ObddManager::NodeId ObddManager::Ite(NodeId f, NodeId g, NodeId h) {
  thread_check_.Check();
  if (InParallelRegion()) {
    // Nested call issued from inside an open region (a compiler task or
    // a caller that spans several operations in one region): recurse on
    // the concurrent path; the region owner resets the memos.
    return IteRecT<true>(f, g, h, 0);
  }
  if (pool_ != nullptr && pool_->parallel()) {
    BeginParallelRegion();
    const NodeId result = IteRecT<true>(f, g, h, 0);
    EndParallelRegion();
    return result;
  }
  ++op_depth_;
  const NodeId result = IteRecT<false>(f, g, h, 0);
  LeaveOp();
  return result;
}

template <bool kPar>
ObddManager::NodeId ObddManager::IteRecT(NodeId f, NodeId g, NodeId h,
                                         int depth) {
  if (budget() != nullptr && ((f | g | h) < 0 || budget()->tripped())) {
    return kAborted;
  }
  // Terminal cases.
  if (f == kTrue) return g;
  if (f == kFalse) return h;
  if (g == h) return g;
  if (g == kTrue && h == kFalse) return f;
  const IteKey key{f, g, h};
  const uint64_t hash = Hash3(static_cast<uint64_t>(f),
                              static_cast<uint64_t>(g),
                              static_cast<uint64_t>(h));
  NodeId cached;
  if constexpr (kPar) {
    if (ite_cache_.LookupC(hash, key, &cached)) return cached;
    if (ite_memo_.LookupC(hash, key, &cached)) return cached;
  } else {
    if (ite_cache_.Lookup(hash, key, &cached)) return cached;
    if (ite_memo_.Lookup(hash, key, &cached)) return cached;
  }
  const int level =
      std::min({store_[f].level, store_[g].level, store_[h].level});
  const NodeId fl = CofactorLo(f, level), gl = CofactorLo(g, level),
               hl = CofactorLo(h, level);
  const NodeId fh = CofactorHi(f, level), gh = CofactorHi(g, level),
               hh = CofactorHi(h, level);
  NodeId lo, hi;
  if constexpr (kPar) {
    if (depth < kForkDepth) {
      exec::ParallelInvoke(
          pool_, [&] { lo = IteRecT<true>(fl, gl, hl, depth + 1); },
          [&] { hi = IteRecT<true>(fh, gh, hh, depth + 1); });
    } else {
      lo = IteRecT<true>(fl, gl, hl, depth + 1);
      hi = IteRecT<true>(fh, gh, hh, depth + 1);
    }
  } else {
    lo = IteRecT<false>(fl, gl, hl, depth + 1);
    hi = IteRecT<false>(fh, gh, hh, depth + 1);
  }
  const NodeId result = MakeNodeT<kPar>(level, lo, hi);
  if (budget() != nullptr && result < 0) return result;  // never cached
  if constexpr (kPar) {
    ite_cache_.StoreC(hash, key, result);
    ite_memo_.InsertC(hash, key, result);
  } else {
    ite_cache_.Store(hash, key, result);
    ite_memo_.Insert(hash, key, result);
  }
  return result;
}

ObddManager::NodeId ObddManager::Not(NodeId f) {
  return Ite(f, kFalse, kTrue);
}

ObddManager::NodeId ObddManager::And(NodeId f, NodeId g) {
  return Ite(f, g, kFalse);
}

ObddManager::NodeId ObddManager::Or(NodeId f, NodeId g) {
  return Ite(f, kTrue, g);
}

ObddManager::NodeId ObddManager::Xor(NodeId f, NodeId g) {
  return Ite(f, Not(g), g);
}

ObddManager::NodeId ObddManager::ApplyN(std::vector<NodeId> ops,
                                        bool is_and) {
  thread_check_.Check();
  if (InParallelRegion()) {
    return ApplyNRecT<true>(std::move(ops), is_and, 0);
  }
  if (pool_ != nullptr && pool_->parallel()) {
    BeginParallelRegion();
    const NodeId result = ApplyNRecT<true>(std::move(ops), is_and, 0);
    EndParallelRegion();
    return result;
  }
  ++op_depth_;
  const NodeId result = ApplyNRecT<false>(std::move(ops), is_and, 0);
  LeaveOp();
  return result;
}

template <bool kPar>
ObddManager::NodeId ObddManager::ApplyNRecT(std::vector<NodeId> ops,
                                            bool is_and, int depth) {
  if (budget() != nullptr) {
    if (budget()->tripped()) return kAborted;
    for (const NodeId op : ops) {
      if (op < 0) return kAborted;
    }
  }
  const NodeId absorbing = is_and ? kFalse : kTrue;
  const NodeId neutral = is_and ? kTrue : kFalse;
  // Normalize: drop neutral operands, short-circuit on absorbing ones,
  // canonicalize order (min level first) and deduplicate.
  // Decorated sort: pack (level, id) into one word per operand so the
  // comparator never re-touches the node store (one node access per
  // operand instead of one per comparison). Equal ids pack equally, so
  // the adjacent-unique dedup carries over.
  std::vector<uint64_t> keyed;
  keyed.reserve(ops.size());
  for (const NodeId op : ops) {
    if (op == absorbing) return absorbing;
    if (op != neutral) {
      keyed.push_back((static_cast<uint64_t>(store_[op].level) << 32) |
                      static_cast<uint32_t>(op));
    }
  }
  std::sort(keyed.begin(), keyed.end());
  keyed.erase(std::unique(keyed.begin(), keyed.end()), keyed.end());
  ops.resize(keyed.size());
  for (size_t i = 0; i < keyed.size(); ++i) {
    ops[i] = static_cast<NodeId>(static_cast<uint32_t>(keyed[i]));
  }
  if (ops.empty()) return neutral;
  if (ops.size() == 1) return ops[0];
  if (ops.size() == 2) {
    const NodeId a = ops[0], b = ops[1];
    return is_and ? IteRecT<kPar>(a, b, kFalse, depth)
                  : IteRecT<kPar>(a, kTrue, b, depth);
  }
  uint64_t hash = HashMix64(is_and ? 0x517cc1b727220a95ULL : 1);
  for (const NodeId op : ops) {
    hash = HashCombine(hash, static_cast<uint64_t>(op));
  }
  NaryKey key{is_and, ops};
  NodeId cached;
  if constexpr (kPar) {
    if (nary_cache_.LookupC(hash, key, &cached)) return cached;
    if (nary_memo_.LookupC(hash, key, &cached)) return cached;
  } else {
    if (nary_cache_.Lookup(hash, key, &cached)) return cached;
    if (nary_memo_.Lookup(hash, key, &cached)) return cached;
  }
  const int level = store_[ops[0]].level;  // min level after the sort
  std::vector<NodeId> lo_ops;
  std::vector<NodeId> hi_ops;
  lo_ops.reserve(ops.size());
  hi_ops.reserve(ops.size());
  for (const NodeId op : ops) {
    lo_ops.push_back(CofactorLo(op, level));
    hi_ops.push_back(CofactorHi(op, level));
  }
  NodeId lo, hi;
  if constexpr (kPar) {
    if (depth < kForkDepth) {
      exec::ParallelInvoke(
          pool_,
          [&] { lo = ApplyNRecT<true>(std::move(lo_ops), is_and, depth + 1); },
          [&] {
            hi = ApplyNRecT<true>(std::move(hi_ops), is_and, depth + 1);
          });
    } else {
      lo = ApplyNRecT<true>(std::move(lo_ops), is_and, depth + 1);
      hi = ApplyNRecT<true>(std::move(hi_ops), is_and, depth + 1);
    }
  } else {
    lo = ApplyNRecT<false>(std::move(lo_ops), is_and, depth + 1);
    hi = ApplyNRecT<false>(std::move(hi_ops), is_and, depth + 1);
  }
  const NodeId result = MakeNodeT<kPar>(level, lo, hi);
  if (budget() != nullptr && result < 0) return result;  // never cached
  if constexpr (kPar) {
    nary_cache_.StoreC(hash, key, result);
    nary_memo_.InsertC(hash, std::move(key), result);
  } else {
    nary_cache_.Store(hash, key, result);
    nary_memo_.Insert(hash, std::move(key), result);
  }
  return result;
}

ObddManager::NodeId ObddManager::AndN(std::vector<NodeId> ops) {
  return ApplyN(std::move(ops), /*is_and=*/true);
}

ObddManager::NodeId ObddManager::OrN(std::vector<NodeId> ops) {
  return ApplyN(std::move(ops), /*is_and=*/false);
}

ObddManager::NodeId ObddManager::Restrict(NodeId f, int var, bool value) {
  const int level = LevelOf(var);
  CTSDD_CHECK_GE(level, 0);
  // Recursive restrict with a local cache keyed by node id.
  std::unordered_map<NodeId, NodeId> cache;
  std::function<NodeId(NodeId)> rec = [&](NodeId u) -> NodeId {
    if (IsTerminal(u) || store_[u].level > level) return u;
    const auto it = cache.find(u);
    if (it != cache.end()) return it->second;
    NodeId result;
    if (store_[u].level == level) {
      result = value ? store_[u].hi : store_[u].lo;
    } else {
      result = MakeNode(store_[u].level, rec(store_[u].lo), rec(store_[u].hi));
    }
    cache.emplace(u, result);
    return result;
  };
  return rec(f);
}

bool ObddManager::Evaluate(NodeId f,
                           const std::vector<bool>& values_by_level) const {
  CTSDD_CHECK_EQ(static_cast<int>(values_by_level.size()), num_levels());
  while (!IsTerminal(f)) {
    const Node& n = store_[f];
    f = values_by_level[n.level] ? n.hi : n.lo;
  }
  return f == kTrue;
}

uint64_t ObddManager::CountModels(NodeId f) const {
  CTSDD_CHECK_LE(num_levels(), 63);
  std::unordered_map<NodeId, uint64_t> memo;
  // count(u) = number of models of the subfunction over levels
  // [node(u).level, num_levels).
  std::function<uint64_t(NodeId)> rec = [&](NodeId u) -> uint64_t {
    if (u == kFalse) return 0;
    if (u == kTrue) return 1;
    const auto it = memo.find(u);
    if (it != memo.end()) return it->second;
    const Node& n = store_[u];
    const uint64_t lo = rec(n.lo)
                        << (store_[n.lo].level - n.level - 1);
    const uint64_t hi = rec(n.hi)
                        << (store_[n.hi].level - n.level - 1);
    const uint64_t result = lo + hi;
    memo.emplace(u, result);
    return result;
  };
  return rec(f) << store_[f].level;
}

double ObddManager::WeightedModelCount(
    NodeId f, const std::vector<double>& prob_by_level) const {
  CTSDD_CHECK_EQ(static_cast<int>(prob_by_level.size()), num_levels());
  std::unordered_map<NodeId, double> memo;
  std::function<double(NodeId)> rec = [&](NodeId u) -> double {
    if (u == kFalse) return 0.0;
    if (u == kTrue) return 1.0;
    const auto it = memo.find(u);
    if (it != memo.end()) return it->second;
    const Node& n = store_[u];
    const double p = prob_by_level[n.level];
    const double result = (1.0 - p) * rec(n.lo) + p * rec(n.hi);
    memo.emplace(u, result);
    return result;
  };
  return rec(f);
}

int ObddManager::Size(NodeId f) const {
  std::set<NodeId> seen;
  std::vector<NodeId> stack = {f};
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    if (IsTerminal(u) || seen.count(u)) continue;
    seen.insert(u);
    stack.push_back(store_[u].lo);
    stack.push_back(store_[u].hi);
  }
  return static_cast<int>(seen.size());
}

std::vector<int> ObddManager::LevelProfile(NodeId f) const {
  std::vector<int> profile(num_levels(), 0);
  std::set<NodeId> seen;
  std::vector<NodeId> stack = {f};
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    if (IsTerminal(u) || seen.count(u)) continue;
    seen.insert(u);
    ++profile[store_[u].level];
    stack.push_back(store_[u].lo);
    stack.push_back(store_[u].hi);
  }
  return profile;
}

int ObddManager::Width(NodeId f) const {
  const auto profile = LevelProfile(f);
  return profile.empty() ? 0 : *std::max_element(profile.begin(),
                                                 profile.end());
}

}  // namespace ctsdd
