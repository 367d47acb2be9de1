// Contract tests for util/diagram_store.h, on a toy binary node type:
// free-list reuse on the sequential and the block-claim path, region
// tail recycling, root ref-counting, the collector, budget leases, and
// death tests for the store's misuse CHECKs.

#include "util/diagram_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <vector>

#include "exec/task_pool.h"
#include "util/budget.h"
#include "util/hashing.h"

namespace ctsdd {
namespace {

// tag -1 marks a freed slot; the terminals carry tag 0 and no children.
struct ToyNode {
  int tag;
  int lo;
  int hi;
};

struct ToyTraits {
  static ToyNode Dead() { return {-1, -1, -1}; }
  static bool IsDead(const ToyNode& n) { return n.tag == -1; }
  template <typename F>
  static void ForEachChild(const ToyNode& n, F f) {
    f(n.lo);
    f(n.hi);
  }
  static bool HashConsed(const ToyNode& n) { return !IsDead(n); }
  static uint64_t Hash(const ToyNode& n) {
    return Hash3(static_cast<uint64_t>(n.tag), static_cast<uint64_t>(n.lo),
                 static_cast<uint64_t>(n.hi));
  }
};

using Store = DiagramStore<ToyNode, ToyTraits>;
using NodeId = Store::NodeId;

class DiagramStoreTest : public ::testing::Test {
 protected:
  DiagramStoreTest() {
    store_.Alloc({0, -1, -1});
    store_.Alloc({0, -1, -1});
  }

  // Hash-consed sequential construction, as the managers do it.
  NodeId Make(int tag, NodeId lo, NodeId hi) {
    const ToyNode node{tag, lo, hi};
    const uint64_t hash = ToyTraits::Hash(node);
    const int32_t found = Find(node);
    if (found != UniqueTable::kEmpty) return found;
    const NodeId id = store_.Alloc(node);
    store_.unique().Insert(hash, id);
    return id;
  }

  int32_t Find(const ToyNode& node) const {
    return store_.unique().Find(ToyTraits::Hash(node), [&](int32_t cand) {
      const ToyNode& c = store_[cand];
      return c.tag == node.tag && c.lo == node.lo && c.hi == node.hi;
    });
  }

  size_t Collect() {
    return store_.Collect(
        "test.gc", nullptr, {},
        [&](NodeId id, const ToyNode& node) {
          freed_.push_back(id);
          freed_tags_.push_back(node.tag);
        },
        [&] { ++sweeps_; }, [] { return size_t{0}; });
  }

  Store store_;
  std::vector<NodeId> freed_;
  std::vector<int> freed_tags_;
  int sweeps_ = 0;
};

TEST_F(DiagramStoreTest, CollectFreesUnreachableAndRebuildsUniqueTable) {
  const NodeId a = Make(1, 0, 1);
  const NodeId b = Make(2, a, 1);
  const NodeId c = Make(3, 0, 1);
  const NodeId d = Make(4, c, 0);
  store_.AddRootRef(b);
  EXPECT_EQ(Collect(), 2u);
  EXPECT_EQ(freed_, (std::vector<NodeId>{c, d}));
  // on_free sees each node before it is dead-marked.
  EXPECT_EQ(freed_tags_, (std::vector<int>{3, 4}));
  EXPECT_EQ(sweeps_, 1);
  EXPECT_TRUE(ToyTraits::IsDead(store_[c]));
  EXPECT_TRUE(ToyTraits::IsDead(store_[d]));
  EXPECT_EQ(Find({2, a, 1}), b);
  EXPECT_EQ(Find({1, 0, 1}), a);
  EXPECT_EQ(Find({3, 0, 1}), UniqueTable::kEmpty);
  EXPECT_EQ(store_.NumLive(), 4u);
  EXPECT_TRUE(store_.Validate().ok());
  EXPECT_EQ(store_.gc_stats().runs, 1u);
  EXPECT_EQ(store_.gc_stats().reclaimed, 2u);
}

TEST_F(DiagramStoreTest, SequentialAllocReusesLastFreedIdFirst) {
  const NodeId a = Make(1, 0, 1);
  const NodeId b = Make(2, 0, 1);
  const NodeId c = Make(3, 0, 1);
  store_.AddRootRef(a);
  ASSERT_EQ(Collect(), 2u);
  const size_t slots = store_.size();
  // The sweep free-lists ascending ids; allocation pops the back.
  EXPECT_EQ(Make(5, 0, 1), c);
  EXPECT_EQ(Make(6, 0, 1), b);
  EXPECT_EQ(store_.size(), slots);
  EXPECT_EQ(Make(7, 0, 1), static_cast<NodeId>(slots));
  EXPECT_EQ(store_.NumLive(), store_.size());
  EXPECT_TRUE(store_.Validate().ok());
}

TEST_F(DiagramStoreTest, BlockClaimPathTakesFreeListBeforeFreshBlocks) {
  const NodeId a = Make(1, 0, 1);
  const NodeId b = Make(2, 0, 1);
  const NodeId c = Make(3, 0, 1);
  ASSERT_EQ(Collect(), 3u);  // no roots: a, b, c freed
  const size_t slots = store_.size();
  store_.BeginRegion(2);
  // Slot 1 takes the whole free list as its batch and pops from the back.
  EXPECT_EQ(store_.AllocIn(1, {10, 0, 1}), c);
  EXPECT_EQ(store_.AllocIn(1, {11, 0, 1}), b);
  EXPECT_EQ(store_.AllocIn(1, {12, 0, 1}), a);
  // Batch and free list empty: slot 1 claims a fresh block, slot 2 the
  // next one.
  EXPECT_EQ(store_.AllocIn(1, {13, 0, 1}), static_cast<NodeId>(slots));
  EXPECT_EQ(store_.AllocIn(2, {14, 0, 1}),
            static_cast<NodeId>(slots + Store::kAllocBlock));
  EXPECT_EQ(store_.AllocIn(1, {15, 0, 1}), static_cast<NodeId>(slots + 1));
  store_.EndRegion();
  // Both blocks' unused tails are back on the free list, dead-marked.
  EXPECT_EQ(store_.size(), slots + 2 * Store::kAllocBlock);
  EXPECT_EQ(store_.NumLive(), 2u + 6u);
  EXPECT_TRUE(ToyTraits::IsDead(store_[static_cast<NodeId>(slots + 2)]));
  EXPECT_TRUE(store_.Validate().ok());
  // The next sequential allocation reuses the last recycled tail id.
  EXPECT_EQ(store_.Alloc({16, 0, 1}),
            static_cast<NodeId>(slots + 2 * Store::kAllocBlock - 1));
  EXPECT_TRUE(store_.Validate().ok());
}

TEST_F(DiagramStoreTest, RegionEndReturnsUnusedRecycledIds) {
  for (int tag = 1; tag <= 5; ++tag) Make(tag, 0, 1);
  ASSERT_EQ(Collect(), 5u);
  const size_t slots = store_.size();
  store_.BeginRegion(1);
  store_.AllocIn(1, {10, 0, 1});
  store_.AllocIn(1, {11, 0, 1});
  store_.EndRegion();
  EXPECT_EQ(store_.size(), slots);  // no block was claimed
  EXPECT_EQ(store_.NumLive(), 2u + 2u);
  EXPECT_TRUE(store_.Validate().ok());
}

TEST_F(DiagramStoreTest, ParallelAllocationYieldsDistinctLiveIds) {
  for (int tag = 1; tag <= 40; ++tag) Make(tag, 0, 1);
  ASSERT_EQ(Collect(), 40u);
  exec::TaskPool pool(4);
  constexpr size_t kAllocs = 2000;
  std::vector<NodeId> ids(kAllocs, -1);
  store_.BeginRegion(static_cast<size_t>(pool.max_slots()));
  exec::ParallelFor(&pool, kAllocs, [&](size_t i) {
    const size_t slot = 1 + static_cast<size_t>(pool.CurrentSlot());
    ids[i] = store_.AllocIn(slot, {static_cast<int>(i) + 100, 0, 1});
  });
  store_.EndRegion();
  const std::set<NodeId> distinct(ids.begin(), ids.end());
  EXPECT_EQ(distinct.size(), kAllocs);
  EXPECT_GE(*distinct.begin(), 2);
  for (size_t i = 0; i < kAllocs; ++i) {
    EXPECT_EQ(store_[ids[i]].tag, static_cast<int>(i) + 100);
  }
  EXPECT_EQ(store_.NumLive(), 2u + kAllocs);
  EXPECT_TRUE(store_.Validate().ok());
}

TEST_F(DiagramStoreTest, RootRefsAreCounted) {
  const NodeId a = Make(1, 0, 1);
  store_.AddRootRef(a);
  store_.AddRootRef(a);
  store_.ReleaseRootRef(a);
  EXPECT_EQ(Collect(), 0u);  // one reference still holds a
  store_.ReleaseRootRef(a);
  EXPECT_EQ(Collect(), 1u);
  EXPECT_EQ(freed_, (std::vector<NodeId>{a}));
  // Terminals need no references and ignore them.
  store_.AddRootRef(0);
  store_.ReleaseRootRef(1);
  EXPECT_EQ(store_.NumLive(), 2u);
}

TEST_F(DiagramStoreTest, PermanentRootsSurviveWithoutReferences) {
  const NodeId a = Make(1, 0, 1);
  const NodeId b = Make(2, a, 0);
  const NodeId c = Make(3, 0, 1);
  const std::vector<NodeId> permanent = {b};
  const size_t reclaimed = store_.Collect(
      "test.gc", nullptr, permanent, [](NodeId, const ToyNode&) {}, [] {},
      [] { return size_t{0}; });
  EXPECT_EQ(reclaimed, 1u);
  EXPECT_FALSE(ToyTraits::IsDead(store_[a]));
  EXPECT_TRUE(ToyTraits::IsDead(store_[c]));
}

TEST_F(DiagramStoreTest, SequentialChargesDenyOnceTheBudgetIsSpent) {
  WorkBudget budget(/*node_budget=*/40);
  store_.AttachBudget(&budget);
  int granted = 0;
  while (store_.Charge(0)) ++granted;
  EXPECT_EQ(granted, 40);
  EXPECT_TRUE(budget.tripped());
  store_.AttachBudget(nullptr);
  EXPECT_EQ(store_.budget(), nullptr);
}

TEST_F(DiagramStoreTest, LeasesSurviveRegionBoundaries) {
  WorkBudget budget(/*node_budget=*/10000);
  store_.AttachBudget(&budget);
  store_.BeginRegion(1);
  ASSERT_TRUE(store_.Charge(1));  // slot 1 leases a chunk
  store_.EndRegion();
  const uint64_t leased = budget.used();
  EXPECT_GT(leased, 1u);
  store_.BeginRegion(1);
  ASSERT_TRUE(store_.Charge(1));  // served from the same lease
  store_.EndRegion();
  EXPECT_EQ(budget.used(), leased);
}

TEST(DiagramStoreDeathTest, ReleaseWithoutMatchingAddRootRef) {
  Store store;
  store.Alloc({0, -1, -1});
  store.Alloc({0, -1, -1});
  const NodeId a = store.Alloc({1, 0, 1});
  EXPECT_DEATH(store.ReleaseRootRef(a),
               "ReleaseRootRef without a matching AddRootRef");
  store.AddRootRef(a);
  store.ReleaseRootRef(a);
  EXPECT_DEATH(store.ReleaseRootRef(a),
               "ReleaseRootRef without a matching AddRootRef");
}

TEST(DiagramStoreDeathTest, CollectInsideRegion) {
  Store store;
  store.Alloc({0, -1, -1});
  store.Alloc({0, -1, -1});
  store.BeginRegion(1);
  EXPECT_DEATH(store.Collect("test.gc", nullptr, {},
                             [](NodeId, const ToyNode&) {}, [] {},
                             [] { return size_t{0}; }),
               "GC inside a parallel region");
}

TEST(DiagramStoreDeathTest, AttachBudgetInsideRegion) {
  Store store;
  WorkBudget budget(/*node_budget=*/100);
  store.BeginRegion(1);
  EXPECT_DEATH(store.AttachBudget(&budget),
               "AttachBudget inside a parallel region");
}

TEST(DiagramStoreDeathTest, RegionsDoNotNest) {
  Store store;
  store.BeginRegion(1);
  EXPECT_DEATH(store.BeginRegion(1), "parallel regions do not nest");
}

}  // namespace
}  // namespace ctsdd
