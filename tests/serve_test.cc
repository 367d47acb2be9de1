// Tests for the serve/ subsystem and the manager memory lifecycle it
// rides on: mark-from-roots GC keeps long-running managers bounded and
// canonical, and QueryService answers correct probabilities with plan
// caching, sharding, and GC under eviction pressure.

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "db/lineage.h"
#include "db/query.h"
#include "db/query_compile.h"
#include "func/bool_func.h"
#include "gtest/gtest.h"
#include "obs/flight_recorder.h"
#include "obdd/obdd.h"
#include "obdd/obdd_compile.h"
#include "sdd/sdd.h"
#include "sdd/sdd_compile.h"
#include "serve/plan_cache.h"
#include "serve/query_service.h"
#include "serve/shard.h"
#include "serve/signature.h"
#include "util/budget.h"
#include "util/fault_injection.h"
#include "util/hashing.h"
#include "util/mem_governor.h"
#include "util/random.h"

namespace ctsdd {
namespace {

std::vector<int> Iota(int n) {
  std::vector<int> vars(n);
  for (int i = 0; i < n; ++i) vars[i] = i;
  return vars;
}

// --- Manager GC -----------------------------------------------------------

TEST(ObddGcTest, RoundTripsStayBoundedAndCanonical) {
  const int kVars = 10;
  ObddManager manager(Iota(kVars));
  Rng rng(20260729);

  // A protected root that must survive every collection with its id.
  const BoolFunc pinned_func = BoolFunc::Random(Iota(kVars), &rng);
  const ObddManager::NodeId pinned = CompileFuncToObdd(&manager, pinned_func);
  manager.AddRootRef(pinned);

  int bound_after_warmup = 0;
  for (int round = 0; round < 1000; ++round) {
    const BoolFunc f = BoolFunc::Random(Iota(kVars), &rng);
    const ObddManager::NodeId root = CompileFuncToObdd(&manager, f);
    manager.AddRootRef(root);
    // Spot-check semantics before releasing.
    std::vector<bool> point(kVars);
    for (int i = 0; i < kVars; ++i) point[i] = rng.NextBool(0.5);
    uint32_t index = 0;
    for (int i = 0; i < kVars; ++i) index |= (point[i] ? 1u : 0u) << i;
    EXPECT_EQ(manager.Evaluate(root, point), f.EvalIndex(index));
    manager.ReleaseRootRef(root);

    if (round % 50 == 49) {
      manager.GarbageCollect();
      // The pinned root keeps its id, and recompiling its function must
      // land on the very same node (canonicity preserved across GC).
      EXPECT_EQ(CompileFuncToObdd(&manager, pinned_func), pinned);
      if (round == 49) bound_after_warmup = manager.NumNodes();
    }
  }
  manager.GarbageCollect();
  // Live nodes collapse to the pinned root's diagram (plus terminals).
  EXPECT_LE(manager.NumLiveNodes(), manager.Size(pinned) + 2 + kVars);
  // The arena high-water mark plateaus: 1000 rounds of garbage fit in
  // the footprint established by the first 50-round window (with slack).
  EXPECT_LE(manager.NumNodes(), 4 * bound_after_warmup);
  EXPECT_GE(manager.gc_stats().runs, 20u);
  EXPECT_GT(manager.gc_stats().reclaimed, 0u);

  manager.ShrinkCaches();
  const ObddManager::NodeId again = CompileFuncToObdd(&manager, pinned_func);
  EXPECT_EQ(again, pinned);
}

TEST(SddGcTest, RoundTripsStayBoundedCanonicalAndValid) {
  const int kVars = 8;
  SddManager manager(Vtree::Balanced(Iota(kVars)));
  Rng rng(777);

  const BoolFunc pinned_func = BoolFunc::Random(Iota(kVars), &rng);
  const SddManager::NodeId pinned = CompileFuncToSdd(&manager, pinned_func);
  manager.AddRootRef(pinned);

  for (int round = 0; round < 1000; ++round) {
    const BoolFunc f = BoolFunc::Random(Iota(kVars), &rng);
    const SddManager::NodeId root = CompileFuncToSdd(&manager, f);
    manager.AddRootRef(root);
    if (round % 100 == 0) {
      EXPECT_TRUE(manager.ToBoolFunc(root) == f);
    }
    manager.ReleaseRootRef(root);

    if (round % 50 == 49) {
      const int live_before = manager.NumLiveNodes();
      manager.GarbageCollect();
      EXPECT_LE(manager.NumLiveNodes(), live_before);
      // Pointer-identity canonicity after collection, cross-checked
      // against BoolFunc: the same function must recompile to the same
      // node, and the structure must still validate.
      EXPECT_EQ(CompileFuncToSdd(&manager, pinned_func), pinned);
      ASSERT_TRUE(manager.Validate(pinned).ok());
      EXPECT_TRUE(manager.ToBoolFunc(pinned) == pinned_func);
    }
  }
  manager.GarbageCollect();
  // 2 constants + 2*kVars literals + the pinned diagram, nothing else.
  EXPECT_LE(manager.NumLiveNodes(), 2 + 2 * kVars + manager.Size(pinned) +
                                        manager.NumDecisions(pinned));
  EXPECT_GT(manager.gc_stats().reclaimed, 0u);

  // ShrinkCaches drops cache capacity but no semantics: apply still
  // reproduces canonical nodes.
  manager.ShrinkCaches();
  EXPECT_EQ(CompileFuncToSdd(&manager, pinned_func), pinned);
  ASSERT_TRUE(manager.Validate(pinned).ok());
}

TEST(SddGcTest, NegationLinksSurviveOrSeverCorrectly) {
  const int kVars = 6;
  SddManager manager(Vtree::Balanced(Iota(kVars)));
  Rng rng(99);
  for (int round = 0; round < 100; ++round) {
    const BoolFunc f = BoolFunc::Random(Iota(kVars), &rng);
    const SddManager::NodeId a = CompileFuncToSdd(&manager, f);
    const SddManager::NodeId na = manager.Not(a);
    manager.AddRootRef(a);  // keep a, let !a die
    manager.GarbageCollect();
    // a survived; its negation link either survived (na reachable from a
    // only if shared structure) or was severed — recomputing must agree.
    const SddManager::NodeId na2 = manager.Not(a);
    EXPECT_TRUE(manager.ToBoolFunc(na2) == ~manager.ToBoolFunc(a));
    manager.ReleaseRootRef(a);
  }
}

TEST(ObddGcTest, RootRefsAreCounted) {
  ObddManager manager(Iota(4));
  const auto root = manager.And(manager.Literal(0, true),
                                manager.Literal(1, true));
  manager.AddRootRef(root);
  manager.AddRootRef(root);
  manager.ReleaseRootRef(root);
  manager.GarbageCollect();  // one ref left: must survive
  EXPECT_EQ(manager.And(manager.Literal(0, true), manager.Literal(1, true)),
            root);
  manager.ReleaseRootRef(root);
}

// --- Signatures -----------------------------------------------------------

TEST(SignatureTest, QueryAndDatabaseSignaturesDiscriminate) {
  const Ucq q1 = HierarchicalRSQuery();
  const Ucq q2 = NonHierarchicalH0Query();
  EXPECT_NE(QuerySignature(q1), QuerySignature(q2));
  EXPECT_EQ(QuerySignature(q1), QuerySignature(HierarchicalRSQuery()));

  const Database d1 = BipartiteRstDatabase(3, 0.5);
  const Database d2 = BipartiteRstDatabase(4, 0.5);
  EXPECT_NE(DatabaseSignature(d1), DatabaseSignature(d2));
  // Probabilities are weights, not structure: they must not change the
  // signature (plans are shared across weight settings).
  const Database d3 = BipartiteRstDatabase(3, 0.9);
  EXPECT_EQ(DatabaseSignature(d1), DatabaseSignature(d3));

  EXPECT_EQ(VtreeKeyString(Vtree::Balanced(Iota(4))),
            VtreeKeyString(Vtree::Balanced(Iota(4))));
  EXPECT_NE(VtreeKeyString(Vtree::Balanced(Iota(4))),
            VtreeKeyString(Vtree::RightLinear(Iota(4))));
}

// --- QueryService ---------------------------------------------------------

TEST(QueryServiceTest, MatchesBruteForceAcrossRoutesAndStrategies) {
  const Database db = BipartiteRstDatabase(3, 0.4);
  const std::vector<Ucq> queries = {HierarchicalRSQuery(),
                                    NonHierarchicalH0Query(),
                                    InequalityExampleQuery()};
  ServeOptions options;
  options.num_shards = 2;
  QueryService service(options);
  for (const Ucq& query : queries) {
    const double expected = BruteForceQueryProbability(query, db).value();
    for (const PlanRoute route : {PlanRoute::kObdd, PlanRoute::kSdd}) {
      QueryRequest request;
      request.query = query;
      request.db = &db;
      request.route = route;
      request.strategy = VtreeStrategy::kBalanced;
      const QueryResponse response = service.Execute(request);
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
      EXPECT_NEAR(response.probability, expected, 1e-9);
    }
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.totals.requests, 2 * queries.size());
  EXPECT_EQ(stats.totals.failures, 0u);
}

TEST(QueryServiceTest, RepeatsHitThePlanCacheAndWeightsVaryFreely) {
  const Database db = BipartiteRstDatabase(3, 0.5);
  const Ucq query = HierarchicalRSQuery();
  QueryService service;

  QueryRequest request;
  request.query = query;
  request.db = &db;
  request.route = PlanRoute::kSdd;
  const QueryResponse cold = service.Execute(request);
  ASSERT_TRUE(cold.status.ok());
  EXPECT_FALSE(cold.plan_cache_hit);

  // Same plan, different weights: a cache hit with a different answer.
  request.weights.assign(db.num_tuples(), 0.9);
  const QueryResponse warm = service.Execute(request);
  ASSERT_TRUE(warm.status.ok());
  EXPECT_TRUE(warm.plan_cache_hit);
  EXPECT_NE(warm.probability, cold.probability);

  // Cross-check the weighted answer against brute force on a database
  // carrying those probabilities natively.
  const Database reweighted = BipartiteRstDatabase(3, 0.9);
  EXPECT_NEAR(warm.probability,
              BruteForceQueryProbability(query, reweighted).value(), 1e-9);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.totals.plan_hits, 1u);
  EXPECT_EQ(stats.totals.compiles, 1u);
}

TEST(QueryServiceTest, BatchFansOutAndAlignsResponses) {
  const Database db = BipartiteRstDatabase(3, 0.5);
  const std::vector<Ucq> queries = {HierarchicalRSQuery(),
                                    NonHierarchicalH0Query(),
                                    InequalityExampleQuery()};
  ServeOptions options;
  options.num_shards = 3;
  QueryService service(options);

  std::vector<QueryRequest> batch;
  for (int rep = 0; rep < 4; ++rep) {
    for (const Ucq& query : queries) {
      QueryRequest request;
      request.query = query;
      request.db = &db;
      request.route = rep % 2 == 0 ? PlanRoute::kObdd : PlanRoute::kSdd;
      batch.push_back(std::move(request));
    }
  }
  const std::vector<QueryResponse> responses = service.ExecuteBatch(batch);
  ASSERT_EQ(responses.size(), batch.size());
  for (size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].status.ok()) << responses[i].status.ToString();
    const double expected =
        BruteForceQueryProbability(batch[i].query, db).value();
    EXPECT_NEAR(responses[i].probability, expected, 1e-9)
        << "batch index " << i;
  }
  // Each (query, route) pair compiled once; the second repetition of
  // each route hit the cache.
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.totals.requests, batch.size());
  EXPECT_EQ(stats.totals.compiles, 6u);
  EXPECT_EQ(stats.totals.plan_hits, batch.size() - 6);
}

TEST(QueryServiceTest, InvalidRequestsFailCleanly) {
  QueryService service;
  QueryRequest request;  // no database
  request.query = HierarchicalRSQuery();
  EXPECT_FALSE(service.Execute(request).status.ok());

  // Unknown relation: the shard reports the lineage error.
  Database db;
  db.AddRelation("Other", 1);
  db.AddTuple("Other", {0}, 0.5);
  request.db = &db;
  const QueryResponse response = service.Execute(request);
  EXPECT_FALSE(response.status.ok());
  // Both failures are visible to monitoring: the submitter-side
  // rejection and the shard-side lineage error.
  EXPECT_EQ(service.stats().totals.failures, 2u);
  EXPECT_EQ(service.stats().totals.requests, 2u);
}

// PerConstantRsQuery (db/query.h) gives many distinct lineage functions
// over one database, which is exactly the workload that needs node GC +
// plan eviction to stay bounded.
TEST(QueryServiceTest, StaysBoundedUnderEvictionPressure) {
  const int kDomain = 6;
  const Database db = BipartiteRstDatabase(kDomain, 0.3);
  ServeOptions options;
  options.num_shards = 2;
  options.plan_cache_capacity = 4;  // far fewer than distinct queries
  // A deliberately tiny ceiling: almost every policy check trips GC, so
  // the whole pin/evict/release/collect/reuse cycle runs end-to-end.
  options.gc_live_node_ceiling = 64;
  options.gc_check_interval = 4;
  QueryService service(options);

  // Expected probabilities from the one-shot pipeline (which internally
  // cross-checks its OBDD and SDD routes), cached per distinct query.
  std::map<uint64_t, double> oracle;
  for (int round = 0; round < 300; ++round) {
    QueryRequest request;
    request.query = PerConstantRsQuery(1 + round % kDomain);
    if (round % 3 == 0) {
      request.query.disjuncts.push_back(
          PerConstantRsQuery(1 + (round / 3) % kDomain).disjuncts[0]);
    }
    if (round % 5 == 0) request.query = HierarchicalRSQuery();
    if (round % 5 == 1) request.query = InequalityExampleQuery();
    request.db = &db;
    request.route = round % 2 == 0 ? PlanRoute::kObdd : PlanRoute::kSdd;
    request.strategy = VtreeStrategy::kBalanced;
    const QueryResponse response = service.Execute(request);
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    const uint64_t sig = QuerySignature(request.query);
    if (oracle.find(sig) == oracle.end()) {
      const auto compiled =
          CompileQuery(request.query, db, VtreeStrategy::kBalanced);
      ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
      oracle[sig] = compiled->probability;
    }
    ASSERT_NEAR(response.probability, oracle[sig], 1e-9)
        << "round " << round;
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.totals.requests, 300u);
  EXPECT_GT(stats.totals.plan_evictions, 0u);
  EXPECT_GT(stats.totals.plan_hits, 0u);
  EXPECT_GT(stats.totals.gc_runs, 0u);
  EXPECT_GT(stats.totals.gc_reclaimed, 0u);
}

// --- Eviction fairness ----------------------------------------------------

TEST(PlanCacheTest, EvictOneMatchingTakesLruWithinPredicate) {
  std::vector<int> evicted;
  PlanCache cache(16, [&](const PlanKey&, CompiledPlan& plan) {
    evicted.push_back(plan.lineage_gates);
  });
  // Tag plans by lineage_gates; odd tags simulate "manager A", even "B".
  for (int i = 1; i <= 6; ++i) {
    PlanKey key;
    key.query_sig = static_cast<uint64_t>(i);
    CompiledPlan plan;
    plan.lineage_gates = i;
    cache.Insert(key, std::move(plan));
  }
  const auto odd = [](const CompiledPlan& p) { return p.lineage_gates % 2 == 1; };
  // LRU within the predicate: 1 was inserted first, so it goes first
  // even though 2 is the global LRU... (2 is older? inserted order 1..6,
  // LRU is 1). Evict odd: 1, then 3, then 5.
  EXPECT_TRUE(cache.EvictOneMatching(odd));
  EXPECT_TRUE(cache.EvictOneMatching(odd));
  EXPECT_TRUE(cache.EvictOneMatching(odd));
  EXPECT_FALSE(cache.EvictOneMatching(odd));
  EXPECT_EQ(evicted, (std::vector<int>{1, 3, 5}));
  // The even plans survived untouched.
  EXPECT_EQ(cache.size(), 3u);
  for (int i = 2; i <= 6; i += 2) {
    PlanKey key;
    key.query_sig = static_cast<uint64_t>(i);
    EXPECT_NE(cache.Lookup(key), nullptr) << "even plan " << i;
  }
}

// Under ceiling pressure the policy collects the over-ceiling manager
// down to its permanent nodes; no plan lives in a manager, so no plan is
// shed for it: small plans keep hitting, every answer stays exact, and
// resident nodes end under the policy's bound.
TEST(QueryServiceTest, GcPolicyTargetsTheOverCeilingManager) {
  const Database db = BipartiteRstDatabase(6, 0.3);
  ServeOptions options;
  options.num_shards = 1;  // both routes share one shard's plan cache
  options.plan_cache_capacity = 64;
  options.gc_live_node_ceiling = 64;
  options.gc_check_interval = 2;
  QueryService service(options);
  std::map<uint64_t, double> oracle;
  const auto expect_exact = [&](const QueryRequest& request,
                                const QueryResponse& response) {
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    const uint64_t sig = QuerySignature(request.query);
    if (oracle.find(sig) == oracle.end()) {
      const auto compiled =
          CompileQuery(request.query, db, VtreeStrategy::kBalanced);
      ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
      oracle[sig] = compiled->probability;
    }
    EXPECT_NEAR(response.probability, oracle[sig], 1e-9);
  };
  // A stream of distinct SDD-route queries keeps the SDD managers hot
  // and over ceiling; one tiny OBDD-route plan (single-constant query,
  // a handful of lineage tuples) sits in the same cache.
  QueryRequest small;
  small.query = PerConstantRsQuery(1);
  small.db = &db;
  small.route = PlanRoute::kObdd;
  expect_exact(small, service.Execute(small));
  for (int round = 0; round < 100; ++round) {
    QueryRequest request;
    request.query = PerConstantRsQuery(1 + round % 6);
    request.query.disjuncts.push_back(
        PerConstantRsQuery(1 + (round / 2) % 6).disjuncts[0]);
    if (round % 5 == 0) request.query = HierarchicalRSQuery();
    if (round % 5 == 1) request.query = InequalityExampleQuery();
    request.db = &db;
    request.route = PlanRoute::kSdd;
    expect_exact(request, service.Execute(request));
  }
  // SDD-manager pressure never cost the OBDD plan its slot: its repeats
  // still hit the cache. They add no nodes, and at least one of them
  // carries a GC check (the cadence backs off to at most 8x the
  // configured interval).
  for (int repeat = 0; repeat < 8 * options.gc_check_interval; ++repeat) {
    const QueryResponse again = service.Execute(small);
    expect_exact(small, again);
    EXPECT_TRUE(again.plan_cache_hit) << "repeat " << repeat;
  }
  const ServiceStats stats = service.stats();
  EXPECT_GT(stats.totals.gc_runs, 0u);
  EXPECT_LE(stats.totals.live_nodes,
            2 * static_cast<int>(options.manager_pool_capacity) *
                options.gc_live_node_ceiling);
}

void ExpectPlansOutliveTheirManagers(size_t manager_pool_capacity) {
  const Database db = BipartiteRstDatabase(4, 0.35);
  ServeOptions options;
  options.num_shards = 1;  // one shard: both shapes share its pools
  options.manager_pool_capacity = manager_pool_capacity;
  QueryService service(options);
  // Two shapes over disjoint-enough tuples: different OBDD orders and
  // different balanced vtrees, on both routes.
  std::vector<QueryRequest> requests;
  for (const int constant : {1, 2}) {
    for (const PlanRoute route : {PlanRoute::kObdd, PlanRoute::kSdd}) {
      QueryRequest request;
      request.query = PerConstantRsQuery(constant);
      request.db = &db;
      request.route = route;
      requests.push_back(std::move(request));
    }
  }
  std::vector<QueryResponse> first;
  for (const QueryRequest& request : requests) {
    first.push_back(service.Execute(request));
    ASSERT_TRUE(first.back().status.ok()) << first.back().status.ToString();
    EXPECT_FALSE(first.back().plan_cache_hit);
  }
  EXPECT_GT(service.stats().totals.manager_evictions, 0u);
  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i < requests.size(); ++i) {
      const QueryResponse again = service.Execute(requests[i]);
      ASSERT_TRUE(again.status.ok()) << again.status.ToString();
      EXPECT_TRUE(again.plan_cache_hit) << "round " << round << " plan " << i;
      // Bitwise: the same flat copy evaluated at the same weights.
      EXPECT_EQ(again.probability, first[i].probability)
          << "round " << round << " plan " << i;
    }
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.totals.compiles, requests.size());
  EXPECT_EQ(stats.totals.plan_evictions, 0u);
}

// Managers are compile scratch: with one manager per kind, every cold
// compile below evicts the other shape's manager, and the plans compiled
// in the evicted managers keep answering from their flat copies, hit for
// hit and bit for bit. A pool capacity of 0 acts as 1.
TEST(QueryServiceTest, PlansOutliveTheirManagers) {
  for (const size_t capacity : {size_t{1}, size_t{0}}) {
    SCOPED_TRACE("manager_pool_capacity " + std::to_string(capacity));
    ExpectPlansOutliveTheirManagers(capacity);
  }
}

// --- Parallel cold compiles (shared exec pool) ----------------------------

TEST(QueryServiceTest, ParallelColdCompilesMatchSequentialService) {
  const Database db = BipartiteRstDatabase(4, 0.35);
  const std::vector<Ucq> queries = {HierarchicalRSQuery(),
                                    NonHierarchicalH0Query(),
                                    InequalityExampleQuery(),
                                    PerConstantRsQuery(1),
                                    PerConstantRsQuery(2)};
  ServeOptions sequential;
  sequential.num_shards = 2;
  QueryService seq_service(sequential);
  ServeOptions parallel = sequential;
  parallel.exec_workers = 3;
  QueryService par_service(parallel);
  for (const Ucq& query : queries) {
    for (const PlanRoute route : {PlanRoute::kObdd, PlanRoute::kSdd}) {
      QueryRequest request;
      request.query = query;
      request.db = &db;
      request.route = route;
      const QueryResponse seq = seq_service.Execute(request);
      const QueryResponse par = par_service.Execute(request);
      ASSERT_TRUE(seq.status.ok());
      ASSERT_TRUE(par.status.ok());
      // The diagrams are canonically identical, but node *ids* differ
      // across managers (parallel block allocation), and the WMC sum
      // visits elements in id order — so the float accumulation order
      // differs: equal to rounding, not bitwise.
      EXPECT_NEAR(par.probability, seq.probability, 1e-12);
      EXPECT_EQ(par.size, seq.size);
      EXPECT_EQ(par.width, seq.width);
    }
  }
}

// GC-after-parallel-compile canonicity round-trip, end to end: cold
// compiles run on the shared pool, eviction pressure forces collections,
// and recompiled (parallel) plans must answer identically forever.
TEST(QueryServiceTest, ParallelCompilesStayCanonicalUnderGcPressure) {
  const int kDomain = 6;
  const Database db = BipartiteRstDatabase(kDomain, 0.3);
  ServeOptions options;
  options.num_shards = 2;
  options.plan_cache_capacity = 3;
  options.gc_live_node_ceiling = 64;
  options.gc_check_interval = 3;
  options.exec_workers = 3;
  QueryService service(options);
  std::map<uint64_t, double> first_answer;
  for (int round = 0; round < 200; ++round) {
    QueryRequest request;
    request.query = PerConstantRsQuery(1 + round % kDomain);
    if (round % 3 == 0) {
      request.query.disjuncts.push_back(
          PerConstantRsQuery(1 + (round / 3) % kDomain).disjuncts[0]);
    }
    if (round % 5 == 0) request.query = HierarchicalRSQuery();
    if (round % 5 == 1) request.query = InequalityExampleQuery();
    request.db = &db;
    request.route = round % 2 == 0 ? PlanRoute::kObdd : PlanRoute::kSdd;
    const QueryResponse response = service.Execute(request);
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    const uint64_t sig = QuerySignature(request.query) ^
                         (request.route == PlanRoute::kObdd ? 0 : 1);
    const auto [it, inserted] =
        first_answer.emplace(sig, response.probability);
    if (!inserted) {
      // The recompiled diagram is canonically identical, but fresh node
      // ids are schedule-dependent under parallel block allocation and
      // WMC sums in id order — so answers agree to rounding, not
      // bitwise.
      ASSERT_NEAR(response.probability, it->second, 1e-12)
          << "round " << round;
    }
  }
  const ServiceStats stats = service.stats();
  EXPECT_GT(stats.totals.plan_evictions, 0u);
  EXPECT_GT(stats.totals.gc_runs, 0u);
  EXPECT_GT(stats.totals.gc_reclaimed, 0u);
}

// --- Deadlines, budgets, shedding (the robustness contract) ---------------

TEST(QueryServiceRobustnessTest, ExpiredDeadlineFailsTypedAndRecovers) {
  const Database db = BipartiteRstDatabase(4, 0.4);
  ServeOptions options;
  options.num_shards = 1;
  QueryService service(options);

  QueryRequest request;
  request.query = HierarchicalRSQuery();
  request.db = &db;
  request.route = PlanRoute::kSdd;
  // A deadline of one nanosecond: either it expires while the job is
  // queued (failed at dequeue) or the compile's budget trips on its
  // first lease — both must surface as DEADLINE_EXCEEDED.
  request.deadline_ms = 1e-6;
  const QueryResponse timed_out = service.Execute(request);
  EXPECT_EQ(timed_out.status.code(), StatusCode::kDeadlineExceeded)
      << timed_out.status.ToString();
  EXPECT_EQ(service.stats().totals.timeouts, 1u);
  EXPECT_EQ(service.stats().totals.failures, 1u);

  // The failed plan was not cached; a patient retry compiles cleanly
  // and answers correctly.
  request.deadline_ms = 0;
  const QueryResponse ok = service.Execute(request);
  ASSERT_TRUE(ok.status.ok()) << ok.status.ToString();
  EXPECT_FALSE(ok.plan_cache_hit);
  EXPECT_FALSE(ok.degraded);
  const auto oracle = CompileQuery(request.query, db, VtreeStrategy::kBalanced);
  ASSERT_TRUE(oracle.ok());
  EXPECT_NEAR(ok.probability, oracle->probability, 1e-9);
}

TEST(QueryServiceRobustnessTest, ImpossibleBudgetRunsTheLadderThenFailsTyped) {
  const Database db = BipartiteRstDatabase(4, 0.4);
  ServeOptions options;
  options.num_shards = 1;
  options.compile_node_budget = 1;  // neither route can build anything
  QueryService service(options);

  QueryRequest request;
  request.query = HierarchicalRSQuery();
  request.db = &db;
  request.route = PlanRoute::kSdd;
  const QueryResponse response = service.Execute(request);
  EXPECT_EQ(response.status.code(), StatusCode::kResourceExhausted)
      << response.status.ToString();
  const ServiceStats stats = service.stats();
  // The ladder tried the requested route, fell back to the alternate,
  // and both tripped the budget.
  EXPECT_EQ(stats.totals.fallbacks, 1u);
  EXPECT_EQ(stats.totals.budget_aborts, 2u);
  EXPECT_EQ(stats.totals.failures, 1u);
  // The managers' partial work was collected right away.
  EXPECT_GT(stats.totals.gc_runs, 0u);
}

// Measures the node-allocation demand of one route's compile through a
// generously budgeted manager-level compile (used() overshoots the true
// demand by at most one 256-node lease).
uint64_t MeasureRouteDemand(const Ucq& query, const Database& db,
                            PlanRoute route) {
  auto lineage = BuildLineage(query, db);
  CTSDD_CHECK(lineage.ok());
  const Circuit& circuit = lineage.value();
  WorkBudget budget(1u << 30);
  if (route == PlanRoute::kObdd) {
    ObddManager manager(circuit.Vars());
    manager.AttachBudget(&budget);
    CTSDD_CHECK_GE(CompileCircuitToObdd(&manager, circuit), 0);
  } else {
    auto vtree =
        VtreeForStrategy(circuit, circuit.Vars(), VtreeStrategy::kBalanced);
    CTSDD_CHECK(vtree.ok());
    SddManager manager(std::move(vtree).value());
    manager.AttachBudget(&budget);
    CTSDD_CHECK_GE(CompileCircuitToSdd(&manager, circuit), 0);
  }
  return budget.used();
}

TEST(QueryServiceRobustnessTest, LadderDegradesToTheCheaperRouteExactly) {
  // The non-hierarchical query's SDD (balanced vtree) costs ~8x its
  // OBDD at this domain, leaving plenty of room for a budget that fits
  // one route but not the other.
  const Database db = BipartiteRstDatabase(5, 0.4);
  const Ucq query = NonHierarchicalH0Query();
  const uint64_t obdd_demand = MeasureRouteDemand(query, db, PlanRoute::kObdd);
  const uint64_t sdd_demand = MeasureRouteDemand(query, db, PlanRoute::kSdd);
  // Pick the cheap route as the fallback and a budget with room for it
  // but not for the expensive one. If this workload's routes ever
  // converge in cost, the separation check below fails loudly so the
  // budget can be re-derived rather than silently testing nothing.
  const bool sdd_cheaper = sdd_demand < obdd_demand;
  const uint64_t cheap = std::min(obdd_demand, sdd_demand);
  const uint64_t expensive = std::max(obdd_demand, sdd_demand);
  const uint64_t budget = 2 * cheap + 512;
  ASSERT_GT(expensive, budget + 256)
      << "routes too close in cost (obdd " << obdd_demand << ", sdd "
      << sdd_demand << ") to separate with one budget";

  ServeOptions options;
  options.num_shards = 1;
  options.compile_node_budget = budget;
  QueryService service(options);
  QueryRequest request;
  request.query = query;
  request.db = &db;
  request.route = sdd_cheaper ? PlanRoute::kObdd : PlanRoute::kSdd;
  const QueryResponse response = service.Execute(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  // The requested route tripped its budget; the alternate answered —
  // degraded in representation, exact in value.
  EXPECT_TRUE(response.degraded);
  const auto oracle = CompileQuery(query, db, VtreeStrategy::kBalanced);
  ASSERT_TRUE(oracle.ok());
  EXPECT_NEAR(response.probability, oracle->probability, 1e-9);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.totals.fallbacks, 1u);
  EXPECT_EQ(stats.totals.budget_aborts, 1u);
  EXPECT_EQ(stats.totals.failures, 0u);

  // The ladder plan is cached under the original key: the repeat hits
  // and still reports degraded.
  const QueryResponse repeat = service.Execute(request);
  ASSERT_TRUE(repeat.status.ok());
  EXPECT_TRUE(repeat.plan_cache_hit);
  EXPECT_TRUE(repeat.degraded);
}

TEST(QueryServiceRobustnessTest, OverloadShedsTypedWithRetryHint) {
  const int kDomain = 6;
  const Database db = BipartiteRstDatabase(kDomain, 0.3);
  ServeOptions options;
  options.num_shards = 1;
  options.max_queue_depth = 2;
  QueryService service(options);

  // Distinct cold-compile queries, all routed to the single shard, are
  // submitted far faster than they compile: admission must shed.
  std::vector<QueryRequest> batch;
  for (int i = 0; i < 24; ++i) {
    QueryRequest request;
    request.query = PerConstantRsQuery(1 + i % kDomain);
    if (i % 2 == 0) {
      request.query.disjuncts.push_back(
          PerConstantRsQuery(1 + (i / 2) % kDomain).disjuncts[0]);
    }
    request.db = &db;
    request.route = PlanRoute::kSdd;
    batch.push_back(std::move(request));
  }
  const std::vector<QueryResponse> responses = service.ExecuteBatch(batch);
  size_t sheds = 0;
  for (size_t i = 0; i < responses.size(); ++i) {
    if (responses[i].status.ok()) {
      // Accepted answers are exact despite the overload.
      const auto oracle =
          CompileQuery(batch[i].query, db, VtreeStrategy::kBalanced);
      ASSERT_TRUE(oracle.ok());
      EXPECT_NEAR(responses[i].probability, oracle->probability, 1e-9);
    } else {
      ASSERT_EQ(responses[i].status.code(), StatusCode::kUnavailable)
          << responses[i].status.ToString();
      EXPECT_GT(responses[i].retry_after_ms, 0.0);
      ++sheds;
    }
  }
  EXPECT_GT(sheds, 0u);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.totals.sheds, sheds);
  // Shed traffic is visible as requests + failures.
  EXPECT_EQ(stats.totals.requests, batch.size());
  EXPECT_GE(stats.totals.failures, sheds);

  // After the burst drains, a shed query retried succeeds.
  const QueryResponse retry = service.Execute(batch.back());
  ASSERT_TRUE(retry.status.ok()) << retry.status.ToString();
}

// A GC-due request that admission sheds hands its check to the owner's
// next admission instead of losing that interval's check.
TEST(QueryServiceRobustnessTest, ShedGcCheckRunsOnTheNextAdmission) {
  const Database db = BipartiteRstDatabase(4, 0.4);
  ServeOptions options;
  options.num_shards = 1;
  options.max_queue_depth = 1;
  options.gc_check_interval = 4;     // the 4th admission is GC-due
  options.gc_live_node_ceiling = 1;  // every check collects
  QueryService service(options);
  QueryRequest request;
  request.query = HierarchicalRSQuery();
  request.db = &db;
  request.route = PlanRoute::kSdd;
  ASSERT_TRUE(service.Execute(request).status.ok());  // admission 1

  // Admission 2 stalls the owner, 3 fills its one-slot queue, and 4, the
  // GC-due one, is shed.
  fault::FaultSpec stall;
  stall.fire_at = 1;
  stall.delay_ms = 200;
  fault::Arm("serve.shard.process", stall);
  std::thread stalled(
      [&] { EXPECT_TRUE(service.Execute(request).status.ok()); });
  while (fault::FireCount("serve.shard.process") == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::vector<QueryResponse> burst =
      service.ExecuteBatch({request, request});
  stalled.join();
  fault::DisarmAll();
  EXPECT_TRUE(burst[0].status.ok()) << burst[0].status.ToString();
  EXPECT_EQ(burst[1].status.code(), StatusCode::kUnavailable)
      << burst[1].status.ToString();
  EXPECT_EQ(service.stats().totals.gc_runs, 0u);

  // Admission 5 carries the shed check.
  ASSERT_TRUE(service.Execute(request).status.ok());
  EXPECT_GT(service.stats().totals.gc_runs, 0u);
}

// Chaos mode: tiny budgets force ladder hops, moderate deadlines force
// timeouts, bounded queues force sheds, and (in debug builds) armed
// fault sites stall the shard loop — while every accepted answer must
// stay oracle-exact and resident nodes must return to a plateau.
TEST(QueryServiceRobustnessTest, ChaosAcceptedAnswersStayOracleCorrect) {
  const int kDomain = 5;
  const Database db = BipartiteRstDatabase(kDomain, 0.3);
  ServeOptions options;
  options.num_shards = 2;
  options.plan_cache_capacity = 4;
  options.gc_live_node_ceiling = 64;
  options.gc_check_interval = 4;
  options.compile_node_budget = 600;  // some compiles abort, some ladder
  options.max_queue_depth = 4;
  options.flight_recorder_capacity = 1024;  // every request stays in the ring
  QueryService service(options);
  if (fault::Enabled()) {
    fault::FaultSpec stall;
    stall.probability = 0.05;
    stall.seed = 20260807;
    stall.delay_ms = 1;
    fault::Arm("serve.shard.process", stall);
    fault::FaultSpec compile_stall;
    compile_stall.probability = 0.05;
    compile_stall.seed = 7;
    compile_stall.delay_ms = 1;
    fault::Arm("serve.compile", compile_stall);
  }

  std::map<uint64_t, double> oracle;
  uint64_t accepted = 0, rejected = 0;
  for (int round = 0; round < 30; ++round) {
    std::vector<QueryRequest> batch;
    for (int i = 0; i < 8; ++i) {
      const int step = round * 8 + i;
      QueryRequest request;
      request.query = PerConstantRsQuery(1 + step % kDomain);
      if (step % 3 == 0) {
        request.query.disjuncts.push_back(
            PerConstantRsQuery(1 + (step / 3) % kDomain).disjuncts[0]);
      }
      if (step % 5 == 0) request.query = HierarchicalRSQuery();
      request.db = &db;
      request.route = step % 2 == 0 ? PlanRoute::kObdd : PlanRoute::kSdd;
      if (step % 7 == 0) request.deadline_ms = 0.05;  // some will expire
      batch.push_back(std::move(request));
    }
    const std::vector<QueryResponse> responses = service.ExecuteBatch(batch);
    for (size_t i = 0; i < responses.size(); ++i) {
      const QueryResponse& response = responses[i];
      if (!response.status.ok()) {
        // Failures must be typed — never a crash, never a wrong answer.
        const StatusCode code = response.status.code();
        EXPECT_TRUE(code == StatusCode::kDeadlineExceeded ||
                    code == StatusCode::kResourceExhausted ||
                    code == StatusCode::kUnavailable)
            << response.status.ToString();
        ++rejected;
        continue;
      }
      ++accepted;
      const uint64_t sig = QuerySignature(batch[i].query);
      if (oracle.find(sig) == oracle.end()) {
        const auto compiled =
            CompileQuery(batch[i].query, db, VtreeStrategy::kBalanced);
        ASSERT_TRUE(compiled.ok());
        oracle[sig] = compiled->probability;
      }
      ASSERT_NEAR(response.probability, oracle[sig], 1e-9)
          << "round " << round << " index " << i
          << (response.degraded ? " (degraded)" : "");
    }
  }
  if (fault::Enabled()) fault::DisarmAll();
  EXPECT_GT(accepted, 0u);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.totals.requests, accepted + rejected);
  // Resident nodes returned to the plateau the GC policy enforces: the
  // ceiling per manager, with at most pool-capacity managers per shard
  // — far below unbounded growth over 240 requests.
  EXPECT_GT(stats.totals.gc_runs, 0u);
  EXPECT_LE(stats.totals.live_nodes,
            options.num_shards * 2 * static_cast<int>(
                options.manager_pool_capacity) *
                options.gc_live_node_ceiling);
  // GC pauses were recorded for the percentile surface.
  EXPECT_GT(stats.gc_pause_p99_ms, 0.0);

  // The flight recorder accounted every outcome exactly once: each
  // accepted answer and each typed rejection is one ring record.
  const obs::FlightRecorder* flight = service.flight_recorder();
  ASSERT_NE(flight, nullptr);
  EXPECT_EQ(flight->records(), accepted + rejected);
  uint64_t ok_records = 0, failed_records = 0;
  for (const obs::FlightRecord& record : flight->Snapshot()) {
    record.status_code == 0 ? ++ok_records : ++failed_records;
  }
  EXPECT_EQ(ok_records, accepted);
  EXPECT_EQ(failed_records, rejected);
}

// --- Memory governor ------------------------------------------------------

// Governed serving end to end: accepted answers stay oracle-exact, the
// governor's accounted bytes never cross the hard ceiling (peak included,
// zero breaches), and at the quiescent end the process total equals the
// sum of the shard accounts — the serve-layer accounting round-trip.
TEST(QueryServiceMemoryTest, GovernedServingStaysUnderCeilingAndExact) {
  const int kDomain = 5;
  const Database db = BipartiteRstDatabase(kDomain, 0.3);
  ServeOptions options;
  options.num_shards = 2;
  options.plan_cache_capacity = 8;
  options.gc_check_interval = 4;
  options.mem_hard_bytes = 64ull << 20;
  QueryService service(options);

  std::map<uint64_t, double> oracle;
  for (int step = 0; step < 60; ++step) {
    QueryRequest request;
    request.query = PerConstantRsQuery(1 + step % kDomain);
    if (step % 3 == 0) {
      request.query.disjuncts.push_back(
          PerConstantRsQuery(1 + (step / 3) % kDomain).disjuncts[0]);
    }
    request.db = &db;
    request.route = step % 2 == 0 ? PlanRoute::kObdd : PlanRoute::kSdd;
    const QueryResponse response = service.Execute(request);
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    const uint64_t sig = QuerySignature(request.query);
    if (oracle.find(sig) == oracle.end()) {
      const auto compiled =
          CompileQuery(request.query, db, VtreeStrategy::kBalanced);
      ASSERT_TRUE(compiled.ok());
      oracle[sig] = compiled->probability;
    }
    ASSERT_NEAR(response.probability, oracle[sig], 1e-9) << "step " << step;
  }

  const ServiceStats stats = service.stats();
  EXPECT_TRUE(stats.governor.enabled);
  EXPECT_EQ(stats.governor.hard_bytes, options.mem_hard_bytes);
  EXPECT_GT(stats.governor.bytes, 0u);
  EXPECT_EQ(stats.governor.hard_breaches, 0u);
  EXPECT_LE(stats.governor.peak_bytes, options.mem_hard_bytes);
  // Quiescent exactness across the serve layer: the process total is
  // exactly the sum of the shard accounts (no supervisor -> no retired
  // workers outside the live slots).
  EXPECT_EQ(stats.governor.bytes, stats.totals.mem_bytes);
  uint64_t layered = 0;
  for (const uint64_t b : stats.totals.mem_bytes_by_layer) layered += b;
  EXPECT_EQ(layered, stats.totals.mem_bytes);
  EXPECT_EQ(stats.rejected_memory,
            stats.totals.mem_rejects + stats.totals.mem_aborts);
}

// `mem.reserve` chaos: injected byte-level reservation failures make
// governed compiles die typed RESOURCE_EXHAUSTED with a backoff hint —
// counted as memory rejects, never quarantine strikes — and once the
// fault is disarmed the same queries serve exactly.
TEST(QueryServiceMemoryTest, InjectedMemoryPressureIsTypedNotQuarantined) {
  const int kDomain = 5;
  const Database db = BipartiteRstDatabase(kDomain, 0.3);
  ServeOptions options;
  options.num_shards = 1;  // one worker: a deterministic reservation stream
  options.mem_hard_bytes = 1ull << 30;  // roomy: only injection denies
  QueryService service(options);

  fault::FaultSpec spec;
  spec.fire_every = 5;  // every 5th governed reservation fails
  spec.action = [] { MemGovernor::FailNextReservationOnCurrentThread(); };
  fault::Arm("mem.reserve", spec);
  std::vector<QueryRequest> failed;
  uint64_t accepted = 0, mem_failed = 0;
  for (int step = 0; step < 40; ++step) {
    QueryRequest request;
    request.query = PerConstantRsQuery(1 + step % kDomain);
    if (step % 2 == 0) {
      request.query.disjuncts.push_back(
          PerConstantRsQuery(1 + (step / 2) % kDomain).disjuncts[0]);
    }
    request.db = &db;
    const QueryResponse response = service.Execute(request);
    if (response.status.ok()) {
      ++accepted;
      continue;
    }
    ASSERT_EQ(response.status.code(), StatusCode::kResourceExhausted)
        << response.status.ToString();
    EXPECT_GT(response.retry_after_ms, 0.0);
    ++mem_failed;
    failed.push_back(request);
  }
  fault::DisarmAll();
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(mem_failed, 0u);

  const ServiceStats stats = service.stats();
  EXPECT_GT(stats.governor.injected_denials, 0u);
  EXPECT_GT(stats.rejected_memory, 0u);
  EXPECT_EQ(stats.rejected_quarantine, 0u);
  EXPECT_EQ(stats.supervision.quarantine_strikes, 0u);
  // Each governor denial registered as a memory-denial anomaly and the
  // first one produced an evidence dump.
  EXPECT_GE(service.flight_recorder()->anomaly_count(
                obs::Anomaly::kMemoryDenial),
            1u);
  EXPECT_GE(service.flight_recorder()->dumps(), 1u);

  // Disarmed, every previously failed query serves — exactly.
  for (const QueryRequest& request : failed) {
    const QueryResponse response = service.Execute(request);
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    const auto compiled =
        CompileQuery(request.query, db, VtreeStrategy::kBalanced);
    ASSERT_TRUE(compiled.ok());
    EXPECT_NEAR(response.probability, compiled->probability, 1e-9);
  }
}

// An embedding-supplied governor is honored: an impossible ceiling makes
// every request fail typed (reject or abort, never a wrong answer, never
// a quarantine strike), and lifting the ceiling on the same service
// restores exact serving.
TEST(QueryServiceMemoryTest, ExternalGovernorCeilingDeniesThenRecovers) {
  const Database db = BipartiteRstDatabase(4, 0.4);
  MemGovernor gov;
  gov.SetWatermarks(0, 1);  // nothing fits
  ServeOptions options;
  options.num_shards = 1;
  options.mem_governor = &gov;
  QueryService service(options);

  QueryRequest request;
  request.query = PerConstantRsQuery(1);
  request.db = &db;
  for (int attempt = 0; attempt < 4; ++attempt) {
    const QueryResponse denied = service.Execute(request);
    ASSERT_FALSE(denied.status.ok());
    EXPECT_EQ(denied.status.code(), StatusCode::kResourceExhausted);
    EXPECT_GT(denied.retry_after_ms, 0.0);
  }
  const ServiceStats mid = service.stats();
  EXPECT_GT(mid.rejected_memory, 0u);
  EXPECT_EQ(mid.rejected_quarantine, 0u);
  EXPECT_EQ(mid.supervision.quarantine_strikes, 0u);

  gov.SetWatermarks(0, 0);  // lift the ceiling
  const QueryResponse served = service.Execute(request);
  ASSERT_TRUE(served.status.ok()) << served.status.ToString();
  const auto oracle = CompileQuery(request.query, db, VtreeStrategy::kBalanced);
  ASSERT_TRUE(oracle.ok());
  EXPECT_NEAR(served.probability, oracle->probability, 1e-9);
}

// --- Supervision: hangs, deaths, quarantine, hedging ----------------------

// A worker that stalls past the heartbeat window while busy is declared
// hung; its queued and in-flight requests fail typed UNAVAILABLE with a
// retry hint — never silently dropped — and the restarted shard serves
// the retry.
TEST(QueryServiceSupervisionTest, HungShardFailsQueuedRequestsTyped) {
  const Database db = BipartiteRstDatabase(4, 0.4);
  ServeOptions options;
  options.num_shards = 1;
  options.heartbeat_window_ms = 10;
  QueryService service(options);

  fault::FaultSpec hang;
  hang.fire_at = 1;       // the first dequeue stalls...
  hang.delay_ms = 150;    // ...far past the heartbeat window
  fault::Arm("serve.shard.hang", hang);

  std::vector<QueryRequest> batch;
  for (int i = 0; i < 4; ++i) {
    QueryRequest request;
    request.query = PerConstantRsQuery(1 + i);
    request.db = &db;
    request.route = PlanRoute::kSdd;
    batch.push_back(std::move(request));
  }
  // ExecuteBatch returning at all proves no request was dropped: it
  // blocks until every response slot is filled.
  const std::vector<QueryResponse> responses = service.ExecuteBatch(batch);
  fault::DisarmAll();
  ASSERT_EQ(responses.size(), batch.size());
  for (const QueryResponse& response : responses) {
    EXPECT_EQ(response.status.code(), StatusCode::kUnavailable)
        << response.status.ToString();
    EXPECT_GT(response.retry_after_ms, 0.0);
  }

  const ServiceStats during = service.stats();
  EXPECT_GE(during.supervision.hangs_detected, 1u);
  EXPECT_GE(during.supervision.shard_restarts, 1u);
  // The hang verdict registered as an anomaly with an evidence dump.
  EXPECT_GE(service.flight_recorder()->anomaly_count(
                obs::Anomaly::kHangDetected),
            1u);
  EXPECT_GE(service.flight_recorder()->dumps(), 1u);
  EXPECT_GE(during.supervision.failed_on_restart, batch.size());
  EXPECT_EQ(during.totals.requests, batch.size());
  EXPECT_EQ(during.totals.failures, batch.size());

  // The fresh worker serves the retry with a correct answer.
  const QueryResponse retry = service.Execute(batch.front());
  ASSERT_TRUE(retry.status.ok()) << retry.status.ToString();
  const auto oracle =
      CompileQuery(batch.front().query, db, VtreeStrategy::kBalanced);
  ASSERT_TRUE(oracle.ok());
  EXPECT_NEAR(retry.probability, oracle->probability, 1e-9);
  // Counters stayed monotone across the restart.
  EXPECT_EQ(service.stats().totals.requests, batch.size() + 1);
}

// A worker thread that exits unbidden is declared dead; the supervisor
// restarts the shard and the recompile on the fresh worker reproduces
// the exact pre-death answer (canonical compilation is deterministic).
TEST(QueryServiceSupervisionTest, DeadWorkerIsRestartedAndRecompilesExactly) {
  const Database db = BipartiteRstDatabase(4, 0.4);
  ServeOptions options;
  options.num_shards = 1;
  options.heartbeat_window_ms = 10;
  QueryService service(options);

  QueryRequest request;
  request.query = HierarchicalRSQuery();
  request.db = &db;
  request.route = PlanRoute::kSdd;
  const QueryResponse before = service.Execute(request);
  ASSERT_TRUE(before.status.ok()) << before.status.ToString();
  const ShardStats alive = service.stats().totals;

  fault::FaultSpec death;
  death.fire_at = 1;
  death.action = [] { ShardWorker::RequestDeathOnCurrentThread(); };
  fault::Arm("serve.shard.death", death);
  const QueryResponse abandoned = service.Execute(request);
  fault::DisarmAll();
  // The abandoned in-flight job was failed typed by the supervisor.
  EXPECT_EQ(abandoned.status.code(), StatusCode::kUnavailable)
      << abandoned.status.ToString();
  EXPECT_GT(abandoned.retry_after_ms, 0.0);

  const QueryResponse after = service.Execute(request);
  ASSERT_TRUE(after.status.ok()) << after.status.ToString();
  // The plan cache died with the worker: this was a cold recompile, and
  // determinism makes it bitwise-identical to the pre-death answer.
  EXPECT_FALSE(after.plan_cache_hit);
  EXPECT_EQ(after.probability, before.probability);

  const ServiceStats stats = service.stats();
  EXPECT_GE(stats.supervision.deaths_detected, 1u);
  EXPECT_GE(stats.supervision.shard_restarts, 1u);
  EXPECT_EQ(stats.totals.requests, 3u);
  EXPECT_EQ(stats.totals.failures, 1u);
  // Gauges describe the live worker only: the dead worker's plan and
  // nodes are not added to the recompiled ones.
  EXPECT_EQ(stats.totals.plan_cache_size, 1u);
  EXPECT_LE(stats.totals.live_nodes, alive.live_nodes);
  EXPECT_LE(stats.totals.mem_bytes, alive.mem_bytes);
}

// A signature whose compiles exhaust the budget on both ladder routes
// `threshold` times is negative-cached: repeats fail RESOURCE_EXHAUSTED
// at admission without burning another compile slot, so permanent
// poison costs at most `threshold` ladder compiles — ever.
TEST(QueryServiceSupervisionTest, PermanentPoisonPaysAtMostThresholdCompiles) {
  const Database db = BipartiteRstDatabase(4, 0.4);
  ServeOptions options;
  options.num_shards = 1;
  options.compile_node_budget = 1;  // nothing can compile
  options.quarantine_threshold = 2;
  options.quarantine_parole_ms = 1e7;  // parole never comes in this test
  options.quarantine_parole_max_ms = 1e7;
  QueryService service(options);

  QueryRequest request;
  request.query = HierarchicalRSQuery();
  request.db = &db;
  request.route = PlanRoute::kSdd;
  for (int i = 0; i < 8; ++i) {
    const QueryResponse response = service.Execute(request);
    EXPECT_EQ(response.status.code(), StatusCode::kResourceExhausted)
        << "attempt " << i << ": " << response.status.ToString();
    if (i >= options.quarantine_threshold) {
      // Quarantine rejects carry the time until the next parole window.
      EXPECT_GT(response.retry_after_ms, 0.0) << "attempt " << i;
    }
  }
  const ServiceStats stats = service.stats();
  // Exactly `threshold` ladder compiles were burned; the other six
  // requests were rejected at admission.
  EXPECT_EQ(stats.totals.compiles, 2u);
  EXPECT_EQ(stats.totals.budget_aborts, 4u);  // two routes per ladder
  EXPECT_EQ(stats.supervision.quarantine_strikes, 2u);
  EXPECT_EQ(stats.supervision.quarantine_rejects, 6u);
  EXPECT_EQ(stats.supervision.quarantine_entries, 1u);
  // Every attempt is visible to monitoring.
  EXPECT_EQ(stats.totals.requests, 8u);
  EXPECT_EQ(stats.totals.failures, 8u);
  // Both strikes registered as anomalies, and all eight rejections —
  // the two worker-side exhaustions and the six admission rejects —
  // landed in the flight ring.
  EXPECT_EQ(service.flight_recorder()->anomaly_count(
                obs::Anomaly::kQuarantineStrike),
            2u);
  EXPECT_EQ(service.flight_recorder()->records(), 8u);
}

// A transiently-poisoned signature (exhaustions caused by injected
// budget trips, not the query) is re-admitted on parole once the
// interval passes; the clean trial erases the entry and the next repeat
// is an ordinary plan-cache hit.
TEST(QueryServiceSupervisionTest, TransientPoisonIsParoledThenCached) {
  const Database db = BipartiteRstDatabase(4, 0.4);
  ServeOptions options;
  options.num_shards = 1;
  options.compile_node_budget = 1u << 30;  // roomy: only faults trip it
  options.quarantine_threshold = 1;
  options.quarantine_parole_ms = 40;
  QueryService service(options);

  fault::FaultSpec trip;
  trip.fire_every = 1;  // every route compile exhausts its budget
  trip.action = [] {
    ShardWorker::TripActiveBudgetOnCurrentThread(
        StatusCode::kResourceExhausted);
  };
  fault::Arm("serve.compile.route", trip);

  QueryRequest request;
  request.query = HierarchicalRSQuery();
  request.db = &db;
  request.route = PlanRoute::kSdd;
  // Both ladder routes exhaust: one strike, immediate quarantine.
  const QueryResponse struck = service.Execute(request);
  EXPECT_EQ(struck.status.code(), StatusCode::kResourceExhausted)
      << struck.status.ToString();
  // A repeat before parole fails fast at admission.
  const QueryResponse rejected = service.Execute(request);
  EXPECT_EQ(rejected.status.code(), StatusCode::kResourceExhausted);
  EXPECT_GT(rejected.retry_after_ms, 0.0);
  fault::DisarmAll();

  // After the parole interval the trial request is admitted, compiles
  // cleanly, and earns full forgiveness.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  const QueryResponse trial = service.Execute(request);
  ASSERT_TRUE(trial.status.ok()) << trial.status.ToString();
  const auto oracle = CompileQuery(request.query, db, VtreeStrategy::kBalanced);
  ASSERT_TRUE(oracle.ok());
  EXPECT_NEAR(trial.probability, oracle->probability, 1e-9);

  const QueryResponse warm = service.Execute(request);
  ASSERT_TRUE(warm.status.ok());
  EXPECT_TRUE(warm.plan_cache_hit);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.supervision.parole_trials, 1u);
  EXPECT_EQ(stats.supervision.parole_successes, 1u);
  EXPECT_EQ(stats.supervision.quarantine_entries, 0u);
  EXPECT_EQ(stats.totals.requests, 4u);
}

// A request stuck behind a stalled compile is hedged to a sibling
// shard; the sibling's exact answer wins, the primary's in-flight
// budget is cancelled, and the late duplicate is skipped — exactly one
// response reaches the client.
TEST(QueryServiceSupervisionTest, HedgedRequestWinsOnceAndCancelsTheLoser) {
  const Database db = BipartiteRstDatabase(4, 0.4);
  ServeOptions options;
  options.num_shards = 2;
  options.heartbeat_window_ms = 100;  // scan every 25ms; stall < window
  options.hedge_after_ms = 5;
  options.compile_node_budget = 1u << 30;  // a budget exists to cancel
  QueryService service(options);

  fault::FaultSpec stall;
  stall.fire_at = 1;    // only the primary's compile stalls
  stall.delay_ms = 80;  // long enough to hedge, short of a hang verdict
  fault::Arm("serve.compile.route", stall);

  QueryRequest request;
  request.query = HierarchicalRSQuery();
  request.db = &db;
  request.route = PlanRoute::kSdd;
  const QueryResponse response = service.Execute(request);
  fault::DisarmAll();
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  const auto oracle = CompileQuery(request.query, db, VtreeStrategy::kBalanced);
  ASSERT_TRUE(oracle.ok());
  EXPECT_NEAR(response.probability, oracle->probability, 1e-9);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.supervision.hedges_dispatched, 1u);
  EXPECT_EQ(stats.supervision.hedge_wins, 1u);
  // The winner cancelled the primary's registered compile budget.
  EXPECT_EQ(stats.supervision.hedge_cancels, 1u);

  // The stalled primary eventually wakes, loses the claim, and skips:
  // the request is counted exactly once.
  for (int spin = 0; spin < 200; ++spin) {
    if (service.stats().totals.duplicate_skips >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const ServiceStats settled = service.stats();
  EXPECT_GE(settled.totals.duplicate_skips, 1u);
  EXPECT_EQ(settled.totals.requests, 1u);
}

// Chaos soak: periodic hangs and thread deaths ride a mixed stream with
// budgets, deadlines, and bounded queues. Every outcome must be typed,
// every accepted answer oracle-exact, and the counters must reconcile.
// CTSDD_CHAOS_SOAK_ROUNDS scales the stream for CI soak runs.
TEST(QueryServiceSupervisionTest, ChaosSoakSurvivesHangsAndDeaths) {
  int rounds = 6;
  if (const char* env = std::getenv("CTSDD_CHAOS_SOAK_ROUNDS")) {
    rounds = std::max(1, std::atoi(env));
  }
  const int kDomain = 5;
  const Database db = BipartiteRstDatabase(kDomain, 0.3);
  ServeOptions options;
  options.num_shards = 2;
  options.plan_cache_capacity = 4;
  options.gc_live_node_ceiling = 64;
  options.gc_check_interval = 4;
  options.compile_node_budget = 600;
  options.max_queue_depth = 4;
  options.heartbeat_window_ms = 10;
  options.quarantine_threshold = 3;
  options.quarantine_parole_ms = 50;
  QueryService service(options);

  fault::FaultSpec hang;
  hang.fire_every = 37;
  hang.delay_ms = 30;  // past the heartbeat window: a detected hang
  fault::Arm("serve.shard.hang", hang);
  fault::FaultSpec death;
  death.fire_every = 53;
  death.action = [] { ShardWorker::RequestDeathOnCurrentThread(); };
  fault::Arm("serve.shard.death", death);

  std::map<uint64_t, double> oracle;
  uint64_t accepted = 0, rejected = 0;
  for (int round = 0; round < rounds; ++round) {
    std::vector<QueryRequest> batch;
    for (int i = 0; i < 16; ++i) {
      const int step = round * 16 + i;
      QueryRequest request;
      request.query = PerConstantRsQuery(1 + step % kDomain);
      if (step % 3 == 0) {
        request.query.disjuncts.push_back(
            PerConstantRsQuery(1 + (step / 3) % kDomain).disjuncts[0]);
      }
      if (step % 5 == 0) request.query = HierarchicalRSQuery();
      request.db = &db;
      request.route = step % 2 == 0 ? PlanRoute::kObdd : PlanRoute::kSdd;
      batch.push_back(std::move(request));
    }
    const std::vector<QueryResponse> responses = service.ExecuteBatch(batch);
    for (size_t i = 0; i < responses.size(); ++i) {
      const QueryResponse& response = responses[i];
      if (!response.status.ok()) {
        const StatusCode code = response.status.code();
        EXPECT_TRUE(code == StatusCode::kDeadlineExceeded ||
                    code == StatusCode::kResourceExhausted ||
                    code == StatusCode::kUnavailable)
            << response.status.ToString();
        ++rejected;
        continue;
      }
      ++accepted;
      const uint64_t sig = QuerySignature(batch[i].query);
      if (oracle.find(sig) == oracle.end()) {
        const auto compiled =
            CompileQuery(batch[i].query, db, VtreeStrategy::kBalanced);
        ASSERT_TRUE(compiled.ok());
        oracle[sig] = compiled->probability;
      }
      ASSERT_NEAR(response.probability, oracle[sig], 1e-9)
          << "round " << round << " index " << i;
    }
  }
  fault::DisarmAll();
  EXPECT_GT(accepted, 0u);
  const ServiceStats stats = service.stats();
  // 96+ dequeues against fire cadences of 37 and 53: at least one
  // restart happened, and the books still balance.
  EXPECT_GE(stats.supervision.shard_restarts, 1u);
  EXPECT_EQ(stats.totals.requests, accepted + rejected);
  // Residency: each current worker is bounded by its GC policy (ceiling
  // x pool, with 2x slack for between-check growth and aborted partial
  // compiles). The gauges read only the current workers, so a restarted
  // worker's carcass adds nothing to the totals.
  const int per_worker_bound =
      2 * static_cast<int>(options.manager_pool_capacity) *
      options.gc_live_node_ceiling;
  EXPECT_LE(static_cast<uint64_t>(stats.totals.live_nodes),
            static_cast<uint64_t>(options.num_shards) *
                static_cast<uint64_t>(per_worker_bound));
}

// --- Counters and the metrics registry -----------------------------------

// The value of `name` in a flat MetricsJson() object; -1 when absent.
int64_t JsonValue(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\": ";
  const size_t at = json.find(key);
  if (at == std::string::npos) return -1;
  return std::strtoll(json.c_str() + at + key.size(), nullptr, 10);
}

// Every ServiceStats counter and gauge is the value /metrics exports
// under its registry name, including requests answered outside a
// worker: an invalid argument, an admission shed, a quarantine reject
// and a restart failure.
TEST(QueryServiceMetricsTest, StatsAndRegistryAgreeOnEveryCounter) {
  const Database db = BipartiteRstDatabase(4, 0.4);
  ServeOptions options;
  options.num_shards = 1;
  options.max_queue_depth = 1;
  options.heartbeat_window_ms = 500;       // above the stall below
  options.compile_node_budget = 1u << 30;  // a budget for faults to trip
  options.quarantine_threshold = 1;
  options.quarantine_parole_ms = 1e7;  // no parole in this test
  options.quarantine_parole_max_ms = 1e7;
  QueryService service(options);
  QueryRequest request;
  request.query = HierarchicalRSQuery();
  request.db = &db;
  request.route = PlanRoute::kSdd;

  QueryRequest no_db = request;
  no_db.db = nullptr;
  EXPECT_EQ(service.Execute(no_db).status.code(),
            StatusCode::kInvalidArgument);

  // Admission shed: the stalled owner has one job queued.
  ASSERT_TRUE(service.Execute(request).status.ok());
  fault::FaultSpec stall;
  stall.fire_at = 1;
  stall.delay_ms = 100;
  fault::Arm("serve.shard.process", stall);
  std::thread stalled([&] { (void)service.Execute(request); });
  while (fault::FireCount("serve.shard.process") == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::vector<QueryResponse> burst =
      service.ExecuteBatch({request, request});
  stalled.join();
  fault::DisarmAll();
  EXPECT_EQ(burst[1].status.code(), StatusCode::kUnavailable);

  // Quarantine reject: both ladder routes of `poison` exhaust once.
  QueryRequest poison = request;
  poison.query = InequalityExampleQuery();
  fault::FaultSpec trip;
  trip.fire_every = 1;
  trip.action = [] {
    ShardWorker::TripActiveBudgetOnCurrentThread(
        StatusCode::kResourceExhausted);
  };
  fault::Arm("serve.compile.route", trip);
  EXPECT_EQ(service.Execute(poison).status.code(),
            StatusCode::kResourceExhausted);
  fault::DisarmAll();
  EXPECT_EQ(service.Execute(poison).status.code(),
            StatusCode::kResourceExhausted);

  // Restart failure.
  fault::FaultSpec death;
  death.fire_at = 1;
  death.action = [] { ShardWorker::RequestDeathOnCurrentThread(); };
  fault::Arm("serve.shard.death", death);
  EXPECT_EQ(service.Execute(request).status.code(), StatusCode::kUnavailable);
  fault::DisarmAll();

  const ServiceStats s = service.stats();
  EXPECT_EQ(s.totals.sheds, 1u);
  EXPECT_EQ(s.supervision.quarantine_rejects, 1u);
  EXPECT_EQ(s.supervision.failed_on_restart, 1u);
  EXPECT_EQ(s.totals.requests, 8u);
  EXPECT_EQ(s.totals.failures, 5u);
  const ShardStats& t = s.totals;
  const SupervisionStats& v = s.supervision;
  const std::vector<std::pair<std::string, uint64_t>> expected = {
      {"serve.requests", t.requests},
      {"serve.failures", t.failures},
      {"serve.timeouts", t.timeouts},
      {"serve.sheds", t.sheds},
      {"serve.fallbacks", t.fallbacks},
      {"serve.budget_aborts", t.budget_aborts},
      {"serve.duplicate_skips", t.duplicate_skips},
      {"serve.compiles", t.compiles},
      {"serve.mem_rejects", t.mem_rejects},
      {"serve.mem_aborts", t.mem_aborts},
      {"serve.rejected_memory", s.rejected_memory},
      {"serve.rejected_quarantine", s.rejected_quarantine},
      {"plan_cache.hits", t.plan_hits},
      {"plan_cache.misses", t.plan_misses},
      {"plan_cache.evictions", t.plan_evictions},
      {"plan_cache.manager_evictions", t.manager_evictions},
      {"plan_cache.pressure_evictions", t.pressure_evictions},
      {"gc.runs", t.gc_runs},
      {"gc.reclaimed_nodes", t.gc_reclaimed},
      {"supervision.hangs_detected", v.hangs_detected},
      {"supervision.deaths_detected", v.deaths_detected},
      {"supervision.shard_restarts", v.shard_restarts},
      {"supervision.failed_on_restart", v.failed_on_restart},
      {"supervision.hedges_dispatched", v.hedges_dispatched},
      {"supervision.hedge_sheds", v.hedge_sheds},
      {"supervision.hedge_wins", v.hedge_wins},
      {"supervision.hedge_cancels", v.hedge_cancels},
      {"quarantine.rejects", v.quarantine_rejects},
      {"quarantine.strikes", v.quarantine_strikes},
      {"quarantine.parole_trials", v.parole_trials},
      {"quarantine.parole_successes", v.parole_successes},
      {"quarantine.entries", v.quarantine_entries},
      {"plan_cache.size", t.plan_cache_size},
      {"serve.live_nodes", static_cast<uint64_t>(t.live_nodes)},
      {"serve.peak_live_nodes", static_cast<uint64_t>(t.peak_live_nodes)},
      {"mem.bytes", t.mem_bytes},
  };
  const std::string json = service.MetricsJson();
  for (const auto& [name, value] : expected) {
    EXPECT_EQ(JsonValue(json, name), static_cast<int64_t>(value)) << name;
  }
  // No policy evicts plans on a manager's behalf, so no series counts it.
  EXPECT_EQ(JsonValue(json, "plan_cache.targeted_evictions"), -1);
}

// --- Hits served by any idle shard ---------------------------------------

// The shard a (query, database) pair belongs to, as admission computes it.
size_t OwnerShard(const Ucq& query, const Database& db, size_t num_shards) {
  return static_cast<size_t>(Hash2(QuerySignature(query),
                                   DatabaseSignature(db))) %
         num_shards;
}

// Distinct queries over an R/S/T database of `domain` constants.
std::vector<Ucq> QueryPool(int domain) {
  std::vector<Ucq> pool = {HierarchicalRSQuery(), InequalityExampleQuery(),
                           NonHierarchicalH0Query()};
  for (int c = 1; c <= domain; ++c) {
    pool.push_back(PerConstantRsQuery(c));
    for (int d = c + 1; d <= domain; ++d) {
      Ucq two = PerConstantRsQuery(c);
      two.disjuncts.push_back(PerConstantRsQuery(d).disjuncts[0]);
      pool.push_back(std::move(two));
    }
  }
  return pool;
}

// A hit must not queue behind its owner's compile: with the owner
// stalled inside a job, a hit on another of its cached plans is answered
// exactly by a different shard before the stall ends.
TEST(QueryServiceHitDispatchTest, HitBypassesAStalledOwner) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault sites compiled out";
  const Database db = BipartiteRstDatabase(5, 0.35);
  ServeOptions options;
  options.num_shards = 2;
  QueryService service(options);
  // Three plans with one owner: `warm` is cached first, `cold` then
  // stalls the owner, and `warm` is asked again meanwhile.
  const std::vector<Ucq> pool = QueryPool(5);
  const size_t owner = OwnerShard(pool[0], db, 2);
  std::vector<Ucq> same_owner;
  for (const Ucq& query : pool) {
    if (same_owner.size() < 2 && OwnerShard(query, db, 2) == owner) {
      same_owner.push_back(query);
    }
  }
  ASSERT_EQ(same_owner.size(), 2u);
  QueryRequest warm;
  warm.query = same_owner[0];
  warm.db = &db;
  warm.route = PlanRoute::kSdd;
  ASSERT_TRUE(service.Execute(warm).status.ok());
  QueryRequest cold = warm;
  cold.query = same_owner[1];

  fault::FaultSpec stall;
  stall.fire_at = 1;  // the next job to start stalls: the cold compile
  stall.delay_ms = 1500;
  fault::Arm("serve.shard.process", stall);
  std::atomic<bool> cold_done{false};
  QueryResponse cold_response;
  std::thread stalled([&] {
    cold_response = service.Execute(cold);
    cold_done = true;
  });
  while (fault::FireCount("serve.shard.process") == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  warm.weights.assign(db.num_tuples(), 0.8);
  const QueryResponse hit = service.Execute(warm);
  const bool answered_during_stall = !cold_done.load();
  stalled.join();
  fault::DisarmAll();

  ASSERT_TRUE(hit.status.ok()) << hit.status.ToString();
  EXPECT_TRUE(hit.plan_cache_hit);
  EXPECT_NE(hit.shard, static_cast<int>(owner));
  EXPECT_TRUE(answered_during_stall);
  const auto reweighted = CompileQuery(warm.query, BipartiteRstDatabase(5, 0.8),
                                       VtreeStrategy::kBalanced);
  ASSERT_TRUE(reweighted.ok()) << reweighted.status().ToString();
  EXPECT_NEAR(hit.probability, reweighted->probability, 1e-9);
  ASSERT_TRUE(cold_response.status.ok()) << cold_response.status.ToString();
  EXPECT_EQ(cold_response.shard, static_cast<int>(owner));
  const auto oracle = CompileQuery(cold.query, db, VtreeStrategy::kBalanced);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  EXPECT_NEAR(cold_response.probability, oracle->probability, 1e-9);
}

// Hits run on any shard while their owners evict plans and collect the
// nodes under them: a one- or two-plan cache and a tiny live-node
// ceiling turn plans over constantly under concurrent clients, and every
// answer — carried by a flat copy that outlives eviction — stays exact.
TEST(QueryServiceHitDispatchTest, HitsStayExactAcrossOwnerEvictionAndGc) {
  const int kDomain = 5;
  const Database db = BipartiteRstDatabase(kDomain, 0.3);
  std::vector<Ucq> queries = {HierarchicalRSQuery(), InequalityExampleQuery()};
  for (int c = 1; c <= kDomain; ++c) queries.push_back(PerConstantRsQuery(c));
  std::vector<double> oracle;
  for (const Ucq& query : queries) {
    const auto compiled = CompileQuery(query, db, VtreeStrategy::kBalanced);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    oracle.push_back(compiled->probability);
  }
  for (const size_t capacity : {1u, 2u}) {
    ServeOptions options;
    options.num_shards = 3;
    options.plan_cache_capacity = capacity;
    options.gc_live_node_ceiling = 64;
    options.gc_check_interval = 2;
    QueryService service(options);
    constexpr int kClients = 3;
    constexpr int kRequests = 150;
    std::vector<int> wrong(kClients, 0);
    std::vector<int> failed(kClients, 0);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        Rng rng(100 + c + 10 * capacity);
        for (int i = 0; i < kRequests; ++i) {
          // Runs of repeats make hits; switching plans makes evictions.
          const size_t q = (i / 3 + c) % queries.size();
          QueryRequest request;
          request.query = queries[q];
          request.db = &db;
          request.route = rng.NextBool() ? PlanRoute::kObdd : PlanRoute::kSdd;
          const QueryResponse response = service.Execute(request);
          if (!response.status.ok()) {
            ++failed[c];
          } else if (std::abs(response.probability - oracle[q]) > 1e-9) {
            ++wrong[c];
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
    for (int c = 0; c < kClients; ++c) {
      EXPECT_EQ(failed[c], 0) << "client " << c << ", capacity " << capacity;
      EXPECT_EQ(wrong[c], 0) << "client " << c << ", capacity " << capacity;
    }
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.totals.requests,
              static_cast<uint64_t>(kClients * kRequests));
    EXPECT_GT(stats.totals.plan_hits, 0u);
    EXPECT_GT(stats.totals.plan_evictions, 0u);
    EXPECT_GT(stats.totals.gc_runs, 0u);
    EXPECT_EQ(stats.totals.plan_hits + stats.totals.plan_misses,
              stats.totals.requests);
  }
}

// A restarted shard starts with an empty plan cache, and admission only
// ever consults the live worker: the dead worker's plans are never
// served again, while other shards' plans keep hitting.
TEST(QueryServiceHitDispatchTest, RestartedShardsOldPlansAreNotServed) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault sites compiled out";
  const Database db = BipartiteRstDatabase(4, 0.4);
  ServeOptions options;
  options.num_shards = 2;
  options.heartbeat_window_ms = 10;
  QueryService service(options);
  // One plan per shard.
  std::vector<QueryRequest> plans(2);
  for (const Ucq& query : QueryPool(4)) {
    const size_t owner = OwnerShard(query, db, 2);
    if (plans[owner].db != nullptr) continue;
    plans[owner].query = query;
    plans[owner].db = &db;
    plans[owner].route = PlanRoute::kSdd;
  }
  ASSERT_NE(plans[0].db, nullptr);
  ASSERT_NE(plans[1].db, nullptr);
  std::vector<QueryResponse> before;
  for (const QueryRequest& request : plans) {
    before.push_back(service.Execute(request));
    ASSERT_TRUE(before.back().status.ok());
    ASSERT_TRUE(service.Execute(request).plan_cache_hit);
  }

  // The next shard to take a job dies: the owner of plans[0] when it is
  // idle, which it almost always is, else the shard the hit went to. The
  // supervisor restarts whichever shard it was.
  fault::FaultSpec death;
  death.fire_at = 1;
  death.action = [] { ShardWorker::RequestDeathOnCurrentThread(); };
  fault::Arm("serve.shard.death", death);
  const QueryResponse abandoned = service.Execute(plans[0]);
  fault::DisarmAll();
  EXPECT_EQ(abandoned.status.code(), StatusCode::kUnavailable)
      << abandoned.status.ToString();
  ASSERT_TRUE(abandoned.shard == 0 || abandoned.shard == 1);
  EXPECT_GE(service.stats().supervision.shard_restarts, 1u);
  const int dead = abandoned.shard;
  const int alive = 1 - dead;

  const uint64_t compiles = service.stats().totals.compiles;
  const QueryResponse recompiled = service.Execute(plans[dead]);
  ASSERT_TRUE(recompiled.status.ok()) << recompiled.status.ToString();
  EXPECT_FALSE(recompiled.plan_cache_hit);
  EXPECT_EQ(recompiled.probability, before[dead].probability);
  EXPECT_EQ(service.stats().totals.compiles, compiles + 1);
  // The surviving shard's plan was untouched.
  const QueryResponse survivor = service.Execute(plans[alive]);
  ASSERT_TRUE(survivor.status.ok());
  EXPECT_TRUE(survivor.plan_cache_hit);
  EXPECT_EQ(survivor.probability, before[alive].probability);
}

}  // namespace
}  // namespace ctsdd
