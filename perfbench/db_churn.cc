// The db_churn workload and its traced replay.
//
// One QueryService is driven by a closed loop of two client threads: each
// client calls Execute and waits for the answer before it sends its next
// request, and every request carries fresh tuple weights derived from
// (seed, client, request index). The database content is replaced every
// 500 requests, so reads are interleaved with writes: part of the
// requests compile cold, stale plans are evicted and GC runs. End-to-end
// metrics come from this untraced window. With --trace 1 the benchmark
// afterwards replays a prefix of the same requests on one thread, calling
// each layer's public function in the order a shard does, with its own
// spans around each call; that replay gives the per-layer numbers.

#include <malloc.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "circuit/eval.h"
#include "circuit/primal_graph.h"
#include "db/lineage.h"
#include "db/query_compile.h"
#include "graph/exact_treewidth.h"
#include "obdd/obdd.h"
#include "obdd/obdd_compile.h"
#include "perfbench/common.h"
#include "perfbench/population.h"
#include "sdd/sdd.h"
#include "sdd/sdd_compile.h"
#include "serve/plan_cache.h"
#include "serve/query_service.h"
#include "serve/signature.h"
#include "util/hashing.h"

namespace ctsdd::perfbench {
namespace {

constexpr int kClients = 2;
constexpr size_t kScheduleLen = 1 << 16;
// The database structures are part of the workload definition, not of
// the seed: H0's SDD size ranges 4x over random S-edge draws, which would
// make the seed, not the code, decide every figure. The seed drives the
// request stream and the weights. See workloads.json.
constexpr uint64_t kDbStructureSeed = 1;

constexpr int kDomain = 7;
constexpr int kGenerations = 20;     // database generations, cycled
constexpr int kGenerationLen = 500;  // requests per generation over both clients
// Exact counts are snapshotted after this many generations, which every
// round completes.
constexpr int kCheckedGenerations = 8;
constexpr int kReplayGenerations = 4;  // traced replay length

// bench_serve's bounded configuration plus a node budget and a memory
// ceiling far above this population's demand, so WorkBudget leases and
// MemAccount charging stay on the measured path. Supervision stays off.
ServeOptions BenchServeOptions() {
  ServeOptions options;
  options.num_shards = 4;
  options.plan_cache_capacity = 48;
  options.manager_pool_capacity = 32;
  options.gc_live_node_ceiling = 1 << 17;
  options.gc_check_interval = 16;
  options.exec_workers = 0;
  options.compile_node_budget = uint64_t{1} << 30;
  options.mem_hard_bytes = uint64_t{4} << 30;
  return options;
}

struct ServeInputs {
  std::vector<RstDb> dbs;
  std::vector<Shape> shapes;
  // Per client: request i asks (shape, route) = schedule[i % len].
  std::vector<std::vector<std::pair<uint16_t, uint8_t>>> schedule;
};

ServeInputs BuildInputs(uint64_t seed) {
  ServeInputs in;
  for (int g = 0; g < kGenerations; ++g) {
    in.dbs.push_back(
        MakeRstDb(kDomain, 4 * kDomain, MixSeed(kDbStructureSeed, 0xdb, g)));
  }
  in.shapes = Population(kDomain);
  // Each client's schedule is a run of decks, each deck every (shape,
  // route) plan once in a seeded order. Every seed then asks for the same
  // mix, so the seed moves the order and the weights but not the amount
  // of work: independent draws gave some seeds a tenth more or fewer of
  // the costly H0 requests.
  std::vector<std::pair<uint16_t, uint8_t>> deck;
  for (size_t shape = 0; shape < in.shapes.size(); ++shape) {
    for (uint8_t route = 0; route < 2; ++route) {
      deck.emplace_back(static_cast<uint16_t>(shape), route);
    }
  }
  for (int c = 0; c < kClients; ++c) {
    Rng rng(MixSeed(seed, 0x5c, c));
    std::vector<std::pair<uint16_t, uint8_t>> s;
    while (s.size() < kScheduleLen) {
      for (const int i : rng.Permutation(static_cast<int>(deck.size()))) {
        s.push_back(deck[i]);
      }
    }
    s.resize(kScheduleLen);
    in.schedule.push_back(std::move(s));
  }
  return in;
}

uint64_t WeightSeed(uint64_t seed, int client, uint64_t index) {
  return MixSeed(seed, 0x77 + static_cast<uint64_t>(client), index);
}

PlanRoute RouteOf(int route) {
  return route == 1 ? PlanRoute::kSdd : PlanRoute::kObdd;
}

// One answered request, kept for checking and statistics.
struct Sample {
  uint64_t weight_seed = 0;
  uint16_t shape = 0;
  uint8_t route = 0;
  uint16_t db = 0;
  int16_t shard = -1;
  bool ok = false;
  bool hit = false;
  int size = 0;
  double probability = 0;
  double client_ms = 0;
  double service_ms = 0;
};

Sample Send(QueryService& service, const ServeInputs& in, int shape,
            int route, int db, uint64_t weight_seed) {
  QueryRequest request;
  request.query = in.shapes[shape].query;
  request.db = &in.dbs[db].db;
  request.route = RouteOf(route);
  request.strategy = VtreeStrategy::kBalanced;
  request.weights = RequestWeights(weight_seed, in.dbs[db].db.num_tuples());
  Sample s;
  s.weight_seed = weight_seed;
  s.shape = static_cast<uint16_t>(shape);
  s.route = static_cast<uint8_t>(route);
  s.db = static_cast<uint16_t>(db);
  const double t0 = NowSeconds();
  const QueryResponse response = service.Execute(request);
  s.client_ms = (NowSeconds() - t0) * 1e3;
  s.ok = response.status.ok();
  s.hit = response.plan_cache_hit;
  s.shard = static_cast<int16_t>(response.shard);
  s.size = response.size;
  s.probability = response.probability;
  s.service_ms = response.latency_ms;
  return s;
}

// Checks every sample against the closed form; returns wrong + failed.
uint64_t CheckSamples(const ServeInputs& in, const std::vector<Sample>& all,
                      Report* report) {
  uint64_t bad = 0;
  for (const Sample& s : all) {
    const RstDb& rst = in.dbs[s.db];
    const double want = ClosedFormProbability(
        in.shapes[s.shape], rst,
        RequestWeights(s.weight_seed, rst.db.num_tuples()));
    if (!s.ok || !SameProbability(s.probability, want)) {
      if (bad < 5) {
        report->Error("shape " + std::to_string(s.shape) + " route " +
                      std::to_string(s.route) + ": served " +
                      std::to_string(s.probability) + ", reference " +
                      std::to_string(want) + (s.ok ? "" : " (error status)"));
      }
      ++bad;
    }
  }
  return bad;
}

// A fresh one-shot compile of every shape on both routes must agree with
// the closed form — this guards the reference itself.
void CrossCheckReference(const ServeInputs& in, int db, uint64_t weight_seed,
                         Report* report) {
  const RstDb& rst = in.dbs[db];
  const std::vector<double> w =
      RequestWeights(weight_seed, rst.db.num_tuples());
  for (const Shape& shape : in.shapes) {
    auto lineage = BuildLineage(shape.query, rst.db);
    if (!lineage.ok()) {
      report->Error("reference lineage failed: " +
                    lineage.status().ToString());
      continue;
    }
    const Circuit& circuit = lineage.value();
    const std::vector<int> vars = circuit.Vars();
    if (vars.empty()) continue;
    ObddManager obdd(vars);
    const auto obdd_root = CompileCircuitToObdd(&obdd, circuit);
    std::vector<double> by_level;
    std::map<int, double> by_var;
    for (const int v : vars) {
      by_level.push_back(w[v]);
      by_var[v] = w[v];
    }
    SddManager sdd(
        VtreeForStrategy(circuit, vars, VtreeStrategy::kBalanced).value());
    const auto sdd_root = CompileCircuitToSdd(&sdd, circuit);
    const double p_obdd = obdd.WeightedModelCount(obdd_root, by_level);
    const double p_sdd = sdd.WeightedModelCount(sdd_root, by_var);
    const double want = ClosedFormProbability(shape, rst, w);
    if (!SameProbability(p_obdd, p_sdd) || !SameProbability(p_obdd, want)) {
      report->Error("reference disagreement on " + shape.query.DebugString());
    }
  }
}

// --- Traced replay --------------------------------------------------------

struct ReplayRequest {
  int shape;
  int route;
  int db;
  uint64_t weight_seed;
};

struct LayerTimes {
  double signature_query = 0, signature_db = 0, lineage = 0,
         width_predict = 0, vtree = 0, obdd_compile = 0, sdd_compile = 0,
         obdd_gc = 0, sdd_gc = 0;
  uint64_t signature_calls = 0, lineage_calls = 0, lineage_gates = 0,
           width_calls = 0, vtree_calls = 0, obdd_compiles = 0,
           sdd_compiles = 0, obdd_gcs = 0, sdd_gcs = 0;
  std::vector<double> obdd_wmc_us, sdd_wmc_us, request_us;

  // Seconds covered by layer spans.
  double SpanSum() const {
    double wmc_us = 0;
    for (const double x : obdd_wmc_us) wmc_us += x;
    for (const double x : sdd_wmc_us) wmc_us += x;
    return signature_query + signature_db + lineage + width_predict + vtree +
           obdd_compile + sdd_compile + obdd_gc + sdd_gc + wmc_us * 1e-6;
  }
};

// A one-thread stand-in for the service's shards, built from the same
// public pieces: requests go to shard Hash2(query signature, database
// signature) mod num_shards, the way QueryService routes them, and each
// stand-in shard keeps a PlanCache of plan_cache_capacity, OBDD and SDD
// manager pools of manager_pool_capacity each (LRU manager eviction drops
// the manager's plans), and ShardWorker::RunGcPolicy's GC policy: every
// gc_interval requests, each manager over the live-node ceiling is
// collected, its own plans are evicted in LRU order while it stays over,
// its caches are shrunk, and the interval halves on pressure and doubles
// (up to 8x) without. The memory governor's shed ladder is left out: its
// ceiling sits about ten times above the service's peak bytes
// (governor.peak_bytes), so the ladder never runs, and the window fails
// the run if the governor denies anything.
template <bool kTraced>
class Replayer {
 public:
  Replayer(const ServeInputs& in, const ServeOptions& options)
      : in_(in), options_(options) {
    for (int i = 0; i < options.num_shards; ++i) {
      shards_.push_back(std::make_unique<Shard>(options));
    }
  }

  void Serve(const ReplayRequest& r, LayerTimes* t) {
    // The client builds the weights before it submits, so they are not
    // part of the replayed request time.
    const RstDb& rst = in_.dbs[r.db];
    const std::vector<double> w =
        RequestWeights(r.weight_seed, rst.db.num_tuples());
    const double t_request = NowSeconds();
    double t0 = Clock();
    const uint64_t qsig = QuerySignature(in_.shapes[r.shape].query);
    Lap(&t0, &t->signature_query);
    const uint64_t dbsig = DatabaseSignature(rst.db);
    Lap(&t0, &t->signature_db);
    ++t->signature_calls;
    Shard& shard = *shards_[Hash2(qsig, dbsig) % shards_.size()];
    const PlanKey key{qsig, dbsig, VtreeStrategy::kBalanced, RouteOf(r.route)};
    const CompiledPlan* plan = shard.plans.Lookup(key);
    if (plan == nullptr) plan = shard.plans.Insert(key, Compile(&shard, r, t));
    t0 = Clock();
    double p = 0;
    if (plan->is_constant) {
      p = plan->constant_value ? 1.0 : 0.0;
    } else if (plan->obdd != nullptr) {
      std::vector<double> by_level(plan->vars.size());
      for (size_t i = 0; i < plan->vars.size(); ++i) by_level[i] = w[plan->vars[i]];
      p = plan->obdd->WeightedModelCount(plan->obdd_root, by_level);
    } else {
      std::map<int, double> by_var;
      for (const int v : plan->vars) by_var[v] = w[v];
      p = plan->sdd->WeightedModelCount(plan->sdd_root, by_var);
    }
    if (kTraced && !plan->is_constant) {
      const double us = (Clock() - t0) * 1e6;
      (plan->obdd != nullptr ? t->obdd_wmc_us : t->sdd_wmc_us).push_back(us);
    }
    answer_sum_ += p;
    if (++shard.since_gc_check >= shard.gc_interval) {
      shard.since_gc_check = 0;
      GcPolicy(&shard, t);
    }
    t->request_us.push_back((NowSeconds() - t_request) * 1e6);
  }

  double answer_sum() const { return answer_sum_; }

  // Live nodes and SDD work counters over every shard's managers.
  void Totals(uint64_t* obdd_live, uint64_t* sdd_live,
              SddManager::PerfCounters* counters,
              SddManager::CacheStats stats[3]) const {
    *obdd_live = 0;
    *sdd_live = 0;
    *counters = retired_counters_;
    for (int i = 0; i < 3; ++i) stats[i] = retired_stats_[i];
    for (const auto& shard : shards_) {
      for (const auto& e : shard->obdd_pool) *obdd_live += e.manager->NumLiveNodes();
      for (const auto& e : shard->sdd_pool) {
        *sdd_live += e.manager->NumLiveNodes();
        Accumulate(*e.manager, counters, stats);
      }
    }
  }

 private:
  template <typename M>
  struct Pooled {
    std::string key;
    std::unique_ptr<M> manager;
    uint64_t last_used = 0;
  };
  struct Shard {
    explicit Shard(const ServeOptions& options)
        : gc_interval(std::max(1, options.gc_check_interval)),
          plans(options.plan_cache_capacity, [](const PlanKey&, CompiledPlan& plan) {
            if (plan.obdd != nullptr) plan.obdd->ReleaseRootRef(plan.obdd_root);
            if (plan.sdd != nullptr) plan.sdd->ReleaseRootRef(plan.sdd_root);
          }) {}
    // The pools outlive the plans, whose eviction releases root refs.
    std::vector<Pooled<ObddManager>> obdd_pool;
    std::vector<Pooled<SddManager>> sdd_pool;
    uint64_t use_clock = 0;
    int gc_interval;
    int since_gc_check = 0;
    PlanCache plans;
  };

  static double Clock() { return kTraced ? NowSeconds() : 0.0; }
  static void Lap(double* t0, double* acc) {
    if (!kTraced) return;
    const double now = NowSeconds();
    *acc += now - *t0;
    *t0 = now;
  }

  static void Accumulate(const SddManager& m, SddManager::PerfCounters* c,
                         SddManager::CacheStats stats[3]) {
    const SddManager::PerfCounters& x = m.counters();
    c->apply_calls += x.apply_calls;
    c->element_products += x.element_products;
    const SddManager::CacheStats s[3] = {
        m.apply_cache_stats(), m.apply_memo_stats(), m.sem_cache_stats()};
    for (int i = 0; i < 3; ++i) {
      stats[i].lookups += s[i].lookups;
      stats[i].hits += s[i].hits;
    }
  }

  CompiledPlan Compile(Shard* shard, const ReplayRequest& r, LayerTimes* t) {
    CompiledPlan plan;
    plan.route = RouteOf(r.route);
    double t0 = Clock();
    auto lineage = BuildLineage(in_.shapes[r.shape].query, in_.dbs[r.db].db);
    Lap(&t0, &t->lineage);
    ++t->lineage_calls;
    const Circuit& circuit = lineage.value();
    t->lineage_gates += static_cast<uint64_t>(circuit.num_gates());
    plan.vars = circuit.Vars();
    if (plan.vars.empty()) {
      plan.is_constant = true;
      plan.constant_value = Evaluate(
          circuit, std::vector<bool>(std::max(circuit.num_vars(), 0), false));
      return plan;
    }
    if (options_.width_predict_max_gates > 0 &&
        circuit.num_gates() <= options_.width_predict_max_gates) {
      int sink = HeuristicCircuitTreewidth(circuit);
      if (circuit.num_gates() <= kMaxExactVertices) {
        auto tw = ExactCircuitTreewidth(circuit);
        auto pw = ExactPathwidth(PrimalGraph(circuit));
        sink += (tw.ok() ? tw.value() : 0) + (pw.ok() ? pw.value() : 0);
      }
      width_sink_ += sink;
      Lap(&t0, &t->width_predict);
      ++t->width_calls;
    }
    if (r.route == 0) {
      std::string key(reinterpret_cast<const char*>(plan.vars.data()),
                      plan.vars.size() * sizeof(int));
      ObddManager* m = PoolFor(shard, &shard->obdd_pool, std::move(key),
                               [&] { return std::make_unique<ObddManager>(plan.vars); });
      t0 = Clock();
      plan.obdd_root = CompileCircuitToObdd(m, circuit);
      Lap(&t0, &t->obdd_compile);
      ++t->obdd_compiles;
      m->AddRootRef(plan.obdd_root);
      plan.obdd = m;
    } else {
      t0 = Clock();
      Vtree vtree =
          VtreeForStrategy(circuit, plan.vars, VtreeStrategy::kBalanced).value();
      Lap(&t0, &t->vtree);
      ++t->vtree_calls;
      SddManager* m = PoolFor(shard, &shard->sdd_pool, VtreeKeyString(vtree), [&] {
        return std::make_unique<SddManager>(std::move(vtree));
      });
      t0 = Clock();
      plan.sdd_root = CompileCircuitToSdd(m, circuit);
      Lap(&t0, &t->sdd_compile);
      ++t->sdd_compiles;
      m->AddRootRef(plan.sdd_root);
      plan.sdd = m;
    }
    return plan;
  }

  // ShardWorker::ObddFor / SddFor: a full pool evicts its least recently
  // used manager together with the plans that live in it.
  template <typename M, typename Make>
  M* PoolFor(Shard* shard, std::vector<Pooled<M>>* pool, std::string key,
             const Make& make) {
    for (Pooled<M>& e : *pool) {
      if (e.key == key) {
        e.last_used = ++shard->use_clock;
        return e.manager.get();
      }
    }
    if (pool->size() >= options_.manager_pool_capacity) {
      auto victim = std::min_element(
          pool->begin(), pool->end(),
          [](const Pooled<M>& a, const Pooled<M>& b) {
            return a.last_used < b.last_used;
          });
      const void* dying = victim->manager.get();
      shard->plans.EraseIf([dying](const CompiledPlan& p) {
        return p.obdd == dying || p.sdd == dying;
      });
      if constexpr (std::is_same_v<M, SddManager>) {
        Accumulate(*victim->manager, &retired_counters_, retired_stats_);
      }
      pool->erase(victim);
    }
    pool->push_back({std::move(key), make(), ++shard->use_clock});
    return pool->back().manager.get();
  }

  template <typename M>
  size_t TimedGc(M* manager, double* total, uint64_t* calls) {
    double t0 = Clock();
    const size_t reclaimed = manager->GarbageCollect();
    Lap(&t0, total);
    ++*calls;
    return reclaimed;
  }

  void GcPolicy(Shard* shard, LayerTimes* t) {
    size_t reclaimed = 0;
    bool saw_pressure = false;
    const auto enforce = [&](auto* manager, double* total, uint64_t* calls) {
      if (manager->NumLiveNodes() <= options_.gc_live_node_ceiling) return;
      saw_pressure = true;
      reclaimed += TimedGc(manager, total, calls);
      const void* mine = manager;
      const auto in_this_manager = [mine](const CompiledPlan& p) {
        return p.obdd == mine || p.sdd == mine;
      };
      while (manager->NumLiveNodes() > options_.gc_live_node_ceiling &&
             shard->plans.EvictOneMatching(in_this_manager)) {
        reclaimed += TimedGc(manager, total, calls);
      }
      manager->ShrinkCaches();
    };
    for (auto& e : shard->obdd_pool) enforce(e.manager.get(), &t->obdd_gc, &t->obdd_gcs);
    for (auto& e : shard->sdd_pool) enforce(e.manager.get(), &t->sdd_gc, &t->sdd_gcs);
    const int base = std::max(1, options_.gc_check_interval);
    shard->gc_interval = saw_pressure || reclaimed > 0
                             ? std::max(1, shard->gc_interval / 2)
                             : std::min(shard->gc_interval * 2, 8 * base);
  }

  const ServeInputs& in_;
  const ServeOptions& options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  SddManager::PerfCounters retired_counters_;
  SddManager::CacheStats retired_stats_[3] = {};
  double answer_sum_ = 0;
  int width_sink_ = 0;
};

// The clients' requests of the first `generations` generations in one
// sequence, alternating between the two clients the way their schedules
// interleave.
std::vector<ReplayRequest> SequentialStream(const ServeInputs& in, uint64_t seed,
                                            int generations) {
  std::vector<ReplayRequest> out;
  const auto add = [&](int client, uint64_t i, int db) {
    const auto [shape, route] = in.schedule[client][i % kScheduleLen];
    out.push_back({shape, route, db, WeightSeed(seed, client, i)});
  };
  const int per_client = kGenerationLen / kClients;
  for (int g = 0; g < generations; ++g) {
    for (int j = 0; j < kGenerationLen; ++j) {
      add(j % 2, static_cast<uint64_t>(g) * per_client + j / 2, g);
    }
  }
  return out;
}

template <bool kTraced>
struct ReplayRun {
  std::unique_ptr<Replayer<kTraced>> replayer;
  LayerTimes times;
  double wall_s = 0;
};

template <bool kTraced>
ReplayRun<kTraced> RunReplay(const ServeInputs& in, const ServeOptions& options,
                             const std::vector<ReplayRequest>& stream) {
  ReplayRun<kTraced> run;
  run.replayer = std::make_unique<Replayer<kTraced>>(in, options);
  Replayer<kTraced>* replayer = run.replayer.get();
  {
    // The service starts with every plan of database 0 compiled.
    LayerTimes discard;
    for (int s = 0; s < static_cast<int>(in.shapes.size()); ++s) {
      for (int route = 0; route < 2; ++route) {
        replayer->Serve({s, route, 0, 0}, &discard);
      }
    }
  }
  run.times.request_us.reserve(stream.size());
  const double t0 = NowSeconds();
  for (const ReplayRequest& r : stream) replayer->Serve(r, &run.times);
  run.wall_s = NowSeconds() - t0;
  return run;
}

void AddReplayMetrics(const ServeInputs& in, const ServeOptions& options,
                      uint64_t seed, double service_p50_ms, Report* report) {
  const std::vector<ReplayRequest> stream = SequentialStream(in, seed, kReplayGenerations);
  // Untraced, traced, untraced again: the untraced time is the mean of
  // the two, so warm-up does not read as tracing cost.
  const ReplayRun<false> plain = RunReplay<false>(in, options, stream);
  const ReplayRun<true> traced = RunReplay<true>(in, options, stream);
  const double plain_s =
      (plain.wall_s + RunReplay<false>(in, options, stream).wall_s) / 2;
  const double traced_s = traced.wall_s;
  const LayerTimes& t = traced.times;
  if (plain.replayer->answer_sum() != traced.replayer->answer_sum()) {
    report->Error("traced and untraced replays computed different answers");
  }
  const auto mean_us = [](double total_s, uint64_t calls) {
    return calls == 0 ? 0.0 : total_s * 1e6 / static_cast<double>(calls);
  };
  const uint64_t n = stream.size();
  report->Add("signature.query_us", mean_us(t.signature_query, t.signature_calls), "us", t.signature_calls);
  report->Add("signature.db_us", mean_us(t.signature_db, t.signature_calls), "us", t.signature_calls);
  report->Add("db.lineage_us", mean_us(t.lineage, t.lineage_calls), "us", t.lineage_calls);
  report->Add("db.lineage_gates",
              t.lineage_calls == 0 ? 0.0 : static_cast<double>(t.lineage_gates) / t.lineage_calls,
              "gates", t.lineage_calls);
  report->Add("graph.width_predict_us", mean_us(t.width_predict, t.width_calls), "us", t.width_calls);
  report->Add("compile.vtree_us", mean_us(t.vtree, t.vtree_calls), "us", t.vtree_calls);
  report->Add("obdd.compile_us", mean_us(t.obdd_compile, t.obdd_compiles), "us", t.obdd_compiles);
  report->Add("sdd.compile_us", mean_us(t.sdd_compile, t.sdd_compiles), "us", t.sdd_compiles);
  report->Add("obdd.wmc_us_p50", Percentile(t.obdd_wmc_us, 0.5), "us", t.obdd_wmc_us.size());
  report->Add("obdd.wmc_us_p99", Percentile(t.obdd_wmc_us, 0.99), "us", t.obdd_wmc_us.size());
  report->Add("sdd.wmc_us_p50", Percentile(t.sdd_wmc_us, 0.5), "us", t.sdd_wmc_us.size());
  report->Add("sdd.wmc_us_p99", Percentile(t.sdd_wmc_us, 0.99), "us", t.sdd_wmc_us.size());
  report->Add("obdd.gc_us", mean_us(t.obdd_gc, t.obdd_gcs), "us", t.obdd_gcs);
  report->Add("sdd.gc_us", mean_us(t.sdd_gc, t.sdd_gcs), "us", t.sdd_gcs);

  uint64_t obdd_live = 0, sdd_live = 0;
  SddManager::PerfCounters counters;
  SddManager::CacheStats stats[3] = {};
  traced.replayer->Totals(&obdd_live, &sdd_live, &counters, stats);
  report->Add("obdd.live_nodes", static_cast<double>(obdd_live), "count", 1);
  report->Add("sdd.live_nodes", static_cast<double>(sdd_live), "count", 1);
  report->Add("sdd.apply_calls", static_cast<double>(counters.apply_calls), "count", 1);
  report->Add("sdd.element_products", static_cast<double>(counters.element_products), "count", 1);
  const char* rate_names[3] = {"sdd.apply_cache_hit_rate", "sdd.apply_memo_hit_rate",
                               "sdd.sem_cache_hit_rate"};
  for (int i = 0; i < 3; ++i) {
    report->Add(rate_names[i],
                stats[i].lookups == 0 ? 0.0
                                      : static_cast<double>(stats[i].hits) / stats[i].lookups,
                "share", stats[i].lookups);
  }
  report->Exact("sdd.apply_calls", counters.apply_calls);

  double request_total = 0;
  for (const double us : t.request_us) request_total += us;
  request_total *= 1e-6;
  report->Add("replay.unaccounted_frac",
              request_total > 0 ? (request_total - t.SpanSum()) / request_total : 0.0,
              "share", n);
  report->Add("replay.trace_overhead_frac",
              plain_s > 0 ? traced_s / plain_s - 1.0 : 0.0, "share", n);
  report->Add("serve.shell_overhead_ms",
              service_p50_ms - Percentile(plain.times.request_us, 0.5) * 1e-3, "ms", n);
}

// --- The closed-loop window -------------------------------------------------

struct Setup {
  std::unique_ptr<ServeInputs> inputs;
  std::unique_ptr<QueryService> service;
  std::vector<Sample> warm_samples;
};

Setup SetUp(const ServeOptions& options, uint64_t seed) {
  Setup s;
  s.inputs = std::make_unique<ServeInputs>(BuildInputs(seed));
  s.service = std::make_unique<QueryService>(options);
  // Compile every (shape, route) plan of database 0, split over the two
  // clients.
  const int plans = 2 * static_cast<int>(s.inputs->shapes.size());
  std::vector<std::vector<Sample>> per_client(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int k = c; k < plans; k += kClients) {
        per_client[c].push_back(Send(*s.service, *s.inputs, k / 2, k % 2, 0,
                                     MixSeed(seed, 0x3a, k)));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (auto& v : per_client) {
    s.warm_samples.insert(s.warm_samples.end(), v.begin(), v.end());
  }
  return s;
}

// One round: a fresh service is set up, then both clients run the
// closed loop for the round's share of the window.
struct Round {
  Setup setup;
  double setup_s = 0;
  std::vector<Sample> window;  // both clients' requests
  double wall = 0, cpu = 0;
  ServiceStats before, checked, after;
  uint64_t diagram_nodes = 0;
};

// Request i of client c carries the weights of WeightSeed(seed, c,
// weight_base + i): each round gets its own weights, the same schedule.
Round RunRound(const ServeOptions& options, uint64_t seed,
               uint64_t weight_base, double seconds) {
  Round round;
  malloc_trim(0);  // so each set-up starts from the same resident size
  const double setup_start = NowSeconds();
  round.setup = SetUp(options, seed);
  round.setup_s = NowSeconds() - setup_start;
  const ServeInputs& in = *round.setup.inputs;
  QueryService& service = *round.setup.service;

  round.before = service.stats();
  round.checked = round.before;  // after kCheckedGenerations
  std::vector<std::vector<Sample>> per_client(kClients);
  for (auto& v : per_client) v.reserve(1 << 15);
  const double cpu0 = ProcessCpuSeconds();
  const double t0 = NowSeconds();
  const double deadline = t0 + seconds;
  int generation = 0;
  int arrived = 0;
  bool stop = false;
  std::mutex mu;
  std::condition_variable cv;
  // The last client to finish a generation closes it; the service is
  // idle then, so the checked snapshot is exact.
  const auto end_generation = [&] {
    std::unique_lock<std::mutex> lock(mu);
    const int mine = generation;
    if (++arrived < kClients) {
      cv.wait(lock, [&] { return generation != mine; });
      return;
    }
    arrived = 0;
    ++generation;
    if (generation == kCheckedGenerations) round.checked = service.stats();
    stop = generation >= kCheckedGenerations && NowSeconds() >= deadline;
    cv.notify_all();
  };
  // The content changes every kGenerationLen requests. Both clients
  // finish a generation before the next one starts, so a generation's
  // requests always meet its own database.
  std::vector<std::thread> clients;
  const int per_gen = kGenerationLen / kClients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (uint64_t g = 0; !stop; ++g) {
        const int db = static_cast<int>(g % kGenerations);
        for (int j = 0; j < per_gen; ++j) {
          const uint64_t i = g * per_gen + static_cast<uint64_t>(j);
          const auto [shape, route] = in.schedule[c][i % kScheduleLen];
          per_client[c].push_back(
              Send(service, in, shape, route, db, WeightSeed(seed, c, weight_base + i)));
        }
        end_generation();
      }
    });
  }
  for (std::thread& t : clients) t.join();
  round.wall = NowSeconds() - t0;
  round.cpu = ProcessCpuSeconds() - cpu0;
  round.after = service.stats();
  for (auto& v : per_client) {
    round.window.insert(round.window.end(), v.begin(), v.end());
  }

  // Every (shape, route) plan of database 0 is compiled in set-up; their
  // sizes do not depend on the seed.
  for (const Sample& s : round.setup.warm_samples) {
    round.diagram_nodes += static_cast<uint64_t>(s.size);
  }
  return round;
}

// The exact counts. With two clients in flight, the order in which a
// shard sees their requests varies from run to run, and with it which
// plans LRU eviction and GC shed, so the window's compile, eviction and GC
// counts vary a little too. Here one client sends the warm-up and then the
// first kCheckedGenerations generations in one fixed order through a fresh
// service: every shard sees one request sequence, so the counts repeat
// exactly unless the service itself is nondeterministic.
struct CountPass {
  std::vector<Sample> samples;
  uint64_t compiles = 0, plan_evictions = 0, gc_runs = 0;
};

CountPass RunCountPass(const ServeInputs& in, const ServeOptions& options,
                       uint64_t seed) {
  CountPass pass;
  QueryService service(options);
  for (int k = 0; k < 2 * static_cast<int>(in.shapes.size()); ++k) {
    pass.samples.push_back(Send(service, in, k / 2, k % 2, 0, MixSeed(seed, 0x3a, k)));
  }
  const ShardStats before = service.stats().totals;
  for (const ReplayRequest& r : SequentialStream(in, seed, kCheckedGenerations)) {
    pass.samples.push_back(Send(service, in, r.shape, r.route, r.db, r.weight_seed));
  }
  const ShardStats after = service.stats().totals;
  pass.compiles = after.compiles - before.compiles;
  pass.plan_evictions = after.plan_evictions - before.plan_evictions;
  pass.gc_runs = after.gc_runs - before.gc_runs;
  return pass;
}

}  // namespace

Report RunDbChurn(const RunArgs& args) {
  Report report;
  const ServeOptions options = BenchServeOptions();
  const auto u = [](auto x) { return static_cast<uint64_t>(x); };
  report.options = {
      {"num_shards", u(options.num_shards)},
      {"plan_cache_capacity", u(options.plan_cache_capacity)},
      {"manager_pool_capacity", u(options.manager_pool_capacity)},
      {"gc_live_node_ceiling", u(options.gc_live_node_ceiling)},
      {"gc_check_interval", u(options.gc_check_interval)},
      {"exec_workers", u(options.exec_workers)},
      {"compile_node_budget", u(options.compile_node_budget)},
      {"mem_hard_bytes", u(options.mem_hard_bytes)},
      {"heartbeat_window_ms", u(options.heartbeat_window_ms)},
      {"width_predict_max_gates", u(options.width_predict_max_gates)},
      {"clients", u(kClients)},
      {"rounds", u(Rounds(args.seconds))}};

  // The window is split into rounds, each on a freshly set-up service;
  // every end-to-end metric is the median of its per-round values, so
  // neither one set-up's thread placement and heap layout nor one slow
  // stretch of a shared host decides it.
  const int rounds = Rounds(args.seconds);
  std::vector<double> setup_s, ops_per_s, p99_ms, miss_p50_ms, geomean_ms;
  std::vector<Sample> checked_samples;
  Round last;
  std::vector<double> queue_ms, service_ms;
  for (int r = 0; r < rounds; ++r) {
    last = Round();  // tears the previous round's service down first
    last = RunRound(options, args.seed, static_cast<uint64_t>(r) << 32,
                    args.seconds / rounds);
    const Round& round = last;
    const ShardStats& a = round.after.totals;
    // The budget and the memory ceiling sit far above this population's
    // demand: any abort, fallback or denial is a failure of the run.
    if (a.budget_aborts + a.fallbacks + round.after.governor.admit_denials > 0) {
      report.Error("budget aborts, fallbacks or governor denials on the measured path");
    }
    for (const Sample& s : round.setup.warm_samples) {
      if (s.hit) report.Error("a warm-up request hit the plan cache");
    }
    if (r == 0) {
      report.Exact("diagram_nodes", round.diagram_nodes);
    } else if (round.diagram_nodes != report.exact_counts[0].second) {
      report.Error("diagram_nodes differs between rounds of one run");
    }

    setup_s.push_back(round.setup_s);
    ops_per_s.push_back(static_cast<double>(round.window.size()) / round.wall);
    std::vector<double> client_ms;
    for (const Sample& s : round.window) {
      client_ms.push_back(s.client_ms);
      service_ms.push_back(s.service_ms);
      queue_ms.push_back(std::max(0.0, s.client_ms - s.service_ms));
    }
    p99_ms.push_back(Percentile(client_ms, 0.99));
    std::vector<double> miss_ms;
    std::map<int, std::vector<double>> miss_by_plan;
    for (const Sample& s : round.window) {
      if (s.hit) continue;
      miss_ms.push_back(s.client_ms);
      miss_by_plan[s.shape * 2 + s.route].push_back(s.client_ms);
    }
    std::vector<double> plan_medians;
    for (const auto& [plan, v] : miss_by_plan) plan_medians.push_back(Median(v));
    miss_p50_ms.push_back(Percentile(miss_ms, 0.5));
    geomean_ms.push_back(GeoMean(plan_medians));
    checked_samples.insert(checked_samples.end(), round.setup.warm_samples.begin(),
                           round.setup.warm_samples.end());
    checked_samples.insert(checked_samples.end(), round.window.begin(), round.window.end());
  }
  const double peak_rss_mb = PeakRssMb();
  const ServeInputs& in = *last.setup.inputs;
  last.setup.service.reset();

  const CountPass pass = RunCountPass(in, options, args.seed);
  report.Exact("sequential.compiles", pass.compiles);
  report.Exact("sequential.plan_evictions", pass.plan_evictions);
  report.Exact("sequential.gc_runs", pass.gc_runs);
  checked_samples.insert(checked_samples.end(), pass.samples.begin(), pass.samples.end());

  // Answer checking, after the timed windows.
  report.attempted = checked_samples.size();
  report.failed = CheckSamples(in, checked_samples, &report);
  CrossCheckReference(in, 0, WeightSeed(args.seed, 0, 0), &report);

  const uint64_t requests = queue_ms.size();
  if (!args.trace) {
    report.Add("ops_per_s", Median(ops_per_s), "1/s", requests);
    report.Add("latency_p99_ms", Median(p99_ms), "ms", requests);
    report.Add("miss_latency_p50_ms", Median(miss_p50_ms), "ms", rounds);
    report.Add("compile_geomean_ms", Median(geomean_ms), "ms", rounds);
    report.Add("diagram_nodes", static_cast<double>(report.exact_counts[0].second), "count", 1);
    report.Add("answered_frac",
               1.0 - static_cast<double>(report.failed) / static_cast<double>(report.attempted),
               "share", report.attempted);
    report.Add("peak_rss_mb", peak_rss_mb, "MB", 1);
    report.Add("setup_s", Median(setup_s), "s", rounds);
    return report;
  }

  // Per-layer service figures: latencies over every round, the rest from
  // the last round's service.
  const ShardStats& a = last.after.totals;
  const ShardStats& b = last.before.totals;
  const ShardStats& k = last.checked.totals;
  std::vector<double> busy_by_shard(options.num_shards, 0.0);
  for (const Sample& s : last.window) {
    if (s.shard >= 0 && s.shard < options.num_shards) busy_by_shard[s.shard] += s.service_ms;
  }
  double busy_total = 0, busy_max = 0;
  for (const double x : busy_by_shard) {
    busy_total += x;
    busy_max = std::max(busy_max, x);
  }
  const uint64_t hits = a.plan_hits - b.plan_hits;
  const uint64_t lookups = hits + a.plan_misses - b.plan_misses;
  const uint64_t last_requests = last.window.size();
  report.Add("serve.queue_wait_p50_ms", Percentile(queue_ms, 0.5), "ms", requests);
  report.Add("serve.queue_wait_p99_ms", Percentile(queue_ms, 0.99), "ms", requests);
  report.Add("serve.service_p50_ms", Percentile(service_ms, 0.5), "ms", requests);
  report.Add("serve.service_p99_ms", Percentile(service_ms, 0.99), "ms", requests);
  report.Add("serve.shard_busy_max_share", busy_total > 0 ? busy_max / busy_total : 0.0,
             "share", last_requests);
  report.Add("serve.cores_busy", last.cpu / last.wall, "cores", 1);
  report.Add("serve.plan_hit_rate",
             lookups == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(lookups),
             "share", lookups);
  // Counts over the checked generations.
  report.Add("serve.compiles", static_cast<double>(k.compiles - b.compiles), "count", 1);
  report.Add("serve.plan_evictions", static_cast<double>(k.plan_evictions - b.plan_evictions), "count", 1);
  report.Add("serve.manager_evictions",
             static_cast<double>(k.manager_evictions - b.manager_evictions), "count", 1);
  report.Add("serve.gc_runs", static_cast<double>(k.gc_runs - b.gc_runs), "count", 1);
  report.Add("serve.gc_reclaimed", static_cast<double>(k.gc_reclaimed - b.gc_reclaimed), "count", 1);
  report.Add("serve.gc_pause_p99_ms", last.after.gc_pause_p99_ms, "ms", a.gc_runs);
  report.Add("serve.budget_aborts", static_cast<double>(a.budget_aborts), "count", 1);
  report.Add("serve.fallbacks", static_cast<double>(a.fallbacks), "count", 1);
  report.Add("governor.admit_denials", static_cast<double>(last.after.governor.admit_denials),
             "count", 1);
  report.Add("governor.peak_bytes", static_cast<double>(last.after.governor.peak_bytes), "bytes", 1);
  AddReplayMetrics(in, options, args.seed, Percentile(service_ms, 0.5), &report);
  return report;
}

}  // namespace ctsdd::perfbench
