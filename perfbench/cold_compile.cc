// The cold_compile workload: the library path with no service.
//
// A fixed suite of paper-family circuits is compiled cold on fresh
// managers with a TaskPool of half the CPUs attached, pass after pass,
// for the measured window. One operation is one family's compile. The
// circuits and the random functions are fixed instances; the seed draws
// the weights of the WMC fingerprint every compile is checked by, against
// BoolFunc where the variable count allows, otherwise against a
// sequential OBDD compile.

#include <malloc.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "circuit/families.h"
#include "compile/isa.h"
#include "compile/pipeline.h"
#include "db/lineage.h"
#include "db/query.h"
#include "db/query_compile.h"
#include "exec/task_pool.h"
#include "func/bool_func.h"
#include "obdd/obdd.h"
#include "obdd/obdd_compile.h"
#include "perfbench/common.h"
#include "sdd/sdd.h"
#include "sdd/sdd_compile.h"
#include "util/random.h"

namespace ctsdd::perfbench {
namespace {

constexpr int kIteFunctions = 4;    // 16-var OBDD functions, pairwise ITE
constexpr int kPairFunctions = 4;   // 12-var SDD functions, pairwise apply
constexpr int kSemanticFunctions = 24;  // 14-var semantic SDD compiles

std::vector<int> Iota(int n) {
  std::vector<int> v(n);
  for (int i = 0; i < n; ++i) v[i] = i;
  return v;
}

enum Family {
  kLadder,
  kIsa,
  kH0Obdd,
  kH0Sdd,
  kChainObdd,
  kChainSdd,
  kObddIte,
  kSddPairs,
  kSddSemantic,
  kFamilies
};
// The family count is odd and the sizes are chosen so that the median
// operation is the ladder, whose sequential compile sits far from its
// neighbours: fine-grained parallel families slow down two- to threefold
// when the host preempts a worker, and must not move the median across
// a family boundary.
const char* const kFamilyNames[kFamilies] = {
    "ladder_k3", "isa_k2_m4", "h0_obdd", "h0_sdd", "chain_obdd",
    "chain_sdd", "obdd_ite16", "sdd_pairs12", "sdd_semantic14"};

struct Suite {
  Circuit ladder;
  IsaParams isa{2, 4};
  Circuit isa_circuit;
  Database h0_db;
  Database chain_db;
  std::vector<BoolFunc> ite_funcs;
  std::vector<BoolFunc> pair_funcs;
  std::vector<BoolFunc> semantic_funcs;
  // Tuple weights of the WMC fingerprints, indexed by variable id.
  std::vector<double> weights;
  // What every compile is checked against: the WMC at `weights` of each
  // result a family produces, from BoolFunc where the variable count
  // allows and otherwise from a sequential OBDD compile.
  std::vector<double> expected[kFamilies];
  // Exact references of the one fully checked compile per family.
  BoolFunc isa_func;
  std::vector<BoolFunc> pair_results;  // And, Or per pair
};

// The random functions are fixed instances, so diagram_nodes does not
// depend on the seed; the seed draws the WMC weights.
constexpr uint64_t kFunctionSeed = 1;
constexpr int kMaxVarId = 1 << 12;

// Brute-force WMC over the truth table (position i is bit i).
double BoolFuncWmc(const BoolFunc& f, const std::vector<double>& w) {
  double total = 0;
  for (uint32_t index = 0; index < f.table_size(); ++index) {
    if (!f.EvalIndex(index)) continue;
    double p = 1;
    for (int i = 0; i < f.num_vars(); ++i) {
      const double wi = w[f.vars()[i]];
      p *= (index >> i) & 1 ? wi : 1 - wi;
    }
    total += p;
  }
  return total;
}

double ObddWmcOf(const ObddManager& m, int root, const std::vector<int>& order,
                 const std::vector<double>& w) {
  std::vector<double> by_level;
  for (const int v : order) by_level.push_back(w[v]);
  return m.WeightedModelCount(root, by_level);
}

double LineageObddWmc(const Circuit& circuit, const std::vector<double>& w) {
  const std::vector<int> vars = circuit.Vars();
  ObddManager m(vars);
  return ObddWmcOf(m, CompileCircuitToObdd(&m, circuit), vars, w);
}

Suite BuildSuite(uint64_t seed) {
  Suite s;
  s.ladder = LadderCircuit(16, 3);
  s.isa_circuit = IsaCircuit(s.isa);
  s.h0_db = BipartiteRstDatabase(5);
  s.chain_db = ChainDatabase(2, 3);
  Rng rng(MixSeed(kFunctionSeed, 0xc0));
  for (int i = 0; i < kIteFunctions; ++i) {
    s.ite_funcs.push_back(BoolFunc::Random(Iota(16), &rng));
  }
  for (int i = 0; i < kPairFunctions; ++i) {
    s.pair_funcs.push_back(BoolFunc::Random(Iota(12), &rng));
  }
  for (int i = 0; i < kSemanticFunctions; ++i) {
    s.semantic_funcs.push_back(BoolFunc::Random(Iota(14), &rng));
  }
  Rng weight_rng(MixSeed(seed, 0x3e));
  s.weights.resize(kMaxVarId);
  for (double& p : s.weights) p = 0.1 + 0.8 * weight_rng.NextDouble();

  // The ladder (48 variables) and the lineages are too wide for BoolFunc:
  // their reference is a sequential OBDD compile, so the SDD routes are
  // checked across routes.
  s.expected[kLadder] = {LineageObddWmc(s.ladder, s.weights)};
  const Circuit h0 = BuildLineage(NonHierarchicalH0Query(), s.h0_db).value();
  const Circuit chain = BuildLineage(InversionChainUcq(2), s.chain_db).value();
  s.expected[kH0Obdd] = s.expected[kH0Sdd] = {LineageObddWmc(h0, s.weights)};
  s.expected[kChainObdd] = s.expected[kChainSdd] = {LineageObddWmc(chain, s.weights)};
  s.isa_func = BoolFunc::FromCircuitOver(s.isa_circuit, IsaVtree(s.isa).Vars());
  s.expected[kIsa] = {BoolFuncWmc(s.isa_func, s.weights)};
  for (size_t i = 0; i < s.ite_funcs.size(); ++i) {
    for (size_t j = i + 1; j < s.ite_funcs.size(); ++j) {
      const BoolFunc& f = s.ite_funcs[i];
      const BoolFunc& g = s.ite_funcs[j];
      for (const BoolFunc& r : {f & g, f | g, f ^ g}) {
        s.expected[kObddIte].push_back(BoolFuncWmc(r, s.weights));
      }
    }
  }
  for (size_t i = 0; i < s.pair_funcs.size(); ++i) {
    for (size_t j = i + 1; j < s.pair_funcs.size(); ++j) {
      s.pair_results.push_back(s.pair_funcs[i] & s.pair_funcs[j]);
      s.pair_results.push_back(s.pair_funcs[i] | s.pair_funcs[j]);
    }
  }
  for (const BoolFunc& r : s.pair_results) {
    s.expected[kSddPairs].push_back(BoolFuncWmc(r, s.weights));
  }
  for (const BoolFunc& f : s.semantic_funcs) {
    s.expected[kSddSemantic].push_back(BoolFuncWmc(f, s.weights));
  }
  return s;
}

// Span accumulator of the sequential replay; a no-op in the timed window.
struct Spans {
  bool on = false;
  double lineage = 0, vtree = 0, obdd_compile = 0, sdd_compile = 0, wmc = 0;
  uint64_t lineage_calls = 0, vtree_calls = 0, obdd_ops = 0, sdd_ops = 0;
  std::vector<double> obdd_wmc_us, sdd_wmc_us;
  // SDD work counters and cache statistics summed over the pass.
  SddManager::PerfCounters counters;
  SddManager::CacheStats stats[3] = {};
  uint64_t obdd_live = 0, sdd_live = 0;

  double Lap(double* t0, double* acc) {
    if (!on) return 0;
    const double now = NowSeconds();
    *acc += now - *t0;
    const double d = now - *t0;
    *t0 = now;
    return d;
  }
  void Collect(const SddManager& m) {
    if (!on) return;
    counters.apply_calls += m.counters().apply_calls;
    counters.element_products += m.counters().element_products;
    const SddManager::CacheStats s[3] = {
        m.apply_cache_stats(), m.apply_memo_stats(), m.sem_cache_stats()};
    for (int i = 0; i < 3; ++i) {
      stats[i].lookups += s[i].lookups;
      stats[i].hits += s[i].hits;
    }
    sdd_live += static_cast<uint64_t>(m.NumLiveNodes());
  }
};

// What one compile produced, for checking after the window.
struct Outcome {
  double compile_ms = 0;  // from the start of the family to its last diagram
  double compile_cpu_s = 0;  // process CPU seconds over the same stretch
  uint64_t nodes = 0;
  std::vector<double> wmc;  // fingerprint: WMC of each result at the weights
  bool ok = true;
  std::string error;
};

// Compiles one family and fingerprints every result it produced. Only
// the compile is timed (Outcome::compile_ms); the fingerprint runs after.
// `full_check` also compares the diagrams with BoolFunc where the family
// allows (done once per family, after the window).
Outcome CompileFamily(const Suite& s, int family, exec::TaskPool* pool,
                      Spans* spans, bool full_check) {
  Outcome out;
  const double start = NowSeconds();
  const double cpu_start = ProcessCpuSeconds();
  double t0 = start;
  const auto compiled = [&] {
    out.compile_ms = (NowSeconds() - start) * 1e3;
    out.compile_cpu_s = ProcessCpuSeconds() - cpu_start;
  };
  const auto obdd_wmc = [&](const ObddManager& m, int root,
                            const std::vector<int>& order) {
    double w0 = NowSeconds();
    out.wmc.push_back(ObddWmcOf(m, root, order, s.weights));
    if (spans->on) spans->obdd_wmc_us.push_back(spans->Lap(&w0, &spans->wmc) * 1e6);
  };
  const auto sdd_wmc = [&](const SddManager& m, int root,
                           const std::vector<int>& vars) {
    double w0 = NowSeconds();
    std::map<int, double> by_var;
    for (const int v : vars) by_var[v] = s.weights[v];
    out.wmc.push_back(m.WeightedModelCount(root, by_var));
    if (spans->on) spans->sdd_wmc_us.push_back(spans->Lap(&w0, &spans->wmc) * 1e6);
  };
  const auto lineage_family = [&](const Ucq& query, const Database& db,
                                  bool sdd_route) {
    const Circuit circuit = BuildLineage(query, db).value();
    spans->Lap(&t0, &spans->lineage);
    spans->lineage_calls += spans->on;
    const std::vector<int> vars = circuit.Vars();
    if (!sdd_route) {
      ObddManager m(vars);
      m.AttachExecutor(pool);
      const auto root = CompileCircuitToObdd(&m, circuit);
      compiled();
      spans->Lap(&t0, &spans->obdd_compile);
      spans->obdd_ops += spans->on;
      m.AttachExecutor(nullptr);
      out.nodes = static_cast<uint64_t>(m.Size(root));
      obdd_wmc(m, root, vars);
      spans->obdd_live += spans->on ? m.NumLiveNodes() : 0;
      return;
    }
    Vtree vtree = VtreeForStrategy(circuit, vars, VtreeStrategy::kBalanced).value();
    spans->Lap(&t0, &spans->vtree);
    spans->vtree_calls += spans->on;
    SddManager m(std::move(vtree));
    m.AttachExecutor(pool);
    const auto root = CompileCircuitToSdd(&m, circuit);
    compiled();
    spans->Lap(&t0, &spans->sdd_compile);
    spans->sdd_ops += spans->on;
    m.AttachExecutor(nullptr);
    out.nodes = static_cast<uint64_t>(m.Size(root));
    sdd_wmc(m, root, vars);
    spans->Collect(m);
  };
  switch (family) {
    case kLadder: {
      // The Result-1 pipeline owns its manager, so no pool is attached.
      auto result = CompileWithTreewidth(s.ladder);
      compiled();
      spans->Lap(&t0, &spans->sdd_compile);
      spans->sdd_ops += spans->on;
      if (!result.ok()) {
        out.ok = false;
        out.error = result.status().ToString();
        return out;
      }
      out.nodes = static_cast<uint64_t>(result->sdd.size);
      spans->Collect(*result->manager);
      sdd_wmc(*result->manager, result->root, s.ladder.Vars());
      return out;
    }
    case kIsa: {
      Vtree vtree = IsaVtree(s.isa);
      spans->Lap(&t0, &spans->vtree);
      spans->vtree_calls += spans->on;
      const std::vector<int> vars = vtree.Vars();
      SddManager m(std::move(vtree));
      m.AttachExecutor(pool);
      const auto root = CompileCircuitToSdd(&m, s.isa_circuit);
      compiled();
      spans->Lap(&t0, &spans->sdd_compile);
      spans->sdd_ops += spans->on;
      m.AttachExecutor(nullptr);
      out.nodes = static_cast<uint64_t>(m.Size(root));
      spans->Collect(m);
      sdd_wmc(m, root, vars);
      if (full_check && !(m.ToBoolFunc(root) == s.isa_func)) {
        out.ok = false;
        out.error = "isa: SDD differs from BoolFunc";
      }
      return out;
    }
    case kH0Obdd:
    case kH0Sdd:
      lineage_family(NonHierarchicalH0Query(), s.h0_db, family == kH0Sdd);
      return out;
    case kChainObdd:
    case kChainSdd:
      lineage_family(InversionChainUcq(2), s.chain_db, family == kChainSdd);
      return out;
    case kObddIte: {
      const std::vector<int> order = Iota(16);
      ObddManager m(order);
      m.AttachExecutor(pool);
      std::vector<ObddManager::NodeId> roots;
      for (const BoolFunc& f : s.ite_funcs) roots.push_back(CompileFuncToObdd(&m, f));
      std::vector<ObddManager::NodeId> results;
      for (size_t i = 0; i < roots.size(); ++i) {
        for (size_t j = i + 1; j < roots.size(); ++j) {
          results.push_back(m.And(roots[i], roots[j]));
          results.push_back(m.Or(roots[i], roots[j]));
          results.push_back(m.Xor(roots[i], roots[j]));
        }
      }
      compiled();
      spans->Lap(&t0, &spans->obdd_compile);
      spans->obdd_ops += spans->on;
      m.AttachExecutor(nullptr);
      for (const auto r : results) {
        out.nodes += static_cast<uint64_t>(m.Size(r));
        obdd_wmc(m, r, order);
      }
      spans->obdd_live += spans->on ? m.NumLiveNodes() : 0;
      return out;
    }
    case kSddPairs: {
      const std::vector<int> vars = Iota(12);
      SddManager m(Vtree::Balanced(vars));
      m.AttachExecutor(pool);
      std::vector<SddManager::NodeId> roots;
      for (const BoolFunc& f : s.pair_funcs) roots.push_back(CompileFuncToSdd(&m, f));
      std::vector<SddManager::NodeId> results;
      for (size_t i = 0; i < roots.size(); ++i) {
        for (size_t j = i + 1; j < roots.size(); ++j) {
          results.push_back(m.And(roots[i], roots[j]));
          results.push_back(m.Or(roots[i], roots[j]));
        }
      }
      compiled();
      spans->Lap(&t0, &spans->sdd_compile);
      spans->sdd_ops += spans->on;
      m.AttachExecutor(nullptr);
      for (size_t r = 0; r < results.size(); ++r) {
        out.nodes += static_cast<uint64_t>(m.Size(results[r]));
        sdd_wmc(m, results[r], vars);
        if (full_check && !(m.ToBoolFunc(results[r]) == s.pair_results[r])) {
          out.ok = false;
          out.error = "sdd_pairs12: SDD differs from BoolFunc";
        }
      }
      spans->Collect(m);
      return out;
    }
    case kSddSemantic: {
      const std::vector<int> vars = Iota(14);
      SddManager m(Vtree::Balanced(vars));
      m.AttachExecutor(pool);
      std::vector<SddManager::NodeId> roots;
      for (const BoolFunc& f : s.semantic_funcs) roots.push_back(CompileFuncToSdd(&m, f));
      compiled();
      spans->Lap(&t0, &spans->sdd_compile);
      spans->sdd_ops += spans->on;
      m.AttachExecutor(nullptr);
      for (size_t r = 0; r < roots.size(); ++r) {
        out.nodes += static_cast<uint64_t>(m.Size(roots[r]));
        sdd_wmc(m, roots[r], vars);
        if (full_check && !(m.ToBoolFunc(roots[r]) == s.semantic_funcs[r])) {
          out.ok = false;
          out.error = "sdd_semantic14: SDD differs from BoolFunc";
        }
      }
      spans->Collect(m);
      return out;
    }
  }
  return out;
}

// Whether a compile's fingerprint matches the family's reference.
bool SameFingerprint(const std::vector<double>& got, const std::vector<double>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (!SameProbability(got[i], want[i])) return false;
  }
  return true;
}

}  // namespace

Report RunColdCompile(const RunArgs& args) {
  Report report;
  // Half the CPUs: with a pool worker on every CPU, any other thread or a
  // host-side stall of one virtual CPU holds up every fine-grained join,
  // which moved this workload's figures by a third from run to run on a
  // shared 4-vCPU VM. At half, the parallel regions still fork, steal and
  // park.
  const int workers = static_cast<int>(std::max(1u, std::thread::hardware_concurrency() / 2));
  const int rounds = Rounds(args.seconds);
  report.options = {{"task_pool_workers", static_cast<uint64_t>(workers)},
                    {"rounds", static_cast<uint64_t>(rounds)}};

  // The window is split into rounds. Each round sets up afresh (inputs,
  // their references, the TaskPool, one untimed pass over the suite, so
  // its share of the window starts with the pool's threads running and
  // the allocator warm), then compiles whole passes over the suite until
  // its share is up. Every end-to-end metric is the median of its
  // per-round values.
  std::vector<double> setup_s, ops_per_s, p50_ms, p99_ms, geomean_ms;
  std::vector<std::vector<double>> ms_by_family(kFamilies);
  std::vector<Outcome> window;
  Suite suite;
  std::unique_ptr<exec::TaskPool> pool;
  Spans off;
  uint64_t tasks = 0, steals = 0, parks = 0;
  double compile_s = 0, compile_cpu_s = 0;
  for (int r = 0; r < rounds; ++r) {
    pool.reset();
    malloc_trim(0);  // so each set-up starts from the same resident size
    const double setup_start = NowSeconds();
    suite = BuildSuite(args.seed);
    pool = std::make_unique<exec::TaskPool>(workers);
    for (int f = 0; f < kFamilies; ++f) CompileFamily(suite, f, pool.get(), &off, false);
    setup_s.push_back(NowSeconds() - setup_start);

    // Only the compiles are timed; each result is fingerprinted after its
    // compile, outside the timed stretch.
    const uint64_t tasks0 = pool->tasks_run(), steals0 = pool->steals(),
                   parks0 = pool->parks();
    std::vector<double> round_ms;
    std::vector<std::vector<double>> round_by_family(kFamilies);
    double round_s = 0;
    const double start = NowSeconds();
    while (NowSeconds() - start < args.seconds / rounds) {
      for (int f = 0; f < kFamilies; ++f) {
        window.push_back(CompileFamily(suite, f, pool.get(), &off, false));
        const Outcome& o = window.back();
        round_ms.push_back(o.compile_ms);
        round_by_family[f].push_back(o.compile_ms);
        ms_by_family[f].push_back(o.compile_ms);
        round_s += o.compile_ms * 1e-3;
        compile_cpu_s += o.compile_cpu_s;
      }
    }
    tasks += pool->tasks_run() - tasks0;
    steals += pool->steals() - steals0;
    parks += pool->parks() - parks0;
    compile_s += round_s;
    std::vector<double> family_medians;
    for (const auto& v : round_by_family) family_medians.push_back(Median(v));
    ops_per_s.push_back(static_cast<double>(round_ms.size()) / round_s);
    p50_ms.push_back(Percentile(round_ms, 0.5));
    p99_ms.push_back(Percentile(round_ms, 0.99));
    geomean_ms.push_back(GeoMean(family_medians));
  }

  // Answer checking: one fully checked compile per family, and every
  // compile, the window's included, must match the family's reference
  // fingerprint and the checked compile's diagram size.
  uint64_t diagram_nodes = 0;
  std::vector<Outcome> refs;
  for (int f = 0; f < kFamilies; ++f) {
    refs.push_back(CompileFamily(suite, f, pool.get(), &off, true));
    diagram_nodes += refs.back().nodes;
  }
  const auto check = [&](int f, const Outcome& o, const char* what) {
    ++report.attempted;
    std::string error;
    if (!o.ok) {
      error = o.error;
    } else if (!SameFingerprint(o.wmc, suite.expected[f])) {
      error = "WMC differs from the reference";
    } else if (o.nodes != refs[f].nodes) {
      error = "diagram size differs from the checked compile";
    }
    if (error.empty()) return;
    if (++report.failed <= 5) {
      report.Error(std::string(kFamilyNames[f]) + " (" + what + "): " + error);
    }
  };
  for (int f = 0; f < kFamilies; ++f) check(f, refs[f], "checked compile");
  for (size_t i = 0; i < window.size(); ++i) {
    check(static_cast<int>(i % kFamilies), window[i], "window");
  }
  report.Exact("diagram_nodes", diagram_nodes);

  const uint64_t ops = window.size();
  if (!args.trace) {
    report.Add("ops_per_s", Median(ops_per_s), "1/s", ops);
    report.Add("latency_p99_ms", Median(p99_ms), "ms", ops);
    // Every compile here is cold, so the miss latency is the latency.
    report.Add("miss_latency_p50_ms", Median(p50_ms), "ms", ops);
    report.Add("compile_geomean_ms", Median(geomean_ms), "ms", rounds);
    report.Add("diagram_nodes", static_cast<double>(diagram_nodes), "count", 1);
    report.Add("answered_frac",
               1.0 - static_cast<double>(report.failed) / static_cast<double>(report.attempted),
               "share", report.attempted);
    report.Add("peak_rss_mb", PeakRssMb(), "MB", 1);
    report.Add("setup_s", Median(setup_s), "s", rounds);
    return report;
  }

  std::vector<double> family_medians;
  for (const auto& v : ms_by_family) family_medians.push_back(Median(v));
  for (int f = 0; f < kFamilies; ++f) {
    report.Add(std::string("compile_ms.") + kFamilyNames[f], family_medians[f], "ms",
               ms_by_family[f].size());
  }
  report.Add("exec.tasks_run", static_cast<double>(tasks), "count", 1);
  report.Add("exec.steals", static_cast<double>(steals), "count", 1);
  report.Add("exec.parks", static_cast<double>(parks), "count", 1);
  report.Add("exec.cpu_utilization", compile_cpu_s / (compile_s * workers), "share", 1);

  // Sequential replay of one pass: untraced, traced, untraced again (the
  // untraced time is the mean of the two, so warm-up does not read as
  // tracing cost).
  const auto plain_pass = [&] {
    const double t0 = NowSeconds();
    for (int f = 0; f < kFamilies; ++f) CompileFamily(suite, f, nullptr, &off, false);
    return NowSeconds() - t0;
  };
  double plain_s = plain_pass();
  Spans t;
  t.on = true;
  double traced_s = 0;
  for (int f = 0; f < kFamilies; ++f) {
    const double t0 = NowSeconds();
    CompileFamily(suite, f, nullptr, &t, false);
    traced_s += NowSeconds() - t0;
  }
  plain_s = (plain_s + plain_pass()) / 2;
  const auto mean_us = [](double total_s, uint64_t calls) {
    return calls == 0 ? 0.0 : total_s * 1e6 / static_cast<double>(calls);
  };
  report.Add("db.lineage_us", mean_us(t.lineage, t.lineage_calls), "us", t.lineage_calls);
  report.Add("compile.vtree_us", mean_us(t.vtree, t.vtree_calls), "us", t.vtree_calls);
  report.Add("obdd.compile_us", mean_us(t.obdd_compile, t.obdd_ops), "us", t.obdd_ops);
  report.Add("sdd.compile_us", mean_us(t.sdd_compile, t.sdd_ops), "us", t.sdd_ops);
  report.Add("obdd.wmc_us_p50", Percentile(t.obdd_wmc_us, 0.5), "us", t.obdd_wmc_us.size());
  report.Add("obdd.wmc_us_p99", Percentile(t.obdd_wmc_us, 0.99), "us", t.obdd_wmc_us.size());
  report.Add("sdd.wmc_us_p50", Percentile(t.sdd_wmc_us, 0.5), "us", t.sdd_wmc_us.size());
  report.Add("sdd.wmc_us_p99", Percentile(t.sdd_wmc_us, 0.99), "us", t.sdd_wmc_us.size());
  report.Add("obdd.live_nodes", static_cast<double>(t.obdd_live), "count", 1);
  report.Add("sdd.live_nodes", static_cast<double>(t.sdd_live), "count", 1);
  report.Add("sdd.apply_calls", static_cast<double>(t.counters.apply_calls), "count", 1);
  report.Add("sdd.element_products", static_cast<double>(t.counters.element_products), "count", 1);
  const char* rate_names[3] = {"sdd.apply_cache_hit_rate", "sdd.apply_memo_hit_rate",
                               "sdd.sem_cache_hit_rate"};
  for (int i = 0; i < 3; ++i) {
    report.Add(rate_names[i],
               t.stats[i].lookups == 0
                   ? 0.0
                   : static_cast<double>(t.stats[i].hits) / t.stats[i].lookups,
               "share", t.stats[i].lookups);
  }
  report.Exact("sdd.apply_calls", t.counters.apply_calls);
  const double spans = t.lineage + t.vtree + t.obdd_compile + t.sdd_compile + t.wmc;
  report.Add("replay.unaccounted_frac", traced_s > 0 ? (traced_s - spans) / traced_s : 0.0,
             "share", kFamilies);
  report.Add("replay.trace_overhead_frac", plain_s > 0 ? traced_s / plain_s - 1.0 : 0.0,
             "share", kFamilies);
  return report;
}

}  // namespace ctsdd::perfbench
