// Tests for util/flat_diagram: the one linear-pass evaluator behind both
// managers' WeightedModelCount and the service's plans. Random OBDD and
// SDD roots are checked against brute-force WMC over the BoolFunc truth
// table and against nnf/wmc on the diagram read as an NNF circuit, over
// the corner cases of the normalization contract.

#include <algorithm>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "circuit/circuit.h"
#include "func/bool_func.h"
#include "gtest/gtest.h"
#include "nnf/wmc.h"
#include "obdd/obdd.h"
#include "obdd/obdd_compile.h"
#include "sdd/sdd.h"
#include "sdd/sdd_compile.h"
#include "util/flat_diagram.h"
#include "util/random.h"
#include "vtree/vtree.h"

namespace ctsdd {
namespace {

std::vector<int> Iota(int n) {
  std::vector<int> vars(n);
  for (int i = 0; i < n; ++i) vars[i] = i;
  return vars;
}

// Sum over the models of f of prod p(x) * prod (1 - p(not x)); variables
// absent from `prob` weigh 0.5.
double BruteForceWmc(const BoolFunc& f, const std::map<int, double>& prob) {
  double total = 0;
  for (uint32_t index = 0; index < f.table_size(); ++index) {
    if (!f.EvalIndex(index)) continue;
    double weight = 1;
    for (int i = 0; i < f.num_vars(); ++i) {
      const auto it = prob.find(f.vars()[i]);
      const double p = it == prob.end() ? 0.5 : it->second;
      weight *= (index >> i) & 1 ? p : 1 - p;
    }
    total += weight;
  }
  return total;
}

std::map<int, double> RandomProbs(const std::vector<int>& vars, Rng* rng) {
  std::map<int, double> prob;
  for (const int v : vars) prob[v] = rng->NextDouble();
  return prob;
}

// The flat diagram's probability slots filled from a by-variable map.
std::vector<double> BySlot(const FlatDiagram& flat,
                           const std::map<int, double>& prob) {
  std::vector<double> out;
  for (const int v : flat.vars()) {
    const auto it = prob.find(v);
    out.push_back(it == prob.end() ? 0.5 : it->second);
  }
  return out;
}

// The OBDD as an NNF circuit: node (x; lo, hi) = (!x & lo) | (x & hi).
Circuit ObddAsNnf(const ObddManager& m, ObddManager::NodeId root) {
  Circuit c;
  std::map<ObddManager::NodeId, int> gate;
  std::vector<ObddManager::NodeId> stack = {root};
  while (!stack.empty()) {  // post-order, children first
    const auto u = stack.back();
    if (gate.count(u) != 0) {
      stack.pop_back();
      continue;
    }
    if (m.IsTerminal(u)) {
      gate[u] = c.ConstGate(u == ObddManager::kTrue);
      stack.pop_back();
      continue;
    }
    const auto& n = m.node(u);
    if (gate.count(n.lo) == 0 || gate.count(n.hi) == 0) {
      stack.push_back(n.lo);
      stack.push_back(n.hi);
      continue;
    }
    stack.pop_back();
    const int x = c.VarGate(m.var_order()[n.level]);
    gate[u] = c.OrGate(c.AndGate(c.NotGate(x), gate[n.lo]),
                       c.AndGate(x, gate[n.hi]));
  }
  c.SetOutput(gate[root]);
  return c;
}

// The SDD as an NNF circuit: decision = OR over elements of (p & s).
int SddGate(const SddManager& m, SddManager::NodeId u, Circuit* c,
            std::map<SddManager::NodeId, int>* memo) {
  const auto it = memo->find(u);
  if (it != memo->end()) return it->second;
  int gate;
  if (m.IsConst(u)) {
    gate = c->ConstGate(u == SddManager::kTrue);
  } else if (m.node(u).kind == SddManager::Kind::kLiteral) {
    const int x = c->VarGate(m.node(u).var);
    gate = m.node(u).sense ? x : c->NotGate(x);
  } else {
    std::vector<int> terms;
    for (const auto& [p, s] : m.elements(u)) {
      terms.push_back(c->AndGate(SddGate(m, p, c, memo),
                                 SddGate(m, s, c, memo)));
    }
    gate = c->OrGate(terms);
  }
  memo->emplace(u, gate);
  return gate;
}

Circuit SddAsNnf(const SddManager& m, SddManager::NodeId root) {
  Circuit c;
  std::map<SddManager::NodeId, int> memo;
  c.SetOutput(SddGate(m, root, &c, &memo));
  return c;
}

TEST(FlatDiagramTest, ConstantsAndLiteralsFromBothManagers) {
  ObddManager obdd(Iota(3));
  SddManager sdd(Vtree::Balanced(Iota(3)));
  for (const bool value : {false, true}) {
    const FlatDiagram a = obdd.Flatten(value ? obdd.True() : obdd.False());
    const FlatDiagram b = sdd.Flatten(value ? sdd.True() : sdd.False());
    const FlatDiagram c = FlatDiagram::Constant(value);
    for (const FlatDiagram* flat : {&a, &b, &c}) {
      EXPECT_TRUE(flat->vars().empty());
      EXPECT_EQ(flat->size(), 0);
      EXPECT_EQ(flat->width(), 0);
      EXPECT_EQ(flat->num_decisions(), 0);
      EXPECT_EQ(flat->WeightedModelCount({}), value ? 1.0 : 0.0);
    }
    EXPECT_EQ(obdd.WeightedModelCount(value ? obdd.True() : obdd.False(),
                                      {0.2, 0.3, 0.4}),
              value ? 1.0 : 0.0);
  }
  for (const bool positive : {false, true}) {
    // An SDD literal is a leaf; an OBDD literal is one node.
    const FlatDiagram s = sdd.Flatten(sdd.Literal(2, positive));
    EXPECT_EQ(s.vars(), std::vector<int>{2});
    EXPECT_EQ(s.size(), 0);
    EXPECT_EQ(s.WeightedModelCount(std::vector<double>{0.3}),
              positive ? 0.3 : 1.0 - 0.3);
    const FlatDiagram o = obdd.Flatten(obdd.Literal(1, positive));
    EXPECT_EQ(o.vars(), std::vector<int>{1});
    EXPECT_EQ(o.size(), 1);
    EXPECT_EQ(o.width(), 1);
    EXPECT_EQ(o.WeightedModelCount(std::vector<double>{0.3}),
              positive ? 0.3 : 1.0 - 0.3);
  }
}

TEST(FlatDiagramTest, RandomObddRootsMatchBruteForceAndNnf) {
  Rng rng(41);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 1 + trial % 8;
    // The manager orders a shuffled superset of the function's variables,
    // so most roots skip levels, at the top and between nodes alike.
    std::vector<int> order = Iota(n + 3);
    const std::vector<int> perm = rng.Permutation(n + 3);
    for (int i = 0; i < n + 3; ++i) order[i] = perm[i];
    std::vector<int> fvars;
    for (int v = 0; v < n + 3; ++v) {
      if (rng.NextBool(0.6)) fvars.push_back(v);
    }
    const BoolFunc f = BoolFunc::Random(fvars, &rng);
    ObddManager m(order);
    const auto root = CompileFuncToObdd(&m, f);
    const std::map<int, double> prob = RandomProbs(order, &rng);
    std::vector<double> by_level;
    for (const int v : order) by_level.push_back(prob.at(v));

    const double want = BruteForceWmc(f, prob);
    const FlatDiagram flat = m.Flatten(root);
    EXPECT_NEAR(flat.WeightedModelCount(BySlot(flat, prob)), want, 1e-12);
    EXPECT_NEAR(m.WeightedModelCount(root, by_level), want, 1e-12);
    const auto nnf = WmcDetDecomposable(ObddAsNnf(m, root), prob);
    ASSERT_TRUE(nnf.ok()) << nnf.status().ToString();
    EXPECT_NEAR(nnf.value(), want, 1e-12);
    // Only tested variables get slots; the counts come from the walk.
    for (const int v : flat.vars()) {
      EXPECT_TRUE(f.DependsOnPosition(static_cast<int>(
          std::find(fvars.begin(), fvars.end(), v) - fvars.begin())));
    }
    EXPECT_EQ(flat.size(), m.Size(root));
    EXPECT_EQ(flat.width(), m.Width(root));
    EXPECT_EQ(flat.num_decisions(), m.Size(root));
  }
}

TEST(FlatDiagramTest, RandomSddRootsMatchBruteForceAndNnf) {
  Rng rng(43);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 1 + trial % 9;
    const Vtree vtree = Vtree::Random(Iota(n), &rng);
    SddManager m(vtree);
    const BoolFunc f = BoolFunc::Random(Iota(n), &rng);
    const auto root = CompileFuncToSdd(&m, f);
    const std::map<int, double> prob = RandomProbs(Iota(n), &rng);
    const double want = BruteForceWmc(f, prob);
    const FlatDiagram flat = m.Flatten(root);
    EXPECT_NEAR(flat.WeightedModelCount(BySlot(flat, prob)), want, 1e-12);
    EXPECT_NEAR(m.WeightedModelCount(root, prob), want, 1e-12);
    const auto nnf = WmcDetDecomposable(SddAsNnf(m, root), prob);
    ASSERT_TRUE(nnf.ok()) << nnf.status().ToString();
    EXPECT_NEAR(nnf.value(), want, 1e-12);
    EXPECT_EQ(flat.size(), m.Size(root));
    EXPECT_EQ(flat.width(), m.Width(root));
  }
}

// x0 | (x1 & x2 & x3) on a right-linear vtree is the decision
// {(x0, true), (!x0, x1 & x2 & x3)} at the root: the true sub stands for
// the whole three-variable right scope, and false subs appear one level
// down. Under the contract both are exact without smoothing.
TEST(FlatDiagramTest, ConstantSubsAtInternalVtreeNodes) {
  SddManager m(Vtree::RightLinear(Iota(4)));
  const auto tail = m.AndN({m.Literal(1, true), m.Literal(2, true),
                            m.Literal(3, true)});
  const auto root = m.Or(m.Literal(0, true), tail);
  bool saw_true_sub = false;
  bool saw_false_sub = false;
  std::vector<SddManager::NodeId> stack = {root};
  while (!stack.empty()) {
    const auto u = stack.back();
    stack.pop_back();
    for (const auto& [p, s] : m.elements(u)) {
      saw_true_sub |= s == SddManager::kTrue;
      saw_false_sub |= s == SddManager::kFalse;
      stack.push_back(p);
      stack.push_back(s);
    }
  }
  ASSERT_TRUE(saw_true_sub);
  ASSERT_TRUE(saw_false_sub);
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const std::map<int, double> prob = RandomProbs(Iota(4), &rng);
    const double p0 = prob.at(0), p1 = prob.at(1), p2 = prob.at(2),
                 p3 = prob.at(3);
    const double want = p0 + (1 - p0) * p1 * p2 * p3;
    EXPECT_NEAR(m.WeightedModelCount(root, prob), want, 1e-12);
    const auto nnf = WmcDetDecomposable(SddAsNnf(m, root), prob);
    ASSERT_TRUE(nnf.ok());
    EXPECT_NEAR(nnf.value(), want, 1e-12);
  }
}

TEST(FlatDiagramTest, SddVariablesMissingFromTheMapWeighHalf) {
  Rng rng(47);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 3 + trial % 6;
    SddManager m(Vtree::Balanced(Iota(n)));
    const BoolFunc f = BoolFunc::Random(Iota(n), &rng);
    const auto root = CompileFuncToSdd(&m, f);
    std::map<int, double> prob;
    for (int v = 0; v < n; ++v) {
      if (rng.NextBool(0.5)) prob[v] = rng.NextDouble();
    }
    prob[n + 5] = 0.9;  // not a vtree variable: ignored
    EXPECT_NEAR(m.WeightedModelCount(root, prob), BruteForceWmc(f, prob),
                1e-12);
  }
}

// A flat diagram is self-contained: it answers after its manager is gone,
// and many threads can evaluate one diagram at once.
TEST(FlatDiagramTest, OutlivesItsManagerAndServesManyThreads) {
  Rng rng(53);
  const BoolFunc f = BoolFunc::Random(Iota(10), &rng);
  const std::map<int, double> prob = RandomProbs(Iota(10), &rng);
  std::shared_ptr<const FlatDiagram> flat;
  double before = 0;
  {
    SddManager m(Vtree::Random(Iota(10), &rng));
    const auto root = CompileFuncToSdd(&m, f);
    before = m.WeightedModelCount(root, prob);
    flat = std::make_shared<const FlatDiagram>(m.Flatten(root));
  }
  const std::vector<double> by_slot = BySlot(*flat, prob);
  EXPECT_EQ(flat->WeightedModelCount(by_slot), before);
  std::vector<double> answers(4, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < answers.size(); ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 200; ++rep) {
        answers[t] = flat->WeightedModelCount(by_slot);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const double a : answers) EXPECT_EQ(a, before);
}

// The normalization contract is enforced, not assumed: a weight outside
// [0, 1] (where w(x) + w(!x) = 1 would no longer make untested variables
// free) stops the evaluator.
TEST(FlatDiagramDeathTest, ProbabilitiesOutsideTheUnitIntervalAreRejected) {
  ObddManager m(Iota(2));
  const FlatDiagram flat =
      m.Flatten(m.Or(m.Literal(0, true), m.Literal(1, true)));
  EXPECT_DEATH(flat.WeightedModelCount(std::vector<double>{0.5, 1.5}),
               "outside");
  EXPECT_DEATH(flat.WeightedModelCount(std::vector<double>{-0.1, 0.5}),
               "outside");
}

}  // namespace
}  // namespace ctsdd
