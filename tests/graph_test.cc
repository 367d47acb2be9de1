#include <algorithm>

#include "graph/elimination.h"
#include "graph/exact_treewidth.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/lower_bound.h"
#include "graph/path_decomposition.h"
#include "graph/tree_decomposition.h"
#include "gtest/gtest.h"
#include "util/random.h"

namespace ctsdd {
namespace {

TEST(GraphTest, AddEdgeBasics) {
  Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 2));
}

TEST(GraphTest, IgnoresSelfLoopsAndDuplicates) {
  Graph g(2);
  g.AddEdge(0, 0);
  g.AddEdge(0, 1);
  g.AddEdge(1, 0);
  EXPECT_EQ(g.num_edges(), 1);
}

TEST(GraphTest, GrowsOnDemand) {
  Graph g;
  g.AddEdge(4, 7);
  EXPECT_EQ(g.num_vertices(), 8);
}

TEST(GraphTest, ConnectedComponents) {
  Graph g(5);
  g.AddEdge(0, 1);
  g.AddEdge(2, 3);
  const auto components = g.ConnectedComponents();
  EXPECT_EQ(components.size(), 3u);  // {0,1}, {2,3}, {4}
  EXPECT_FALSE(g.IsConnected());
}

TEST(GraphTest, MakeNeighborsCliqueCountsFill) {
  Graph g(4);  // star centered at 0
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(0, 3);
  EXPECT_EQ(g.MakeNeighborsClique(0), 3);  // triangle among 1,2,3
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_EQ(g.MakeNeighborsClique(0), 0);  // already a clique
}

TEST(GraphTest, InducedSubgraph) {
  Graph g = CycleGraph(5);
  const Graph sub = g.InducedSubgraph({0, 1, 2});
  EXPECT_EQ(sub.num_vertices(), 3);
  EXPECT_EQ(sub.num_edges(), 2);  // path 0-1-2
}

TEST(TreeDecompositionTest, ValidatesPathDecomposition) {
  const Graph g = PathGraph(4);
  TreeDecomposition td;
  const int a = td.AddNode({0, 1}, -1);
  const int b = td.AddNode({1, 2}, a);
  td.AddNode({2, 3}, b);
  EXPECT_TRUE(td.Validate(g).ok());
  EXPECT_EQ(td.Width(), 1);
}

TEST(TreeDecompositionTest, DetectsMissingEdgeCoverage) {
  const Graph g = CycleGraph(3);
  TreeDecomposition td;
  const int a = td.AddNode({0, 1}, -1);
  td.AddNode({1, 2}, a);
  // Edge {0, 2} is not covered.
  EXPECT_FALSE(td.Validate(g).ok());
}

TEST(TreeDecompositionTest, DetectsDisconnectedOccurrences) {
  const Graph g = PathGraph(3);
  TreeDecomposition td;
  const int a = td.AddNode({0, 1}, -1);
  const int b = td.AddNode({1, 2}, a);
  td.AddNode({0, 2}, b);  // 0 occurs at nodes 0 and 2 but not at node 1
  EXPECT_FALSE(td.Validate(g).ok());
}

TEST(EliminationTest, PathHasWidthOne) {
  const Graph g = PathGraph(10);
  const auto order =
      GreedyEliminationOrder(g, EliminationHeuristic::kMinFill);
  EXPECT_EQ(EliminationOrderWidth(g, order), 1);
}

TEST(EliminationTest, CompleteGraphWidth) {
  const Graph g = CompleteGraph(5);
  const auto order =
      GreedyEliminationOrder(g, EliminationHeuristic::kMinDegree);
  EXPECT_EQ(EliminationOrderWidth(g, order), 4);
}

TEST(EliminationTest, DecompositionFromOrderValid) {
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = RandomGraph(12, 0.3, &rng);
    const auto order =
        GreedyEliminationOrder(g, EliminationHeuristic::kMinFill);
    const TreeDecomposition td = DecompositionFromOrder(g, order);
    ASSERT_TRUE(td.Validate(g).ok()) << td.Validate(g);
    EXPECT_EQ(td.Width(), EliminationOrderWidth(g, order));
  }
}

TEST(EliminationTest, HandlesDisconnectedGraphs) {
  Graph g(6);
  g.AddEdge(0, 1);
  g.AddEdge(3, 4);
  const TreeDecomposition td = HeuristicDecomposition(g);
  EXPECT_TRUE(td.Validate(g).ok());
}

// Reference greedy order: every candidate's score recounted from scratch
// at every step, fill by one edge lookup per neighbor pair.
std::vector<int> NaiveGreedyOrder(const Graph& graph,
                                  EliminationHeuristic heuristic, Rng* rng) {
  Graph g = graph;
  const int n = g.num_vertices();
  std::vector<bool> eliminated(n, false);
  std::vector<int> order;
  for (int step = 0; step < n; ++step) {
    int best = -1;
    long best_score = 0;
    int num_tied = 0;
    for (int v = 0; v < n; ++v) {
      if (eliminated[v]) continue;
      long score = g.Degree(v);
      if (heuristic == EliminationHeuristic::kMinFill) {
        const std::vector<int> nbrs(g.Neighbors(v).begin(),
                                    g.Neighbors(v).end());
        score = 0;
        for (size_t i = 0; i < nbrs.size(); ++i) {
          for (size_t j = i + 1; j < nbrs.size(); ++j) {
            score += g.HasEdge(nbrs[i], nbrs[j]) ? 0 : 1;
          }
        }
      }
      if (best < 0 || score < best_score) {
        best_score = score;
        best = v;
        num_tied = 1;
      } else if (score == best_score && rng != nullptr) {
        ++num_tied;
        if (rng->NextBelow(num_tied) == 0) best = v;
      }
    }
    g.MakeNeighborsClique(best);
    g.IsolateVertex(best);
    eliminated[best] = true;
    order.push_back(best);
  }
  return order;
}

// The cached, locally rescored min-fill must pick exactly the reference's
// order — with and without random tie-breaking, which must also consume
// the same Rng draws — because heuristic decompositions decide vtrees and
// hence compiled diagram sizes.
TEST(EliminationTest, GreedyOrdersMatchNaiveReference) {
  Rng graphs(2024);
  for (int trial = 0; trial < 60; ++trial) {
    const int n = graphs.NextInt(1, 40);
    const Graph g =
        trial % 3 == 0
            ? RandomPartialKTree(std::max(n, 6), 1 + trial % 4, 0.7, &graphs)
            : RandomGraph(n, graphs.NextDouble() * 0.5, &graphs);
    for (const auto heuristic : {EliminationHeuristic::kMinFill,
                                 EliminationHeuristic::kMinDegree}) {
      EXPECT_EQ(GreedyEliminationOrder(g, heuristic),
                NaiveGreedyOrder(g, heuristic, nullptr))
          << "trial " << trial;
      Rng a(trial + 1);
      Rng b(trial + 1);
      EXPECT_EQ(GreedyEliminationOrder(g, heuristic, &a),
                NaiveGreedyOrder(g, heuristic, &b))
          << "trial " << trial << " (random ties)";
      EXPECT_EQ(a.Next64(), b.Next64()) << "trial " << trial;
    }
  }
}

TEST(ExactTreewidthTest, KnownValues) {
  EXPECT_EQ(ExactTreewidth(PathGraph(8)).value(), 1);
  EXPECT_EQ(ExactTreewidth(CycleGraph(8)).value(), 2);
  EXPECT_EQ(ExactTreewidth(CompleteGraph(6)).value(), 5);
  EXPECT_EQ(ExactTreewidth(GridGraph(3, 5)).value(), 3);
  EXPECT_EQ(ExactTreewidth(Graph(4)).value(), 0);  // edgeless
}

TEST(ExactTreewidthTest, KTreeHasTreewidthK) {
  Rng rng(3);
  for (int k = 1; k <= 3; ++k) {
    const Graph g = RandomKTree(10, k, &rng);
    EXPECT_EQ(ExactTreewidth(g).value(), k) << "k=" << k;
  }
}

TEST(ExactTreewidthTest, OptimalOrderAchievesWidth) {
  Rng rng(17);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = RandomGraph(10, 0.35, &rng);
    const int tw = ExactTreewidth(g).value();
    const auto order = OptimalEliminationOrder(g).value();
    EXPECT_EQ(EliminationOrderWidth(g, order), tw);
  }
}

TEST(ExactTreewidthTest, HeuristicNeverBeatsExact)  {
  Rng rng(29);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = RandomGraph(9, 0.3, &rng);
    const int exact = ExactTreewidth(g).value();
    const int heuristic = EliminationOrderWidth(
        g, GreedyEliminationOrder(g, EliminationHeuristic::kMinFill));
    EXPECT_LE(exact, heuristic);
  }
}

TEST(ExactTreewidthTest, RejectsLargeGraphs) {
  EXPECT_FALSE(ExactTreewidth(PathGraph(kMaxExactVertices + 1)).ok());
}

TEST(PathwidthTest, KnownValues) {
  EXPECT_EQ(ExactPathwidth(PathGraph(8)).value(), 1);
  EXPECT_EQ(ExactPathwidth(CycleGraph(6)).value(), 2);
  EXPECT_EQ(ExactPathwidth(CompleteGraph(5)).value(), 4);
  EXPECT_EQ(ExactPathwidth(Caterpillar(6, 1)).value(), 1);
}

TEST(PathwidthTest, CompleteBinaryTreePathwidthGrows) {
  // Pathwidth of the complete binary tree of height h is ceil(h/2);
  // treewidth stays 1. This is the Figure 1 CTW vs CPW separation seed.
  auto tree = [](int height) {
    const int nodes = (1 << (height + 1)) - 1;
    Graph g(nodes);
    for (int v = 1; v < nodes; ++v) g.AddEdge(v, (v - 1) / 2);
    return g;
  };
  EXPECT_EQ(ExactTreewidth(tree(3)).value(), 1);
  EXPECT_EQ(ExactPathwidth(tree(2)).value(), 1);
  EXPECT_EQ(ExactPathwidth(tree(3)).value(), 2);
}

TEST(PathwidthTest, LayoutAchievesWidth) {
  Rng rng(31);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = RandomGraph(9, 0.3, &rng);
    const int pw = ExactPathwidth(g).value();
    const auto layout = OptimalPathLayout(g).value();
    EXPECT_EQ(PathLayoutWidth(g, layout), pw);
  }
}

TEST(PathwidthTest, PathwidthAtLeastTreewidth) {
  Rng rng(37);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = RandomGraph(8, 0.3, &rng);
    EXPECT_GE(ExactPathwidth(g).value(), ExactTreewidth(g).value());
  }
}

TEST(PathDecompositionTest, BagsFormValidDecomposition) {
  Rng rng(41);
  const Graph g = RandomGraph(10, 0.3, &rng);
  const auto layout = BfsLayout(g);
  const TreeDecomposition td = PathAsTreeDecomposition(g, layout);
  EXPECT_TRUE(td.Validate(g).ok());
}

TEST(NiceDecompositionTest, ValidNiceForm) {
  Rng rng(43);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = RandomGraph(10, 0.35, &rng);
    const TreeDecomposition td = HeuristicDecomposition(g);
    ASSERT_TRUE(td.Validate(g).ok());
    const NiceTreeDecomposition nice = MakeNice(td);
    EXPECT_TRUE(nice.Validate(g).ok()) << nice.Validate(g);
    EXPECT_EQ(nice.Width(), td.Width());
  }
}

TEST(NiceDecompositionTest, RootIsEmptyAndForgetsOnce) {
  const Graph g = GridGraph(3, 3);
  const NiceTreeDecomposition nice = MakeNice(HeuristicDecomposition(g));
  EXPECT_TRUE(nice.nodes[nice.root].bag.empty());
  int forgets = 0;
  for (const auto& node : nice.nodes) {
    if (node.kind == NiceNodeKind::kForget) ++forgets;
  }
  EXPECT_EQ(forgets, g.num_vertices());
}

TEST(LowerBoundTest, MmdOnKnownGraphs) {
  EXPECT_EQ(TreewidthLowerBoundMmd(CompleteGraph(6)), 5);
  EXPECT_EQ(TreewidthLowerBoundMmd(PathGraph(10)), 1);
  EXPECT_EQ(TreewidthLowerBoundMmd(CycleGraph(8)), 2);
  // Grid: degeneracy 2, treewidth 3 — MMD is strictly below here.
  EXPECT_EQ(TreewidthLowerBoundMmd(GridGraph(3, 5)), 2);
}

TEST(LowerBoundTest, BoundsSandwichExactTreewidth) {
  Rng rng(61);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = RandomGraph(10, 0.35, &rng);
    const int tw = ExactTreewidth(g).value();
    const int mmd = TreewidthLowerBoundMmd(g);
    const int mmd_plus = TreewidthLowerBoundMmdPlus(g);
    EXPECT_LE(mmd, tw);
    EXPECT_LE(mmd_plus, tw);
    EXPECT_GE(mmd_plus, mmd);
  }
}

TEST(GeneratorsTest, SizesAndDegrees) {
  EXPECT_EQ(GridGraph(3, 4).num_vertices(), 12);
  EXPECT_EQ(GridGraph(3, 4).num_edges(), 3 * 3 + 2 * 4);
  EXPECT_EQ(CompleteGraph(6).num_edges(), 15);
  Rng rng(47);
  const Graph t = RandomTree(20, &rng);
  EXPECT_EQ(t.num_edges(), 19);
  EXPECT_TRUE(t.IsConnected());
}

TEST(GeneratorsTest, PartialKTreeRespectsWidthBound) {
  Rng rng(53);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = RandomPartialKTree(12, 3, 0.6, &rng);
    EXPECT_LE(ExactTreewidth(g).value(), 3);
  }
}

}  // namespace
}  // namespace ctsdd
