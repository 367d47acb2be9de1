#include "graph/elimination.h"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "util/logging.h"

namespace ctsdd {
namespace {

// Scratch marks over the vertices: Mark(v) tags v for the current round,
// and NextRound() clears every tag in O(1) by moving to a fresh stamp.
class VertexMarks {
 public:
  explicit VertexMarks(int n) : stamp_of_(n, 0) {}
  void NextRound() { ++stamp_; }
  void Mark(int v) { stamp_of_[v] = stamp_; }
  bool Marked(int v) const { return stamp_of_[v] == stamp_; }

 private:
  std::vector<uint64_t> stamp_of_;
  uint64_t stamp_ = 0;
};

// The working graph of a greedy elimination: one sorted adjacency vector
// per vertex, so the fill counts below walk contiguous memory.
class EliminationGraph {
 public:
  explicit EliminationGraph(const Graph& g) : adj_(g.num_vertices()) {
    for (int v = 0; v < g.num_vertices(); ++v) {
      adj_[v].assign(g.Neighbors(v).begin(), g.Neighbors(v).end());
    }
  }

  const std::vector<int>& Neighbors(int v) const { return adj_[v]; }
  long Degree(int v) const { return static_cast<long>(adj_[v].size()); }

  // Number of fill edges eliminating v would create: pairs of v's
  // neighbors that are not adjacent. Counts the edges among the
  // neighbors by marking them once and walking each neighbor's
  // adjacency, instead of one edge lookup per pair.
  long FillIn(int v, VertexMarks* marks) const {
    marks->NextRound();
    for (const int a : adj_[v]) marks->Mark(a);
    long twice_inner_edges = 0;
    for (const int a : adj_[v]) {
      for (const int b : adj_[a]) twice_inner_edges += marks->Marked(b);
    }
    const long d = Degree(v);
    return d * (d - 1) / 2 - twice_inner_edges / 2;
  }

  // Connects v's neighbors into a clique and removes v.
  void Eliminate(int v) {
    const std::vector<int> nbrs = std::move(adj_[v]);
    adj_[v].clear();
    for (const int a : nbrs) {
      // adj(a) := adj(a) + nbrs - {a, v}, merged in sorted order.
      merged_.clear();
      auto x = adj_[a].begin();
      auto y = nbrs.begin();
      while (x != adj_[a].end() || y != nbrs.end()) {
        int next;
        if (y == nbrs.end() || (x != adj_[a].end() && *x < *y)) {
          next = *x++;
        } else {
          if (x != adj_[a].end() && *x == *y) ++x;
          next = *y++;
        }
        if (next != a && next != v) merged_.push_back(next);
      }
      adj_[a].swap(merged_);
    }
  }

 private:
  std::vector<std::vector<int>> adj_;
  std::vector<int> merged_;  // scratch for Eliminate
};

}  // namespace

std::vector<int> GreedyEliminationOrder(const Graph& graph,
                                        EliminationHeuristic heuristic,
                                        Rng* rng) {
  EliminationGraph g(graph);  // working copy; elimination mutates it
  const int n = graph.num_vertices();
  const bool min_fill = heuristic == EliminationHeuristic::kMinFill;
  std::vector<bool> eliminated(n, false);
  std::vector<int> order;
  order.reserve(n);
  // Min-fill scores are cached and rescored only where an elimination can
  // change them (below), so each step's scan reads the same scores a full
  // recount would, and ties and Rng draws come out identical.
  VertexMarks marks(n);
  VertexMarks dirty(n);
  std::vector<long> fill(min_fill ? n : 0);
  for (int v = 0; v < n && min_fill; ++v) fill[v] = g.FillIn(v, &marks);
  std::vector<int> touched;
  for (int step = 0; step < n; ++step) {
    int best = -1;
    long best_score = std::numeric_limits<long>::max();
    int num_tied = 0;
    for (int v = 0; v < n; ++v) {
      if (eliminated[v]) continue;
      const long score = min_fill ? fill[v] : g.Degree(v);
      if (score < best_score) {
        best_score = score;
        best = v;
        num_tied = 1;
      } else if (score == best_score && rng != nullptr) {
        // Reservoir sampling over tied candidates.
        ++num_tied;
        if (rng->NextBelow(num_tied) == 0) best = v;
      }
    }
    CTSDD_CHECK_GE(best, 0);
    const std::vector<int> nbrs = g.Neighbors(best);
    g.Eliminate(best);
    eliminated[best] = true;
    order.push_back(best);
    if (!min_fill) continue;
    // Eliminating `best` changes the neighborhood of its neighbors and
    // adds edges only among them, so a fill score can change only for a
    // vertex adjacent to one of them.
    dirty.NextRound();
    touched.clear();
    for (const int a : nbrs) {
      if (!dirty.Marked(a)) {
        dirty.Mark(a);
        touched.push_back(a);
      }
      for (const int b : g.Neighbors(a)) {
        if (!dirty.Marked(b)) {
          dirty.Mark(b);
          touched.push_back(b);
        }
      }
    }
    for (const int u : touched) fill[u] = g.FillIn(u, &marks);
  }
  return order;
}

int EliminationOrderWidth(const Graph& graph, const std::vector<int>& order) {
  Graph g = graph;
  int width = 0;
  for (int v : order) {
    width = std::max(width, g.Degree(v));
    g.MakeNeighborsClique(v);
    g.IsolateVertex(v);
  }
  return width;
}

TreeDecomposition DecompositionFromOrder(const Graph& graph,
                                         const std::vector<int>& order) {
  const int n = graph.num_vertices();
  CTSDD_CHECK_EQ(static_cast<int>(order.size()), n);
  if (n == 0) {
    TreeDecomposition td;
    td.AddNode({}, -1);
    return td;
  }
  // Bag of vertex v = {v} union its neighborhood at elimination time.
  Graph g = graph;
  std::vector<int> position(n);
  for (int i = 0; i < n; ++i) position[order[i]] = i;
  std::vector<std::vector<int>> bags(n);
  for (int v : order) {
    bags[v].push_back(v);
    for (int w : g.Neighbors(v)) bags[v].push_back(w);
    g.MakeNeighborsClique(v);
    g.IsolateVertex(v);
  }
  // Parent of v's bag: the earliest-eliminated vertex among bag(v) \ {v};
  // the last eliminated vertex is the root. Build in reverse elimination
  // order so parents get smaller TreeDecomposition ids than children.
  TreeDecomposition td;
  std::vector<int> td_id(n, -1);
  for (int i = n - 1; i >= 0; --i) {
    const int v = order[i];
    int parent_vertex = -1;
    int best_pos = std::numeric_limits<int>::max();
    for (int w : bags[v]) {
      if (w == v) continue;
      if (position[w] < best_pos) {
        best_pos = position[w];
        parent_vertex = w;
      }
    }
    // parent_vertex was eliminated after v? No: bag neighbors of v at its
    // elimination time are all eliminated later than v, so their positions
    // are > i. The parent is the *first* of them to be eliminated.
    const int parent_id = parent_vertex < 0 ? -1 : td_id[parent_vertex];
    if (parent_id < 0 && td.num_nodes() > 0) {
      // Disconnected graph: attach to the root to keep a single tree.
      td_id[v] = td.AddNode(bags[v], td.root());
    } else {
      td_id[v] = td.AddNode(bags[v], parent_id);
    }
  }
  return td;
}

TreeDecomposition HeuristicDecomposition(const Graph& graph,
                                         EliminationHeuristic heuristic) {
  return DecompositionFromOrder(graph,
                                GreedyEliminationOrder(graph, heuristic));
}

}  // namespace ctsdd
