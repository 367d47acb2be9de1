// The serve workloads' data: R/S/T databases over domain [n] and the
// query population bench_serve samples from, plus a closed form for the
// probability of every shape. The closed forms are the reference every
// served answer is checked against; they share no code with lineage,
// compilation or weighted model counting.

#ifndef CTSDD_PERFBENCH_POPULATION_H_
#define CTSDD_PERFBENCH_POPULATION_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "db/database.h"
#include "db/query.h"
#include "util/random.h"

namespace ctsdd::perfbench {

// R(1..n), then `edges` random S(l, m) pairs, then T(1..n), with tuple ids
// in that order: every database built for one (n, edges) shares its ids,
// and differs only in which S-pairs the ids denote (bench_serve's
// RandomContentDb).
struct RstDb {
  int n = 0;
  std::vector<std::pair<int, int>> edges;  // (l, m) of S-tuple id n + i
  Database db;

  int RId(int l) const { return l - 1; }
  int SId(int i) const { return n + i; }
  int TId(int m) const { return n + static_cast<int>(edges.size()) + m - 1; }
};

inline RstDb MakeRstDb(int n, int edges, uint64_t seed) {
  RstDb out;
  out.n = n;
  Rng rng(seed);
  out.db.AddRelation("R", 1);
  out.db.AddRelation("S", 2);
  out.db.AddRelation("T", 1);
  for (int l = 1; l <= n; ++l) out.db.AddTuple("R", {l}, 0.3);
  const std::vector<int> perm = rng.Permutation(n * n);
  for (int i = 0; i < edges; ++i) {
    const int l = 1 + perm[i] / n;
    const int m = 1 + perm[i] % n;
    out.edges.emplace_back(l, m);
    out.db.AddTuple("S", {l, m}, 0.3);
  }
  for (int m = 1; m <= n; ++m) out.db.AddTuple("T", {m}, 0.3);
  return out;
}

struct Shape {
  enum Kind { kHierarchicalRs, kH0, kInequality, kConstant, kConstantPair };
  Kind kind;
  int c = 0;
  int d = 0;
  Ucq query;
};

// bench_serve's QueryPopulation: R(x)S(x,y), H0, the inequality example,
// R(c)S(c,y) per constant, and the union of every constant pair.
inline std::vector<Shape> Population(int n) {
  std::vector<Shape> shapes;
  shapes.push_back({Shape::kHierarchicalRs, 0, 0, HierarchicalRSQuery()});
  shapes.push_back({Shape::kH0, 0, 0, NonHierarchicalH0Query()});
  shapes.push_back({Shape::kInequality, 0, 0, InequalityExampleQuery()});
  for (int c = 1; c <= n; ++c) {
    shapes.push_back({Shape::kConstant, c, 0, PerConstantRsQuery(c)});
  }
  for (int c = 1; c <= n; ++c) {
    for (int d = c + 1; d <= n; ++d) {
      Ucq pair = PerConstantRsQuery(c);
      pair.disjuncts.push_back(PerConstantRsQuery(d).disjuncts[0]);
      shapes.push_back({Shape::kConstantPair, c, d, std::move(pair)});
    }
  }
  return shapes;
}

// P(Q) under independent tuple probabilities w (indexed by tuple id).
inline double ClosedFormProbability(const Shape& shape, const RstDb& rst,
                                    const std::vector<double>& w) {
  const int n = rst.n;
  // e[l] = P(some S(l, .) is present); q[l] = P(R(l) and some S(l, .)).
  std::vector<double> none_s(n + 1, 1.0);
  for (size_t i = 0; i < rst.edges.size(); ++i) {
    none_s[rst.edges[i].first] *= 1.0 - w[rst.SId(static_cast<int>(i))];
  }
  std::vector<double> q(n + 1, 0.0);
  for (int l = 1; l <= n; ++l) q[l] = w[rst.RId(l)] * (1.0 - none_s[l]);
  switch (shape.kind) {
    case Shape::kHierarchicalRs: {
      double none = 1.0;
      for (int l = 1; l <= n; ++l) none *= 1.0 - q[l];
      return 1.0 - none;
    }
    case Shape::kConstant:
      return q[shape.c];
    case Shape::kConstantPair:
      return 1.0 - (1.0 - q[shape.c]) * (1.0 - q[shape.d]);
    case Shape::kInequality: {
      // R(x), S(x, y), R(x'), x != x'. The query fails iff no l has
      // R(l) and an S(l, .), or exactly one R(l) holds and it has one.
      double no_q = 1.0;
      for (int l = 1; l <= n; ++l) no_q *= 1.0 - q[l];
      double lone = 0.0;
      for (int l = 1; l <= n; ++l) {
        double others_absent = 1.0;
        for (int k = 1; k <= n; ++k) {
          if (k != l) others_absent *= 1.0 - w[rst.RId(k)];
        }
        lone += q[l] * others_absent;
      }
      return 1.0 - no_q - lone;
    }
    case Shape::kH0: {
      // R(x), S(x, y), T(y): condition on the set U of present T-tuples;
      // given U the per-l events are independent.
      double fail = 0.0;
      for (uint32_t mask = 0; mask < (1u << n); ++mask) {
        double p_mask = 1.0;
        for (int m = 1; m <= n; ++m) {
          const double t = w[rst.TId(m)];
          p_mask *= (mask >> (m - 1)) & 1u ? t : 1.0 - t;
        }
        std::vector<double> none_in_u(n + 1, 1.0);
        for (size_t i = 0; i < rst.edges.size(); ++i) {
          const auto [l, m] = rst.edges[i];
          if ((mask >> (m - 1)) & 1u) {
            none_in_u[l] *= 1.0 - w[rst.SId(static_cast<int>(i))];
          }
        }
        double no_witness = 1.0;
        for (int l = 1; l <= n; ++l) {
          no_witness *= 1.0 - w[rst.RId(l)] * (1.0 - none_in_u[l]);
        }
        fail += p_mask * no_witness;
      }
      return 1.0 - fail;
    }
  }
  return -1.0;
}

// Fresh tuple weights for one request, in (0.1, 0.9).
inline std::vector<double> RequestWeights(uint64_t weight_seed,
                                          int num_tuples) {
  Rng rng(weight_seed);
  std::vector<double> w(num_tuples);
  for (double& p : w) p = 0.1 + 0.8 * rng.NextDouble();
  return w;
}

}  // namespace ctsdd::perfbench

#endif  // CTSDD_PERFBENCH_POPULATION_H_
