// An immutable, self-contained decision diagram laid out for weighted
// model counting in one linear pass.
//
// Weighted model counting on a deterministic, decomposable diagram is a
// single bottom-up pass (Darwiche & Marquis, JAIR 2002). Both managers
// flatten a rooted diagram into the same array shape so one evaluator
// serves both routes:
//
//   index 0 = false, index 1 = true,
//   then every reachable literal leaf,
//   then every reachable decision, children before parents.
//
// A decision is a span of (prime, sub) index pairs and evaluates to
// sum_i v[prime_i] * v[sub_i]. An SDD decision keeps its elements; an
// OBDD node (x; lo, hi) becomes the two elements (not x, lo) and (x, hi).
// Literal leaves index a dense probability vector with one slot per
// variable in vars(). Nothing in the diagram points back into its
// manager, so it stays valid after the manager collected or destroyed the
// nodes it came from, and any thread may evaluate it.
//
// Normalization contract: the evaluator takes one probability p per
// variable, weighs x by p and (not x) by 1 - p, and CHECKs 0 <= p <= 1.
// Because w(x) + w(not x) = 1, a variable a sub-diagram does not test
// contributes a factor of exactly 1. That is what makes "true = 1" exact
// at every vtree node and a skipped OBDD level free, so neither route
// needs smoothing factors. Unnormalized literal weights are outside the
// contract and are not representable here.

#ifndef CTSDD_UTIL_FLAT_DIAGRAM_H_
#define CTSDD_UTIL_FLAT_DIAGRAM_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace ctsdd {

class FlatDiagram {
 public:
  static constexpr uint32_t kFalse = 0;
  static constexpr uint32_t kTrue = 1;

  // What size() counts: one per decision (OBDD nodes) or one per element
  // (the standard SDD size).
  enum class SizeUnit : uint8_t { kDecisions, kElements };

  // Collects leaves and decisions in post-order and lays them out. The
  // handles it returns name nodes while building; Finish remaps them.
  class Builder {
   public:
    using Element = std::pair<uint32_t, uint32_t>;  // (prime, sub) handles

    explicit Builder(SizeUnit unit) : unit_(unit) {}

    // Handle of the literal leaf (var, positive), made on first use.
    // `var` must be non-negative.
    uint32_t Literal(int var, bool positive);
    // Adds a decision over handles returned earlier. `group` is the OBDD
    // level or the vtree node; width() is the largest size() share of one
    // group.
    uint32_t Decision(std::span<const Element> elements, int group);
    FlatDiagram Finish(uint32_t root) &&;

   private:
    // Decision handles carry this tag until Finish places the decisions
    // after the literals; constant and literal handles are final already.
    static constexpr uint32_t kDecisionTag = uint32_t{1} << 31;

    SizeUnit unit_;
    std::vector<uint32_t> literal_codes_;  // 2 * var + positive, per leaf
    std::vector<uint32_t> literal_of_;     // 2 * var + positive -> handle
    std::vector<Element> elements_;
    std::vector<uint32_t> element_end_;
    std::vector<int> group_size_;
    int size_ = 0;
  };

  // Flattens the diagram rooted at `root` whose nodes are dense ids below
  // `id_bound`, with ids 0 and 1 the false and true terminals. The walk is
  // iterative, so deep diagrams cannot overflow the stack.
  // `for_each_child(id, visit)` calls visit on every child id of `id` (on
  // none for a leaf); `make(id, builder, handles)` returns the handle of
  // `id` once every child's handle is in `handles`.
  template <typename ForEachChild, typename Make>
  static FlatDiagram Flatten(int root, size_t id_bound, SizeUnit unit,
                             ForEachChild for_each_child, Make make);

  // A constant diagram (no variables).
  static FlatDiagram Constant(bool value);

  // Probability of the diagram when vars()[i] is independently true with
  // probability prob[i] (see the normalization contract above). Runs on a
  // per-thread value buffer, so concurrent calls do not contend.
  double WeightedModelCount(std::span<const double> prob) const;

  // Variables tested by the diagram, ascending: the probability slots.
  const std::vector<int>& vars() const { return vars_; }
  // Structural counts, taken from the flattening walk (see SizeUnit).
  int size() const { return size_; }
  int width() const { return width_; }
  int num_decisions() const { return static_cast<int>(element_end_.size()); }
  // Leaves and decisions, constants included.
  size_t num_nodes() const {
    return 2 + literals_.size() + element_end_.size();
  }
  size_t MemoryBytes() const;

 private:
  static constexpr uint32_t kUnset = ~uint32_t{0};

  // Per literal leaf: (probability slot << 1) | positive.
  std::vector<uint32_t> literals_;
  std::vector<Builder::Element> elements_;  // final node indices
  std::vector<uint32_t> element_end_;       // CSR ends, one per decision
  std::vector<int> vars_;
  uint32_t root_ = kFalse;
  int size_ = 0;
  int width_ = 0;
};

template <typename ForEachChild, typename Make>
FlatDiagram FlatDiagram::Flatten(int root, size_t id_bound, SizeUnit unit,
                                 ForEachChild for_each_child, Make make) {
  CTSDD_CHECK(root >= 0 && static_cast<size_t>(root) < id_bound)
      << "no diagram to flatten at id " << root;
  // Handles by node id. The map is per thread and only the entries this
  // walk set are cleared again, so a small diagram in a large manager
  // costs its own size, not the manager's.
  thread_local std::vector<uint32_t> handle;
  if (handle.size() < id_bound) handle.resize(id_bound, kUnset);
  handle[0] = kFalse;
  handle[1] = kTrue;
  Builder builder(unit);
  std::vector<int> visited;
  std::vector<int> stack = {root};
  while (!stack.empty()) {
    const int u = stack.back();
    if (handle[u] != kUnset) {
      stack.pop_back();
      continue;
    }
    bool ready = true;
    for_each_child(u, [&](int child) {
      if (handle[child] == kUnset) {
        stack.push_back(child);
        ready = false;
      }
    });
    if (!ready) continue;
    stack.pop_back();
    handle[u] = make(u, builder, handle);
    visited.push_back(u);
  }
  FlatDiagram out = std::move(builder).Finish(handle[root]);
  for (const int u : visited) handle[u] = kUnset;
  return out;
}

}  // namespace ctsdd

#endif  // CTSDD_UTIL_FLAT_DIAGRAM_H_
