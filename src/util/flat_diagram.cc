#include "util/flat_diagram.h"

#include <algorithm>

namespace ctsdd {

uint32_t FlatDiagram::Builder::Literal(int var, bool positive) {
  CTSDD_CHECK_GE(var, 0);
  const uint32_t code = 2 * static_cast<uint32_t>(var) + (positive ? 1 : 0);
  if (code >= literal_of_.size()) literal_of_.resize(code + 1, kUnset);
  if (literal_of_[code] == kUnset) {
    literal_of_[code] = 2 + static_cast<uint32_t>(literal_codes_.size());
    literal_codes_.push_back(code);
  }
  return literal_of_[code];
}

uint32_t FlatDiagram::Builder::Decision(std::span<const Element> elements,
                                        int group) {
  elements_.insert(elements_.end(), elements.begin(), elements.end());
  element_end_.push_back(static_cast<uint32_t>(elements_.size()));
  const int weight = unit_ == SizeUnit::kDecisions
                         ? 1
                         : static_cast<int>(elements.size());
  size_ += weight;
  if (group >= static_cast<int>(group_size_.size())) {
    group_size_.resize(group + 1, 0);
  }
  group_size_[group] += weight;
  return kDecisionTag | static_cast<uint32_t>(element_end_.size() - 1);
}

FlatDiagram FlatDiagram::Builder::Finish(uint32_t root) && {
  FlatDiagram out;
  const uint32_t first_decision =
      2 + static_cast<uint32_t>(literal_codes_.size());
  const auto place = [&](uint32_t handle) {
    return (handle & kDecisionTag) != 0
               ? first_decision + (handle & ~kDecisionTag)
               : handle;
  };
  for (const uint32_t code : literal_codes_) {
    out.vars_.push_back(static_cast<int>(code >> 1));
  }
  std::sort(out.vars_.begin(), out.vars_.end());
  out.vars_.erase(std::unique(out.vars_.begin(), out.vars_.end()),
                  out.vars_.end());
  out.literals_.reserve(literal_codes_.size());
  for (const uint32_t code : literal_codes_) {
    const auto slot = std::lower_bound(out.vars_.begin(), out.vars_.end(),
                                       static_cast<int>(code >> 1)) -
                      out.vars_.begin();
    out.literals_.push_back((static_cast<uint32_t>(slot) << 1) | (code & 1));
  }
  // Exact-size copies: a plan keeps its flat copy for as long as it is
  // cached, so the builder's growth slack is not carried along.
  out.elements_.reserve(elements_.size());
  for (const Element& e : elements_) {
    out.elements_.emplace_back(place(e.first), place(e.second));
  }
  out.element_end_.assign(element_end_.begin(), element_end_.end());
  out.root_ = place(root);
  out.size_ = size_;
  for (const int count : group_size_) out.width_ = std::max(out.width_, count);
  return out;
}

FlatDiagram FlatDiagram::Constant(bool value) {
  FlatDiagram out;
  out.root_ = value ? kTrue : kFalse;
  return out;
}

double FlatDiagram::WeightedModelCount(std::span<const double> prob) const {
  CTSDD_CHECK_EQ(prob.size(), vars_.size());
  for (const double p : prob) {
    CTSDD_CHECK(p >= 0.0 && p <= 1.0)
        << "probability " << p << " outside [0, 1]";
  }
  thread_local std::vector<double> buffer;
  if (buffer.size() < num_nodes()) buffer.resize(num_nodes());
  double* const v = buffer.data();
  v[kFalse] = 0.0;
  v[kTrue] = 1.0;
  double* const literal = v + 2;
  for (size_t k = 0; k < literals_.size(); ++k) {
    const uint32_t code = literals_[k];
    const double p = prob[code >> 1];
    literal[k] = (code & 1) != 0 ? p : 1.0 - p;
  }
  // Each decision sums its elements in stored order from 0.0, so one
  // diagram always gives bit-identical answers; the service relies on
  // this when a restarted shard recompiles a plan.
  double* const decision = literal + literals_.size();
  const Builder::Element* e = elements_.data();
  for (size_t d = 0; d < element_end_.size(); ++d) {
    const Builder::Element* const end = elements_.data() + element_end_[d];
    double sum = 0.0;
    for (; e != end; ++e) sum += v[e->first] * v[e->second];
    decision[d] = sum;
  }
  return v[root_];
}

size_t FlatDiagram::MemoryBytes() const {
  return sizeof(FlatDiagram) + literals_.capacity() * sizeof(uint32_t) +
         elements_.capacity() * sizeof(Builder::Element) +
         element_end_.capacity() * sizeof(uint32_t) +
         vars_.capacity() * sizeof(int);
}

}  // namespace ctsdd
