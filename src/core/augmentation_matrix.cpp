#include "core/augmentation_matrix.hpp"

#include <cmath>

#include "core/level_hierarchy.hpp"

namespace nav::core {

double MatrixView::row_sum(Label i) const {
  double sum = 0.0;
  for (Label j = 1; j <= size(); ++j) sum += entry(i, j);
  return sum;
}

// ---- UniformMatrix ----------------------------------------------------------

UniformMatrix::UniformMatrix(Label n) : n_(n) {
  NAV_REQUIRE(n >= 1, "matrix size must be >= 1");
}

double UniformMatrix::entry(Label i, Label j) const {
  NAV_REQUIRE(i >= 1 && i <= n_ && j >= 1 && j <= n_, "label out of range");
  return 1.0 / static_cast<double>(n_);
}

std::optional<Label> UniformMatrix::sample_row(Label i, Rng& rng) const {
  NAV_REQUIRE(i >= 1 && i <= n_, "label out of range");
  return static_cast<Label>(1 + random_index(rng, n_));
}

// ---- HierarchyMatrix --------------------------------------------------------

HierarchyMatrix::HierarchyMatrix(Label n) : n_(n) {
  NAV_REQUIRE(n >= 1, "matrix size must be >= 1");
  const double log_n = std::log2(static_cast<double>(n));
  prob_ = 1.0 / (1.0 + log_n);
  // Sampling grid: pick slot uniform in [0, slots); slots beyond the ancestor
  // list are the residual "no link" mass. slots_ >= #ancestors always, and
  // slot probability 1/slots_ <= prob_; we use exactly prob_ per ancestor by
  // drawing a uniform double instead (simpler and exact).
  slots_ = static_cast<std::uint32_t>(std::ceil(1.0 + log_n));
}

double HierarchyMatrix::entry(Label i, Label j) const {
  NAV_REQUIRE(i >= 1 && i <= n_ && j >= 1 && j <= n_, "label out of range");
  for (const auto anc : ancestors_within(i, n_)) {
    if (anc == j) return prob_;
  }
  return 0.0;
}

std::optional<Label> HierarchyMatrix::sample_row(Label i, Rng& rng) const {
  NAV_REQUIRE(i >= 1 && i <= n_, "label out of range");
  const auto anc = ancestors_within(i, n_);
  // Each ancestor has probability prob_ exactly; residual -> no link.
  const double r = rng.next_double();
  const auto idx = static_cast<std::size_t>(r / prob_);
  if (idx < anc.size()) return static_cast<Label>(anc[idx]);
  return std::nullopt;
}

// ---- MixMatrix --------------------------------------------------------------

MixMatrix::MixMatrix(MatrixPtr a, MatrixPtr b) : a_(std::move(a)), b_(std::move(b)) {
  NAV_REQUIRE(a_ != nullptr && b_ != nullptr, "null matrix component");
  NAV_REQUIRE(a_->size() == b_->size(), "mixed matrices must agree in size");
}

double MixMatrix::entry(Label i, Label j) const {
  return 0.5 * (a_->entry(i, j) + b_->entry(i, j));
}

std::optional<Label> MixMatrix::sample_row(Label i, Rng& rng) const {
  // Fair coin between components — exactly (A+B)/2, and it mirrors the
  // proof's "run A and U in parallel" argument.
  return rng.next_bool(0.5) ? a_->sample_row(i, rng) : b_->sample_row(i, rng);
}

std::string MixMatrix::name() const {
  std::string name = "(";
  name.append(a_->name()).append("+").append(b_->name()).append(")/2");
  return name;
}

// ---- MatrixScheme -----------------------------------------------------------

MatrixScheme::MatrixScheme(MatrixPtr matrix, Labeling labeling,
                           std::string scheme_name)
    : matrix_(std::move(matrix)), labeling_(std::move(labeling)),
      name_(std::move(scheme_name)) {
  NAV_REQUIRE(matrix_ != nullptr, "null matrix");
  NAV_REQUIRE(matrix_->size() >= labeling_.universe(),
              "matrix smaller than label universe");
  if (name_.empty()) name_ = "matrix[" + matrix_->name() + "]";
}

NodeId MatrixScheme::sample_contact(NodeId u, Rng& rng) const {
  const auto j = matrix_->sample_row(labeling_.label(u), rng);
  if (!j.has_value()) return kNoContact;
  if (*j > labeling_.universe()) return kNoContact;  // label with no nodes
  return labeling_.sample_member(*j, rng);
}

double MatrixScheme::probability(NodeId u, NodeId v) const {
  // φ_u(v) = p_{L(u), L(v)} / |class(L(v))|.
  const auto lv = labeling_.label(v);
  const auto class_size = labeling_.members(lv).size();
  NAV_ASSERT(class_size >= 1);
  return matrix_->entry(labeling_.label(u), lv) /
         static_cast<double>(class_size);
}

}  // namespace nav::core
