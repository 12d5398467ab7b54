#include "support/explicit_matrix.hpp"

namespace nav::core {

ExplicitMatrix::ExplicitMatrix(Label n) : n_(n) {
  NAV_REQUIRE(n >= 1, "matrix size must be >= 1");
  NAV_REQUIRE(n <= 1u << 14, "explicit matrix limited to n <= 16384");
  cells_.assign(static_cast<std::size_t>(n_) * n_, 0.0);
}

ExplicitMatrix::ExplicitMatrix(const MatrixView& view)
    : ExplicitMatrix(view.size()) {
  for (Label i = 1; i <= n_; ++i)
    for (Label j = 1; j <= n_; ++j) set(i, j, view.entry(i, j));
}

void ExplicitMatrix::set(Label i, Label j, double p) {
  NAV_REQUIRE(i >= 1 && i <= n_ && j >= 1 && j <= n_, "label out of range");
  NAV_REQUIRE(p >= 0.0 && p <= 1.0, "probability out of [0,1]");
  cells_[static_cast<std::size_t>(i - 1) * n_ + (j - 1)] = p;
}

double ExplicitMatrix::entry(Label i, Label j) const {
  NAV_REQUIRE(i >= 1 && i <= n_ && j >= 1 && j <= n_, "label out of range");
  return cells_[static_cast<std::size_t>(i - 1) * n_ + (j - 1)];
}

std::optional<Label> ExplicitMatrix::sample_row(Label i, Rng& rng) const {
  NAV_REQUIRE(i >= 1 && i <= n_, "label out of range");
  double r = rng.next_double();
  const double* row = cells_.data() + static_cast<std::size_t>(i - 1) * n_;
  for (Label j = 0; j < n_; ++j) {
    r -= row[j];
    if (r < 0.0) return j + 1;
  }
  return std::nullopt;  // residual mass
}

bool ExplicitMatrix::is_valid(double tolerance) const {
  for (Label i = 1; i <= n_; ++i) {
    double sum = 0.0;
    for (Label j = 1; j <= n_; ++j) {
      const double p = entry(i, j);
      if (p < 0.0 || p > 1.0) return false;
      sum += p;
    }
    if (sum > 1.0 + tolerance) return false;
  }
  return true;
}

}  // namespace nav::core
