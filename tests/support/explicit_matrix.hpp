// explicit_matrix.hpp — a dense augmentation matrix for small n.
//
// Test reference only: the library's matrices (uniform, the Theorem 2
// hierarchy, their mix) are structured and never materialise n² cells.
// ExplicitMatrix stores every p_{i,j}, so tests can build arbitrary
// Definition 1 matrices and materialise a structured view to compare.
#pragma once

#include <vector>

#include "core/augmentation_matrix.hpp"

namespace nav::core {

/// Dense matrix for small n.
class ExplicitMatrix final : public MatrixView {
 public:
  /// Zero matrix of size n (every row sums to 0: no links).
  explicit ExplicitMatrix(Label n);
  /// Materialises any view (requires modest n).
  explicit ExplicitMatrix(const MatrixView& view);

  void set(Label i, Label j, double p);

  [[nodiscard]] Label size() const override { return n_; }
  [[nodiscard]] double entry(Label i, Label j) const override;
  [[nodiscard]] std::optional<Label> sample_row(Label i, Rng& rng) const override;
  [[nodiscard]] std::string name() const override { return "explicit"; }

  /// Definition 1 check: entries in [0,1], row sums <= 1 (+ tolerance).
  [[nodiscard]] bool is_valid(double tolerance = 1e-9) const;

 private:
  Label n_;
  std::vector<double> cells_;  // row-major, (i-1)*n + (j-1)
};

}  // namespace nav::core
