// augmentation_matrix.hpp — augmentation matrices (paper Definition 1) and
// the scheme obtained by pairing a matrix with a labeling.
//
// An augmentation matrix of size n is A = (p_{i,j}) with p_{i,j} ∈ [0,1] and
// row sums Σ_j p_{i,j} <= 1 (sub-stochastic rows allowed: the residual mass
// means "no long-range link"). Rows/columns are indexed by *labels* 1..n.
//
// Matrices are exposed through an abstract MatrixView because the matrices of
// interest (uniform, the Theorem 2 hierarchy matrix A, their mix M=(A+U)/2)
// are structured — entries are computed on demand and rows are sampled in
// O(log n), never materialising n² storage. The dense reference matrix for
// small-n tests lives in tests/support/explicit_matrix.hpp.
#pragma once

#include <memory>
#include <optional>

#include "core/labeling.hpp"
#include "core/scheme.hpp"

namespace nav::core {

/// Label type: 1-based per the paper.
using Label = std::uint32_t;

class MatrixView {
 public:
  virtual ~MatrixView() = default;

  /// Matrix size n (labels range over [1, n]).
  [[nodiscard]] virtual Label size() const = 0;

  /// p_{i,j} for labels i, j in [1, n].
  [[nodiscard]] virtual double entry(Label i, Label j) const = 0;

  /// Samples from row i: a label with probability p_{i,j}, or nullopt with
  /// the residual probability 1 - Σ_j p_{i,j}.
  [[nodiscard]] virtual std::optional<Label> sample_row(Label i, Rng& rng) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Σ_j p_{i,j} (<= 1 by Definition 1).
  [[nodiscard]] virtual double row_sum(Label i) const;
};

using MatrixPtr = std::shared_ptr<const MatrixView>;

/// Uniform matrix U: u_{i,j} = 1/n.
class UniformMatrix final : public MatrixView {
 public:
  explicit UniformMatrix(Label n);
  [[nodiscard]] Label size() const override { return n_; }
  [[nodiscard]] double entry(Label i, Label j) const override;
  [[nodiscard]] std::optional<Label> sample_row(Label i, Rng& rng) const override;
  [[nodiscard]] std::string name() const override { return "U"; }

 private:
  Label n_;
};

/// Theorem 2 hierarchy matrix A: a_{i,j} = 1/(1+log2 n) for j ∈ A(i) ∩ [1,n].
class HierarchyMatrix final : public MatrixView {
 public:
  explicit HierarchyMatrix(Label n);
  [[nodiscard]] Label size() const override { return n_; }
  [[nodiscard]] double entry(Label i, Label j) const override;
  [[nodiscard]] std::optional<Label> sample_row(Label i, Rng& rng) const override;
  [[nodiscard]] std::string name() const override { return "A"; }

  /// 1/(1 + log2 n) — each ancestor's probability.
  [[nodiscard]] double ancestor_probability() const noexcept { return prob_; }

 private:
  Label n_;
  double prob_;
  std::uint32_t slots_;  // ceil(1 + log2 n): sampling grid
};

/// Even mixture M = (A + B)/2 — Theorem 2 uses M = (A + U)/2.
class MixMatrix final : public MatrixView {
 public:
  MixMatrix(MatrixPtr a, MatrixPtr b);
  [[nodiscard]] Label size() const override { return a_->size(); }
  [[nodiscard]] double entry(Label i, Label j) const override;
  [[nodiscard]] std::optional<Label> sample_row(Label i, Rng& rng) const override;
  [[nodiscard]] std::string name() const override;

 private:
  MatrixPtr a_, b_;
};

/// The scheme "(M, L)": node u samples label j from row L(u), then a uniform
/// node labeled j (kNoContact when the class is empty or the row's residual
/// fires). Matrix size must be >= the labeling universe.
class MatrixScheme final : public AugmentationScheme {
 public:
  MatrixScheme(MatrixPtr matrix, Labeling labeling, std::string scheme_name = "");

  [[nodiscard]] NodeId sample_contact(NodeId u, Rng& rng) const override;
  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] double probability(NodeId u, NodeId v) const override;
  [[nodiscard]] NodeId num_nodes() const override {
    return labeling_.num_nodes();
  }

  [[nodiscard]] const Labeling& labeling() const noexcept { return labeling_; }
  [[nodiscard]] const MatrixView& matrix() const noexcept { return *matrix_; }

 private:
  MatrixPtr matrix_;
  Labeling labeling_;
  std::string name_;
};

}  // namespace nav::core
