// ball_scheme.hpp — the Õ(n^{1/3}) universal scheme (paper Theorem 4).
//
// Construction (§3): every node u first draws k uniform in {1..⌈log2 n⌉},
// then its long-range contact uniform in the ball B_k(u) = B(u, 2^k). The
// resulting distribution is
//     φ_u(v) = (1/⌈log n⌉) · Σ_{k = r(v)}^{⌈log n⌉} 1/|B_k(u)|,
// where r(v) is the smallest k with v ∈ B_k(u).
//
// This is an *a posteriori* scheme: it depends on the ball structure of G
// (unlike the matrix schemes of §2, fixed before seeing the graph). Sampling
// is implemented by BFS from u. random_index(rng, |B|) consumes the stream
// as a function of |B| alone, and BFS discovers nodes in an order that does
// not depend on the radius, so the drawn contact is simply the i-th node u's
// BFS discovers. An n × levels table of |B_k(u)| (u32, 0 = unknown) turns
// that into a prefix draw:
//   * construction runs one BFS row from landmark node 0 and, on a connected
//     graph, records n for every (u, k) with 2^k >= d(u, 0) + ecc(0) — the
//     triangle bound ecc(u) <= d(u, 0) + ecc(0) proves B_k(u) = V there;
//   * B_k(u) = V — 2^k >= n (connected graph) or a recorded |B_k(u)| == n —
//     is a uniform node-id draw, random_index(rng, n), with no BFS at all;
//   * the first draw at (u, k) runs the full radius-bounded BFS, draws from
//     the materialised ball and records |B_k(u)| in the table (relaxed
//     atomics; racing writers store the same value). A ball that swallows
//     the graph records n for every level j with 2^j >= ecc(u) at once;
//   * any other recorded size s draws i = random_index(rng, s) and stops the
//     BFS as soon as node i is discovered (BfsWorkspace::nth_in_order), so
//     a warm draw costs O(prefix) instead of O(|B_k(u)|).
// Every path consumes the same randomness and returns the same node, so the
// draws are bit-identical whatever the table holds.
#pragma once

#include <atomic>
#include <memory>

#include "core/scheme.hpp"
#include "graph/graph.hpp"

namespace nav::core {

class BallScheme final : public AugmentationScheme {
 public:
  /// `levels` = the paper's ⌈log2 n⌉ by default; overridable for the E7b
  /// ablation (fixed-k variants use make_fixed_level below).
  explicit BallScheme(const Graph& g, std::uint32_t levels = 0);

  [[nodiscard]] NodeId sample_contact(NodeId u, Rng& rng) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] double probability(NodeId u, NodeId v) const override;
  [[nodiscard]] std::vector<double> probability_row(NodeId u) const override;
  [[nodiscard]] NodeId num_nodes() const override { return graph_.num_nodes(); }

  [[nodiscard]] std::uint32_t levels() const noexcept { return levels_; }

  /// |B(u, 2^k)| for k = 1..levels (index 0 unused). One full BFS.
  [[nodiscard]] std::vector<std::size_t> ball_sizes(NodeId u) const;

  /// The size table's entry for (u, k): |B(u, 2^k)| once the landmark
  /// prefill or a draw has recorded it, 0 while unknown. Draws at levels
  /// with 2^k >= n never consult it.
  [[nodiscard]] std::uint32_t cached_ball_size(NodeId u,
                                               std::uint32_t k) const;

  /// E7b ablation: contact uniform in B(u, 2^k) for one fixed k (no mixture).
  [[nodiscard]] static SchemePtr make_fixed_level(const Graph& g,
                                                  std::uint32_t k);

 private:
  friend class FixedLevelBallScheme;

  /// Uniform draw from B(u, 2^k), k in 1..levels(); shared by the mixture
  /// and fixed-k variants.
  [[nodiscard]] NodeId sample_from_ball(NodeId u, std::uint32_t k,
                                        Rng& rng) const;

  const Graph& graph_;
  std::uint32_t levels_;
  /// ball_size_[u * levels_ + (k - 1)] = |B(u, 2^k)|, or 0 while unknown.
  /// Prefilled with n where the landmark bound proves B_k(u) = V; written
  /// racily with relaxed atomics afterwards — all writers store the same
  /// value.
  mutable std::vector<std::atomic<std::uint32_t>> ball_size_;
};

}  // namespace nav::core
