#include "core/ball_scheme.hpp"

#include <algorithm>
#include <cmath>

#include "graph/bfs_engine.hpp"

namespace nav::core {

namespace {

/// |B(u, 2^k)| for k = 1..levels (index 0 unused), counted off u's BFS row.
std::vector<std::size_t> ball_sizes_row(std::span<const graph::Dist> dist,
                                        std::uint32_t levels) {
  std::vector<std::size_t> sizes(levels + 1, 0);
  for (const auto d : dist) {
    if (d == graph::kInfDist) continue;
    for (std::uint32_t k = 1; k <= levels; ++k) {
      if (d <= (graph::Dist{1} << k)) ++sizes[k];
    }
  }
  return sizes;
}

}  // namespace

BallScheme::BallScheme(const Graph& g, std::uint32_t levels)
    : graph_(g), levels_(levels) {
  NAV_REQUIRE(g.num_nodes() >= 1, "empty graph");
  if (levels_ == 0) {
    levels_ = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(
               std::ceil(std::log2(static_cast<double>(g.num_nodes())))));
  }
  NAV_REQUIRE(levels_ <= 31, "too many levels");
  const NodeId n = g.num_nodes();
  ball_size_ = std::vector<std::atomic<std::uint32_t>>(
      static_cast<std::size_t>(n) * levels_);

  // Landmark prefill: on a connected graph ecc(u) <= d(u, 0) + ecc(0), so
  // every level whose radius reaches that bound is B_k(u) = V. One uncounted
  // scalar row from node 0 fills those entries before any draw.
  std::vector<graph::Dist> row(n);
  graph::local_bfs_workspace().distances_into_scalar(g, 0, row);
  const graph::Dist ecc0 = *std::max_element(row.begin(), row.end());
  if (ecc0 == graph::kInfDist) return;  // disconnected: no bound
  for (NodeId u = 0; u < n; ++u) {
    const graph::Dist bound = row[u] + ecc0;
    for (std::uint32_t k = 1; k <= levels_; ++k) {
      if ((graph::Dist{1} << k) >= bound) {
        ball_size_[static_cast<std::size_t>(u) * levels_ + (k - 1)].store(
            n, std::memory_order_relaxed);
      }
    }
  }
}

std::uint32_t BallScheme::cached_ball_size(NodeId u, std::uint32_t k) const {
  NAV_ASSERT(u < graph_.num_nodes() && k >= 1 && k <= levels_);
  return ball_size_[static_cast<std::size_t>(u) * levels_ + (k - 1)].load(
      std::memory_order_relaxed);
}

NodeId BallScheme::sample_from_ball(NodeId u, std::uint32_t k,
                                    Rng& rng) const {
  NAV_ASSERT(u < graph_.num_nodes() && k >= 1 && k <= levels_);
  const NodeId n = graph_.num_nodes();
  const graph::Dist radius = graph::Dist{1} << k;
  // Whole-graph shortcut (distribution-identical, see header).
  if (radius >= n) return random_index(rng, n);
  std::atomic<std::uint32_t>* const sizes =
      ball_size_.data() + static_cast<std::size_t>(u) * levels_;
  const std::uint32_t known = sizes[k - 1].load(std::memory_order_relaxed);
  if (known == n) return random_index(rng, n);
  auto& ws = graph::local_bfs_workspace();
  if (known != 0) return ws.nth_in_order(graph_, u, random_index(rng, known));

  const auto view = ws.ball(graph_, u, radius);
  if (view.whole_graph) {
    // The ball swallowed the graph at depth ecc(u): every level whose radius
    // reaches that depth is V too. Sample over node ids directly so the draw
    // is bit-identical to the warm path above.
    for (std::uint32_t j = 1; j <= levels_; ++j) {
      if ((graph::Dist{1} << j) >= view.exhausted_depth) {
        sizes[j - 1].store(n, std::memory_order_relaxed);
      }
    }
    return random_index(rng, n);
  }
  const auto size = static_cast<std::uint32_t>(view.order.size());
  sizes[k - 1].store(size, std::memory_order_relaxed);
  return view.order[random_index(rng, size)];
}

NodeId BallScheme::sample_contact(NodeId u, Rng& rng) const {
  const auto k = 1 + static_cast<std::uint32_t>(rng.next_below(levels_));
  return sample_from_ball(u, k, rng);
}

std::string BallScheme::name() const { return "ball"; }

std::vector<std::size_t> BallScheme::ball_sizes(NodeId u) const {
  return ball_sizes_row(graph::local_bfs_workspace().distances(graph_, u),
                        levels_);
}

double BallScheme::probability(NodeId u, NodeId v) const {
  NAV_ASSERT(u < graph_.num_nodes() && v < graph_.num_nodes());
  const auto dist = graph::local_bfs_workspace().distances(graph_, u);
  const auto sizes = ball_sizes_row(dist, levels_);
  if (dist[v] == graph::kInfDist) return 0.0;
  double p = 0.0;
  for (std::uint32_t k = 1; k <= levels_; ++k) {
    if (dist[v] <= (graph::Dist{1} << k)) {
      p += 1.0 / static_cast<double>(sizes[k]);
    }
  }
  return p / static_cast<double>(levels_);
}

std::vector<double> BallScheme::probability_row(NodeId u) const {
  // One BFS serves the whole row: φ_u(v) = (1/L) Σ_{k >= r(v)} 1/|B_k(u)|,
  // precomputed as suffix sums over the level index.
  NAV_ASSERT(u < graph_.num_nodes());
  const auto dist = graph::local_bfs_workspace().distances(graph_, u);
  const auto sizes = ball_sizes_row(dist, levels_);
  // suffix[k] = Σ_{j=k..L} 1/|B_j(u)|.
  std::vector<double> suffix(levels_ + 2, 0.0);
  for (std::uint32_t k = levels_; k >= 1; --k) {
    suffix[k] = suffix[k + 1] + 1.0 / static_cast<double>(sizes[k]);
  }
  std::vector<double> row(graph_.num_nodes(), 0.0);
  for (NodeId v = 0; v < graph_.num_nodes(); ++v) {
    if (dist[v] == graph::kInfDist) continue;
    std::uint32_t r = 1;
    while (r <= levels_ && dist[v] > (graph::Dist{1} << r)) ++r;
    if (r <= levels_) row[v] = suffix[r] / static_cast<double>(levels_);
  }
  return row;
}

// ---- fixed-level ablation ---------------------------------------------------

class FixedLevelBallScheme final : public AugmentationScheme {
 public:
  FixedLevelBallScheme(const Graph& g, std::uint32_t k)
      : base_(g, std::max<std::uint32_t>(k, 1)), k_(std::max<std::uint32_t>(k, 1)) {}

  [[nodiscard]] NodeId sample_contact(NodeId u, Rng& rng) const override {
    return base_.sample_from_ball(u, k_, rng);
  }
  [[nodiscard]] std::string name() const override {
    return "ball-fixed-k" + std::to_string(k_);
  }
  [[nodiscard]] NodeId num_nodes() const override { return base_.num_nodes(); }

 private:
  BallScheme base_;
  std::uint32_t k_;
};

SchemePtr BallScheme::make_fixed_level(const Graph& g, std::uint32_t k) {
  return std::make_unique<FixedLevelBallScheme>(g, k);
}

}  // namespace nav::core
