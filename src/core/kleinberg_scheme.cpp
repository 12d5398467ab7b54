#include "core/kleinberg_scheme.hpp"

#include <cmath>

#include "graph/bfs_engine.hpp"

namespace nav::core {

KleinbergScheme::KleinbergScheme(const Graph& g, double alpha)
    : graph_(g), alpha_(alpha) {
  NAV_REQUIRE(g.num_nodes() >= 2, "need at least two nodes");
  NAV_REQUIRE(alpha >= 0.0, "alpha must be non-negative");
}

NodeId KleinbergScheme::sample_contact(NodeId u, Rng& rng) const {
  NAV_ASSERT(u < graph_.num_nodes());
  const auto dist = graph::local_bfs_workspace().distances(graph_, u);
  double z = 0.0;
  for (NodeId v = 0; v < graph_.num_nodes(); ++v) {
    if (v == u || dist[v] == graph::kInfDist) continue;
    z += std::pow(static_cast<double>(dist[v]), -alpha_);
  }
  NAV_ASSERT(z > 0.0);
  double r = rng.next_double() * z;
  for (NodeId v = 0; v < graph_.num_nodes(); ++v) {
    if (v == u || dist[v] == graph::kInfDist) continue;
    r -= std::pow(static_cast<double>(dist[v]), -alpha_);
    if (r < 0.0) return v;
  }
  // Float tail: return the last reachable non-u node.
  for (NodeId v = graph_.num_nodes(); v > 0; --v) {
    if (v - 1 != u && dist[v - 1] != graph::kInfDist) return v - 1;
  }
  return kNoContact;
}

std::string KleinbergScheme::name() const {
  return "kleinberg(a=" + std::to_string(alpha_).substr(0, 4) + ")";
}

double KleinbergScheme::probability(NodeId u, NodeId v) const {
  if (u == v) return 0.0;
  const auto dist = graph::local_bfs_workspace().distances(graph_, u);
  if (dist[v] == graph::kInfDist) return 0.0;
  double z = 0.0;
  for (NodeId w = 0; w < graph_.num_nodes(); ++w) {
    if (w == u || dist[w] == graph::kInfDist) continue;
    z += std::pow(static_cast<double>(dist[w]), -alpha_);
  }
  return std::pow(static_cast<double>(dist[v]), -alpha_) / z;
}

std::vector<double> KleinbergScheme::probability_row(NodeId u) const {
  const auto dist = graph::local_bfs_workspace().distances(graph_, u);
  std::vector<double> row(graph_.num_nodes(), 0.0);
  double z = 0.0;
  for (NodeId w = 0; w < graph_.num_nodes(); ++w) {
    if (w == u || dist[w] == graph::kInfDist) continue;
    row[w] = std::pow(static_cast<double>(dist[w]), -alpha_);
    z += row[w];
  }
  NAV_ASSERT(z > 0.0);
  for (auto& p : row) p /= z;
  return row;
}

// ---- torus specialisation ---------------------------------------------------

namespace {

/// Torus L1 distance of an offset (dr, dc) on a side×side torus.
std::uint32_t torus_offset_distance(NodeId side, NodeId dr, NodeId dc) {
  const auto wrap = [side](NodeId d) { return std::min(d, side - d); };
  return wrap(dr) + wrap(dc);
}

}  // namespace

TorusKleinbergScheme::TorusKleinbergScheme(NodeId side, double alpha)
    : side_(side), alpha_(alpha) {
  NAV_REQUIRE(side >= 3, "torus side must be >= 3");
  NAV_REQUIRE(alpha >= 0.0, "alpha must be non-negative");
  std::vector<double> weights(static_cast<std::size_t>(side) * side, 0.0);
  for (NodeId dr = 0; dr < side; ++dr) {
    for (NodeId dc = 0; dc < side; ++dc) {
      if (dr == 0 && dc == 0) continue;  // no self contact
      const auto d = torus_offset_distance(side, dr, dc);
      weights[static_cast<std::size_t>(dr) * side + dc] =
          std::pow(static_cast<double>(d), -alpha_);
    }
  }
  offsets_ = std::make_unique<DiscreteDistribution>(weights);
}

NodeId TorusKleinbergScheme::sample_contact(NodeId u, Rng& rng) const {
  NAV_ASSERT(u < num_nodes());
  const auto o = static_cast<NodeId>(offsets_->sample(rng));
  const NodeId dr = o / side_;
  const NodeId dc = o % side_;
  const NodeId r = u / side_;
  const NodeId c = u % side_;
  return ((r + dr) % side_) * side_ + ((c + dc) % side_);
}

std::string TorusKleinbergScheme::name() const {
  return "kleinberg-torus(a=" + std::to_string(alpha_).substr(0, 4) + ")";
}

double TorusKleinbergScheme::probability(NodeId u, NodeId v) const {
  if (u == v) return 0.0;
  const NodeId dr = ((v / side_) + side_ - (u / side_)) % side_;
  const NodeId dc = ((v % side_) + side_ - (u % side_)) % side_;
  return offsets_->probability(static_cast<std::size_t>(dr) * side_ + dc);
}

}  // namespace nav::core
