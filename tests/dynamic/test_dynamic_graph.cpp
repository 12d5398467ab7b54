// test_dynamic_graph.cpp — the epoch/address contract of DynamicGraph: edge
// toggles rebuild the CSR in place (references stay valid), the epoch bumps
// only on effective change, kFailNode expands to edge removals, and
// listeners observe the post-mutation graph with a normalised delta.
#include "dynamic/dynamic_graph.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "graph/families.hpp"
#include "graph/graph.hpp"
#include "runtime/rng.hpp"

namespace nav::dynamic {
namespace {

Graph small_cycle(NodeId n = 8) {
  Rng rng(1);
  return graph::family("cycle").make(n, rng);
}

TEST(DynamicGraph, StartsAtEpochZeroWithSortedEdges) {
  DynamicGraph dyn(small_cycle());
  EXPECT_EQ(dyn.epoch(), 0u);
  const auto edges = dyn.edges();
  ASSERT_EQ(edges.size(), 8u);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    EXPECT_LT(edges[i].first, edges[i].second);
    if (i > 0) {
      EXPECT_LT(edges[i - 1], edges[i]);
    }
  }
}

TEST(DynamicGraph, AddAndRemoveToggleMembershipAndEpoch) {
  DynamicGraph dyn(small_cycle());
  EXPECT_FALSE(dyn.has_edge(0, 4));

  const EdgeMutation add{EdgeMutation::Op::kAddEdge, 0, 4};
  const auto d1 = dyn.apply({&add, 1});
  EXPECT_EQ(d1.epoch, 1u);
  EXPECT_EQ(d1.edges_added, 1u);
  EXPECT_EQ(d1.edges_removed, 0u);
  EXPECT_TRUE(dyn.has_edge(0, 4));
  EXPECT_TRUE(dyn.has_edge(4, 0));  // symmetric membership

  const EdgeMutation remove{EdgeMutation::Op::kRemoveEdge, 4, 0};
  const auto d2 = dyn.apply({&remove, 1});
  EXPECT_EQ(d2.epoch, 2u);
  EXPECT_EQ(d2.edges_removed, 1u);
  EXPECT_FALSE(dyn.has_edge(0, 4));
  EXPECT_EQ(dyn.epoch(), 2u);
}

TEST(DynamicGraph, NoOpBatchDoesNotBumpEpoch) {
  DynamicGraph dyn(small_cycle());
  // Adding an existing edge and removing an absent one are both no-ops.
  const std::vector<EdgeMutation> batch = {
      {EdgeMutation::Op::kAddEdge, 0, 1},
      {EdgeMutation::Op::kRemoveEdge, 0, 5},
  };
  const auto delta = dyn.apply(batch);
  EXPECT_TRUE(delta.empty());
  EXPECT_EQ(delta.requested, 2u);
  EXPECT_EQ(dyn.epoch(), 0u);
}

TEST(DynamicGraph, GraphReferenceIsAddressStableAcrossApply) {
  DynamicGraph dyn(small_cycle());
  const Graph& ref = dyn.graph();
  const Graph* address = &ref;
  const auto m_before = ref.num_edges();

  const EdgeMutation add{EdgeMutation::Op::kAddEdge, 1, 5};
  (void)dyn.apply({&add, 1});

  // Same object, new contents: holders of `const Graph&` observe the
  // mutation without rebinding.
  EXPECT_EQ(&dyn.graph(), address);
  EXPECT_EQ(ref.num_edges(), m_before + 1);
}

TEST(DynamicGraph, FailNodeExpandsToIncidentEdgeRemovals) {
  DynamicGraph dyn(small_cycle());
  const EdgeMutation fail{EdgeMutation::Op::kFailNode, 3, 0};
  const auto delta = dyn.apply({&fail, 1});

  // Node 3 on a cycle has exactly two incident edges; listeners only ever
  // see edge events, normalised to u < v.
  EXPECT_EQ(delta.edges_removed, 2u);
  EXPECT_EQ(delta.events.size(), 2u);
  for (const auto& event : delta.events) {
    EXPECT_EQ(event.op, EdgeMutation::Op::kRemoveEdge);
    EXPECT_LT(event.u, event.v);
    EXPECT_TRUE(event.u == 3 || event.v == 3);
  }
  EXPECT_FALSE(dyn.has_edge(2, 3));
  EXPECT_FALSE(dyn.has_edge(3, 4));
  EXPECT_EQ(dyn.graph().degree(3), 0u);  // isolated, not deleted
  EXPECT_EQ(dyn.graph().num_nodes(), 8u);
}

TEST(DynamicGraph, RejectsOutOfRangeAndSelfLoops) {
  DynamicGraph dyn(small_cycle());
  const EdgeMutation out_of_range{EdgeMutation::Op::kAddEdge, 0, 99};
  EXPECT_THROW((void)dyn.apply({&out_of_range, 1}), std::invalid_argument);
  const EdgeMutation self_loop{EdgeMutation::Op::kAddEdge, 2, 2};
  EXPECT_THROW((void)dyn.apply({&self_loop, 1}), std::invalid_argument);
  EXPECT_EQ(dyn.epoch(), 0u);
}

class RecordingListener final : public MutationListener {
 public:
  void on_mutation(const DynamicGraph& g, const MutationDelta& delta) override {
    ++calls;
    last_epoch = delta.epoch;
    // The contract: the CSR is already rebuilt when listeners run.
    edges_at_callback = g.graph().num_edges();
  }
  int calls = 0;
  std::uint64_t last_epoch = 0;
  std::size_t edges_at_callback = 0;
};

TEST(DynamicGraph, ListenersSeePostMutationStateAndUnsubscribe) {
  DynamicGraph dyn(small_cycle());
  RecordingListener listener;
  dyn.subscribe(listener);

  const EdgeMutation add{EdgeMutation::Op::kAddEdge, 0, 3};
  (void)dyn.apply({&add, 1});
  EXPECT_EQ(listener.calls, 1);
  EXPECT_EQ(listener.last_epoch, 1u);
  EXPECT_EQ(listener.edges_at_callback, 9u);

  // No-op batches notify nobody.
  const EdgeMutation noop{EdgeMutation::Op::kAddEdge, 0, 3};
  (void)dyn.apply({&noop, 1});
  EXPECT_EQ(listener.calls, 1);

  dyn.unsubscribe(listener);
  const EdgeMutation remove{EdgeMutation::Op::kRemoveEdge, 0, 3};
  (void)dyn.apply({&remove, 1});
  EXPECT_EQ(listener.calls, 1);
}

}  // namespace
}  // namespace nav::dynamic
