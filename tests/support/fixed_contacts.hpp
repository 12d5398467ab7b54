// fixed_contacts.hpp — eager contact vectors and a scheme that replays one.
//
// The library samples contacts lazily (core/scheme.hpp). Tests still want
// the paper's static view — one contact per node, drawn up front — both as
// the reference for lazy sampling and to hand-build an augmentation
// ("node 0 links straight to the target"). FixedContactScheme turns such a
// vector into an AugmentationScheme, so every router runs its own
// route(s, t, &scheme, rng) path over it: greedy reads contacts[u] at each
// visited node, lookahead reads it through core::MemoContacts.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/scheme.hpp"

namespace nav::core {

/// Eager augmentation: one contact per node (the paper's static view).
[[nodiscard]] std::vector<NodeId> sample_all_contacts(
    const AugmentationScheme& scheme, Rng& rng);

/// sample_contact(u, ·) returns contacts[u] (kNoContact allowed) and draws
/// nothing from the rng.
class FixedContactScheme final : public AugmentationScheme {
 public:
  explicit FixedContactScheme(std::vector<NodeId> contacts)
      : contacts_(std::move(contacts)) {}

  [[nodiscard]] NodeId sample_contact(NodeId u, Rng&) const override {
    NAV_ASSERT(u < contacts_.size());
    return contacts_[u];
  }
  [[nodiscard]] std::string name() const override { return "fixed"; }
  [[nodiscard]] NodeId num_nodes() const override {
    return static_cast<NodeId>(contacts_.size());
  }

 private:
  std::vector<NodeId> contacts_;
};

}  // namespace nav::core
