#include "support/fixed_contacts.hpp"

namespace nav::core {

std::vector<NodeId> sample_all_contacts(const AugmentationScheme& scheme,
                                        Rng& rng) {
  std::vector<NodeId> contacts(scheme.num_nodes(), kNoContact);
  for (NodeId u = 0; u < scheme.num_nodes(); ++u) {
    contacts[u] = scheme.sample_contact(u, rng);
  }
  return contacts;
}

}  // namespace nav::core
