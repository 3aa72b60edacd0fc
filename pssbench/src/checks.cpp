#include "checks.hpp"

#include <algorithm>
#include <vector>

namespace pssbench {

std::string check_view(std::span<const pss::NodeDescriptor> view,
                       pss::NodeId self, std::size_t c,
                       std::size_t address_limit) {
  if (view.size() > c) return "I3: view holds more than c descriptors";
  for (std::size_t i = 0; i < view.size(); ++i) {
    const pss::NodeDescriptor& d = view[i];
    if (d.address == self) return "view holds a self-descriptor";
    if (d.address >= address_limit) return "descriptor address out of range";
    if (i > 0 && !pss::ByHopThenAddress{}(view[i - 1], d)) {
      return "I1: view not ascending by (hop count, address)";
    }
  }
  std::vector<pss::NodeId> addresses(view.size());
  std::transform(view.begin(), view.end(), addresses.begin(),
                 [](const pss::NodeDescriptor& d) { return d.address; });
  std::sort(addresses.begin(), addresses.end());
  if (std::adjacent_find(addresses.begin(), addresses.end()) != addresses.end()) {
    return "I2: an address appears twice";
  }
  return {};
}

}  // namespace pssbench
