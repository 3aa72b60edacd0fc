// Correctness checks that fail a benchmark run: the paper's view
// invariants, read through the public view accessors.
#pragma once

#include <cstddef>
#include <span>
#include <string>

#include "pss/common/types.hpp"
#include "pss/membership/node_descriptor.hpp"

namespace pssbench {

/// Checks one view against I1 (normalized: strictly ascending by
/// (hop count, address)), I2 (no address twice), I3 (size <= c), no
/// self-descriptor, and every address below `address_limit`. Returns an
/// empty string when the view passes, else what is wrong.
std::string check_view(std::span<const pss::NodeDescriptor> view,
                       pss::NodeId self, std::size_t c,
                       std::size_t address_limit);

}  // namespace pssbench
