// Reference design-netlist parser for the differential parse suite (see
// reference_design_parse.cpp).
#pragma once

#include <string>
#include <string_view>

#include "audit/design_netlist.h"

namespace awesim::audit::testutil {

/// audit::parse_design as the reference implements it.
DesignParse reference_parse_design(std::string_view text,
                                   std::string filename);

/// audit::parse_design_file as the reference implements it.
DesignParse reference_parse_design_file(const std::string& path);

}  // namespace awesim::audit::testutil
