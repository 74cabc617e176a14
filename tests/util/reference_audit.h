// Reference implementations for the audit's differential suite: the
// conditioning oracle as one monolithic walk over a string-named element
// list, and the audit tiers built on it (see reference_audit.cpp).
#pragma once

#include "audit/audit.h"
#include "check/oracle.h"
#include "timing/analyzer.h"

namespace awesim::audit::testutil {

/// The single-pass oracle: intern, sum, walk and estimate in one call.
check::ConditioningEstimate reference_assess(
    const check::OracleInput& input, const check::OracleOptions& options = {});

/// audit_design with the reference tiers (graph tier included).
AuditReport reference_audit_design(const timing::Design& design,
                                   const AuditOptions& options = {},
                                   const DesignSourceMap* sources = nullptr);

}  // namespace awesim::audit::testutil
