#include "core/diagnostic.h"

#include <sstream>

namespace awesim::core {

const char* to_string(DiagCode code) {
  switch (code) {
    case DiagCode::SingularPivot: return "singular-pivot";
    case DiagCode::IllConditioned: return "ill-conditioned";
    case DiagCode::FloatingNodes: return "floating-nodes";
    case DiagCode::GminFallback: return "gmin-fallback";
    case DiagCode::UnstablePoles: return "unstable-poles";
    case DiagCode::WindowShifted: return "window-shifted";
    case DiagCode::OrderReduced: return "order-reduced";
    case DiagCode::ElmoreFallback: return "elmore-fallback";
    case DiagCode::NonFiniteValue: return "non-finite-value";
    case DiagCode::ParseError: return "parse-error";
    case DiagCode::ValidationError: return "validation-error";
    case DiagCode::FloatingIsland: return "floating-island";
    case DiagCode::InductorLoop: return "inductor-loop";
    case DiagCode::CapacitorCutset: return "capacitor-cutset";
    case DiagCode::ValueOutOfRange: return "value-out-of-range";
    case DiagCode::SuspiciousValue: return "suspicious-value";
    case DiagCode::DanglingControl: return "dangling-control";
    case DiagCode::ControlCycle: return "control-cycle";
    case DiagCode::TopologyNote: return "topology-note";
    case DiagCode::StageDegraded: return "stage-degraded";
    case DiagCode::StageFailed: return "stage-failed";
    case DiagCode::CacheInvalidated: return "cache-invalidated";
    case DiagCode::ReductionFallback: return "reduction-fallback";
    case DiagCode::ReductionToleranceExceeded:
      return "reduction-tolerance-exceeded";
    case DiagCode::CombinationalCycle: return "combinational-cycle";
    case DiagCode::UndrivenEndpoint: return "undriven-endpoint";
    case DiagCode::DeadLogic: return "dead-logic";
    case DiagCode::FanoutExplosion: return "fanout-explosion";
    case DiagCode::ReconvergentFanout: return "reconvergent-fanout";
    case DiagCode::ConditioningHazard: return "conditioning-hazard";
    case DiagCode::RepeatedStructure: return "repeated-structure";
    case DiagCode::NearDuplicate: return "near-duplicate";
    case DiagCode::DeadlineExceeded: return "deadline-exceeded";
    case DiagCode::BudgetExceeded: return "budget-exceeded";
    case DiagCode::InvalidRequest: return "invalid-request";
    case DiagCode::ServerOverloaded: return "server-overloaded";
    case DiagCode::InternalError: return "internal-error";
    case DiagCode::InjectedFault: return "injected-fault";
  }
  return "unknown";
}

const char* to_string(Severity severity) {
  switch (severity) {
    case Severity::Info: return "info";
    case Severity::Warning: return "warning";
    case Severity::Error: return "error";
    case Severity::Fatal: return "fatal";
  }
  return "unknown";
}

std::string Diagnostic::to_string() const {
  std::ostringstream out;
  out << core::to_string(severity) << " " << core::to_string(code) << ": "
      << message;
  if (!element.empty()) out << " [element " << element << "]";
  if (!node.empty()) out << " [node(s) " << node << "]";
  if (line > 0) {
    out << " [" << (file.empty() ? "netlist" : file) << ":" << line;
    if (column > 0) out << ":" << column;
    out << "]";
  }
  if (condition_estimate >= 0.0) {
    out << " [cond~" << condition_estimate << "]";
  }
  return out.str();
}

std::string to_string(const Diagnostics& diags) {
  std::string out;
  for (const auto& d : diags) {
    out += d.to_string();
    out += '\n';
  }
  return out;
}

std::size_t count_at_least(const Diagnostics& diags, Severity severity) {
  std::size_t n = 0;
  for (const auto& d : diags) {
    if (d.severity >= severity) ++n;
  }
  return n;
}

}  // namespace awesim::core
