#include "mna/system.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <stdexcept>

#include "core/fault.h"
#include "obs/trace.h"

namespace awesim::mna {

using circuit::Element;
using circuit::ElementKind;
using circuit::kGround;

namespace {

// Times closer than this (relative to the overall stimulus span) are merged
// into one event.
constexpr double kEventMergeTolerance = 1e-15;

// Elements whose branch current is an MNA unknown.
bool carries_branch(ElementKind kind) {
  return kind == ElementKind::VoltageSource ||
         kind == ElementKind::Inductor || kind == ElementKind::Vcvs ||
         kind == ElementKind::Ccvs;
}

}  // namespace

MnaSystem::MnaSystem(const circuit::Circuit& ckt, Options options)
    : ckt_(&ckt), options_(options) {
  ckt.validate();
  stamp(ckt);
  build_events(ckt);
}

std::size_t MnaSystem::node_index(circuit::NodeId node) const {
  if (node == kGround) {
    throw std::invalid_argument("MnaSystem: ground has no unknown");
  }
  return static_cast<std::size_t>(node) - 1;
}

std::optional<std::size_t> MnaSystem::branch_index(
    std::string_view element) const {
  const auto it = branch_indices_.find(element);
  if (it == branch_indices_.end()) return std::nullopt;
  return it->second;
}

void MnaSystem::stamp(const circuit::Circuit& ckt) {
  const std::size_t num_nodes = ckt.node_count() - 1;  // ground eliminated

  // First pass: number the branch-current unknowns in element order and
  // size the triplet lists for the most entries each element can emit.
  std::size_t next_branch = num_nodes;
  std::size_t g_entries = 0;
  std::size_t c_entries = 0;
  for (const auto& e : ckt.elements()) {
    switch (e.kind) {
      case ElementKind::Resistor:
        g_entries += 4;
        break;
      case ElementKind::Capacitor:
        c_entries += 4;
        break;
      case ElementKind::Inductor:
        g_entries += 4;
        c_entries += 1;
        break;
      case ElementKind::VoltageSource:
      case ElementKind::Vccs:
        g_entries += 4;
        break;
      case ElementKind::CurrentSource:
        break;
      case ElementKind::Vcvs:
        g_entries += 6;
        break;
      case ElementKind::Cccs:
        g_entries += 2;
        break;
      case ElementKind::Ccvs:
        g_entries += 5;
        break;
    }
    if (carries_branch(e.kind)) branch_indices_.emplace(e.name, next_branch++);
  }
  for (const auto& m : ckt.macros()) {
    g_entries += m.dim() * m.dim();
    c_entries += m.dim() * m.dim();
  }
  g_triplets_.reserve(g_entries);
  c_triplets_.reserve(c_entries);
  dim_ = next_branch;
  rhs_initial_.assign(dim_, 0.0);

  // Row/column index of a node, or nullopt for ground.
  auto idx = [&](circuit::NodeId node) -> std::optional<std::size_t> {
    if (node == kGround) return std::nullopt;
    return node_index(node);
  };
  auto stamp_pair = [&](std::vector<la::Triplet>& m, circuit::NodeId a,
                        circuit::NodeId b, double v) {
    const auto ia = idx(a);
    const auto ib = idx(b);
    if (ia) m.push_back({*ia, *ia, v});
    if (ib) m.push_back({*ib, *ib, v});
    if (ia && ib) {
      m.push_back({*ia, *ib, -v});
      m.push_back({*ib, *ia, -v});
    }
  };
  // A branch element's own unknown comes by position (the first pass's
  // numbering); a CCCS/CCVS control name goes through the hashed table.
  std::size_t branch = num_nodes;
  auto control_of = [&](const std::string& name) -> std::size_t {
    const auto b = branch_index(name);
    if (!b) {
      throw std::invalid_argument("MnaSystem: no branch current for '" +
                                  name + "'");
    }
    return *b;
  };
  auto stamp_branch_voltage = [&](std::size_t br, circuit::NodeId pos,
                                  circuit::NodeId neg) {
    const auto ip = idx(pos);
    const auto in = idx(neg);
    if (ip) {
      g_triplets_.push_back({*ip, br, 1.0});
      g_triplets_.push_back({br, *ip, 1.0});
    }
    if (in) {
      g_triplets_.push_back({*in, br, -1.0});
      g_triplets_.push_back({br, *in, -1.0});
    }
  };

  for (const auto& e : ckt.elements()) {
    switch (e.kind) {
      case ElementKind::Resistor:
        stamp_pair(g_triplets_, e.pos, e.neg, 1.0 / e.value);
        break;
      case ElementKind::Capacitor:
        stamp_pair(c_triplets_, e.pos, e.neg, e.value);
        break;
      case ElementKind::Inductor: {
        const std::size_t br = branch++;
        stamp_branch_voltage(br, e.pos, e.neg);
        c_triplets_.push_back({br, br, -e.value});
        break;
      }
      case ElementKind::VoltageSource: {
        const std::size_t br = branch++;
        stamp_branch_voltage(br, e.pos, e.neg);
        rhs_initial_[br] += e.stimulus.initial_value();
        break;
      }
      case ElementKind::CurrentSource: {
        // Positive stimulus current flows from pos through the source to
        // neg (SPICE convention).
        const auto ip = idx(e.pos);
        const auto in = idx(e.neg);
        const double i0 = e.stimulus.initial_value();
        if (ip) rhs_initial_[*ip] -= i0;
        if (in) rhs_initial_[*in] += i0;
        break;
      }
      case ElementKind::Vcvs: {
        const std::size_t br = branch++;
        stamp_branch_voltage(br, e.pos, e.neg);
        const auto icp = idx(e.ctrl_pos);
        const auto icn = idx(e.ctrl_neg);
        if (icp) g_triplets_.push_back({br, *icp, -e.value});
        if (icn) g_triplets_.push_back({br, *icn, e.value});
        break;
      }
      case ElementKind::Vccs: {
        const auto ip = idx(e.pos);
        const auto in = idx(e.neg);
        const auto icp = idx(e.ctrl_pos);
        const auto icn = idx(e.ctrl_neg);
        if (ip && icp) g_triplets_.push_back({*ip, *icp, e.value});
        if (ip && icn) g_triplets_.push_back({*ip, *icn, -e.value});
        if (in && icp) g_triplets_.push_back({*in, *icp, -e.value});
        if (in && icn) g_triplets_.push_back({*in, *icn, e.value});
        break;
      }
      case ElementKind::Cccs: {
        const std::size_t ctrl = control_of(e.ctrl_source);
        const auto ip = idx(e.pos);
        const auto in = idx(e.neg);
        if (ip) g_triplets_.push_back({*ip, ctrl, e.value});
        if (in) g_triplets_.push_back({*in, ctrl, -e.value});
        break;
      }
      case ElementKind::Ccvs: {
        const std::size_t br = branch++;
        const std::size_t ctrl = control_of(e.ctrl_source);
        stamp_branch_voltage(br, e.pos, e.neg);
        g_triplets_.push_back({br, ctrl, -e.value});
        break;
      }
    }
  }

  // Boundary-block macromodels: each macro's reduced internal unknowns
  // are appended after the branch currents, and its dense (ports+states)
  // stamps scatter into G/C with ground rows/columns dropped -- the
  // multiport generalization of stamp_pair.
  for (const auto& m : ckt.macros()) {
    const std::size_t dim = m.dim();
    std::vector<std::optional<std::size_t>> at(dim);
    for (std::size_t i = 0; i < m.ports.size(); ++i) {
      at[i] = idx(m.ports[i]);
    }
    for (std::size_t s = 0; s < m.states; ++s) {
      at[m.ports.size() + s] = dim_++;
    }
    for (std::size_t i = 0; i < dim; ++i) {
      if (!at[i]) continue;
      for (std::size_t j = 0; j < dim; ++j) {
        if (!at[j]) continue;
        const double gv = m.g[i * dim + j];
        const double cv = m.c[i * dim + j];
        if (gv != 0.0) g_triplets_.push_back({*at[i], *at[j], gv});
        if (cv != 0.0) c_triplets_.push_back({*at[i], *at[j], cv});
      }
    }
  }
  rhs_initial_.resize(dim_, 0.0);

  g_sparse_ = la::SparseMatrix::from_triplets(dim_, dim_, g_triplets_);
  c_sparse_ = la::SparseMatrix::from_triplets(dim_, dim_, c_triplets_);
}

const la::RealMatrix& MnaSystem::G() const {
  if (!g_dense_) g_dense_ = g_sparse_.to_dense();
  return *g_dense_;
}

const la::RealMatrix& MnaSystem::C() const {
  if (!c_dense_) c_dense_ = c_sparse_.to_dense();
  return *c_dense_;
}

void MnaSystem::build_events(const circuit::Circuit& ckt) {
  // Merge the per-source breakpoints into global events keyed by time.
  std::map<double, SourceEvent> merged;
  auto event_at = [&](double t) -> SourceEvent& {
    for (auto& [time, ev] : merged) {
      if (std::abs(time - t) <=
          kEventMergeTolerance * std::max(1.0, std::abs(time))) {
        return ev;
      }
    }
    SourceEvent ev;
    ev.time = t;
    ev.value_jump.assign(dim(), 0.0);
    ev.slope_change.assign(dim(), 0.0);
    return merged.emplace(t, std::move(ev)).first->second;
  };

  for (const auto& e : ckt.elements()) {
    if (e.kind != ElementKind::VoltageSource &&
        e.kind != ElementKind::CurrentSource) {
      continue;
    }
    for (const auto& seg : e.stimulus.segments()) {
      SourceEvent& ev = event_at(seg.time);
      if (e.kind == ElementKind::VoltageSource) {
        const std::size_t br = *branch_index(e.name);
        ev.value_jump[br] += seg.value_jump;
        ev.slope_change[br] += seg.slope_change;
      } else {
        if (e.pos != kGround) {
          ev.value_jump[node_index(e.pos)] -= seg.value_jump;
          ev.slope_change[node_index(e.pos)] -= seg.slope_change;
        }
        if (e.neg != kGround) {
          ev.value_jump[node_index(e.neg)] += seg.value_jump;
          ev.slope_change[node_index(e.neg)] += seg.slope_change;
        }
      }
    }
  }
  events_.clear();
  events_.reserve(merged.size());
  for (auto& [time, ev] : merged) events_.push_back(std::move(ev));
}

const la::RealVector& MnaSystem::initial_state() const {
  if (x0_built_) return x0_;
  // Start from the equilibrium the circuit sat at for t < 0 (all sources
  // at their initial values), then apply explicit overrides.
  x0_ = solve(rhs_initial_);
  for (const auto& [node, volts] : ckt_->initial_node_voltages()) {
    x0_[node_index(node)] = volts;
  }
  for (const auto& e : ckt_->elements()) {
    if (e.kind == ElementKind::Capacitor && e.initial_condition) {
      // v(pos) = v(neg) + IC; the neg-side voltage is whatever has been
      // established so far (ground = 0).
      const double vneg = e.neg == kGround ? 0.0 : x0_[node_index(e.neg)];
      if (e.pos != kGround) {
        x0_[node_index(e.pos)] = vneg + *e.initial_condition;
      }
    }
    if (e.kind == ElementKind::Inductor && e.initial_condition) {
      x0_[*branch_index(e.name)] = *e.initial_condition;
    }
  }
  x0_built_ = true;
  return x0_;
}

std::vector<std::string> MnaSystem::floating_node_names() const {
  // BFS from ground over elements that provide a conductive (G-matrix or
  // branch-equation) path: resistors, inductors, voltage sources, VCVS,
  // CCVS.  Capacitors couple charge but fix no DC voltage; current
  // sources impose no constraint between their terminals.  Nodes the
  // walk never reaches float.
  const std::size_t count = ckt_->node_count();
  std::vector<std::vector<circuit::NodeId>> adjacent(count);
  for (const auto& e : ckt_->elements()) {
    switch (e.kind) {
      case ElementKind::Resistor:
      case ElementKind::Inductor:
      case ElementKind::VoltageSource:
      case ElementKind::Vcvs:
      case ElementKind::Ccvs:
        adjacent[static_cast<std::size_t>(e.pos)].push_back(e.neg);
        adjacent[static_cast<std::size_t>(e.neg)].push_back(e.pos);
        break;
      default:
        break;
    }
  }
  // A reduction macro ties its ports together through the resistive
  // interior it collapsed: conductive between every port pair.
  for (const auto& m : ckt_->macros()) {
    for (std::size_t i = 1; i < m.ports.size(); ++i) {
      adjacent[static_cast<std::size_t>(m.ports[0])].push_back(m.ports[i]);
      adjacent[static_cast<std::size_t>(m.ports[i])].push_back(m.ports[0]);
    }
  }
  std::vector<bool> reached(count, false);
  std::queue<circuit::NodeId> frontier;
  reached[static_cast<std::size_t>(kGround)] = true;
  frontier.push(kGround);
  while (!frontier.empty()) {
    const circuit::NodeId at = frontier.front();
    frontier.pop();
    for (const circuit::NodeId next : adjacent[static_cast<std::size_t>(at)]) {
      if (!reached[static_cast<std::size_t>(next)]) {
        reached[static_cast<std::size_t>(next)] = true;
        frontier.push(next);
      }
    }
  }
  std::vector<std::string> names;
  for (std::size_t id = 1; id < count; ++id) {
    if (!reached[id]) {
      names.push_back(ckt_->node_name(static_cast<circuit::NodeId>(id)));
    }
  }
  return names;
}

Solver MnaSystem::factor(double shift) const {
  AWESIM_TRACE_SPAN("mna.factor");
  // Assemble (G + shift*C) triplets, optionally with the gmin retry.
  auto assemble = [&](double gmin) {
    std::vector<la::Triplet> t = g_triplets_;
    t.reserve(t.size() + c_triplets_.size() + dim_);
    for (const auto& trip : c_triplets_) {
      t.push_back({trip.row, trip.col, shift * trip.value});
    }
    if (gmin > 0.0) {
      const std::size_t num_nodes = ckt_->node_count() - 1;
      for (std::size_t i = 0; i < num_nodes; ++i) {
        t.push_back({i, i, gmin});
      }
    }
    return la::SparseMatrix::from_triplets(dim_, dim_, t);
  };

  auto build = [&](double gmin) -> Solver {
    if (core::fault_at("mna.factor")) {
      throw la::SingularMatrixError(0);
    }
    ++solve_stats_.factorizations;
    const la::SparseMatrix m = assemble(gmin);
    if (uses_sparse()) {
      return Solver(la::SparseLu(m));
    }
    return Solver(la::Lu<double>(m.to_dense()));
  };

  // Singular pivot: name the offending nodes instead of surfacing a bare
  // pivot index, then retry with gmin if allowed.
  auto singular_diagnostic = [&](const la::SingularMatrixError& e) {
    core::Diagnostic diag;
    diag.code = core::DiagCode::FloatingNodes;
    diag.severity = core::Severity::Warning;
    const std::vector<std::string> floating = floating_node_names();
    if (floating.empty()) {
      diag.code = core::DiagCode::SingularPivot;
      diag.message = "G factorization hit a singular pivot at index " +
                     std::to_string(e.pivot_index()) +
                     "; no floating nodes found (voltage-source loop or "
                     "degenerate topology?)";
    } else {
      diag.message =
          "G factorization singular: " + std::to_string(floating.size()) +
          " node(s) reachable only through capacitors";
      for (std::size_t i = 0; i < floating.size(); ++i) {
        if (i > 0) diag.node += ", ";
        diag.node += floating[i];
      }
    }
    return diag;
  };

  try {
    return build(0.0);
  } catch (const la::SingularMatrixError& e) {
    core::Diagnostic diag = singular_diagnostic(e);
    if (options_.gmin <= 0.0) {
      diag.severity = core::Severity::Fatal;
      diag.message += "; gmin fallback disabled";
      diagnostics_.push_back(diag);
      throw SingularSystemError(std::move(diag), e.pivot_index());
    }
    // Floating nodes: add gmin from every node to ground and retry.  This
    // realizes the paper's observation that isolated (capacitor-only)
    // nodes need the charge-conservation equation for a steady state; a
    // tiny leak resolves the indeterminacy while leaving the time range
    // of interest unaffected.
    try {
      Solver s = build(options_.gmin);
      used_gmin_ = true;
      core::Diagnostic resolved = diag;
      resolved.code = core::DiagCode::GminFallback;
      resolved.severity = core::Severity::Info;
      resolved.message += "; resolved by gmin leak to ground";
      resolved.condition_estimate = -1.0;
      diagnostics_.push_back(std::move(resolved));
      return s;
    } catch (const la::SingularMatrixError& e2) {
      diag.severity = core::Severity::Fatal;
      diag.message += "; gmin retry failed too";
      diagnostics_.push_back(diag);
      throw SingularSystemError(std::move(diag), e2.pivot_index());
    }
  }
}

const Solver& MnaSystem::g_solver() const {
  if (!g_solver_) g_solver_.emplace(factor(0.0));
  return *g_solver_;
}

la::RealVector MnaSystem::solve(const la::RealVector& rhs) const {
  const Solver& solver = g_solver();
  ++solve_stats_.substitutions;
  return solver.solve(rhs);
}

std::vector<la::RealVector> MnaSystem::solve_multi(
    const std::vector<la::RealVector>& rhs) const {
  const Solver& solver = g_solver();
  solve_stats_.substitutions += rhs.size();
  return solver.solve_multi(rhs);
}

const Solver& MnaSystem::shifted(double a) const {
  auto it = shifted_.find(a);
  if (it == shifted_.end()) {
    it = shifted_.emplace(a, std::make_unique<Solver>(factor(a))).first;
  }
  return *it->second;
}

bool MnaSystem::used_gmin() const {
  g_solver();
  return used_gmin_;
}

la::RealVector MnaSystem::rhs_at(double t) const {
  la::RealVector b = rhs_initial_;
  for (const auto& ev : events_) {
    if (t < ev.time) break;
    const double dt = t - ev.time;
    for (std::size_t i = 0; i < b.size(); ++i) {
      b[i] += ev.value_jump[i] + ev.slope_change[i] * dt;
    }
  }
  return b;
}

la::RealVector MnaSystem::apply_C(const la::RealVector& x) const {
  return c_sparse_.apply(x);
}

}  // namespace awesim::mna
