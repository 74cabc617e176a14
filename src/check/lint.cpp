#include "check/lint.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <set>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "check/partition.h"
#include "netlist/parser.h"
#include "obs/trace.h"

namespace awesim::check {

namespace {

using circuit::Circuit;
using circuit::Element;
using circuit::ElementKind;
using circuit::NodeId;

/// Unit-scale plausibility windows (inclusive).  Values outside emit
/// SuspiciousValue warnings -- wide enough that any physical on-chip,
/// package, or board value passes; a femto-ohm resistor or a
/// kilofarad capacitor is almost always a forgotten suffix.
constexpr double kResistorMinOhms = 1e-6;
constexpr double kResistorMaxOhms = 1e12;
constexpr double kCapacitorMinFarads = 1e-21;
constexpr double kCapacitorMaxFarads = 1e-2;
constexpr double kInductorMinHenries = 1e-15;
constexpr double kInductorMaxHenries = 1e2;

// Branch taxonomy the loop/cutset rules reason over.  A voltage-defined
// branch contributes a KVL row to the MNA system (its current is an
// unknown); a loop of only such branches makes those rows linearly
// dependent.  A conductive branch ties its endpoint voltages together at
// DC; nodes reachable from ground only through non-conductive branches
// have no DC voltage reference.  Current-defined branches inject current
// without constraining voltage.
bool voltage_defined(ElementKind kind) {
  return kind == ElementKind::VoltageSource ||
         kind == ElementKind::Inductor || kind == ElementKind::Vcvs ||
         kind == ElementKind::Ccvs;
}

bool conductive(ElementKind kind) {
  return kind == ElementKind::Resistor || voltage_defined(kind);
}

const char* kind_name(ElementKind kind) {
  switch (kind) {
    case ElementKind::Resistor: return "resistor";
    case ElementKind::Capacitor: return "capacitor";
    case ElementKind::Inductor: return "inductor";
    case ElementKind::VoltageSource: return "voltage source";
    case ElementKind::CurrentSource: return "current source";
    case ElementKind::Vcvs: return "VCVS";
    case ElementKind::Vccs: return "VCCS";
    case ElementKind::Cccs: return "CCCS";
    case ElementKind::Ccvs: return "CCVS";
  }
  return "element";
}

std::string format_value(double v) {
  std::ostringstream out;
  out.precision(6);
  out << v;
  return out.str();
}

/// Join up to `cap` names with commas, appending ", ..." beyond it.
std::string join_names(const std::vector<std::string>& names,
                       std::size_t cap = 8) {
  std::string out;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i >= cap) {
      out += ", ...";
      break;
    }
    if (i > 0) out += ",";
    out += names[i];
  }
  return out;
}

/// Unite every port of every macro: a boundary-block macromodel ties
/// its ports together through the (resistive) interior it collapsed, so
/// the connectivity/cutset rules must treat it as one conductive blob.
void unite_macro_ports(const Circuit& ckt, UnionFind& uf,
                       std::vector<char>* used) {
  for (const auto& m : ckt.macros()) {
    for (std::size_t i = 0; i < m.ports.size(); ++i) {
      const auto id = static_cast<std::size_t>(m.ports[i]);
      if (used != nullptr) (*used)[id] = 1;
      if (i > 0) uf.unite(m.ports[0], m.ports[i]);
    }
  }
}

struct Linter {
  const Circuit& ckt;
  LintReport report;

  void emit(core::DiagCode code, core::Severity severity,
            std::string message, std::string element = {},
            std::string node = {},
            const circuit::SourceLoc* loc = nullptr) {
    core::Diagnostic d;
    d.code = code;
    d.severity = severity;
    d.message = std::move(message);
    d.element = std::move(element);
    d.node = std::move(node);
    if (loc != nullptr) {
      d.file = loc->file;
      d.line = loc->line;
      d.column = loc->column;
    }
    if (severity >= core::Severity::Error) {
      ++report.errors;
    } else if (severity == core::Severity::Warning) {
      ++report.warnings;
    }
    report.diagnostics.push_back(std::move(d));
  }

  // Rule 1: element values.  Re-checks what Circuit::validate throws on
  // (duplicates, self-shorts, non-positive passives) so netlists parsed
  // with the validate gate skipped still surface every problem -- but as
  // located diagnostics, all of them, instead of one thrown string.
  void check_values() {
    std::unordered_set<std::string_view> seen;
    seen.reserve(ckt.elements().size());
    for (const auto& e : ckt.elements()) {
      if (e.name.empty()) {
        emit(core::DiagCode::ValidationError, core::Severity::Error,
             "element with an empty name", {}, {}, &e.loc);
      } else if (!seen.insert(e.name).second) {
        emit(core::DiagCode::ValidationError, core::Severity::Error,
             "duplicate element name", e.name, {}, &e.loc);
      }
      if (e.pos == e.neg) {
        emit(core::DiagCode::ValidationError, core::Severity::Error,
             std::string(kind_name(e.kind)) + " shorts node '" +
                 ckt.node_name(e.pos) + "' to itself",
             e.name, ckt.node_name(e.pos), &e.loc);
      }
      switch (e.kind) {
        case ElementKind::Resistor:
          check_passive_value(e, "ohm", kResistorMinOhms, kResistorMaxOhms);
          break;
        case ElementKind::Capacitor:
          check_passive_value(e, "farad", kCapacitorMinFarads,
                              kCapacitorMaxFarads);
          break;
        case ElementKind::Inductor:
          check_passive_value(e, "henry", kInductorMinHenries,
                              kInductorMaxHenries);
          break;
        case ElementKind::Vcvs:
        case ElementKind::Vccs:
        case ElementKind::Cccs:
        case ElementKind::Ccvs:
          if (!std::isfinite(e.value)) {
            emit(core::DiagCode::ValueOutOfRange, core::Severity::Error,
                 std::string(kind_name(e.kind)) + " gain " +
                     format_value(e.value) + " is not finite",
                 e.name, {}, &e.loc);
          }
          break;
        case ElementKind::VoltageSource:
        case ElementKind::CurrentSource:
          break;
      }
    }
    for (const auto& m : ckt.macros()) {
      if (m.name.empty()) {
        emit(core::DiagCode::ValidationError, core::Severity::Error,
             "macro with an empty name");
      } else if (!seen.insert(m.name).second) {
        emit(core::DiagCode::ValidationError, core::Severity::Error,
             "duplicate element name", m.name);
      }
      const std::size_t dim = m.dim();
      if (m.g.size() != dim * dim || m.c.size() != dim * dim) {
        emit(core::DiagCode::ValidationError, core::Severity::Error,
             "macro stamp size disagrees with ports+states", m.name);
        continue;
      }
      for (const double v : m.g) {
        if (!std::isfinite(v)) {
          emit(core::DiagCode::ValueOutOfRange, core::Severity::Error,
               "macro G stamp entry " + format_value(v) + " is not finite",
               m.name);
          break;
        }
      }
      for (const double v : m.c) {
        if (!std::isfinite(v)) {
          emit(core::DiagCode::ValueOutOfRange, core::Severity::Error,
               "macro C stamp entry " + format_value(v) + " is not finite",
               m.name);
          break;
        }
      }
    }
  }

  void check_passive_value(const Element& e, const char* unit, double lo,
                           double hi) {
    if (!std::isfinite(e.value) || e.value <= 0.0) {
      emit(core::DiagCode::ValueOutOfRange, core::Severity::Error,
           std::string(kind_name(e.kind)) + " value " +
               format_value(e.value) + " " + unit +
               " must be positive and finite",
           e.name, {}, &e.loc);
      return;
    }
    if (e.value < lo || e.value > hi) {
      emit(core::DiagCode::SuspiciousValue, core::Severity::Warning,
           std::string(kind_name(e.kind)) + " value " +
               format_value(e.value) + " " + unit +
               " is far outside the plausible range [" + format_value(lo) +
               ", " + format_value(hi) + "] -- misplaced suffix?",
           e.name, {}, &e.loc);
    }
  }

  // Rule 2: controlled-source dependencies.
  void check_dependencies() {
    const bool any_controlled = std::any_of(
        ckt.elements().begin(), ckt.elements().end(), [](const Element& e) {
          return e.kind == ElementKind::Vcvs || e.kind == ElementKind::Vccs ||
                 e.kind == ElementKind::Cccs || e.kind == ElementKind::Ccvs;
        });
    if (!any_controlled) return;  // the common case pays one scan only

    // Each element by name, first occurrence kept -- the element
    // Circuit::find_element returns -- so every control resolves in one
    // hash lookup.
    std::vector<char> touched(ckt.node_count(), 0);
    touched[circuit::kGround] = 1;
    std::unordered_map<std::string_view, const Element*> by_name;
    by_name.reserve(ckt.elements().size());
    for (const auto& e : ckt.elements()) {
      touched[static_cast<std::size_t>(e.pos)] = 1;
      touched[static_cast<std::size_t>(e.neg)] = 1;
      by_name.try_emplace(e.name, &e);
    }

    for (const auto& e : ckt.elements()) {
      if (e.kind == ElementKind::Cccs || e.kind == ElementKind::Ccvs) {
        const auto found = by_name.find(e.ctrl_source);
        const Element* ctrl = found == by_name.end() ? nullptr : found->second;
        if (ctrl == nullptr) {
          emit(core::DiagCode::DanglingControl, core::Severity::Error,
               std::string(kind_name(e.kind)) +
                   " references unknown control element '" + e.ctrl_source +
                   "'",
               e.name, {}, &e.loc);
        } else if (ctrl->kind != ElementKind::VoltageSource &&
                   ctrl->kind != ElementKind::Inductor) {
          emit(core::DiagCode::DanglingControl, core::Severity::Error,
               std::string(kind_name(e.kind)) + " control element '" +
                   e.ctrl_source +
                   "' carries no branch current (must be a voltage "
                   "source or inductor)",
               e.name, {}, &e.loc);
        }
      }
      if (e.kind == ElementKind::Vcvs || e.kind == ElementKind::Vccs) {
        for (const NodeId ctrl : {e.ctrl_pos, e.ctrl_neg}) {
          if (ctrl != circuit::kGround &&
              !touched[static_cast<std::size_t>(ctrl)]) {
            emit(core::DiagCode::DanglingControl, core::Severity::Error,
                 std::string(kind_name(e.kind)) + " senses node '" +
                     ckt.node_name(ctrl) +
                     "' which no element connects to",
                 e.name, ckt.node_name(ctrl), &e.loc);
          }
        }
      }
    }

    check_control_cycles();
  }

  // Controlled-source dependency cycles via node sensing: S depends on T
  // when S senses a node that T's output terminals touch.  A cycle is
  // not necessarily singular (feedback can be perfectly well-posed), so
  // this is a Warning naming the members.
  void check_control_cycles() {
    const auto& elements = ckt.elements();
    std::vector<std::size_t> ctrl_idx;
    std::map<NodeId, std::vector<std::size_t>> driven_nodes;
    for (std::size_t i = 0; i < elements.size(); ++i) {
      const Element& e = elements[i];
      switch (e.kind) {
        case ElementKind::Vcvs:
        case ElementKind::Vccs:
        case ElementKind::Cccs:
        case ElementKind::Ccvs:
          ctrl_idx.push_back(i);
          if (e.pos != circuit::kGround) driven_nodes[e.pos].push_back(i);
          if (e.neg != circuit::kGround) driven_nodes[e.neg].push_back(i);
          break;
        default:
          break;
      }
    }
    if (ctrl_idx.empty()) return;

    std::map<std::size_t, std::vector<std::size_t>> deps;
    for (const std::size_t i : ctrl_idx) {
      const Element& e = elements[i];
      if (e.kind != ElementKind::Vcvs && e.kind != ElementKind::Vccs) {
        continue;  // branch-sensing sources sense V/L elements only
      }
      for (const NodeId sensed : {e.ctrl_pos, e.ctrl_neg}) {
        const auto it = driven_nodes.find(sensed);
        if (it == driven_nodes.end()) continue;
        for (const std::size_t j : it->second) {
          if (j != i) deps[i].push_back(j);
        }
      }
    }

    // Iterative DFS with a gray/black coloring; the first back edge met
    // from each root reports the cycle on the current stack.  Cycles are
    // deduplicated by member set so overlapping traversals do not spam.
    std::map<std::size_t, int> color;  // 0 white, 1 gray, 2 black
    std::set<std::vector<std::size_t>> reported;
    for (const std::size_t root : ctrl_idx) {
      if (color[root] != 0) continue;
      std::vector<std::size_t> stack{root};
      std::vector<std::size_t> path;
      while (!stack.empty()) {
        const std::size_t cur = stack.back();
        if (color[cur] == 0) {
          color[cur] = 1;
          path.push_back(cur);
          for (const std::size_t next : deps[cur]) {
            if (color[next] == 1) {
              // Cycle: the path suffix from `next` to `cur`.
              const auto begin =
                  std::find(path.begin(), path.end(), next);
              std::vector<std::size_t> members(begin, path.end());
              std::vector<std::size_t> sorted = members;
              std::sort(sorted.begin(), sorted.end());
              if (reported.insert(sorted).second) {
                std::vector<std::string> names;
                names.reserve(members.size());
                for (const std::size_t m : members) {
                  names.push_back(elements[m].name);
                }
                emit(core::DiagCode::ControlCycle,
                     core::Severity::Warning,
                     "controlled sources form a dependency cycle; check "
                     "the feedback gain product",
                     join_names(names), {}, &elements[members.front()].loc);
              }
            } else if (color[next] == 0) {
              stack.push_back(next);
            }
          }
        } else {
          if (color[cur] == 1) {
            color[cur] = 2;
            path.pop_back();
          }
          stack.pop_back();
        }
      }
    }
  }

  // Rule 3: connectivity.  `island` is set for every node reported as
  // part of a fully disconnected island, so the cutset rule does not
  // re-report them at lower severity.
  void check_connectivity(std::vector<char>& island) {
    const std::size_t n = ckt.node_count();
    UnionFind uf(n);
    std::vector<char> used(n, 0);
    used[circuit::kGround] = 1;
    for (const auto& e : ckt.elements()) {
      uf.unite(e.pos, e.neg);
      used[static_cast<std::size_t>(e.pos)] = 1;
      used[static_cast<std::size_t>(e.neg)] = 1;
    }
    unite_macro_ports(ckt, uf, &used);

    for (std::size_t id = 1; id < n; ++id) {
      if (!used[id]) {
        emit(core::DiagCode::FloatingIsland, core::Severity::Warning,
             "node is registered but connected to no element", {},
             ckt.node_name(static_cast<NodeId>(id)));
      }
    }

    for (const auto& group : groups_without_ground(uf, used)) {
      std::vector<std::string> node_names;
      node_names.reserve(group.size());
      std::set<NodeId> members(group.begin(), group.end());
      for (const NodeId id : group) node_names.push_back(ckt.node_name(id));

      std::vector<std::string> element_names;
      const circuit::SourceLoc* loc = nullptr;
      bool has_source = false;
      for (const auto& e : ckt.elements()) {
        if (members.count(e.pos) == 0 && members.count(e.neg) == 0) {
          continue;
        }
        element_names.push_back(e.name);
        if (loc == nullptr) loc = &e.loc;
        if (e.kind == ElementKind::VoltageSource ||
            e.kind == ElementKind::CurrentSource) {
          has_source = true;
        }
      }
      std::ostringstream msg;
      msg << "island of " << group.size()
          << " node(s) has no element path to ground";
      if (has_source) {
        msg << "; the independent source(s) driving it have no return "
               "path and its voltages are undefined";
      } else {
        msg << "; its voltages are pinned to 0 V by the gmin leak only";
      }
      emit(core::DiagCode::FloatingIsland,
           has_source ? core::Severity::Error : core::Severity::Warning,
           msg.str(), join_names(element_names), join_names(node_names),
           loc);
      for (const NodeId id : group) {
        island[static_cast<std::size_t>(id)] = 1;
      }
    }
  }

  // Rule 4a: loops of only voltage-defined branches.  Inserting the
  // branches into a spanning forest, the edge that closes a cycle proves
  // the loop; a BFS through the forest recovers the member elements so
  // the diagnostic can name the whole loop.
  void check_voltage_loops() {
    const std::size_t n = ckt.node_count();
    const auto& elements = ckt.elements();
    UnionFind uf(n);
    std::vector<std::vector<std::pair<NodeId, std::size_t>>> adj(n);
    for (std::size_t i = 0; i < elements.size(); ++i) {
      const Element& e = elements[i];
      if (!voltage_defined(e.kind) || e.pos == e.neg) continue;
      if (uf.unite(e.pos, e.neg)) {
        adj[static_cast<std::size_t>(e.pos)].emplace_back(e.neg, i);
        adj[static_cast<std::size_t>(e.neg)].emplace_back(e.pos, i);
        continue;
      }
      std::vector<std::string> names{e.name};
      std::set<std::string> kinds{kind_name(e.kind)};
      for (const std::size_t m : forest_path(adj, e.pos, e.neg)) {
        names.push_back(elements[m].name);
        kinds.insert(kind_name(elements[m].kind));
      }
      std::ostringstream msg;
      msg << "loop of " << names.size()
          << " voltage-defined branches (";
      bool first = true;
      for (const auto& k : kinds) {
        if (!first) msg << "/";
        msg << k;
        first = false;
      }
      msg << "); their KVL rows are linearly dependent and the MNA "
             "matrix is structurally singular";
      emit(core::DiagCode::InductorLoop, core::Severity::Error, msg.str(),
           join_names(names), {}, &e.loc);
    }
  }

  // Rule 4b: node groups reachable from ground only through
  // current-defined branches (capacitors, current sources, F/G outputs).
  void check_current_cutsets(const std::vector<char>& island) {
    const std::size_t n = ckt.node_count();
    UnionFind uf(n);
    std::vector<char> used(n, 0);
    used[circuit::kGround] = 1;
    for (const auto& e : ckt.elements()) {
      used[static_cast<std::size_t>(e.pos)] = 1;
      used[static_cast<std::size_t>(e.neg)] = 1;
      if (conductive(e.kind)) uf.unite(e.pos, e.neg);
    }
    unite_macro_ports(ckt, uf, &used);

    for (const auto& group : groups_without_ground(uf, used)) {
      if (island[static_cast<std::size_t>(group.front())]) {
        continue;  // already reported as a fully disconnected island
      }
      std::set<NodeId> members(group.begin(), group.end());
      std::vector<std::string> node_names;
      node_names.reserve(group.size());
      for (const NodeId id : group) node_names.push_back(ckt.node_name(id));

      std::vector<std::string> boundary;  // current-defined, touching
      std::vector<std::string> sources;   // independent I among them
      const circuit::SourceLoc* source_loc = nullptr;
      const circuit::SourceLoc* any_loc = nullptr;
      for (const auto& e : ckt.elements()) {
        if (conductive(e.kind)) continue;
        if (members.count(e.pos) == 0 && members.count(e.neg) == 0) {
          continue;
        }
        boundary.push_back(e.name);
        if (any_loc == nullptr) any_loc = &e.loc;
        if (e.kind == ElementKind::CurrentSource) {
          sources.push_back(e.name);
          if (source_loc == nullptr) source_loc = &e.loc;
        }
      }
      if (!sources.empty()) {
        std::ostringstream msg;
        msg << "current source" << (sources.size() > 1 ? "s " : " ")
            << join_names(sources) << " reach"
            << (sources.size() > 1 ? "" : "es") << " node(s) "
            << join_names(node_names)
            << " only through capacitors; no DC path carries the source "
               "current and the operating point is ill-defined";
        emit(core::DiagCode::CapacitorCutset, core::Severity::Error,
             msg.str(), join_names(boundary), join_names(node_names),
             source_loc);
      } else {
        emit(core::DiagCode::FloatingNodes, core::Severity::Warning,
             "node(s) reachable from ground only through capacitors; the "
             "DC operating point exists only via the gmin leak",
             join_names(boundary), join_names(node_names), any_loc);
      }
    }
  }

  // Rule 5: structure classification, via the shared edge classifier
  // (check/partition.h) that src/reduce's reducibility gate also uses.
  TopologyClass classify() const {
    std::vector<Edge> edges;
    edges.reserve(ckt.elements().size());
    for (const auto& e : ckt.elements()) {
      Edge edge;
      edge.a = e.pos;
      edge.b = e.neg;
      switch (e.kind) {
        case ElementKind::Resistor:
        case ElementKind::VoltageSource:
          edge.kind = Edge::Kind::Resistive;
          break;
        case ElementKind::Capacitor:
          edge.kind = Edge::Kind::Capacitive;
          break;
        case ElementKind::Inductor:
          edge.kind = Edge::Kind::Inductive;
          break;
        default:
          edge.kind = Edge::Kind::Other;
          break;
      }
      edges.push_back(edge);
    }
    // A macro is a resistive star over its ports; the reduced interior
    // carries coupled state dynamics no tree bound describes, so a
    // circuit with macros is never better than RcMesh.
    for (const auto& m : ckt.macros()) {
      for (std::size_t i = 1; i < m.ports.size(); ++i) {
        edges.push_back({m.ports[0], m.ports[i], Edge::Kind::Resistive});
      }
    }
    TopologyClass cls = classify_edges(ckt.node_count(), edges);
    if (!ckt.macros().empty()) {
      if (cls == TopologyClass::Empty || cls == TopologyClass::RcTree) {
        cls = TopologyClass::RcMesh;
      }
    }
    return cls;
  }

  /// Connected components over `uf` that do not contain ground,
  /// restricted to nodes marked used, each sorted ascending, the list
  /// ordered by smallest member id (deterministic emit order).
  std::vector<std::vector<NodeId>> groups_without_ground(
      UnionFind& uf, const std::vector<char>& used) {
    std::map<int, std::vector<NodeId>> by_root;
    const int ground_root = uf.find(circuit::kGround);
    for (std::size_t id = 1; id < ckt.node_count(); ++id) {
      if (!used[id]) continue;
      const int root = uf.find(static_cast<int>(id));
      if (root == ground_root) continue;
      by_root[root].push_back(static_cast<NodeId>(id));
    }
    std::vector<std::vector<NodeId>> groups;
    groups.reserve(by_root.size());
    for (auto& [root, members] : by_root) {
      groups.push_back(std::move(members));
    }
    std::sort(groups.begin(), groups.end(),
              [](const auto& a, const auto& b) {
                return a.front() < b.front();
              });
    return groups;
  }

  /// Element indices along the unique forest path from `from` to `to`.
  std::vector<std::size_t> forest_path(
      const std::vector<std::vector<std::pair<NodeId, std::size_t>>>& adj,
      NodeId from, NodeId to) const {
    const std::size_t n = adj.size();
    std::vector<int> prev_node(n, -1);
    std::vector<std::size_t> prev_edge(n, 0);
    std::deque<NodeId> queue{from};
    std::vector<char> seen(n, 0);
    seen[static_cast<std::size_t>(from)] = 1;
    while (!queue.empty()) {
      const NodeId cur = queue.front();
      queue.pop_front();
      if (cur == to) break;
      for (const auto& [next, edge] :
           adj[static_cast<std::size_t>(cur)]) {
        if (seen[static_cast<std::size_t>(next)]) continue;
        seen[static_cast<std::size_t>(next)] = 1;
        prev_node[static_cast<std::size_t>(next)] = cur;
        prev_edge[static_cast<std::size_t>(next)] = edge;
        queue.push_back(next);
      }
    }
    std::vector<std::size_t> path;
    for (NodeId cur = to; cur != from && prev_node[static_cast<std::size_t>(
                                             cur)] >= 0;) {
      path.push_back(prev_edge[static_cast<std::size_t>(cur)]);
      cur = static_cast<NodeId>(prev_node[static_cast<std::size_t>(cur)]);
    }
    return path;
  }
};

}  // namespace

LintReport lint(const circuit::Circuit& ckt, const LintOptions& options) {
  AWESIM_TRACE_SPAN("check.lint");
  Linter linter{ckt, {}};
  linter.check_values();
  linter.check_dependencies();
  std::vector<char> island(ckt.node_count(), 0);
  linter.check_connectivity(island);
  linter.check_voltage_loops();
  linter.check_current_cutsets(island);
  linter.report.topology = linter.classify();
  if (options.classify_note) {
    std::string msg = std::string("structure: ") +
                      to_string(linter.report.topology);
    if (linter.report.topology == TopologyClass::RcTree) {
      msg += " -- first-order AWE reduces exactly to the Elmore "
             "(Penfield-Rubinstein) bound";
    }
    linter.emit(core::DiagCode::TopologyNote, core::Severity::Info,
                std::move(msg));
  }
  return std::move(linter.report);
}

bool index_one_structure(const circuit::Circuit& ckt) {
  const auto n = ckt.node_count();
  // A capacitor/voltage-source loop: with every capacitor (and, to stay
  // conservative, every macro's ports and ground -- a macro may stamp
  // capacitance between any of them) inserted first, a voltage source
  // whose endpoints are already joined closes such a loop.
  UnionFind capacitive(n);
  // An inductor/current-source cutset: a current source whose endpoints
  // no other kind of branch joins.
  UnionFind non_inductive(n);
  for (const auto& m : ckt.macros()) {
    for (const NodeId port : m.ports) {
      capacitive.unite(circuit::kGround, port);
      non_inductive.unite(m.ports.front(), port);
    }
  }
  for (const Element& e : ckt.elements()) {
    switch (e.kind) {
      case ElementKind::Capacitor:
        capacitive.unite(e.pos, e.neg);
        non_inductive.unite(e.pos, e.neg);
        break;
      case ElementKind::Resistor:
      case ElementKind::VoltageSource:
        non_inductive.unite(e.pos, e.neg);
        break;
      case ElementKind::Inductor:
      case ElementKind::CurrentSource:
        break;
      default:
        return false;  // controlled source
    }
  }
  for (const Element& e : ckt.elements()) {
    if (e.kind == ElementKind::VoltageSource &&
        !capacitive.unite(e.pos, e.neg)) {
      return false;
    }
    if (e.kind == ElementKind::CurrentSource &&
        non_inductive.find(e.pos) != non_inductive.find(e.neg)) {
      return false;
    }
  }
  return true;
}

namespace {

// Parse diagnostics first, then the rule pipeline over the built circuit.
LintReport lint_parsed(netlist::ParseResult parsed,
                       const LintOptions& options) {
  LintReport report;
  report.diagnostics = std::move(parsed.diagnostics);
  for (const auto& d : report.diagnostics) {
    if (d.severity >= core::Severity::Error) {
      ++report.errors;
    } else if (d.severity == core::Severity::Warning) {
      ++report.warnings;
    }
  }
  if (parsed.circuit) {
    LintReport rules = lint(*parsed.circuit, options);
    report.topology = rules.topology;
    report.errors += rules.errors;
    report.warnings += rules.warnings;
    report.diagnostics.insert(report.diagnostics.end(),
                              rules.diagnostics.begin(),
                              rules.diagnostics.end());
  }
  return report;
}

}  // namespace

LintReport lint_text(std::string_view text, const std::string& filename,
                     const LintOptions& options) {
  return lint_parsed(
      netlist::parse_collect(text, filename, /*validate=*/false), options);
}

LintReport lint_file(const std::string& path, const LintOptions& options) {
  return lint_parsed(netlist::parse_file_collect(path, /*validate=*/false),
                     options);
}

}  // namespace awesim::check
