// The lumped, linear, time-invariant circuit model that AWE analyzes
// (Section III of the paper): resistors, capacitors (grounded or floating),
// inductors, independent V/I sources with step/ramp/PWL stimuli, the four
// linear controlled sources, and nonequilibrium initial conditions.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "circuit/waveform_spec.h"

namespace awesim::circuit {

/// Node index.  Ground is always node 0 and is named "0" (or "gnd").
using NodeId = int;
inline constexpr NodeId kGround = 0;

enum class ElementKind {
  Resistor,
  Capacitor,
  Inductor,
  VoltageSource,
  CurrentSource,
  Vcvs,  // E: voltage-controlled voltage source
  Vccs,  // G: voltage-controlled current source
  Cccs,  // F: current-controlled current source
  Ccvs,  // H: current-controlled voltage source
};

/// Transparent name hash: lets a std::string-keyed unordered container
/// be probed with a std::string_view, no temporary string.
struct NameHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view name) const noexcept {
    return std::hash<std::string_view>{}(name);
  }
};

/// Where an element came from in netlist source text (1-based; line 0
/// means "not netlist-derived" -- programmatically built circuits carry
/// no locations).  The parser attaches one per element so downstream
/// diagnostics (the src/check lint rules in particular) can point at the
/// offending card as file:line:column.
struct SourceLoc {
  std::string file;
  std::size_t line = 0;
  std::size_t column = 0;

  bool known() const { return line > 0; }
};

/// One circuit element.  Two-terminal elements use (pos, neg); controlled
/// sources additionally reference a controlling node pair (VCVS/VCCS) or a
/// controlling voltage-source element (CCCS/CCVS).
struct Element {
  ElementKind kind{};
  std::string name;
  NodeId pos = kGround;
  NodeId neg = kGround;

  /// R in ohms, C in farads, L in henries, or controlled-source gain.
  double value = 0.0;

  /// Stimulus for independent sources; unused otherwise.
  Stimulus stimulus;

  /// Controlling node pair for VCVS/VCCS.
  NodeId ctrl_pos = kGround;
  NodeId ctrl_neg = kGround;

  /// Name of the controlling voltage source for CCCS/CCVS.
  std::string ctrl_source;

  /// Initial condition: capacitor branch voltage v(pos)-v(neg) or inductor
  /// current (pos -> neg), at t = 0-.
  std::optional<double> initial_condition;

  /// Netlist source location of the card that created this element
  /// (line 0 when built programmatically).
  SourceLoc loc;
};

/// A multiport boundary-block macromodel, produced by hierarchical
/// reduction (src/reduce): the moment-matched equivalent of a collapsed
/// RC subtree, expressed as dense conductance/capacitance stamps over
/// its boundary ports plus `states` reduced internal unknowns.  Stamped
/// directly into the MNA matrices (mna/system.cpp) -- the entries of a
/// congruence-projected block are signed and coupled, so a macro cannot
/// be (and is not) represented as individual R/C elements.
struct MacroElement {
  std::string name;
  /// Boundary nodes, in stamp order.  Ports may repeat ground; ground
  /// rows/columns are dropped at stamp time like any other element.
  std::vector<NodeId> ports;
  /// Number of reduced internal unknowns appended after the ports.
  std::size_t states = 0;
  /// Row-major (ports.size()+states)^2 symmetric stamps: entry (i,j)
  /// adds to G/C between unknown i and unknown j of this macro.
  std::vector<double> g;
  std::vector<double> c;
  /// Series-resistance / total-capacitance sums of the collapsed
  /// elements, so the analytic Elmore bound of a reduced stage equals
  /// the flat stage's bound arithmetic exactly.
  double sum_resistance = 0.0;
  double sum_capacitance = 0.0;

  std::size_t dim() const { return ports.size() + states; }
};

/// A netlist-level circuit: a node name table plus an element list.
///
/// Build programmatically:
///   Circuit c;
///   auto in  = c.node("in");
///   auto out = c.node("out");
///   c.add_vsource("Vin", in, circuit::kGround, Stimulus::step(0, 5));
///   c.add_resistor("R1", in, out, 1e3);
///   c.add_capacitor("C1", out, circuit::kGround, 1e-12);
/// or parse from a SPICE-like netlist (see netlist/parser.h).
class Circuit {
 public:
  Circuit();

  /// Get-or-create a node by name.  "0", "gnd", and "GND" map to ground.
  /// Ids are handed out in order of first appearance.
  NodeId node(std::string_view name);

  /// Look up an existing node; throws std::out_of_range if absent.
  NodeId find_node(std::string_view name) const;

  /// Name of a node id.
  const std::string& node_name(NodeId id) const;

  /// Number of nodes including ground.
  std::size_t node_count() const { return node_names_.size(); }

  /// Capacity hint: room for `elements` elements and `nodes` nodes
  /// (ground included) without regrowing.  Changes no content.
  void reserve(std::size_t elements, std::size_t nodes);

  const std::vector<Element>& elements() const { return elements_; }

  /// Boundary-block macromodels (usually none; see MacroElement).
  const std::vector<MacroElement>& macros() const { return macros_; }

  /// Add a reduction macromodel.  Throws std::invalid_argument when the
  /// stamp dimensions disagree with ports/states, a port id is out of
  /// range, or any stamp entry is non-finite.
  MacroElement& add_macro(MacroElement macro);

  Element& add_resistor(std::string name, NodeId pos, NodeId neg,
                        double ohms);
  Element& add_capacitor(std::string name, NodeId pos, NodeId neg,
                         double farads,
                         std::optional<double> initial_voltage = {});
  Element& add_inductor(std::string name, NodeId pos, NodeId neg,
                        double henries,
                        std::optional<double> initial_current = {});
  Element& add_vsource(std::string name, NodeId pos, NodeId neg,
                       Stimulus stimulus);
  Element& add_isource(std::string name, NodeId pos, NodeId neg,
                       Stimulus stimulus);
  Element& add_vcvs(std::string name, NodeId pos, NodeId neg, NodeId cpos,
                    NodeId cneg, double gain);
  Element& add_vccs(std::string name, NodeId pos, NodeId neg, NodeId cpos,
                    NodeId cneg, double transconductance);
  Element& add_cccs(std::string name, NodeId pos, NodeId neg,
                    std::string ctrl_vsource, double gain);
  Element& add_ccvs(std::string name, NodeId pos, NodeId neg,
                    std::string ctrl_vsource, double transresistance);

  /// Set the initial voltage of a node (the SPICE .ic card).  Node initial
  /// voltages and element initial conditions may both be given; element
  /// conditions take precedence for their branch.
  void set_initial_node_voltage(NodeId node, double volts);

  const std::map<NodeId, double>& initial_node_voltages() const {
    return initial_node_voltages_;
  }

  /// Find an element by (case-sensitive) name; nullptr if absent.
  const Element* find_element(std::string_view name) const;

  /// Throws std::invalid_argument describing the first structural problem:
  /// a node no element or macro port touches (lowest id first), then, in
  /// element order, an empty or duplicate element name (reported at its
  /// second occurrence), a non-positive R/C/L value, a dangling
  /// controlled-source reference, a CCCS/CCVS controlling element that is
  /// not a voltage source or inductor, or an element shorting a node to
  /// itself.  Linear in the circuit's size.
  void validate() const;

 private:
  Element& add(Element e);

  std::vector<std::string> node_names_;
  // Lookup only (ids come from node_names_ order, never from hash order).
  std::unordered_map<std::string, NodeId, NameHash, std::equal_to<>>
      node_ids_;
  std::vector<Element> elements_;
  std::vector<MacroElement> macros_;
  std::map<NodeId, double> initial_node_voltages_;
};

}  // namespace awesim::circuit
