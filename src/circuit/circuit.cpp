#include "circuit/circuit.h"

#include <cmath>
#include <unordered_set>

namespace awesim::circuit {

Circuit::Circuit() {
  node_names_.push_back("0");
  node_ids_.emplace("0", kGround);
}

NodeId Circuit::node(std::string_view name) {
  if (name == "0" || name == "gnd" || name == "GND") return kGround;
  auto it = node_ids_.find(name);
  if (it != node_ids_.end()) return it->second;
  const NodeId id = static_cast<NodeId>(node_names_.size());
  node_names_.emplace_back(name);
  node_ids_.emplace(std::string(name), id);
  return id;
}

NodeId Circuit::find_node(std::string_view name) const {
  if (name == "0" || name == "gnd" || name == "GND") return kGround;
  auto it = node_ids_.find(name);
  if (it == node_ids_.end()) {
    throw std::out_of_range("Circuit: unknown node '" + std::string(name) +
                            "'");
  }
  return it->second;
}

void Circuit::reserve(std::size_t elements, std::size_t nodes) {
  elements_.reserve(elements);
  node_names_.reserve(nodes);
  node_ids_.reserve(nodes);
}

const std::string& Circuit::node_name(NodeId id) const {
  return node_names_.at(static_cast<std::size_t>(id));
}

Element& Circuit::add(Element e) {
  elements_.push_back(std::move(e));
  return elements_.back();
}

Element& Circuit::add_resistor(std::string name, NodeId pos, NodeId neg,
                               double ohms) {
  return add({.kind = ElementKind::Resistor,
              .name = std::move(name),
              .pos = pos,
              .neg = neg,
              .value = ohms});
}

Element& Circuit::add_capacitor(std::string name, NodeId pos, NodeId neg,
                                double farads,
                                std::optional<double> initial_voltage) {
  Element e{.kind = ElementKind::Capacitor,
            .name = std::move(name),
            .pos = pos,
            .neg = neg,
            .value = farads};
  e.initial_condition = initial_voltage;
  return add(std::move(e));
}

Element& Circuit::add_inductor(std::string name, NodeId pos, NodeId neg,
                               double henries,
                               std::optional<double> initial_current) {
  Element e{.kind = ElementKind::Inductor,
            .name = std::move(name),
            .pos = pos,
            .neg = neg,
            .value = henries};
  e.initial_condition = initial_current;
  return add(std::move(e));
}

Element& Circuit::add_vsource(std::string name, NodeId pos, NodeId neg,
                              Stimulus stimulus) {
  Element e{.kind = ElementKind::VoltageSource,
            .name = std::move(name),
            .pos = pos,
            .neg = neg};
  e.stimulus = std::move(stimulus);
  return add(std::move(e));
}

Element& Circuit::add_isource(std::string name, NodeId pos, NodeId neg,
                              Stimulus stimulus) {
  Element e{.kind = ElementKind::CurrentSource,
            .name = std::move(name),
            .pos = pos,
            .neg = neg};
  e.stimulus = std::move(stimulus);
  return add(std::move(e));
}

Element& Circuit::add_vcvs(std::string name, NodeId pos, NodeId neg,
                           NodeId cpos, NodeId cneg, double gain) {
  return add({.kind = ElementKind::Vcvs,
              .name = std::move(name),
              .pos = pos,
              .neg = neg,
              .value = gain,
              .ctrl_pos = cpos,
              .ctrl_neg = cneg});
}

Element& Circuit::add_vccs(std::string name, NodeId pos, NodeId neg,
                           NodeId cpos, NodeId cneg,
                           double transconductance) {
  return add({.kind = ElementKind::Vccs,
              .name = std::move(name),
              .pos = pos,
              .neg = neg,
              .value = transconductance,
              .ctrl_pos = cpos,
              .ctrl_neg = cneg});
}

Element& Circuit::add_cccs(std::string name, NodeId pos, NodeId neg,
                           std::string ctrl_vsource, double gain) {
  Element e{.kind = ElementKind::Cccs,
            .name = std::move(name),
            .pos = pos,
            .neg = neg,
            .value = gain};
  e.ctrl_source = std::move(ctrl_vsource);
  return add(std::move(e));
}

Element& Circuit::add_ccvs(std::string name, NodeId pos, NodeId neg,
                           std::string ctrl_vsource,
                           double transresistance) {
  Element e{.kind = ElementKind::Ccvs,
            .name = std::move(name),
            .pos = pos,
            .neg = neg,
            .value = transresistance};
  e.ctrl_source = std::move(ctrl_vsource);
  return add(std::move(e));
}

MacroElement& Circuit::add_macro(MacroElement macro) {
  if (macro.name.empty()) {
    throw std::invalid_argument("Circuit: macro with empty name");
  }
  const std::size_t dim = macro.dim();
  if (macro.g.size() != dim * dim || macro.c.size() != dim * dim) {
    throw std::invalid_argument("Circuit: macro '" + macro.name +
                                "' stamp size disagrees with ports+states");
  }
  for (const NodeId port : macro.ports) {
    if (port < 0 || static_cast<std::size_t>(port) >= node_names_.size()) {
      throw std::invalid_argument("Circuit: macro '" + macro.name +
                                  "' references an unknown node id");
    }
  }
  for (const double v : macro.g) {
    if (!std::isfinite(v)) {
      throw std::invalid_argument("Circuit: macro '" + macro.name +
                                  "' has a non-finite G entry");
    }
  }
  for (const double v : macro.c) {
    if (!std::isfinite(v)) {
      throw std::invalid_argument("Circuit: macro '" + macro.name +
                                  "' has a non-finite C entry");
    }
  }
  macros_.push_back(std::move(macro));
  return macros_.back();
}

void Circuit::set_initial_node_voltage(NodeId node, double volts) {
  if (node == kGround) {
    throw std::invalid_argument("Circuit: cannot set IC on ground");
  }
  initial_node_voltages_[node] = volts;
}

const Element* Circuit::find_element(std::string_view name) const {
  for (const auto& e : elements_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

void Circuit::validate() const {
  // Every registered node must touch at least one element; a dangling
  // node would make the MNA matrix structurally singular with a far less
  // helpful error.  Ids outside the node table touch nothing.
  std::vector<char> touched(node_names_.size(), 0);
  auto touch = [&](NodeId id) {
    if (id >= 0 && static_cast<std::size_t>(id) < touched.size()) {
      touched[static_cast<std::size_t>(id)] = 1;
    }
  };
  touch(kGround);
  for (const auto& e : elements_) {
    touch(e.pos);
    touch(e.neg);
  }
  for (const auto& m : macros_) {
    for (const NodeId port : m.ports) touch(port);
  }
  for (std::size_t id = 1; id < node_names_.size(); ++id) {
    if (!touched[id]) {
      throw std::invalid_argument("Circuit: node '" + node_names_[id] +
                                  "' is not connected to any element");
    }
  }

  std::unordered_set<std::string_view> names;
  names.reserve(elements_.size());
  // First element of each name, built on the first CCCS/CCVS: a control
  // may name an element that comes later in the list.
  std::unordered_map<std::string_view, const Element*> first_named;
  for (const auto& e : elements_) {
    if (e.name.empty()) {
      throw std::invalid_argument("Circuit: element with empty name");
    }
    if (!names.insert(e.name).second) {
      throw std::invalid_argument("Circuit: duplicate element name '" +
                                  e.name + "'");
    }
    switch (e.kind) {
      case ElementKind::Resistor:
      case ElementKind::Capacitor:
      case ElementKind::Inductor:
        if (!(e.value > 0.0)) {
          throw std::invalid_argument("Circuit: element '" + e.name +
                                      "' must have a positive value");
        }
        break;
      case ElementKind::Cccs:
      case ElementKind::Ccvs: {
        if (first_named.empty()) {
          first_named.reserve(elements_.size());
          for (const auto& c : elements_) first_named.try_emplace(c.name, &c);
        }
        const auto it = first_named.find(e.ctrl_source);
        if (it == first_named.end()) {
          throw std::invalid_argument("Circuit: '" + e.name +
                                      "' references unknown control source '" +
                                      e.ctrl_source + "'");
        }
        const Element* ctrl = it->second;
        if (ctrl->kind != ElementKind::VoltageSource &&
            ctrl->kind != ElementKind::Inductor) {
          throw std::invalid_argument(
              "Circuit: '" + e.name +
              "' control element must be a voltage source or inductor");
        }
        break;
      }
      default:
        break;
    }
    if (e.pos == e.neg) {
      throw std::invalid_argument("Circuit: element '" + e.name +
                                  "' shorts a node to itself");
    }
  }
}

}  // namespace awesim::circuit
