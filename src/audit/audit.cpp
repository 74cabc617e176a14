#include "audit/audit.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "audit/design_netlist.h"
#include "timing/stage_cache.h"

namespace awesim::audit {

namespace {

/// Collects diagnostics with the shared severity tally and optional
/// source provenance.
struct Emitter {
  AuditReport* report;
  const DesignSourceMap* sources;

  void emit(core::DiagCode code, core::Severity severity,
            std::string message, std::string element,
            const circuit::SourceLoc& loc,
            double condition_estimate = -1.0) {
    core::Diagnostic d;
    d.code = code;
    d.severity = severity;
    d.message = std::move(message);
    d.element = std::move(element);
    d.condition_estimate = condition_estimate;
    if (loc.known()) {
      d.file = loc.file;
      d.line = loc.line;
      d.column = loc.column;
    }
    switch (severity) {
      case core::Severity::Info: ++report->infos; break;
      case core::Severity::Warning: ++report->warnings; break;
      default: ++report->errors; break;
    }
    report->diagnostics.push_back(std::move(d));
  }

  circuit::SourceLoc gate_loc(const std::string& gate) const {
    return sources == nullptr ? circuit::SourceLoc{} : sources->gate_loc(gate);
  }
  circuit::SourceLoc net_loc(const std::string& net) const {
    return sources == nullptr ? circuit::SourceLoc{} : sources->net_loc(net);
  }
  circuit::SourceLoc element_loc(const std::string& net,
                                 std::size_t index) const {
    return sources == nullptr ? circuit::SourceLoc{}
                              : sources->element_loc(net, index);
  }
};

void run_graph_tier(const timing::Design& design,
                    const AuditOptions& options, Emitter& em) {
  AuditReport& report = *em.report;
  report.graph = timing::audit_graph(design, options.graph);
  for (const timing::CyclePath& cycle : report.graph.cycles) {
    em.emit(core::DiagCode::CombinationalCycle, core::Severity::Error,
            "combinational cycle: " + timing::format_loop(cycle),
            cycle.gates.front(), em.gate_loc(cycle.gates.front()));
  }
  for (const std::string& gate : report.graph.undriven) {
    em.emit(core::DiagCode::UndrivenEndpoint, core::Severity::Warning,
            "gate '" + gate +
                "' has no driving net and no primary-input declaration; "
                "its arrival is silently pinned to t = 0",
            gate, em.gate_loc(gate));
  }
  for (const std::string& gate : report.graph.unreachable) {
    em.emit(core::DiagCode::DeadLogic, core::Severity::Warning,
            "gate '" + gate + "' is unreachable from every source",
            gate, em.gate_loc(gate));
  }
  for (const std::string& net : report.graph.sinkless_nets) {
    em.emit(core::DiagCode::DeadLogic, core::Severity::Warning,
            "net '" + net + "' drives no sink; the driver output is unused",
            net, em.net_loc(net));
  }
  for (const timing::FanoutRecord& f : report.graph.fanout_explosions) {
    std::ostringstream msg;
    msg << "net '" << f.net << "' fans out to " << f.fanout
        << " sinks (threshold " << options.graph.fanout_threshold
        << "); the stage delay model and the physical net are both "
           "suspect";
    em.emit(core::DiagCode::FanoutExplosion, core::Severity::Warning,
            msg.str(), f.net, em.net_loc(f.net));
  }
  for (const timing::ReconvergenceRecord& r : report.graph.reconvergences) {
    std::ostringstream msg;
    msg << "gate '" << r.gate << "' sits behind >= " << r.paths
        << " source-to-pin paths at depth " << r.depth
        << "; path-based queries here are exponential";
    em.emit(core::DiagCode::ReconvergentFanout, core::Severity::Info,
            msg.str(), r.gate, em.gate_loc(r.gate));
  }
}

/// Oracle input for one stage: the driving gate's resistance as a
/// leading element from a virtual ideal-source node, the net's
/// parasitics verbatim, and each known sink pin's input capacitance as
/// a grounded cap at its hookup node.
check::OracleInput stage_oracle_input(const timing::Design& design,
                                      const std::string& driver,
                                      const timing::Net& net) {
  check::OracleInput input;
  input.source = "\x01src";  // never collides with a netlist node name
  input.elements.reserve(net.parasitics.size() + net.sink_node.size() + 1);
  const auto gate_it = design.gates().find(driver);
  input.elements.push_back({check::OracleElement::Kind::Resistor,
                            input.source, "DRV",
                            gate_it == design.gates().end()
                                ? 0.0
                                : gate_it->second.drive_resistance});
  for (const timing::NetElement& e : net.parasitics) {
    check::OracleElement::Kind kind = check::OracleElement::Kind::Resistor;
    switch (e.kind) {
      case timing::NetElement::Kind::Resistor:
        kind = check::OracleElement::Kind::Resistor;
        break;
      case timing::NetElement::Kind::Capacitor:
        kind = check::OracleElement::Kind::Capacitor;
        break;
      case timing::NetElement::Kind::Inductor:
        kind = check::OracleElement::Kind::Inductor;
        break;
    }
    input.elements.push_back({kind, e.node_a, e.node_b, e.value});
  }
  for (const auto& [sink, node] : net.sink_node) {
    const auto sink_it = design.gates().find(sink);
    if (sink_it == design.gates().end()) continue;  // design output
    input.elements.push_back({check::OracleElement::Kind::Capacitor, node,
                              "0", sink_it->second.input_capacitance});
  }
  return input;
}

void run_conditioning_tier(const timing::Design& design,
                           const AuditOptions& options,
                           const std::vector<std::string>& content_keys,
                           Emitter& em) {
  AuditReport& report = *em.report;
  report.nets.reserve(design.net_count());
  // Isomorphic nets in the same electrical context -- equal content key
  // (name-agnostic topology + values) AND equal driver resistance and
  // sink pin caps -- have identical estimates, so the oracle runs once
  // per distinct cell and every other instance copies the answer.  On
  // repeated-cell fabrics (the mega_design shape) this is what keeps
  // the whole pre-flight a rounding error next to the analysis.
  std::unordered_map<std::string, std::size_t> memo;  // key -> nets index
  memo.reserve(design.net_count());
  for (std::size_t i = 0; i < design.net_count(); ++i) {
    const timing::Net& net = design.net_at(i);
    NetAssessment assessment;
    assessment.net = net.name;
    assessment.driver = design.net_driver(i);
    timing::detail::KeyBuilder kb;
    kb.reserve(content_keys[i].size() + 16 * (net.sink_node.size() + 2));
    kb.text(content_keys[i]).tag('G');
    const auto gate_it = design.gates().find(assessment.driver);
    kb.number(gate_it == design.gates().end()
                  ? 0.0
                  : gate_it->second.drive_resistance);
    for (const auto& [sink, node] : net.sink_node) {
      (void)node;
      const auto sink_it = design.gates().find(sink);
      kb.number(sink_it == design.gates().end()
                    ? -1.0  // design output: no pin cap
                    : sink_it->second.input_capacitance);
    }
    const auto [memo_it, fresh] = memo.try_emplace(kb.take(), i);
    if (!fresh) {
      const NetAssessment& donor = report.nets[memo_it->second];
      assessment.eligibility = donor.eligibility;
      assessment.estimate = donor.estimate;
    } else {
      assessment.eligibility = reduce::net_eligibility(net, options.reduce);
      assessment.estimate = check::assess(
          stage_oracle_input(design, assessment.driver, net),
          options.oracle);
    }
    if (assessment.estimate.hazard) {
      em.emit(core::DiagCode::ConditioningHazard, core::Severity::Warning,
              "net '" + net.name + "': " + assessment.estimate.detail,
              net.name, em.net_loc(net.name),
              check::hankel_condition(assessment.estimate.spread,
                                      options.oracle.target_order));
    }
    report.nets.push_back(std::move(assessment));
  }
}

/// The value-less shape of a net: reduction_content_key bytes with
/// every element value skipped (and no options -- shape is a property
/// of the net alone).  Two nets with equal shape keys are isomorphic up
/// to their value vectors.
std::string shape_key(const timing::Net& net) {
  timing::detail::KeyBuilder kb;
  kb.reserve(32 + net.parasitics.size() * 24);
  kb.tag('S').integer(net.parasitics.size());
  for (const timing::NetElement& e : net.parasitics) {
    kb.integer(static_cast<std::uint64_t>(e.kind))
        .text(e.node_a)
        .text(e.node_b);
  }
  kb.tag('B').integer(net.sink_node.size() + 1).text("DRV");
  for (const auto& [gate, node] : net.sink_node) {
    (void)gate;
    kb.text(node);
  }
  return kb.take();
}

void run_repetition_tier(const timing::Design& design,
                         const std::vector<std::string>& content_keys,
                         Emitter& em) {
  AuditReport& report = *em.report;
  // Exact groups: the \x01R content key discipline from src/reduce --
  // name-agnostic, so instances of one cell under different names
  // collide on purpose.
  std::map<std::string, std::vector<std::size_t>> exact;
  std::map<std::string, std::vector<std::size_t>> shapes;
  for (std::size_t i = 0; i < design.net_count(); ++i) {
    const timing::Net& net = design.net_at(i);
    exact[content_keys[i]].push_back(i);
    shapes[shape_key(net)].push_back(i);
  }

  // Deterministic report order: groups by first-member net index.
  std::vector<const std::vector<std::size_t>*> groups;
  for (const auto& [key, members] : exact) {
    (void)key;
    if (members.size() >= 2) groups.push_back(&members);
  }
  std::sort(groups.begin(), groups.end(),
            [](const auto* a, const auto* b) {
              return a->front() < b->front();
            });
  for (const auto* members : groups) {
    RepetitionGroup group;
    group.representative = design.net_at(members->front()).name;
    std::string listing;
    for (const std::size_t i : *members) {
      group.members.push_back(design.net_at(i).name);
      if (!listing.empty()) listing += ", ";
      listing += design.net_at(i).name;
    }
    std::ostringstream msg;
    msg << members->size() << " nets share one reduction-store entry ("
        << listing << "): 1 collapse, " << members->size() - 1
        << " rehydration(s)";
    em.emit(core::DiagCode::RepeatedStructure, core::Severity::Info,
            msg.str(), group.representative,
            em.net_loc(group.representative));
    report.repeated.push_back(std::move(group));
  }

  // Near-misses: same shape, value vectors differing in exactly one
  // entry, and not already exact duplicates.  Each shape group compares
  // against its first member only (O(n) in nets, deterministic).
  std::vector<const std::vector<std::size_t>*> shape_groups;
  for (const auto& [key, members] : shapes) {
    (void)key;
    if (members.size() >= 2) shape_groups.push_back(&members);
  }
  std::sort(shape_groups.begin(), shape_groups.end(),
            [](const auto* a, const auto* b) {
              return a->front() < b->front();
            });
  for (const auto* members : shape_groups) {
    const timing::Net& rep = design.net_at(members->front());
    for (std::size_t k = 1; k < members->size(); ++k) {
      const timing::Net& other = design.net_at((*members)[k]);
      std::size_t diffs = 0, diff_index = 0;
      for (std::size_t e = 0; e < rep.parasitics.size() && diffs < 2; ++e) {
        if (rep.parasitics[e].value != other.parasitics[e].value) {
          ++diffs;
          diff_index = e;
        }
      }
      if (diffs != 1) continue;
      NearMiss miss;
      miss.net_a = rep.name;
      miss.net_b = other.name;
      miss.element_index = diff_index;
      miss.value_a = rep.parasitics[diff_index].value;
      miss.value_b = other.parasitics[diff_index].value;
      std::ostringstream msg;
      msg << "nets '" << rep.name << "' and '" << other.name
          << "' are identical up to one value (element " << diff_index
          << ": " << miss.value_a << " vs " << miss.value_b
          << "); aligning them would dedup the reduction";
      circuit::SourceLoc loc = em.element_loc(other.name, diff_index);
      if (!loc.known()) loc = em.net_loc(other.name);
      em.emit(core::DiagCode::NearDuplicate, core::Severity::Warning,
              msg.str(), other.name, loc);
      report.near_misses.push_back(std::move(miss));
    }
  }
}

}  // namespace

AuditReport audit_design(const timing::Design& design,
                         const AuditOptions& options,
                         const DesignSourceMap* sources) {
  AuditReport report;
  Emitter em{&report, sources};
  if (options.graph_rules) run_graph_tier(design, options, em);
  // The name-agnostic content keys are shared infrastructure: the
  // conditioning tier dedups oracle calls across isomorphic nets, the
  // repetition tier groups by them -- serialize each net exactly once.
  std::vector<std::string> content_keys;
  if (options.conditioning || options.repetition) {
    content_keys.reserve(design.net_count());
    for (std::size_t i = 0; i < design.net_count(); ++i) {
      content_keys.push_back(
          reduce::reduction_content_key(design.net_at(i), options.reduce));
    }
  }
  if (options.conditioning) {
    run_conditioning_tier(design, options, content_keys, em);
  }
  if (options.repetition) run_repetition_tier(design, content_keys, em);
  return report;
}

AuditReport audit_circuit(const circuit::Circuit& circuit,
                          const AuditOptions& options,
                          const std::string& filename) {
  AuditReport report;
  if (!options.conditioning) return report;
  NetAssessment assessment;
  assessment.net = filename.empty() ? "circuit" : filename;
  assessment.estimate = check::assess_circuit(circuit, options.oracle);
  if (assessment.estimate.hazard) {
    core::Diagnostic d;
    d.code = core::DiagCode::ConditioningHazard;
    d.severity = core::Severity::Warning;
    d.message = assessment.estimate.detail;
    d.file = filename;
    d.condition_estimate = check::hankel_condition(
        assessment.estimate.spread, options.oracle.target_order);
    ++report.warnings;
    report.diagnostics.push_back(std::move(d));
  }
  report.nets.push_back(std::move(assessment));
  return report;
}

}  // namespace awesim::audit
