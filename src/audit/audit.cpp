#include "audit/audit.h"

#include <algorithm>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "audit/design_netlist.h"
#include "core/parallel.h"
#include "obs/trace.h"
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

using reduce::ContentClasses;

check::OracleElement::Kind oracle_kind(timing::NetElement::Kind kind) {
  switch (kind) {
    case timing::NetElement::Kind::Capacitor:
      return check::OracleElement::Kind::Capacitor;
    case timing::NetElement::Kind::Inductor:
      return check::OracleElement::Kind::Inductor;
    default:
      return check::OracleElement::Kind::Resistor;
  }
}

/// The class work on one content class: its reduction eligibility and
/// the class half of a stage's oracle input -- a virtual ideal-source
/// node whose driver edge to "DRV" each instance fills with its driving
/// gate's resistance, the net's parasitics verbatim, and every boundary
/// node interned so an instance's sink pins find their node ids.  One
/// node table serves both.
struct CellWork {
  reduce::Eligibility eligibility = reduce::Eligibility::Eligible;
  check::OracleTopology topology;
  /// Boundary node name -> node id (views into the class's first net).
  std::unordered_map<std::string_view, int> pins;
};

CellWork cell_work(const timing::Net& net,
                       const reduce::ReduceOptions& options) {
  CellWork cell;
  check::OracleTopologyBuilder builder(net.parasitics.size());
  reduce::InternedNet interned;
  interned.edges.reserve(net.parasitics.size());
  const int driver = builder.node("DRV");
  for (const timing::NetElement& e : net.parasitics) {
    const int a = builder.node(e.node_a);
    const int b = builder.node(e.node_b);
    builder.add(oracle_kind(e.kind), a, b, e.value);
    interned.add(e.kind, a, b);
  }
  cell.pins.emplace("DRV", driver);
  interned.boundary_nodes = 1;
  for (const auto& [sink, node] : net.sink_node) {
    (void)sink;
    const int id = builder.node(node);
    if (cell.pins.try_emplace(node, id).second && id != 0) {
      ++interned.boundary_nodes;
    }
  }
  interned.ports = cell.pins.size();
  interned.nodes = builder.nodes() - 1;
  cell.eligibility = reduce::net_eligibility(net, interned, options);
  // The source last, so the content's ids come first ("\x01src" never
  // collides with a netlist node name).
  const int source = builder.node("\x01src");
  cell.topology = std::move(builder).build(source, driver,
                                           /*nonequilibrium_ic=*/false);
  return cell;
}

void run_conditioning_tier(const timing::Design& design,
                           const AuditOptions& options,
                           const ContentClasses& classes,
                           core::ThreadPool& pool, Emitter& em) {
  AuditReport& report = *em.report;
  report.nets.resize(design.net_count());
  // On the pool, a class per job: the class work once, then per member
  // only the instance's driver resistance and sink pin caps go through
  // the numeric step, each into the member's own slot.
  pool.parallel_for(classes.members.size(), [&](std::size_t c) {
    const std::vector<std::size_t>& members = classes.members[c];
    CellWork cell;
    {
      AWESIM_TRACE_SPAN("audit.cell");
      cell = cell_work(design.net_at(members.front()), options.reduce);
    }
    check::OracleInstance instance;
    for (const std::size_t i : members) {
      const timing::Net& net = design.net_at(i);
      const auto gate_it = design.gates().find(design.net_driver(i));
      instance.drive = gate_it == design.gates().end()
                           ? 0.0
                           : gate_it->second.drive_resistance;
      instance.pin_caps.clear();
      for (const auto& [sink, node] : net.sink_node) {
        const auto sink_it = design.gates().find(sink);
        if (sink_it == design.gates().end()) continue;  // design output
        instance.pin_caps.emplace_back(cell.pins.at(node),
                                       sink_it->second.input_capacitance);
      }
      NetAssessment& assessment = report.nets[i];
      assessment.eligibility = cell.eligibility;
      assessment.estimate =
          check::assess(cell.topology, instance, options.oracle);
    }
  });
  // Serially, in net order: names and diagnostics.
  for (std::size_t i = 0; i < design.net_count(); ++i) {
    const timing::Net& net = design.net_at(i);
    NetAssessment& assessment = report.nets[i];
    assessment.net = net.name;
    assessment.driver = design.net_driver(i);
    if (assessment.estimate.hazard) {
      em.emit(core::DiagCode::ConditioningHazard, core::Severity::Warning,
              "net '" + net.name + "': " + assessment.estimate.detail,
              net.name, em.net_loc(net.name),
              check::hankel_condition(assessment.estimate.spread,
                                      options.oracle.target_order));
    }
  }
}

/// The value-less parasitics of a net: reduction_content_key's element
/// records with every value skipped.  Nets with equal skeletons and
/// equal sink-node lists are isomorphic up to their value vectors.
std::string skeleton_key(const timing::Net& net) {
  timing::detail::KeyBuilder kb;
  kb.reserve(16 + net.parasitics.size() * 24);
  kb.integer(net.parasitics.size());
  for (const timing::NetElement& e : net.parasitics) {
    kb.integer(static_cast<std::uint64_t>(e.kind))
        .text(e.node_a)
        .text(e.node_b);
  }
  return kb.take();
}

void run_repetition_tier(const timing::Design& design,
                         const ContentClasses& classes,
                         core::ThreadPool& pool, Emitter& em) {
  AuditReport& report = *em.report;
  // Exact groups are the content classes: the \x01R content key
  // discipline from src/reduce -- name-agnostic, so instances of one
  // cell under different names collide on purpose.
  for (const std::vector<std::size_t>& members : classes.members) {
    if (members.size() < 2) continue;
    RepetitionGroup group;
    group.representative = design.net_at(members.front()).name;
    std::string listing;
    for (const std::size_t i : members) {
      group.members.push_back(design.net_at(i).name);
      if (!listing.empty()) listing += ", ";
      listing += design.net_at(i).name;
    }
    std::ostringstream msg;
    msg << members.size() << " nets share one reduction-store entry ("
        << listing << "): 1 collapse, " << members.size() - 1
        << " rehydration(s)";
    em.emit(core::DiagCode::RepeatedStructure, core::Severity::Info,
            msg.str(), group.representative,
            em.net_loc(group.representative));
    report.repeated.push_back(std::move(group));
  }

  // Shape groups: the class's skeleton plus each net's sink-node order,
  // formed in net order (so groups come in first-member order).  The
  // skeletons are serialized on the pool a batch of classes at a time
  // and numbered serially in class order.  A skeleton the map keeps is
  // copied there, so what outlives a batch is allocated by the calling
  // thread, not left in the pool threads' allocator arenas.  Both maps
  // are lookup-only.
  const std::size_t class_count = classes.members.size();
  std::unordered_map<std::string, std::size_t> skeletons;
  std::vector<std::size_t> class_skeleton;
  class_skeleton.reserve(class_count);
  const std::size_t batch = 64 * pool.size();
  std::vector<std::string> skeleton(std::min(batch, class_count));
  for (std::size_t start = 0; start < class_count; start += batch) {
    const std::size_t count = std::min(batch, class_count - start);
    pool.parallel_for(count, [&](std::size_t k) {
      skeleton[k] =
          skeleton_key(design.net_at(classes.members[start + k].front()));
    });
    for (std::size_t k = 0; k < count; ++k) {
      class_skeleton.push_back(
          skeletons.try_emplace(skeleton[k], skeletons.size()).first->second);
    }
  }
  skeleton = {};
  std::unordered_map<std::string, std::size_t> shape_index;
  std::vector<std::vector<std::size_t>> shapes;
  for (std::size_t i = 0; i < design.net_count(); ++i) {
    const timing::Net& net = design.net_at(i);
    timing::detail::KeyBuilder kb;
    kb.integer(class_skeleton[classes.of_net[i]])
        .integer(net.sink_node.size());
    for (const auto& [gate, node] : net.sink_node) {
      (void)gate;
      kb.text(node);
    }
    const auto [it, fresh] = shape_index.try_emplace(kb.take(), shapes.size());
    if (fresh) shapes.emplace_back();
    shapes[it->second].push_back(i);
  }

  // Near-misses: same shape, value vectors differing in exactly one
  // entry, and not already exact duplicates.  Each shape group compares
  // against its first member only (O(n) in nets, deterministic).
  // Counts the entries where `other`'s values compare unequal to `rep`'s
  // (up to two), and the index of the last one counted.
  const auto value_diffs = [](const timing::Net& rep,
                              const timing::Net& other) {
    std::pair<std::size_t, std::size_t> diffs{0, 0};
    for (std::size_t e = 0; e < rep.parasitics.size() && diffs.first < 2;
         ++e) {
      if (rep.parasitics[e].value != other.parasitics[e].value) {
        ++diffs.first;
        diffs.second = e;
      }
    }
    return diffs;
  };
  for (const std::vector<std::size_t>& members : shapes) {
    if (members.size() < 2) continue;
    const timing::Net& rep = design.net_at(members.front());
    // A member of rep's content class has rep's value bits, so it
    // compares unequal exactly at rep's NaNs: count those once.
    const std::size_t rep_class = classes.of_net[members.front()];
    const auto class_diffs = value_diffs(rep, rep);
    for (std::size_t k = 1; k < members.size(); ++k) {
      const timing::Net& other = design.net_at(members[k]);
      const auto [diffs, diff_index] =
          classes.of_net[members[k]] == rep_class ? class_diffs
                                                  : value_diffs(rep, other);
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
  return detail::audit_design(design, options, sources, 0);
}

AuditReport detail::audit_design(const timing::Design& design,
                                 const AuditOptions& options,
                                 const DesignSourceMap* sources,
                                 std::size_t threads) {
  AuditReport report;
  Emitter em{&report, sources};
  if (options.graph_rules) {
    AWESIM_TRACE_SPAN("audit.graph");
    run_graph_tier(design, options, em);
  }
  if (!options.conditioning && !options.repetition) return report;
  core::ThreadPool pool(std::min(
      threads == 0 ? core::ThreadPool::hardware_threads() : threads,
      std::max<std::size_t>(design.net_count(), 1)));
  // The content classes are shared infrastructure: the conditioning
  // tier does its class work once per class, the repetition tier's
  // exact groups are the classes -- serialize each net's key once.
  ContentClasses classes;
  {
    AWESIM_TRACE_SPAN("audit.classes");
    classes = reduce::content_classes(design, options.reduce, pool);
    classes.keys = {};  // the tiers need the grouping only
  }
  if (options.conditioning) {
    AWESIM_TRACE_SPAN("audit.conditioning");
    run_conditioning_tier(design, options, classes, pool, em);
  }
  if (options.repetition) {
    AWESIM_TRACE_SPAN("audit.repetition");
    run_repetition_tier(design, classes, pool, em);
  }
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
