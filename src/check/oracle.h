// Static numeric-conditioning oracle: predict AWE instability before
// any matrix is assembled.
//
// The paper's own experiments show where raw moment matching breaks:
// the Fig. 16 stiff tree spreads its time constants over four decades,
// so the eq. 24 Hankel system is ill-conditioned long before the
// arithmetic runs out of digits, and the Figs. 20/21 nonequilibrium-IC
// runs show the q = 1 member of the degradation ladder (the Elmore
// bound, which assumes a relaxed network) answering with ~150% error
// while q = 2 is already at 0.65%.  Both failure modes are visible
// *statically*: the first from the Elmore time-constant spread of the
// RC tree, the second from the mere presence of nonzero initial
// conditions.  This oracle computes those signals in O(elements) and
// recommends a safe order window [min_safe_order, max_safe_order] --
// the audit layer (per net, and audit_circuit for a flat circuit) turns
// a violated window into a ConditioningHazard diagnostic.  The engine
// itself never runs the oracle: a direct Engine user who wants the
// prediction calls assess_circuit.
//
// The conditioning model: for an RC tree driven at one node, the
// moment sequence seen at any sink is m_k ~ sum_i a_i tau_i^k, so the
// k-th Hankel row scales like tau_max^k while the smallest singular
// value tracks tau_min^k; the order-q Hankel condition number grows
// like
//
//     kappa(q) ~ (tau_max / tau_min)^(2(q-1))
//
// (q = 1 needs only m0/m1 and is always well posed).  With ~15.9
// significant digits in an IEEE double and a budget of `digits`
// allowed to cancel, the largest trustworthy order is
//
//     q_safe = 1 + floor(digits / (2 log10(spread))).
//
// The moment-growth cross-check: |m1 m3| / m2^2 == 1 exactly for a
// single-pole response and grows with pole spread, so a large ratio
// from the first three (statically computed, O(n) per moment) tree
// moments corroborates a large tau spread without any factorization.
//
// The oracle never blocks analysis -- the engine's degradation ladder
// remains the runtime safety net.  It exists so a production flow can
// downgrade the request (a lower AWE order) *before* wasting the
// factorization, and so the audit report can point at the exact nets
// that will degrade.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "circuit/circuit.h"

namespace awesim::check {

struct OracleOptions {
  /// The AWE order the engine will be asked for; the hazard flag
  /// compares the safe window against this.
  int target_order = 3;
  /// Decimal digits allowed to cancel inside the Hankel solve before
  /// the pole set stops being trustworthy (IEEE double carries ~15.9;
  /// the default leaves ~2 digits of answer).
  double digits = 14.0;
};

/// What the oracle concluded about one net / circuit.  All fields are
/// defined (at their stated defaults) even when `rc_tree` is false --
/// non-tree content gets the coarse lumped estimate only.
struct ConditioningEstimate {
  /// The resistive spanning structure from the source is a tree, so
  /// the taus below are exact Elmore time constants.
  bool rc_tree = false;
  /// Capacitive nodes with a nonzero time constant.
  std::size_t tau_count = 0;
  double tau_min = 0.0;
  double tau_max = 0.0;
  /// tau_max / tau_min (1 when fewer than two distinct taus).
  double spread = 1.0;
  /// Elmore delay bound at the worst (largest-|m1|) node, seconds.
  double elmore_delay = 0.0;
  /// |m1 m3| / m2^2 at the worst node: 1 for a single pole, grows with
  /// pole spread.  1 when moments were not computable (non-tree).
  double moment_ratio = 1.0;
  /// Nonzero initial conditions present (the Figs. 20/21 regime).
  bool nonequilibrium_ic = false;
  /// Largest order whose Hankel system stays within the digit budget.
  int max_safe_order = 6;
  /// Smallest order that can represent the response: 2 when
  /// nonequilibrium ICs ride on >= 2 time constants (the q = 1 Elmore
  /// member of the ladder assumes a relaxed network and answers the
  /// Fig. 20 case with ~150% error), else 1.
  int min_safe_order = 1;
  /// target_order falls outside [min_safe_order, max_safe_order].
  bool hazard = false;
  /// One human sentence summarizing the verdict.
  std::string detail;
};

/// kappa(q) ~ spread^(2(q-1)), clamped to avoid overflow.
double hankel_condition(double spread, int order);

/// Generic RC(L) content over string node names ("0"/"gnd"/"GND" is
/// ground), driven at one node.  The timing-layer audit builds one of
/// these per net (driver resistance as a leading element, sink pin
/// capacitances as grounded caps).
struct OracleElement {
  enum class Kind { Resistor, Capacitor, Inductor } kind =
      Kind::Resistor;
  std::string node_a;
  std::string node_b;
  double value = 0.0;
};

struct OracleInput {
  std::vector<OracleElement> elements;
  /// Node the (ideal) source drives.  A series drive resistance should
  /// be an ordinary Resistor element from this node.
  std::string source;
  /// Nonzero initial conditions anywhere in the content.
  bool nonequilibrium_ic = false;
};

/// The oracle runs as two steps over one core, so a caller assessing
/// many instances of one content class pays for names and topology
/// once:
///
///   * the *topology* (class) step interns node names to dense ids and
///     builds everything that depends on the element list alone -- the
///     resistive adjacency, the tree/loop verdict and BFS order from the
///     source, the per-node parasitic capacitance and its sum;
///   * the *numeric* (instance) step adds what one use of the content
///     puts around it -- a driver resistance from the source as the
///     first element, grounded pin caps after the last -- and computes
///     the Elmore taus, the first three tree moments, the order window
///     and the verdict sentence on integer-indexed arrays.
///
/// Both steps keep the single-pass arithmetic order (element order for
/// every sum, BFS order for every walk), so an estimate is the same
/// bits whichever front door produced it.
struct OracleTopology {
  /// Dense node ids [0, nodes); 0 is ground.
  std::size_t nodes = 1;
  /// Node the ideal source drives; -1 when there is none (the lumped
  /// estimate only).
  int source = -1;
  /// Node a per-instance driver edge ties to `source`, or -1 when the
  /// instances carry no driver edge.
  int driver = -1;
  bool has_inductor = false;
  bool nonequilibrium_ic = false;
  /// Every resistor value, in element order (the lumped R sum).
  std::vector<double> resistances;
  /// Per-node grounded capacitance, accumulated in element order
  /// (coupling caps count on both plates).
  std::vector<double> cap;
  /// Every capacitor value summed in element order.
  double cap_sum = 0.0;

  /// One BFS over the resistive adjacency from `source`.
  struct Walk {
    /// No resistive loop reachable from the source.
    bool tree = false;
    /// BFS order, source first (empty unless `tree`).
    std::vector<int> order;
    /// Per node: BFS parent (-1 off the tree) and the resistance of the
    /// edge to it.  The driver edge's entry is a placeholder that the
    /// instance's drive resistance replaces.
    std::vector<int> parent;
    std::vector<double> edge_r;
  };
  /// The walk without the driver edge and, when `driver > 0`, with it
  /// stamped ahead of every other element.
  Walk bare;
  Walk driven;
};

/// Builds an OracleTopology from elements over node names.  Names are
/// held as views: each must stay alive until build().
class OracleTopologyBuilder {
 public:
  explicit OracleTopologyBuilder(std::size_t elements = 0);

  /// Dense id of `name`: 0 for a ground name, otherwise the next id on
  /// first use.
  int node(std::string_view name);
  /// Ids handed out so far, ground included.
  std::size_t nodes() const { return ids_.size() + 1; }
  /// Append one element between interned nodes.
  void add(OracleElement::Kind kind, int a, int b, double value);
  /// Finish the class step: `source` as above (-1 for none), `driver`
  /// the node per-instance driver edges tie to it (-1 for none).
  OracleTopology build(int source, int driver, bool nonequilibrium_ic) &&;

 private:
  struct Edge {
    int a;
    int b;
    double r;
  };
  std::unordered_map<std::string_view, int> ids_;
  OracleTopology topology_;
  /// Traversable resistors (both ends off ground, finite and positive),
  /// in element order.
  std::vector<Edge> edges_;
};

/// What one instance puts around a topology's elements.
struct OracleInstance {
  /// Resistance of the driver edge source -> topology.driver, the first
  /// element (ignored when the topology has no driver node; no edge
  /// when not finite and positive, but it still enters the R sum).
  double drive = 0.0;
  /// Grounded caps (node id, farads) after the last element, in order.
  std::vector<std::pair<int, double>> pin_caps;
};

/// The numeric step: one instance of a class topology.
ConditioningEstimate assess(const OracleTopology& topology,
                            const OracleInstance& instance,
                            const OracleOptions& options = {});

/// Both steps over a generic element list (no driver edge, no pin caps).
ConditioningEstimate assess(const OracleInput& input,
                            const OracleOptions& options = {});

/// Assess a flat circuit: the source is the positive node of the first
/// independent source; element initial conditions and .ic node voltages
/// set `nonequilibrium_ic`; controlled sources are ignored (their
/// conditioning is not tau-driven).  Returns a default (no-hazard)
/// estimate when the circuit has no source to anchor the tree walk.
ConditioningEstimate assess_circuit(const circuit::Circuit& circuit,
                                    const OracleOptions& options = {});

}  // namespace awesim::check
