#include "reduce/reduce.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "check/partition.h"
#include "core/fault.h"
#include "la/lu.h"
#include "la/matrix.h"
#include "la/sparse.h"
#include "obs/trace.h"
#include "timing/stage_cache.h"

namespace awesim::reduce {

namespace {

bool is_ground(const std::string& name) {
  return name == "0" || name == "gnd" || name == "GND";
}

double dot(const la::RealVector& a, const la::RealVector& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double norm2(const la::RealVector& a) { return std::sqrt(dot(a, a)); }

void axpy(la::RealVector& y, const la::RealVector& x, double alpha) {
  for (std::size_t i = 0; i < y.size(); ++i) y[i] += alpha * x[i];
}

double max_abs(const la::Matrix<double>& m) {
  double best = 0.0;
  for (std::size_t r = 0; r < m.rows(); ++r)
    for (std::size_t c = 0; c < m.cols(); ++c)
      best = std::max(best, std::abs(m(r, c)));
  return best;
}

/// The node table of one net: ground pinned at dense id 0, boundary
/// nodes (driver hookup + sink hookups, name-sorted) at 1..m, interior
/// nodes at m+1.. in first-appearance order.
struct NodeTable {
  // Hashed, not ordered: ids are assigned by insertion order (++next),
  // so nothing downstream depends on map iteration order -- only
  // .size() and point lookups are ever used.  On kilo-node nets the
  // ordered map's string comparisons dominated the whole eligibility
  // precheck.
  std::unordered_map<std::string, int> ids;
  std::size_t boundary = 0;  // m
  std::size_t interior = 0;  // n_i
  int next = 0;

  int intern(const std::string& name) {
    if (is_ground(name)) return 0;
    const auto it = ids.find(name);
    if (it != ids.end()) return it->second;
    const int id = ++next;
    ids.emplace(name, id);
    return id;
  }
  bool is_boundary(int id) const {
    return id >= 1 && id <= static_cast<int>(boundary);
  }
};

/// Sorted, deduplicated boundary node names: the driver hookup "DRV"
/// plus every sink hookup.  Ground never qualifies (the caller refuses
/// such nets before getting here).
std::set<std::string> boundary_names(const timing::Net& net) {
  std::set<std::string> names;
  names.insert("DRV");
  for (const auto& [gate, node] : net.sink_node) names.insert(node);
  return names;
}

core::Diagnostic make_diag(core::DiagCode code, const timing::Net& net,
                           std::string message) {
  core::Diagnostic d;
  d.code = code;
  d.severity = core::Severity::Warning;
  d.element = net.name;
  d.message = std::move(message);
  return d;
}

}  // namespace

const char* to_string(Eligibility eligibility) {
  switch (eligibility) {
    case Eligibility::Eligible: return "eligible";
    case Eligibility::HasMacros: return "has-macros";
    case Eligibility::TooManyPorts: return "too-many-ports";
    case Eligibility::SinkAtGround: return "sink-at-ground";
    case Eligibility::InteriorTooSmall: return "interior-too-small";
    case Eligibility::NonRc: return "non-rc";
  }
  return "unknown";
}

namespace {

/// The gates that read only the net's boundary, in reduce_net's order.
Eligibility boundary_gates(const timing::Net& net, std::size_t ports,
                           const ReduceOptions& options) {
  if (!net.macros.empty()) return Eligibility::HasMacros;
  if (ports > options.max_ports) return Eligibility::TooManyPorts;
  for (const auto& [gate, node] : net.sink_node) {
    (void)gate;
    if (is_ground(node)) return Eligibility::SinkAtGround;
  }
  return Eligibility::Eligible;
}

/// The gates that read the interned node table.
Eligibility table_gates(const InternedNet& table,
                        const ReduceOptions& options) {
  const std::size_t ni = table.nodes - table.boundary_nodes;
  if (ni < std::max<std::size_t>(options.min_interior, 1)) {
    return Eligibility::InteriorTooSmall;
  }
  const check::TopologyClass cls =
      check::classify_edges(table.nodes + 1, table.edges);
  if (cls != check::TopologyClass::RcTree &&
      cls != check::TopologyClass::RcMesh) {
    return Eligibility::NonRc;
  }
  return Eligibility::Eligible;
}

}  // namespace

void InternedNet::add(timing::NetElement::Kind kind, int a, int b) {
  check::Edge edge;
  edge.a = a;
  edge.b = b;
  switch (kind) {
    case timing::NetElement::Kind::Resistor:
      edge.kind = check::Edge::Kind::Resistive;
      break;
    case timing::NetElement::Kind::Capacitor:
      edge.kind = check::Edge::Kind::Capacitive;
      break;
    case timing::NetElement::Kind::Inductor:
      edge.kind = check::Edge::Kind::Inductive;
      break;
  }
  edges.push_back(edge);
}

namespace {

/// Fills `table` with the boundary names (ids 1..m) and then every
/// parasitic's endpoints in element order -- one hash per endpoint --
/// and returns the net by those ids.
InternedNet intern_net(const timing::Net& net,
                       const std::set<std::string>& boundary,
                       NodeTable& table) {
  table.ids.reserve(boundary.size() + net.parasitics.size());
  for (const std::string& name : boundary) table.intern(name);
  table.boundary = table.ids.size();
  InternedNet interned;
  interned.ports = boundary.size();
  interned.boundary_nodes = table.boundary;
  interned.edges.reserve(net.parasitics.size());
  for (const timing::NetElement& e : net.parasitics) {
    const int a = table.intern(e.node_a);
    const int b = table.intern(e.node_b);
    interned.add(e.kind, a, b);
  }
  interned.nodes = table.ids.size();
  table.interior = interned.nodes - table.boundary;
  return interned;
}

}  // namespace

Eligibility net_eligibility(const timing::Net& net,
                            const ReduceOptions& options) {
  const std::set<std::string> boundary = boundary_names(net);
  const Eligibility early = boundary_gates(net, boundary.size(), options);
  if (early != Eligibility::Eligible) return early;
  NodeTable table;
  return table_gates(intern_net(net, boundary, table), options);
}

Eligibility net_eligibility(const timing::Net& net,
                            const InternedNet& interned,
                            const ReduceOptions& options) {
  const Eligibility early = boundary_gates(net, interned.ports, options);
  if (early != Eligibility::Eligible) return early;
  return table_gates(interned, options);
}

std::string reduction_content_key(const timing::Net& net,
                                  const ReduceOptions& options) {
  timing::detail::KeyBuilder kb;
  kb.reserve(64 + net.parasitics.size() * 24);
  kb.tag('P').integer(net.parasitics.size());
  for (const timing::NetElement& e : net.parasitics) {
    kb.integer(static_cast<std::uint64_t>(e.kind))
        .text(e.node_a)
        .text(e.node_b)
        .number(e.value);
  }
  // A net that already carries macros is a different circuit from its
  // parasitics alone (and refuses reduction): every stamp entry is
  // content, as in the stage key's 'M' section.
  kb.tag('M').integer(net.macros.size());
  for (const timing::NetMacro& m : net.macros) {
    kb.integer(m.ports.size()).integer(m.states);
    for (const std::string& port : m.ports) kb.text(port);
    for (const double v : m.g) kb.number(v);
    for (const double v : m.c) kb.number(v);
    kb.number(m.sum_resistance).number(m.sum_capacitance);
  }
  const std::set<std::string> boundary = boundary_names(net);
  kb.tag('B').integer(boundary.size());
  for (const std::string& name : boundary) kb.text(name);
  kb.tag('O')
      .integer(options.min_interior)
      .integer(options.max_ports)
      .integer(static_cast<std::uint64_t>(options.moments))
      .number(options.tolerance);
  return kb.take();
}

NetReduction reduce_net(const timing::Net& net, const ReduceOptions& options) {
  AWESIM_TRACE_SPAN("reduce.collapse");
  NetReduction out;
  out.net = net;

  // --- Cheap structural gates (silent refusals: flat is simply right),
  // shared with HierSession's precheck and the design audit.  Their node
  // table is the one every walk below reads, through `edges`.
  const std::set<std::string> boundary = boundary_names(net);
  if (boundary_gates(net, boundary.size(), options) != Eligibility::Eligible) {
    return out;
  }
  NodeTable table;
  const InternedNet interned = intern_net(net, boundary, table);
  if (table_gates(interned, options) != Eligibility::Eligible) return out;
  const std::vector<check::Edge>& edges = interned.edges;
  const std::size_t m = table.boundary;
  const std::size_t ni = table.interior;

  // --- The fault-injection drill: a typed, visible refusal.
  if (core::fault_at("reduce.collapse", net.name)) {
    out.diagnostics.push_back(make_diag(
        core::DiagCode::ReductionFallback, net,
        "injected fault at reduce.collapse; net analyzed flat"));
    return out;
  }

  // --- Interior solvability guard: every interior node's resistive
  // component must reach ground or a boundary node, or G_ii is
  // structurally singular (the lint pipeline reports the island; here
  // we just refuse the collapse).
  {
    check::UnionFind uf(table.ids.size() + 1);
    for (const check::Edge& edge : edges) {
      if (edge.kind == check::Edge::Kind::Resistive) uf.unite(edge.a, edge.b);
    }
    std::set<int> anchored;
    anchored.insert(uf.find(0));
    for (std::size_t b = 1; b <= m; ++b) {
      anchored.insert(uf.find(static_cast<int>(b)));
    }
    for (std::size_t i = m + 1; i <= m + ni; ++i) {
      if (anchored.count(uf.find(static_cast<int>(i))) == 0) return out;
    }
  }

  // --- Split the element list: S (>= one interior endpoint) collapses
  // into the macro; boundary/ground-only elements stay flat, so the
  // stitched net is exact superposition with no double counting.
  std::vector<timing::NetElement> kept;
  la::Matrix<double> gbb(m, m), cbb(m, m);
  std::vector<la::Triplet> gib, cib, gii, cii;
  double sum_r = 0.0, sum_c = 0.0;
  const auto add_entry = [&](la::Matrix<double>& bb,
                             std::vector<la::Triplet>& ib,
                             std::vector<la::Triplet>& ii, int x, int y,
                             double v) {
    if (x == 0 || y == 0) return;  // ground row/col is eliminated
    const bool xb = table.is_boundary(x);
    const bool yb = table.is_boundary(y);
    const auto bi = [&](int id) { return static_cast<std::size_t>(id - 1); };
    const auto ii_idx = [&](int id) {
      return static_cast<std::size_t>(id) - m - 1;
    };
    if (xb && yb) {
      bb(bi(x), bi(y)) += v;
    } else if (!xb && !yb) {
      ii.push_back({ii_idx(x), ii_idx(y), v});
    } else if (!xb && yb) {
      ib.push_back({ii_idx(x), bi(y), v});
    }
    // Boundary-row/interior-col entries are dropped: the stamps are
    // symmetric, so G_bi is recovered as G_ib^T where needed.
  };
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const timing::NetElement& e = net.parasitics[i];
    const int a = edges[i].a;
    const int b = edges[i].b;
    const bool touches_interior = (a > static_cast<int>(m) && a != 0) ||
                                  (b > static_cast<int>(m) && b != 0);
    if (!touches_interior) {
      kept.push_back(e);
      continue;
    }
    if (e.kind == timing::NetElement::Kind::Resistor) {
      if (!(e.value > 0.0) || !std::isfinite(e.value)) return out;
      const double g = 1.0 / e.value;
      sum_r += e.value;
      add_entry(gbb, gib, gii, a, a, g);
      add_entry(gbb, gib, gii, b, b, g);
      add_entry(gbb, gib, gii, a, b, -g);
      add_entry(gbb, gib, gii, b, a, -g);
    } else {  // Capacitor (inductors were classified out above)
      if (!(e.value >= 0.0) || !std::isfinite(e.value)) return out;
      sum_c += e.value;
      add_entry(cbb, cib, cii, a, a, e.value);
      add_entry(cbb, cib, cii, b, b, e.value);
      add_entry(cbb, cib, cii, a, b, -e.value);
      add_entry(cbb, cib, cii, b, a, -e.value);
    }
  }

  // --- Factor G_ii and build the block Krylov space.  The starting
  // block is G_ii^-1 [G_ib | C_ib]: the G_ib columns carry the resistive
  // boundary coupling (the classic grounded-cap case), the C_ib columns
  // cover coupling capacitors into the boundary so their moment
  // contributions are in the projection space too (they deflate to
  // nothing when no such caps exist).
  la::SparseLu* lu_ptr = nullptr;
  std::optional<la::SparseLu> lu;
  la::SparseMatrix gii_mat = la::SparseMatrix::from_triplets(ni, ni, gii);
  la::SparseMatrix cii_mat = la::SparseMatrix::from_triplets(ni, ni, cii);
  try {
    lu.emplace(gii_mat);
    lu_ptr = &*lu;
  } catch (const la::SingularMatrixError&) {
    return out;  // backstop behind the structural guard
  }

  std::vector<la::RealVector> w_cols(m, la::RealVector(ni, 0.0));
  for (const la::Triplet& t : gib) w_cols[t.col][t.row] += t.value;
  std::vector<la::RealVector> start = w_cols;
  {
    std::vector<la::RealVector> c_rhs(m, la::RealVector(ni, 0.0));
    for (const la::Triplet& t : cib) c_rhs[t.col][t.row] += t.value;
    for (auto& col : c_rhs) start.push_back(std::move(col));
  }
  const std::vector<la::RealVector> solved0 = lu_ptr->solve_multi(start);
  // W = G_ii^-1 G_ib, kept exact for the verification invariants.
  const std::vector<la::RealVector> w(solved0.begin(), solved0.begin() + m);

  const int depth = std::max(1, (options.moments + 1) / 2);
  std::vector<la::RealVector> basis;
  std::vector<la::RealVector> block = solved0;
  for (int d = 0; d < depth; ++d) {
    if (d > 0) {
      std::vector<la::RealVector> rhs;
      rhs.reserve(block.size());
      for (const la::RealVector& v : block) rhs.push_back(cii_mat.apply(v));
      block = lu_ptr->solve_multi(rhs);
    }
    std::vector<la::RealVector> accepted;
    for (la::RealVector v : block) {
      const double before = norm2(v);
      if (!(before > 0.0)) continue;
      // Modified Gram-Schmidt, twice (the classic re-orthogonalization
      // for numerical orthogonality), with relative deflation.
      for (int pass = 0; pass < 2; ++pass) {
        for (const la::RealVector& q : basis) axpy(v, q, -dot(q, v));
      }
      const double after = norm2(v);
      if (!(after > 1e-10 * before)) continue;  // deflated
      for (double& x : v) x /= after;
      basis.push_back(v);
      accepted.push_back(basis.back());
    }
    if (accepted.empty()) break;  // subspace exhausted: projection exact
    block = std::move(accepted);
  }
  const std::size_t k = basis.size();
  // A collapse must actually shrink the net; a full-rank basis means
  // the interior had no redundancy to exploit.
  if (k >= ni) return out;

  // --- Congruence projection into the dense (m+k)^2 macro block.
  const std::size_t dim = m + k;
  la::Matrix<double> ghat(dim, dim), chat(dim, dim);
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < m; ++c) {
      ghat(r, c) = gbb(r, c);
      chat(r, c) = cbb(r, c);
    }
  }
  for (std::size_t s = 0; s < k; ++s) {
    for (const la::Triplet& t : gib) {
      ghat(t.col, m + s) += t.value * basis[s][t.row];
    }
    for (const la::Triplet& t : cib) {
      chat(t.col, m + s) += t.value * basis[s][t.row];
    }
    for (std::size_t r = 0; r < m; ++r) {
      ghat(m + s, r) = ghat(r, m + s);
      chat(m + s, r) = chat(r, m + s);
    }
  }
  for (std::size_t s = 0; s < k; ++s) {
    const la::RealVector gu = gii_mat.apply(basis[s]);
    const la::RealVector cu = cii_mat.apply(basis[s]);
    for (std::size_t t = 0; t <= s; ++t) {
      const double gv = dot(basis[t], gu);
      const double cv = dot(basis[t], cu);
      ghat(m + t, m + s) = gv;
      ghat(m + s, m + t) = gv;
      chat(m + t, m + s) = cv;
      chat(m + s, m + t) = cv;
    }
  }

  // --- Verification gate: the reduced block must reproduce the exact
  // zeroth and first boundary admittance moments within tolerance.
  la::Matrix<double> y0(m, m), y1(m, m), cw(m, m);
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t c = 0; c < m; ++c) {
      y0(r, c) = gbb(r, c);
      y1(r, c) = cbb(r, c);
    }
  for (std::size_t b = 0; b < m; ++b) {
    for (const la::Triplet& t : gib) y0(t.col, b) -= t.value * w[b][t.row];
    for (const la::Triplet& t : cib) cw(t.col, b) += t.value * w[b][t.row];
  }
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < m; ++c) y1(r, c) -= cw(r, c) + cw(c, r);
  }
  for (std::size_t b = 0; b < m; ++b) {
    const la::RealVector cu = cii_mat.apply(w[b]);
    for (std::size_t a = 0; a < m; ++a) y1(a, b) += dot(w[a], cu);
  }

  la::Matrix<double> y0r(m, m), y1r(m, m);
  std::vector<la::RealVector> what(m, la::RealVector(k, 0.0));
  if (k > 0) {
    la::Matrix<double> gss(k, k);
    for (std::size_t r = 0; r < k; ++r)
      for (std::size_t c = 0; c < k; ++c) gss(r, c) = ghat(m + r, m + c);
    std::vector<la::RealVector> gsb(m, la::RealVector(k, 0.0));
    for (std::size_t b = 0; b < m; ++b)
      for (std::size_t s = 0; s < k; ++s) gsb[b][s] = ghat(m + s, b);
    try {
      what = la::Lu<double>(std::move(gss)).solve_multi(gsb);
    } catch (const la::SingularMatrixError&) {
      out.diagnostics.push_back(make_diag(
          core::DiagCode::ReductionToleranceExceeded, net,
          "reduced conductance block is singular; net analyzed flat"));
      return out;
    }
  }
  for (std::size_t a = 0; a < m; ++a) {
    for (std::size_t b = 0; b < m; ++b) {
      double g0 = ghat(a, b), c1 = chat(a, b);
      for (std::size_t s = 0; s < k; ++s) {
        g0 -= ghat(a, m + s) * what[b][s];
        c1 -= chat(a, m + s) * what[b][s] + what[a][s] * chat(m + s, b);
        for (std::size_t t = 0; t < k; ++t) {
          c1 += what[a][s] * chat(m + s, m + t) * what[b][t];
        }
      }
      y0r(a, b) = g0;
      y1r(a, b) = c1;
    }
  }
  la::Matrix<double> d0(m, m), d1(m, m);
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t c = 0; c < m; ++c) {
      d0(r, c) = y0(r, c) - y0r(r, c);
      d1(r, c) = y1(r, c) - y1r(r, c);
    }
  const double tiny = 1e-30;
  const double rel0 = max_abs(d0) / std::max(max_abs(y0), tiny);
  const double rel1 = max_abs(d1) / std::max(max_abs(y1), tiny);
  const double rel = std::max(rel0, rel1);
  if (!(rel <= options.tolerance)) {
    out.diagnostics.push_back(make_diag(
        core::DiagCode::ReductionToleranceExceeded, net,
        "boundary moment mismatch " + std::to_string(rel) +
            " exceeds tolerance " + std::to_string(options.tolerance) +
            "; net analyzed flat"));
    return out;
  }

  // --- Stitch: kept elements plus the macro replace the parasitics.
  timing::NetMacro macro;
  macro.ports.assign(boundary.begin(), boundary.end());
  macro.states = k;
  macro.g.resize(dim * dim);
  macro.c.resize(dim * dim);
  for (std::size_t r = 0; r < dim; ++r) {
    for (std::size_t c = 0; c < dim; ++c) {
      macro.g[r * dim + c] = ghat(r, c);
      macro.c[r * dim + c] = chat(r, c);
    }
  }
  macro.sum_resistance = sum_r;
  macro.sum_capacitance = sum_c;

  out.net.parasitics = std::move(kept);
  out.net.macros.push_back(std::move(macro));
  out.reduced = true;
  out.interior_eliminated = ni;
  out.states = k;
  return out;
}

namespace {

timing::detail::CachedReduction to_cached(const NetReduction& r) {
  timing::detail::CachedReduction cached;
  cached.reduced = r.reduced;
  cached.interior_eliminated = r.interior_eliminated;
  cached.diagnostics = r.diagnostics;
  if (r.reduced) {
    cached.parasitics = r.net.parasitics;
    cached.macros = r.net.macros;
  }
  return cached;
}

}  // namespace

std::shared_ptr<const timing::detail::CachedReduction> lookup_or_reduce(
    const timing::Net& net, const ReduceOptions& options,
    timing::detail::StageCache* cache, core::Diagnostics* diagnostics,
    bool* cache_hit) {
  *cache_hit = false;
  std::string key;
  if (cache != nullptr) {
    AWESIM_TRACE_SPAN("reduce.key");
    key = timing::detail::reduction_key(reduction_content_key(net, options));
    if (auto cached = cache->lookup_reduction(key, net.name, diagnostics)) {
      *cache_hit = true;
      return cached;
    }
  }
  auto fresh = std::make_shared<timing::detail::CachedReduction>(
      to_cached(reduce_net(net, options)));
  if (cache != nullptr) cache->insert_reduction(key, *fresh);
  return fresh;
}

timing::Design stitch_design(
    const timing::Design& design,
    std::span<const std::shared_ptr<const timing::detail::CachedReduction>>
        reductions) {
  timing::Design out;
  for (const auto& [name, gate] : design.gates()) out.add_gate(gate);
  for (std::size_t i = 0; i < design.net_count(); ++i) {
    const timing::Net& net = design.net_at(i);
    const timing::detail::CachedReduction* r = reductions[i].get();
    const bool reduced = r != nullptr && r->reduced;
    // A served reduction replaces the parasitics wholesale: build the
    // stitched net from its parts rather than copy what it replaces.
    timing::Net stitched;
    stitched.name = net.name;
    stitched.sink_node = net.sink_node;
    stitched.parasitics = reduced ? r->parasitics : net.parasitics;
    stitched.macros = reduced ? r->macros : net.macros;
    out.add_net(design.net_driver(i), std::move(stitched));
  }
  for (const std::string& pi : design.primary_inputs()) {
    out.set_primary_input(pi);
  }
  return out;
}

DesignReduction reduce_design(const timing::Design& design,
                              const ReduceOptions& options,
                              timing::detail::StageCache* cache) {
  DesignReduction out;
  out.nets_total = design.net_count();
  std::vector<std::shared_ptr<const timing::detail::CachedReduction>>
      reductions;
  reductions.reserve(design.net_count());
  for (std::size_t i = 0; i < design.net_count(); ++i) {
    const timing::Net& net = design.net_at(i);
    bool hit = false;
    auto cached =
        lookup_or_reduce(net, options, cache, &out.diagnostics, &hit);
    if (hit) ++out.cache_hits;
    if (cached->reduced) {
      ++out.nets_reduced;
      out.interior_eliminated += cached->interior_eliminated;
      for (const timing::NetMacro& mm : cached->macros) out.states += mm.states;
    }
    // Cached refusal records are name-agnostic; re-stamp them with the
    // instance actually being analyzed.
    for (core::Diagnostic d : cached->diagnostics) {
      d.element = net.name;
      out.diagnostics.push_back(std::move(d));
    }
    reductions.push_back(std::move(cached));
  }
  out.design = stitch_design(design, reductions);
  return out;
}

}  // namespace awesim::reduce
