#include "core/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "check/lint.h"
#include "core/error.h"
#include "core/fault.h"
#include "obs/trace.h"

namespace awesim::core {

namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

bool finite_terms(const std::vector<PoleResidueTerm>& terms) {
  for (const auto& t : terms) {
    if (!std::isfinite(t.pole.real()) || !std::isfinite(t.pole.imag()) ||
        !std::isfinite(t.residue.real()) ||
        !std::isfinite(t.residue.imag())) {
      return false;
    }
  }
  return true;
}

// A match the pipeline can hand out: stable, finite, and not an empty
// term set standing in for a transient that is actually there (total
// Hankel rank collapse leaves order_used == 0 with nonzero moments).
bool usable_match(const MatchResult& m, bool has_transient) {
  if (!m.stable) return false;
  if (!finite_terms(m.terms)) return false;
  if (m.terms.empty() && has_transient) return false;
  return true;
}

// a == -b entrywise (so +0 and -0 negate each other; NaN never does).
bool negation_of(const la::RealVector& a, const la::RealVector& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(),
                    [](double x, double y) { return x == -y; });
}

la::RealVector negated(la::RealVector v) {
  for (double& x : v) x = -x;
  return v;
}

}  // namespace

const char* to_string(ApproxStatus status) {
  switch (status) {
    case ApproxStatus::Ok: return "ok";
    case ApproxStatus::WindowShifted: return "window-shifted";
    case ApproxStatus::OrderReduced: return "order-reduced";
    case ApproxStatus::ElmoreFallback: return "elmore-fallback";
    case ApproxStatus::Failed: return "failed";
  }
  return "unknown";
}

double Approximation::value(double t) const {
  double v = 0.0;
  for (const auto& atom : atoms_) {
    if (t < atom.start_time) continue;
    const double local = t - atom.start_time;
    v += atom.affine_offset + atom.affine_slope * local;
    v += evaluate_terms(atom.terms, local);
  }
  return v;
}

double Approximation::final_value() const {
  double offset = 0.0;
  double slope = 0.0;
  for (const auto& atom : atoms_) {
    offset += atom.affine_offset - atom.affine_slope * atom.start_time;
    slope += atom.affine_slope;
  }
  if (slope != 0.0) return kNan;  // unbounded ramp
  return offset;
}

bool Approximation::stable() const {
  for (const auto& atom : atoms_) {
    for (const auto& term : atom.terms) {
      if (term.pole.real() >= 0.0) return false;
    }
  }
  return true;
}

double Approximation::dominant_time_constant() const {
  double tau = 0.0;
  for (const auto& atom : atoms_) {
    for (const auto& term : atom.terms) {
      const double re = std::abs(term.pole.real());
      if (re > 0.0) tau = std::max(tau, 1.0 / re);
    }
  }
  return tau;
}

double Approximation::settling_area() const {
  const double v_final = final_value();
  if (std::isnan(v_final)) return std::numeric_limits<double>::quiet_NaN();

  // Homogeneous contributions: each atom's term set integrates to its
  // matched mu_0 in closed form.
  double area = 0.0;
  for (const auto& atom : atoms_) {
    area += implied_moment(atom.terms, 0);
  }

  // Affine transient: a(t) - v_final is piecewise linear between atom
  // start times and identically zero after the last one (slopes and
  // offsets cancel when the final value is finite).  The midpoint rule
  // integrates each linear piece exactly, jumps at the knots included.
  std::vector<double> knots{0.0};
  for (const auto& atom : atoms_) knots.push_back(atom.start_time);
  std::sort(knots.begin(), knots.end());
  auto affine_minus_final = [&](double t) {
    double v = -v_final;
    for (const auto& atom : atoms_) {
      if (t < atom.start_time) continue;
      v += atom.affine_offset + atom.affine_slope * (t - atom.start_time);
    }
    return v;
  };
  for (std::size_t i = 1; i < knots.size(); ++i) {
    const double a = knots[i - 1];
    const double b = knots[i];
    if (b <= a) continue;
    area += affine_minus_final(0.5 * (a + b)) * (b - a);
  }
  return area;
}

namespace {

// The crossing scan's skip certificate (DESIGN.md §17), for responses
// whose terms are all real, stable, simple poles.  Between grid time t_i
// and t the value moves by at most
//   |sum of active slopes| (t - t_i) + sum_m c_m (1 - e^{p_m (t - t_i)}),
// c_m = |k_m| e^{p_m tau_m} at t_i.  Grid points where that bound stays
// below the distance to every open level, less a rounding margin, cannot
// show a sign change, so the scan may skip them and still stop in the
// same first interval: every answer keeps its bits.
class SkipCertificate {
 public:
  SkipCertificate(const std::vector<AtomApproximation>& atoms,
                  std::span<const double> levels, double t0, double t1)
      : atoms_(atoms) {
    usable_ = std::all_of(atoms.begin(), atoms.end(), [](const auto& atom) {
      return std::isfinite(atom.start_time) &&
             std::isfinite(atom.affine_offset) &&
             std::isfinite(atom.affine_slope) &&
             std::all_of(atom.terms.begin(), atom.terms.end(),
                         [](const PoleResidueTerm& term) {
                           return term.power == 1 &&
                                  term.pole.imag() == 0.0 &&
                                  term.pole.real() < 0.0 &&
                                  std::isfinite(term.pole.real()) &&
                                  std::isfinite(term.residue.real()) &&
                                  std::isfinite(term.residue.imag());
                         });
    });
    // Rounding margin: far above the evaluation error of value() and of
    // the bound, relative to the largest magnitude either can touch.
    const double t_abs = std::max(std::abs(t0), std::abs(t1));
    double magnitude = 0.0;
    for (const double level : levels) {
      magnitude = std::max(magnitude, std::abs(level));
    }
    for (const auto& atom : atoms) {
      magnitude += std::abs(atom.affine_offset) +
                   std::abs(atom.affine_slope) *
                       (t_abs + std::abs(atom.start_time));
      for (const auto& term : atom.terms) {
        magnitude += std::abs(term.residue.real());
      }
    }
    margin_ = 1e-10 * magnitude;
  }

  bool usable() const { return usable_; }
  double margin() const { return margin_; }

  /// The c_m of the atoms active at t_i, in atom and term order.
  void anchor(double t_i, std::vector<double>& decay) const {
    decay.clear();
    for (const auto& atom : atoms_) {
      if (t_i < atom.start_time) continue;
      for (const auto& term : atom.terms) {
        decay.push_back(std::abs(term.residue.real()) *
                        std::exp(term.pole.real() * (t_i - atom.start_time)));
      }
    }
  }

  /// Bound on |v(t') - v(t_i)| over t_i <= t' <= t, with each atom's
  /// local time step formed exactly as value() forms it; +inf once t
  /// reaches an atom start after t_i (the active set changes there).
  double bound(double t_i, double t, const std::vector<double>& decay) const {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    double slope = 0.0;
    double slope_abs = 0.0;
    double d_max = 0.0;
    double d_min = kInf;
    for (const auto& atom : atoms_) {
      if (t_i < atom.start_time) {
        if (!(t < atom.start_time)) return kInf;
        continue;
      }
      slope += atom.affine_slope;
      slope_abs += std::abs(atom.affine_slope);
      const double d = (t - atom.start_time) - (t_i - atom.start_time);
      d_max = std::max(d_max, d);
      d_min = std::min(d_min, d);
    }
    d_min = std::min(d_min, d_max);
    double b = std::abs(slope) * d_max + slope_abs * (d_max - d_min);
    std::size_t m = 0;
    for (const auto& atom : atoms_) {
      if (t_i < atom.start_time) continue;
      for (const auto& term : atom.terms) {
        b += decay[m++] * -std::expm1(term.pole.real() * d_max);
      }
    }
    return b;
  }

 private:
  const std::vector<AtomApproximation>& atoms_;
  bool usable_ = false;
  double margin_ = 0.0;
};

}  // namespace

std::optional<double> Approximation::first_crossing(double level, double t0,
                                                    double t1) const {
  return first_crossings({&level, 1}, t0, t1).front();
}

std::vector<std::optional<double>> Approximation::first_crossings(
    std::span<const double> levels, double t0, double t1) const {
  constexpr std::size_t kScanPoints = 4096;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::optional<double>> found(levels.size());
  if (!(t1 > t0)) return found;
  auto grid = [&](std::size_t i) {
    return t0 + (t1 - t0) * static_cast<double>(i) /
                    static_cast<double>(kScanPoints);
  };
  // Bisection refinement of one level's crossing on [lo, hi].  Once the
  // midpoint rounds onto an endpoint the state is a fixed point, so the
  // remaining steps would return that midpoint anyway.
  auto refine = [&](double level, double lo, double hi, double flo) {
    for (int it = 0; it < 60; ++it) {
      const double mid = 0.5 * (lo + hi);
      if (mid == lo || mid == hi) return mid;
      const double fm = value(mid) - level;
      if ((flo < 0.0) == (fm < 0.0)) {
        lo = mid;
        flo = fm;
      } else {
        hi = mid;
      }
    }
    return 0.5 * (lo + hi);
  };

  // Largest power-of-two grid step from point i, at (t_i, v_i), that the
  // skip certificate covers for every open level.
  const SkipCertificate skip(atoms_, levels, t0, t1);
  std::vector<double> decay;
  auto step_from = [&](std::size_t i, double t_i, double v_i) {
    if (!skip.usable()) return std::size_t{1};
    double gap = kInf;
    for (std::size_t k = 0; k < levels.size(); ++k) {
      if (!found[k]) gap = std::min(gap, std::abs(v_i - levels[k]));
    }
    gap -= skip.margin();
    if (!(gap > 0.0)) return std::size_t{1};
    skip.anchor(t_i, decay);
    std::size_t h = 1;
    while (i + 2 * h <= kScanPoints &&
           skip.bound(t_i, grid(i + 2 * h), decay) < gap) {
      h *= 2;
    }
    return h;
  };

  double prev_t = t0;
  const double v0 = value(t0);
  std::size_t open = levels.size();
  for (std::size_t k = 0; k < levels.size(); ++k) {
    if (v0 - levels[k] == 0.0) {
      found[k] = t0;
      --open;
    }
  }
  double prev_value = v0;
  for (std::size_t i = 0; i < kScanPoints && open > 0;) {
    i += step_from(i, prev_t, prev_value);
    const double t = grid(i);
    const double value_t = value(t);
    for (std::size_t k = 0; k < levels.size(); ++k) {
      if (found[k]) continue;
      const double prev_v = prev_value - levels[k];
      const double v = value_t - levels[k];
      if ((prev_v < 0.0 && v >= 0.0) || (prev_v > 0.0 && v <= 0.0)) {
        found[k] = refine(levels[k], prev_t, t, prev_v);
        --open;
      }
    }
    prev_t = t;
    prev_value = value_t;
  }
  return found;
}

waveform::Waveform Approximation::sample(double t0, double t1,
                                         std::size_t count) const {
  return waveform::Waveform::sample([this](double t) { return value(t); },
                                    t0, t1, count);
}

namespace {

// The MNA stamp of an Engine's circuit, timed as its own phase.
mna::MnaSystem assemble(const circuit::Circuit& ckt, mna::Options mna) {
  AWESIM_TRACE_SPAN("mna.assemble");
  return mna::MnaSystem(ckt, mna);
}

}  // namespace

Engine::Engine(const circuit::Circuit& ckt, mna::Options mna)
    : mna_(assemble(ckt, mna)) {}

const la::RealVector& Engine::equilibrium() {
  // Equilibrium at the initial source values: the operating point the
  // stimulus perturbs.  One substitution, shared by every output (timed
  // by the callers' setup timers).
  if (!x_eq_) x_eq_ = mna_.solve(mna_.rhs_initial());
  return *x_eq_;
}

std::vector<Engine::AtomProblem>& Engine::atom_problems() {
  if (atoms_built_) return atoms_;
  AWESIM_TRACE_SPAN("engine.atoms");
  ScopedTimer timer(stats_.seconds_setup);
  const std::size_t n = mna_.dim();

  const la::RealVector& x_eq = equilibrium();
  const la::RealVector& x0 = mna_.initial_state();

  // Eq. 8's x_h0 is already the consistent x_h(0+) -- no sigma-limit
  // needed -- when the atom adds no value jump and no initial-condition
  // deviation: then x_h0 = -x_b with G x_h0 = C x_a, in range(C), which
  // on an index-1 pencil is exactly the consistency condition.  Ramp
  // atoms qualify; step and IC atoms keep the sigma-walk.
  const bool index_one = check::index_one_structure(mna_.circuit());
  auto jump_free = [](const la::RealVector& jump) {
    return std::all_of(jump.begin(), jump.end(),
                       [](double v) { return v == 0.0; });
  };
  bool first_consistent = index_one && x0 == x_eq;

  // Atom at t=0 carries the initial-condition deviation plus any stimulus
  // event at exactly t=0 (the paper's combined IC + step analysis).
  la::RealVector xh0_first(n);
  for (std::size_t i = 0; i < n; ++i) xh0_first[i] = x0[i] - x_eq[i];
  la::RealVector xb_first(n, 0.0);
  la::RealVector xa_first(n, 0.0);
  bool have_first = la::norm_inf(xh0_first) > 0.0;

  struct Solved {
    const mna::SourceEvent* event;
    la::RealVector xa;
    la::RealVector xb;
  };
  std::vector<Solved> solved;
  for (const auto& ev : mna_.events()) {
    // Particular solution of this segment's input:
    //   G x_a = db1;  G x_b = db0 - C x_a.
    // An event that negates an earlier one (a ramp's slope-off at t_r)
    // takes that event's solutions negated: by the sign symmetry of
    // rounding they differ from fresh solves at most in the sign of an
    // exact zero.
    const auto earlier =
        std::find_if(solved.begin(), solved.end(), [&](const Solved& s) {
          return negation_of(ev.slope_change, s.event->slope_change) &&
                 negation_of(ev.value_jump, s.event->value_jump);
        });
    la::RealVector xa;
    la::RealVector xb;
    if (earlier != solved.end()) {
      xa = negated(earlier->xa);
      xb = negated(earlier->xb);
    } else {
      xa = mna_.solve(ev.slope_change);
      la::RealVector rhs = ev.value_jump;
      const la::RealVector cxa = mna_.apply_C(xa);
      for (std::size_t i = 0; i < n; ++i) rhs[i] -= cxa[i];
      xb = mna_.solve(rhs);
    }
    solved.push_back({&ev, xa, xb});

    if (ev.time <= 0.0) {
      // Fold into the t=0 atom.
      for (std::size_t i = 0; i < n; ++i) {
        xh0_first[i] -= xb[i];
        xb_first[i] += xb[i];
        xa_first[i] += xa[i];
      }
      have_first = true;
      first_consistent = first_consistent && jump_free(ev.value_jump);
    } else {
      AtomProblem atom{ev.time, xb, xa,
                       MomentSequence(mna_, [&] {
                         la::RealVector xh(n);
                         for (std::size_t i = 0; i < n; ++i) xh[i] = -xb[i];
                         return xh;
                       }()),
                       index_one && jump_free(ev.value_jump)};
      atoms_.push_back(std::move(atom));
    }
  }
  if (have_first) {
    atoms_.insert(atoms_.begin(),
                  AtomProblem{0.0, xb_first, xa_first,
                              MomentSequence(mna_, xh0_first),
                              first_consistent});
  }

  // Mirror atoms (see atom_mirror()): the first earlier non-mirror atom
  // whose vectors are the exact negation of this one's.
  for (std::size_t b = 1; b < atoms_.size(); ++b) {
    AtomProblem& atom = atoms_[b];
    for (std::size_t a = 0; a < b; ++a) {
      const AtomProblem& source = atoms_[a];
      if (!source.mirror_of && source.consistent == atom.consistent &&
          negation_of(atom.particular_offset, source.particular_offset) &&
          negation_of(atom.particular_slope, source.particular_slope) &&
          negation_of(atom.moments.x_h0(), source.moments.x_h0())) {
        atom.mirror_of = a;
        break;
      }
    }
  }

  // The static operating point enters as a terms-free pseudo-atom handled
  // in approximate() (affine offset only); we keep x_eq implicitly by
  // storing it in every Result via the base offset.
  atoms_built_ = true;
  return atoms_;
}

// One lint pass per engine, on the first approximation that asks for it.
// Errors abort before any matrix work with the structured lint record;
// warnings only feed the Stats tallies.
void Engine::preflight(const EngineOptions& options) {
  if (!options.preflight_lint || lint_done_) return;
  lint_done_ = true;
  check::LintOptions lint_options;
  lint_options.classify_note = false;
  const check::LintReport report = check::lint(mna_.circuit(), lint_options);
  stats_.lint_errors += report.errors;
  stats_.lint_warnings += report.warnings;
  if (report.ok()) return;
  for (const auto& d : report.diagnostics) {
    if (d.severity >= Severity::Error) {
      Diagnostic fatal = d;
      fatal.severity = Severity::Fatal;
      throw DiagnosticError(std::move(fatal));
    }
  }
}

Result Engine::approximate(circuit::NodeId output,
                           const EngineOptions& options) {
  if (options.order < 1) {
    throw std::invalid_argument("Engine: order >= 1 required");
  }
  preflight(options);
  const std::size_t out = mna_.node_index(output);
  Result result = approximate_at(out, options);
  sync_mna_stats();
  return result;
}

BatchResult Engine::approximate_all(
    std::span<const circuit::NodeId> outputs,
    const EngineOptions& options) {
  if (options.order < 1) {
    throw std::invalid_argument("Engine: order >= 1 required");
  }
  preflight(options);
  std::vector<std::size_t> indices;
  indices.reserve(outputs.size());
  for (const auto output : outputs) {
    indices.push_back(mna_.node_index(output));
  }

  sync_mna_stats();
  const Stats before = stats_;

  // Build the output-independent work up front: the atom problems (one
  // LU of G, particular solutions) and the full-state moment vectors the
  // initial order needs, advanced across all atoms as one multi-RHS
  // block.  Auto-order escalation beyond this window extends lazily.
  auto& atoms = atom_problems();
  {
    AWESIM_TRACE_SPAN("engine.moments");
    ScopedTimer timer(stats_.seconds_moments);
    const int j0 = options.match_initial_slope ? -2 : -1;
    const int mu_count =
        options.estimate_error ? 2 * (options.order + 1) + 1
                               : 2 * options.order + 1;
    std::vector<MomentSequence*> sequences;
    sequences.reserve(atoms.size());
    for (auto& atom : atoms) {
      if (!atom.mirror_of) sequences.push_back(&atom.moments);
    }
    MomentSequence::ensure_all(sequences, j0 + mu_count - 1);
  }

  BatchResult batch;
  batch.results.reserve(indices.size());
  for (const std::size_t out : indices) {
    batch.results.push_back(approximate_at(out, options));
  }
  sync_mna_stats();
  batch.stats = stats_ - before;
  return batch;
}

void Engine::sync_mna_stats() {
  // The MNA counters are cumulative; mirror them into the engine stats.
  const mna::SolveStats& s = mna_.solve_stats();
  stats_.factorizations = s.factorizations;
  stats_.substitutions = s.substitutions;
}

MatchResult Engine::attempt_order(const std::vector<double>& mu, int j0,
                                  int qq, const EngineOptions& options,
                                  core::Diagnostics* diags) {
  ScopedTimer timer(stats_.seconds_match);
  MatchOptions local;
  local.frequency_scaling = options.frequency_scaling;
  std::vector<double> window(mu.begin(), mu.begin() + 2 * qq);
  ++stats_.matches;
  MatchResult m = match_moments(window, j0, qq, local);
  if (fault_at("engine.unstable", std::to_string(qq))) {
    m.stable = false;
    if (diags) {
      Diagnostic d;
      d.code = DiagCode::InjectedFault;
      d.message = "forced eq. 24 match unstable at q=" +
                  std::to_string(qq);
      diags->push_back(std::move(d));
    }
  }
  if (!m.terms.empty() &&
      fault_at("engine.residue", std::to_string(qq))) {
    m.terms.front().residue = la::Complex(kNan, 0.0);
    if (diags) {
      Diagnostic d;
      d.code = DiagCode::InjectedFault;
      d.message = "injected NaN residue at q=" + std::to_string(qq);
      diags->push_back(std::move(d));
    }
  }
  if (!finite_terms(m.terms)) m.stable = false;
  if (!m.stable) {
    // Section 3.3 fallback: retry with the pole window shifted to pure
    // moments before giving up on this order.
    local.pole_shift = 1;
    std::vector<double> wider(mu.begin(), mu.begin() + 2 * qq + 1);
    ++stats_.matches;
    MatchResult shifted = match_moments(wider, j0, qq, local);
    if (fault_at("engine.shift", std::to_string(qq))) {
      shifted.stable = false;
      if (diags) {
        Diagnostic d;
        d.code = DiagCode::InjectedFault;
        d.message = "forced shifted-window match unstable at q=" +
                    std::to_string(qq);
        diags->push_back(std::move(d));
      }
    }
    if (shifted.stable && finite_terms(shifted.terms)) return shifted;
  }
  return m;
}

Engine::LadderOutcome Engine::match_with_ladder(
    const std::vector<double>& mu, int j0, int q,
    const EngineOptions& options, bool allow_degrade,
    const std::string& node_name, core::Diagnostics* diags) {
  LadderOutcome out;

  bool moments_finite = true;
  double max_mu = 0.0;
  for (const double v : mu) {
    if (!std::isfinite(v)) moments_finite = false;
    max_mu = std::max(max_mu, std::abs(v));
  }
  // NaN moments count as "transient present": something is there, we just
  // cannot see it.
  const bool has_transient = max_mu > 0.0 || !moments_finite;

  auto note = [&](DiagCode code, Severity severity, std::string message,
                  double condition = -1.0) {
    if (!diags) return;
    Diagnostic d;
    d.code = code;
    d.severity = severity;
    d.message = std::move(message);
    d.node = node_name;
    d.condition_estimate = condition;
    diags->push_back(std::move(d));
  };

  if (moments_finite) {
    // Rung 1+2: the eq. 24 window, with the Section 3.3 shifted-window
    // retry built into attempt_order.
    out.match = attempt_order(mu, j0, q, options, diags);
    if (usable_match(out.match, has_transient)) {
      if (out.match.pole_shift == 1) {
        out.status = ApproxStatus::WindowShifted;
        note(DiagCode::WindowShifted, Severity::Info,
             "eq. 24 window unstable at q=" + std::to_string(q) +
                 "; Section 3.3 shifted window engaged");
      } else if (out.match.order_used > 0 &&
                 out.match.order_used < out.match.order_requested) {
        // The Hankel solve itself reduced the order (rank/conditioning):
        // a clean exact reduction, recorded but not a degradation.
        note(DiagCode::OrderReduced, Severity::Info,
             "Hankel conditioning reduced order from " +
                 std::to_string(out.match.order_requested) + " to " +
                 std::to_string(out.match.order_used),
             out.match.rejected_pivot_growth);
      }
      return out;
    }
    if (!allow_degrade) return out;  // caller escalates or wants raw output

    note(DiagCode::UnstablePoles, Severity::Warning,
         "no stable model at q=" + std::to_string(q) +
             " (eq. 24 and shifted windows); walking the ladder down");

    // Rung 3: step the order down q-1, ..., 1.  q=1 through the match is
    // the exact Elmore (Penfield-Rubinstein) reduction.
    for (int qq = q - 1; qq >= 1; --qq) {
      MatchResult lower = attempt_order(mu, j0, qq, options, diags);
      if (usable_match(lower, has_transient)) {
        out.match = std::move(lower);
        out.status = ApproxStatus::OrderReduced;
        note(DiagCode::OrderReduced, Severity::Warning,
             "order stepped down from " + std::to_string(q) + " to " +
                 std::to_string(qq) + " for a stable model",
             out.match.rejected_pivot_growth);
        return out;
      }
    }
  } else {
    note(DiagCode::NonFiniteValue, Severity::Error,
         "non-finite moments; no window is matchable");
    if (!allow_degrade) {
      out.match.stable = false;
      return out;
    }
  }

  // Rung 4: the flagged Elmore bound, built directly from mu_{-1} and
  // mu_0 without a Hankel solve (so it survives injected or genuine
  // match failures at every order).
  const std::size_t i_m1 = static_cast<std::size_t>(-1 - j0);
  const std::size_t i_0 = static_cast<std::size_t>(-j0);
  const double mu_m1 = mu[i_m1];
  const double mu_0 = mu[i_0];
  if (has_transient && std::isfinite(mu_m1) && std::isfinite(mu_0) &&
      mu_m1 != 0.0 && mu_0 != 0.0) {
    const double pole = mu_m1 / mu_0;
    if (std::isfinite(pole) && pole < 0.0) {
      out.match = MatchResult{};
      out.match.order_requested = q;
      out.match.order_used = 1;
      out.match.stable = true;
      out.match.terms = {{la::Complex(pole, 0.0),
                          la::Complex(-mu_m1, 0.0), 1}};
      out.status = ApproxStatus::ElmoreFallback;
      note(DiagCode::ElmoreFallback, Severity::Warning,
           "degraded to the single-pole Elmore bound (tau=" +
               std::to_string(-1.0 / pole) + "s)");
      return out;
    }
  }

  // Rung 5: nothing left -- answer with the affine (DC) part alone and
  // flag the output as failed.
  out.match = MatchResult{};
  out.match.order_requested = q;
  out.match.order_used = 0;
  out.match.stable = true;  // an empty term set is trivially stable
  out.status = ApproxStatus::Failed;
  note(DiagCode::NonFiniteValue, Severity::Error,
       "no transient model obtainable; answering with the DC/affine part "
       "only");
  return out;
}

Result Engine::approximate_at(std::size_t out,
                              const EngineOptions& options) {
  auto& atoms = atom_problems();
  const la::RealVector& x_eq = equilibrium();

  const int j0 = options.match_initial_slope ? -2 : -1;
  const std::string node_name =
      out + 1 < mna_.circuit().node_count()
          ? mna_.circuit().node_name(static_cast<circuit::NodeId>(out) + 1)
          : "#" + std::to_string(out);

  int q = options.order;
  Result result;
  while (true) {
    // Degradation only engages once order escalation (if available) is
    // exhausted; earlier auto-order passes keep the paper's "instability
    // forces escalation" rule intact.
    const bool last_chance = !options.auto_order ||
                             !options.estimate_error ||
                             q >= options.max_order;
    const bool allow_degrade = options.degrade && last_chance;

    result = Result{};
    result.used_gmin = mna_.used_gmin();
    for (const auto& d : mna_.diagnostics()) {
      result.diagnostics.push_back(d);
    }

    // Base pseudo-atom: the pre-stimulus operating point.
    AtomApproximation base;
    base.start_time = 0.0;
    base.affine_offset = x_eq[out];
    result.approximation.atoms().push_back(base);

    double worst_error = 0.0;
    bool all_stable = true;
    // Per-atom outcome, kept so a mirror atom can replay its source's:
    // the match (residues negated), the diagnostics it emitted, and its
    // error estimate (nullopt: no accuracy statement to fold in).
    struct AtomOutcome {
      LadderOutcome ladder;
      std::size_t diag_begin = 0;
      std::size_t diag_end = 0;
      std::optional<double> error;
    };
    std::vector<AtomOutcome> outcomes(atoms.size());
    for (std::size_t a = 0; a < atoms.size(); ++a) {
      AtomProblem& problem = atoms[a];
      AtomOutcome& outcome = outcomes[a];
      if (problem.mirror_of) {
        const AtomOutcome& source = outcomes[*problem.mirror_of];
        outcome = source;
        for (auto& term : outcome.ladder.match.terms) {
          term.residue = -term.residue;
        }
        const core::Diagnostics replay(
            result.diagnostics.begin() + source.diag_begin,
            result.diagnostics.begin() + source.diag_end);
        result.diagnostics.insert(result.diagnostics.end(), replay.begin(),
                                  replay.end());
      } else {
        outcome.diag_begin = result.diagnostics.size();
        // Gather mu_{j0} .. mu_{j0 + 2(q+1)}: enough for the q-match, the
        // (q+1)-order error reference, and the shifted-window fallback.
        // Without error estimation only the q-match moments are needed.
        const int mu_count =
            options.estimate_error ? 2 * (q + 1) + 1 : 2 * q + 1;
        std::vector<double> mu;
        {
          AWESIM_TRACE_SPAN("engine.moments");
          ScopedTimer timer(stats_.seconds_moments);
          for (int j = j0; j < j0 + mu_count; ++j) {
            double v = problem.moments.mu(j, out);
            if (j == -1 && options.jump_consistent && !problem.consistent &&
                problem.moments.has_jump(out)) {
              v = -problem.moments.consistent_initial_value()[out];
            }
            mu.push_back(v);
          }
        }
        if (fault_at("engine.moments", node_name)) {
          for (double& v : mu) v = kNan;
          Diagnostic d;
          d.code = DiagCode::InjectedFault;
          d.message = "replaced moment window with NaN";
          d.node = node_name;
          result.diagnostics.push_back(std::move(d));
        }

        outcome.ladder =
            match_with_ladder(mu, j0, q, options, allow_degrade, node_name,
                              &result.diagnostics);
        const LadderOutcome& ladder = outcome.ladder;
        if (options.estimate_error &&
            ladder.status <= ApproxStatus::OrderReduced &&
            !ladder.match.terms.empty()) {
          const MatchResult ref =
              attempt_order(mu, j0, q + 1, options, nullptr);
          outcome.error =
              options.cauchy_error_bound
                  ? cauchy_relative_error(ref.terms, ladder.match.terms)
                  : exact_relative_error(ref.terms, ladder.match.terms);
        } else if (options.estimate_error &&
                   ladder.status >= ApproxStatus::ElmoreFallback) {
          // Degraded bounds carry no q-vs-(q+1) accuracy statement.
          outcome.error = kNan;
        }
        outcome.diag_end = result.diagnostics.size();
        if (a == 0) result.output_moments = std::move(mu);
      }

      const MatchResult& match = outcome.ladder.match;
      AtomApproximation atom;
      atom.start_time = problem.start_time;
      atom.affine_offset = problem.particular_offset[out];
      atom.affine_slope = problem.particular_slope[out];
      atom.terms = match.terms;
      atom.match = match;
      result.approximation.atoms().push_back(std::move(atom));

      result.order_used = std::max(result.order_used, match.order_used);
      if (!match.stable) all_stable = false;
      const ApproxStatus status = outcome.ladder.status;
      if (status > result.status) result.status = status;
      switch (status) {
        case ApproxStatus::WindowShifted: ++stats_.window_shifts; break;
        case ApproxStatus::OrderReduced: ++stats_.order_stepdowns; break;
        case ApproxStatus::ElmoreFallback: ++stats_.elmore_fallbacks; break;
        default: break;
      }
      if (outcome.error) {
        if (std::isnan(*outcome.error)) {
          worst_error = kNan;
        } else if (!std::isnan(worst_error)) {
          worst_error = std::max(worst_error, *outcome.error);
        }
      }
    }
    result.stable = all_stable;
    result.error_estimate =
        options.estimate_error ? worst_error : kNan;

    if (!options.auto_order || !options.estimate_error) break;
    const bool good = all_stable && !std::isnan(worst_error) &&
                      worst_error <= options.error_tolerance;
    if (good || q >= options.max_order) break;
    ++q;
  }
  if (result.status == ApproxStatus::OrderReduced ||
      result.status == ApproxStatus::ElmoreFallback) {
    ++stats_.degradations;
  } else if (result.status == ApproxStatus::Failed) {
    ++stats_.failures;
  }
  ++stats_.outputs;
  return result;
}

std::size_t Engine::atom_count() { return atom_problems().size(); }

bool Engine::atom_consistent(std::size_t atom) {
  return atom_problems().at(atom).consistent;
}

std::optional<std::size_t> Engine::atom_mirror(std::size_t atom) {
  return atom_problems().at(atom).mirror_of;
}

MomentSequence& Engine::atom_moments(std::size_t atom) {
  return atom_problems().at(atom).moments;
}

la::ComplexVector Engine::actual_poles() const {
  return core::actual_poles(mna_);
}

double Engine::elmore_delay(circuit::NodeId output) {
  const std::size_t out = mna_.node_index(output);
  auto& atoms = atom_problems();
  if (atoms.empty()) return 0.0;
  auto& m = atoms.front().moments;
  const double mu_m1 = m.mu(-1, out);
  const double mu_0 = m.mu(0, out);
  if (mu_m1 == 0.0) return kNan;
  return -mu_0 / mu_m1;
}

}  // namespace awesim::core
