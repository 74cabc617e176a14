#include "core/pade.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/fault.h"
#include "la/lu.h"
#include "la/poly.h"
#include "obs/trace.h"

namespace awesim::core {

namespace {

/// Relative pole distance under which roots are clustered into one
/// repeated pole (confluent residue solve).
constexpr double kRepeatedPoleTolerance = 1e-7;

// Generalized binomial coefficient C(n, m) for integer n (possibly
// negative), m >= 0: product form n(n-1)...(n-m+1)/m!.
double gbinom(int n, int m) {
  double num = 1.0;
  double den = 1.0;
  for (int i = 0; i < m; ++i) {
    num *= static_cast<double>(n - i);
    den *= static_cast<double>(i + 1);
  }
  return num / den;
}

// Coefficient multiplying the residue of a (pole, power) term in moment
// mu_j:  (-1)^power * C(power+j-1, power-1) * pole^-(power+j).
la::Complex moment_coefficient(la::Complex pole, int power, int j) {
  const double sign = (power % 2 == 0) ? 1.0 : -1.0;
  const double binom = gbinom(power + j - 1, power - 1);
  return sign * binom * std::pow(pole, -(power + j));
}

struct PoleCluster {
  la::Complex pole;  // cluster representative (mean)
  int multiplicity = 1;
};

std::vector<PoleCluster> cluster_poles(const la::ComplexVector& poles) {
  std::vector<PoleCluster> clusters;
  for (const la::Complex& p : poles) {
    bool merged = false;
    for (auto& c : clusters) {
      const double scale = std::max(std::abs(c.pole), std::abs(p));
      if (std::abs(c.pole - p) <= kRepeatedPoleTolerance * scale) {
        // Running mean keeps the representative centered.
        c.pole = (c.pole * static_cast<double>(c.multiplicity) + p) /
                 static_cast<double>(c.multiplicity + 1);
        ++c.multiplicity;
        merged = true;
        break;
      }
    }
    if (!merged) clusters.push_back({p, 1});
  }
  return clusters;
}

// Attempt the full match at exactly order q; returns false when the
// numerics say the sequence does not support q independent stable-ish
// modes (singular Hankel, pole at infinity, singular residue system).
bool try_match(const std::vector<double>& mu, int j0, int q,
               const MatchOptions& options, double gamma,
               MatchResult* out) {
  const int shift = options.pole_shift;
  const int count = 2 * q + shift;
  // Scaled moments mu'_j = mu_j * gamma^(j+1), j = j0 .. j0+count-1.
  std::vector<double> scaled(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const int j = j0 + i;
    scaled[static_cast<std::size_t>(i)] =
        mu[static_cast<std::size_t>(i)] * std::pow(gamma, j + 1);
  }

  // Hankel system (eq. 24): rows r = 0..q-1,
  //   sum_c mu'_{j0+shift+r+c} a_c = -mu'_{j0+shift+r+q}.
  la::RealVector a;
  {
    AWESIM_TRACE_SPAN("pade.hankel");
    la::RealMatrix hankel(static_cast<std::size_t>(q),
                          static_cast<std::size_t>(q));
    la::RealVector rhs(static_cast<std::size_t>(q));
    for (int r = 0; r < q; ++r) {
      for (int c = 0; c < q; ++c) {
        hankel(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) =
            scaled[static_cast<std::size_t>(shift + r + c)];
      }
      rhs[static_cast<std::size_t>(r)] =
          -scaled[static_cast<std::size_t>(shift + r + q)];
    }
    try {
      la::Lu<double> lu(hankel);
      // A pivot spread beyond ~1e13 means the (scaled) moment sequence
      // has numerical rank < q: the circuit response carries fewer than q
      // resolvable modes.  Reduce the order rather than manufacture
      // spurious poles from rounding noise.
      out->hankel_pivot_growth = lu.pivot_growth();
      if (out->hankel_pivot_growth > 1e13) return false;
      a = lu.solve(rhs);
    } catch (const la::SingularMatrixError&) {
      out->hankel_pivot_growth = std::numeric_limits<double>::infinity();
      return false;
    }
  }

  // Characteristic polynomial (eq. 25) in y = 1/p':
  //   a_0 + a_1 y + ... + a_{q-1} y^{q-1} + y^q = 0.
  la::RealVector coeffs(a);
  coeffs.push_back(1.0);
  la::ComplexVector roots;
  {
    AWESIM_TRACE_SPAN("pade.roots");
    try {
      roots = la::polyroots(coeffs);
    } catch (const std::exception&) {
      return false;
    }
  }
  double max_root = 0.0;
  for (const auto& y : roots) max_root = std::max(max_root, std::abs(y));
  la::ComplexVector scaled_poles;
  for (const auto& y : roots) {
    if (std::abs(y) <= 1e-10 * std::max(max_root, 1.0)) {
      return false;  // pole at infinity: order too high for this response
    }
    scaled_poles.push_back(1.0 / y);
  }

  // Residues: (confluent) Vandermonde solve on the same scaled window
  // (eq. 20 for distinct poles, the eq. 26-29 pattern when repeated).
  const auto clusters = cluster_poles(scaled_poles);
  la::ComplexVector residues;
  {
    AWESIM_TRACE_SPAN("engine.residues");
    la::ComplexMatrix vand(static_cast<std::size_t>(q),
                           static_cast<std::size_t>(q));
    la::ComplexVector vrhs(static_cast<std::size_t>(q));
    for (int r = 0; r < q; ++r) {
      const int j = j0 + r;
      std::size_t col = 0;
      for (const auto& c : clusters) {
        for (int l = 1; l <= c.multiplicity; ++l, ++col) {
          vand(static_cast<std::size_t>(r), col) =
              moment_coefficient(c.pole, l, j);
        }
      }
      vrhs[static_cast<std::size_t>(r)] =
          la::Complex(scaled[static_cast<std::size_t>(r)], 0.0);
    }
    try {
      residues = la::solve(vand, vrhs);
    } catch (const la::SingularMatrixError&) {
      return false;
    }
  }

  // Prune terms whose (scaled-domain) residue is negligible: they are
  // numerical artifacts of a nearly rank-deficient match and contribute
  // nothing to the waveform.
  double residue_scale = 0.0;
  for (const auto& k : residues) {
    residue_scale = std::max(residue_scale, std::abs(k));
  }

  // Unscale: p = gamma * p', k = k' * gamma^(power-1).
  out->terms.clear();
  std::size_t col = 0;
  for (const auto& c : clusters) {
    for (int l = 1; l <= c.multiplicity; ++l, ++col) {
      if (std::abs(residues[col]) < 1e-12 * residue_scale) continue;
      PoleResidueTerm term;
      term.pole = gamma * c.pole;
      term.power = l;
      term.residue = residues[col] * std::pow(gamma, l - 1);
      out->terms.push_back(term);
    }
  }
  out->order_used = static_cast<int>(out->terms.size());
  out->gamma = gamma;
  out->stable = std::all_of(
      out->terms.begin(), out->terms.end(),
      [](const PoleResidueTerm& t) { return t.pole.real() < 0.0; });

  // Self-check: the model must reproduce every *interpolated* moment.
  // With shift == 0 that is the whole 2q window; with a shifted pole
  // window only the q residue conditions are exact interpolation (the
  // upper moments are matched through the recurrence, approximately).
  const int checked = (shift == 0) ? count : q;
  double max_mu = 0.0;
  for (int i = 0; i < checked; ++i) {
    max_mu = std::max(max_mu, std::abs(mu[static_cast<std::size_t>(i)]));
  }
  double residual = 0.0;
  for (int i = 0; i < checked; ++i) {
    const int j = j0 + i;
    const double back = implied_moment(out->terms, j);
    residual = std::max(
        residual, std::abs(back - mu[static_cast<std::size_t>(i)]));
  }
  out->moment_residual = max_mu > 0.0 ? residual / max_mu : 0.0;
  // A grossly failed reconstruction means the numerics broke down (e.g. a
  // nearly singular Hankel that did not trip the pivot test).
  return out->moment_residual < 1e-3;
}

}  // namespace

double evaluate_terms(const std::vector<PoleResidueTerm>& terms, double t) {
  double value = 0.0;
  for (const auto& term : terms) {
    const double re_exp = term.pole.real() * t;
    if (re_exp > 700.0) {
      // Unstable-pole overflow guard; diagnostics only.
      return std::numeric_limits<double>::infinity();
    }
    double poly = 1.0;
    for (int i = 1; i < term.power; ++i) {
      poly *= t / static_cast<double>(i);
    }
    if (term.pole.imag() == 0.0 && std::isfinite(term.residue.imag())) {
      // Real pole: the complex product's real part is Re(k) e^{pt} to
      // the bit (its Im(k) * 0 term is a signed zero), so skip the
      // complex exponential.
      value += term.residue.real() * std::exp(re_exp) * poly;
    } else {
      value += (term.residue * std::exp(term.pole * t)).real() * poly;
    }
  }
  return value;
}

double implied_moment(const std::vector<PoleResidueTerm>& terms, int j) {
  la::Complex acc{0.0, 0.0};
  for (const auto& term : terms) {
    acc += term.residue * moment_coefficient(term.pole, term.power, j);
  }
  return acc.real();
}

MatchResult match_moments(const std::vector<double>& mu, int j0, int q,
                          const MatchOptions& options) {
  if (q < 1) throw std::invalid_argument("match_moments: q >= 1");
  const std::size_t needed =
      static_cast<std::size_t>(2 * q + options.pole_shift);
  if (mu.size() < needed) {
    throw std::invalid_argument(
        "match_moments: need 2q + pole_shift moments");
  }

  MatchResult result;
  result.order_requested = q;

  // Non-finite moments (upstream numerical breakdown or an injected
  // fault): no window is matchable.  Flagged via stable=false so callers
  // can tell this apart from a clean zero transient.
  for (std::size_t i = 0; i < needed; ++i) {
    if (!std::isfinite(mu[i])) {
      result.order_used = 0;
      result.stable = false;
      result.moment_residual = std::numeric_limits<double>::infinity();
      return result;
    }
  }

  // Identically-zero transient: nothing to match.
  double max_mu = 0.0;
  for (std::size_t i = 0; i < needed; ++i) {
    max_mu = std::max(max_mu, std::abs(mu[i]));
  }
  if (max_mu == 0.0) {
    result.order_used = 0;
    return result;
  }

  // Frequency scale (eq. 47).  The paper uses m_{-1}/m_0; we walk from the
  // highest matched moments down instead, because the high-order ratio
  // converges to the dominant pole magnitude and, unlike the low-order
  // entries, the high moments are never rounding-noise relative to the
  // rest of the sequence (e.g. a victim node has mu_{-1} ~ 0 exactly).
  double gamma = 1.0;
  if (options.frequency_scaling) {
    for (std::size_t i = needed - 1; i >= 1; --i) {
      if (std::abs(mu[i]) > 1e-13 * max_mu &&
          std::abs(mu[i - 1]) > 1e-13 * max_mu) {
        const double g = std::abs(mu[i - 1] / mu[i]);
        if (std::isfinite(g) && g > 0.0) {
          gamma = g;
          break;
        }
      }
    }
  }

  result.pole_shift = options.pole_shift;
  double rejected_growth = -1.0;
  for (int qq = q; qq >= 1; --qq) {
    result.hankel_pivot_growth = -1.0;
    const bool injected_singular =
        fault_at("pade.hankel", std::to_string(qq));
    if (!injected_singular && try_match(mu, j0, qq, options, gamma,
                                        &result)) {
      result.rejected_pivot_growth = rejected_growth;
      return result;
    }
    // This order was rejected (rank/conditioning/self-check); remember
    // the conditioning estimate that killed it for the diagnostics.
    rejected_growth = std::max(rejected_growth, result.hankel_pivot_growth);
  }
  // Even a single pole failed: report the degenerate empty result.
  result.order_used = 0;
  result.terms.clear();
  result.rejected_pivot_growth = rejected_growth;
  return result;
}

}  // namespace awesim::core
