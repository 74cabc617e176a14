// The AWE moment-matching solve (Sections 3.1 and 3.5 of the paper):
// from 2q matched quantities (initial value + 2q-1 moments, or with the
// optional slope term, slope + initial value + 2q-2 moments) to q poles
// and q residues.
//
//  1. frequency-scale the moments by gamma (eq. 47) so the Hankel system
//     stays well conditioned for stiff circuits;
//  2. solve the q x q Hankel system (eq. 24) for the characteristic
//     polynomial coefficients a_0..a_{q-1};
//  3. root  a_0 + a_1 y + ... + y^q  (eq. 25, y = 1/p) for the reciprocal
//     poles;
//  4. solve the (confluent, if poles repeat) Vandermonde system (eq. 20 /
//     eq. 29) for the residues; roots within a fixed relative distance
//     (1e-7) of each other are clustered into one repeated pole.
//
// If the Hankel matrix is numerically singular the sequence carries fewer
// than q independent modes; the order is reduced and the solve retried, so
// asking for q = 4 on a 2-pole circuit cleanly yields the exact 2-pole
// answer.
#pragma once

#include <vector>

#include "la/matrix.h"

namespace awesim::core {

/// One term of an exponential approximation:
///   residue * t^(power-1) * exp(pole * t) / (power-1)!
/// power > 1 only for repeated poles.
struct PoleResidueTerm {
  la::Complex pole;
  la::Complex residue;
  int power = 1;
};

/// Value of a term sum at time t (imaginary parts cancel for
/// conjugate-closed sets; the real part is returned).
double evaluate_terms(const std::vector<PoleResidueTerm>& terms, double t);

struct MatchOptions {
  /// Apply the eq. 47 frequency scaling.  Disabled only by the ablation
  /// bench; stiff circuits need it (see bench_ablation_freq_scaling).
  bool frequency_scaling = true;

  /// Start of the *pole* (Hankel) window relative to the residue window:
  /// 0 reproduces eq. 24 exactly (initial value participates in the pole
  /// solve); 1 takes the poles from pure moments mu_{j0+1}.. while the
  /// residues stay anchored at mu_{j0} (initial and final value still
  /// exact).  The shifted window often stays stable on nonmonotone
  /// initial-condition responses where the eq. 24 window turns up a
  /// positive pole (Section 3.3); the engine uses it as a fallback.
  /// Requires one extra moment (2q + pole_shift entries).
  int pole_shift = 0;
};

struct MatchResult {
  std::vector<PoleResidueTerm> terms;

  int order_requested = 0;
  /// Order actually delivered; smaller when the moment sequence has lower
  /// numerical rank than requested.
  int order_used = 0;

  /// All poles strictly in the open left half plane.
  bool stable = true;

  /// gamma used for scaling (1 when scaling disabled).
  double gamma = 1.0;

  /// The pole-window shift this result was produced with (see
  /// MatchOptions::pole_shift).
  int pole_shift = 0;

  /// max |reconstructed moment - input moment| / max |input moment|
  /// over the matched window -- a direct self-check of the match.
  double moment_residual = 0.0;

  /// Pivot spread |max|/|min| of the accepted order's Hankel LU -- the
  /// cheap conditioning proxy of the eq. 24 system; negative if the
  /// accepted order never reached the Hankel solve (zero transient).
  double hankel_pivot_growth = -1.0;

  /// Largest pivot spread among *rejected* higher orders (the condition
  /// estimate that triggered order step-down); negative if no order was
  /// rejected for conditioning.
  double rejected_pivot_growth = -1.0;
};

/// Match a q-pole model to the moment window mu[j0 .. j0+2q-1].
///
/// `moments` holds the scalar sequence; `moments[i]` is mu_{j0+i} and at
/// least 2q entries must be present.  j0 = -1 for the standard AWE match
/// (initial value + moments), j0 = -2 when the initial slope is matched
/// too.  Returns a result with empty `terms` if the transient is
/// (numerically) identically zero.
MatchResult match_moments(const std::vector<double>& moments, int j0, int q,
                          const MatchOptions& options = {});

/// Reconstruct moment mu_j implied by a term set (for self-checks and
/// property tests): mu_j = -sum_terms residue * binom(j+power-1, power-1)
/// * pole^-(power+j) ... specialized to the uniform convention used by
/// match_moments.
double implied_moment(const std::vector<PoleResidueTerm>& terms, int j);

}  // namespace awesim::core
