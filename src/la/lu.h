// LU factorization with partial pivoting, over double or complex<double>.
//
// AWE's computational core is one factorization of the MNA conductance
// matrix followed by 2q-1 forward/back substitutions (Section 3.2 of the
// paper: "once the H-matrix is LU-factored the major task in computing even
// higher moments is repeated forward- and back-substitution").  The
// factorization object is therefore kept around and re-applied.
#pragma once

#include <optional>
#include <stdexcept>
#include <vector>

#include "la/matrix.h"

namespace awesim::la {

/// Thrown when a factorization meets an exactly (or numerically) singular
/// pivot.  For circuit matrices this usually means a floating node or an
/// ill-posed topology (e.g. a loop of ideal voltage sources).
class SingularMatrixError : public std::runtime_error {
 public:
  explicit SingularMatrixError(std::size_t pivot_index)
      : std::runtime_error("LU: singular pivot at index " +
                           std::to_string(pivot_index)),
        pivot_index_(pivot_index) {}

  /// Elimination step at which the zero pivot appeared.
  std::size_t pivot_index() const { return pivot_index_; }

 private:
  std::size_t pivot_index_;
};

/// LU factorization P*A = L*U with partial (row) pivoting.
template <typename T>
class Lu {
 public:
  /// Factor a square matrix.  Throws SingularMatrixError on a zero pivot,
  /// std::invalid_argument if the matrix is not square.
  explicit Lu(Matrix<T> a);

  std::size_t size() const { return lu_.rows(); }

  /// Solve A x = b.  b.size() must equal size().
  ///
  /// The substitutions walk each factor row only over its nonzero span,
  /// recorded at factor time: from the first nonzero of the L row, to
  /// the last nonzero of the U row, in column order.  Against a walk of
  /// the full triangles this drops only terms 0 * x[j]: for finite x the
  /// result differs at most in the sign of an exact zero.  A solve whose
  /// result holds a non-finite entry is redone with the full walk, so
  /// NaN/inf propagation is exactly that of the dense substitution.
  std::vector<T> solve(const std::vector<T>& b) const;

  /// Batched solve with cache-blocked panels: the factor's row spans are
  /// streamed once per panel of up to 8 right-hand sides instead of once
  /// per vector.  Per-RHS results are bitwise identical to solve() --
  /// the arithmetic order within each right-hand side is unchanged, only
  /// the traversal of the factor is shared.
  std::vector<std::vector<T>> solve_multi(
      const std::vector<std::vector<T>>& bs) const;

  /// Solve A^T x = b (useful for adjoint/sensitivity analyses).
  std::vector<T> solve_transposed(const std::vector<T>& b) const;

  /// Determinant of A (product of pivots, sign-corrected for permutations).
  T determinant() const;

  /// Lower bound estimate of the infinity-norm condition number, via a
  /// few rounds of the Hager/Higham-style power method on A^{-1}.
  double condition_estimate(double a_norm_inf) const;

  /// Ratio |largest pivot| / |smallest pivot|; a cheap conditioning proxy
  /// used by the AWE moment-matrix diagnostics.
  double pivot_growth() const;

 private:
  // Forward/back substitution of one right-hand side, over the row
  // spans or (full) over the whole triangles.
  std::vector<T> substitute(const std::vector<T>& b, bool full) const;

  Matrix<T> lu_;               // combined L (unit diagonal) and U factors
  std::vector<std::size_t> perm_;  // row permutation
  int perm_sign_ = 1;
  // Nonzero spans: row i of L is zero left of column l_begin_[i], row i
  // of U is zero from column u_end_[i] on.
  std::vector<std::size_t> l_begin_;
  std::vector<std::size_t> u_end_;
};

using RealLu = Lu<double>;
using ComplexLu = Lu<Complex>;

/// Convenience one-shot solve of A x = b.
template <typename T>
std::vector<T> solve(const Matrix<T>& a, const std::vector<T>& b) {
  return Lu<T>(a).solve(b);
}

/// Dense inverse (used only in tests and small analyses).
template <typename T>
Matrix<T> inverse(const Matrix<T>& a);

extern template class Lu<double>;
extern template class Lu<Complex>;
extern template Matrix<double> inverse(const Matrix<double>&);
extern template Matrix<Complex> inverse(const Matrix<Complex>&);

}  // namespace awesim::la
