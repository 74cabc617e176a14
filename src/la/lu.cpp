#include "la/lu.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/fault.h"

namespace awesim::la {

namespace {

// A pivot smaller than this times the largest element of its column is
// treated as numerically zero.
constexpr double kPivotTolerance = 1e-300;

bool finite(double v) { return std::isfinite(v); }
bool finite(const Complex& v) {
  return std::isfinite(v.real()) && std::isfinite(v.imag());
}

template <typename T>
bool all_finite(const T* v, std::size_t n) {
  return std::all_of(v, v + n, [](const T& x) { return finite(x); });
}

}  // namespace

template <typename T>
Lu<T>::Lu(Matrix<T> a) : lu_(std::move(a)) {
  if (lu_.rows() != lu_.cols()) {
    throw std::invalid_argument("Lu: matrix must be square");
  }
  const std::size_t n = lu_.rows();
  if (core::fault_at("la.lu", std::to_string(n))) {
    throw SingularMatrixError(0);
  }
  perm_.resize(n);
  std::iota(perm_.begin(), perm_.end(), std::size_t{0});
  l_begin_.assign(n, 0);
  u_end_.assign(n, n);

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: pick the largest magnitude in column k at/below k.
    std::size_t pivot_row = k;
    double pivot_mag = std::abs(lu_(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      const double mag = std::abs(lu_(i, k));
      if (mag > pivot_mag) {
        pivot_mag = mag;
        pivot_row = i;
      }
    }
    if (pivot_mag <= kPivotTolerance) {
      throw SingularMatrixError(k);
    }
    if (pivot_row != k) {
      for (std::size_t j = 0; j < n; ++j) {
        std::swap(lu_(k, j), lu_(pivot_row, j));
      }
      std::swap(perm_[k], perm_[pivot_row]);
      perm_sign_ = -perm_sign_;
    }
    const T pivot = lu_(k, k);
    // Row k of U is final: record where its nonzero span ends.  The row
    // updates stop there too, since a finite mult times an exact zero
    // moves no value, at most the sign of an exact zero.
    std::size_t& span_end = u_end_[k];
    while (span_end > k + 1 && lu_(k, span_end - 1) == T{}) --span_end;
    for (std::size_t i = k + 1; i < n; ++i) {
      const T mult = lu_(i, k) / pivot;
      lu_(i, k) = mult;
      if (mult == T{}) continue;
      const std::size_t end = finite(mult) ? span_end : n;
      for (std::size_t j = k + 1; j < end; ++j) {
        lu_(i, j) -= mult * lu_(k, j);
      }
    }
  }
  // The L rows are final only after the last row swap.
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t& begin = l_begin_[i];
    while (begin < i && lu_(i, begin) == T{}) ++begin;
  }
}

template <typename T>
std::vector<T> Lu<T>::substitute(const std::vector<T>& b, bool full) const {
  const std::size_t n = size();
  // Apply permutation, then forward substitution with unit-lower L.
  std::vector<T> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = b[perm_[i]];
  for (std::size_t i = 1; i < n; ++i) {
    const T* const row = lu_.row(i);
    T acc = x[i];
    for (std::size_t j = full ? 0 : l_begin_[i]; j < i; ++j) {
      acc -= row[j] * x[j];
    }
    x[i] = acc;
  }
  // Back substitution with U.
  for (std::size_t ii = n; ii-- > 0;) {
    const T* const row = lu_.row(ii);
    T acc = x[ii];
    for (std::size_t j = ii + 1; j < (full ? n : u_end_[ii]); ++j) {
      acc -= row[j] * x[j];
    }
    x[ii] = acc / row[ii];
  }
  return x;
}

template <typename T>
std::vector<T> Lu<T>::solve(const std::vector<T>& b) const {
  if (b.size() != size()) {
    throw std::invalid_argument("Lu::solve: rhs size mismatch");
  }
  std::vector<T> x = substitute(b, false);
  if (!all_finite(x.data(), x.size())) return substitute(b, true);
  return x;
}

template <typename T>
std::vector<std::vector<T>> Lu<T>::solve_multi(
    const std::vector<std::vector<T>>& bs) const {
  const std::size_t n = size();
  constexpr std::size_t kPanel = 8;
  // Panel scratch, column-major (column r at panel + r*n), reused across
  // panels and calls so the hot path never touches the allocator.
  static thread_local std::vector<T> arena;
  if (arena.size() < n * kPanel) arena.resize(n * kPanel);
  T* const panel = arena.data();

  std::vector<std::vector<T>> xs(bs.size());
  for (std::size_t b0 = 0; b0 < bs.size(); b0 += kPanel) {
    const std::size_t width = std::min(kPanel, bs.size() - b0);
    for (std::size_t r = 0; r < width; ++r) {
      const std::vector<T>& b = bs[b0 + r];
      if (b.size() != n) {
        throw std::invalid_argument("Lu::solve_multi: rhs size mismatch");
      }
      T* const col = panel + r * n;
      for (std::size_t i = 0; i < n; ++i) col[i] = b[perm_[i]];
    }
    // Forward with unit-lower L: each factor row span is read once and
    // applied to every right-hand side in the panel.  The per-RHS
    // operation sequence matches solve() exactly.
    for (std::size_t i = 1; i < n; ++i) {
      for (std::size_t j = l_begin_[i]; j < i; ++j) {
        const T lij = lu_(i, j);
        for (std::size_t r = 0; r < width; ++r) {
          panel[r * n + i] -= lij * panel[r * n + j];
        }
      }
    }
    // Back substitution with U.
    for (std::size_t ii = n; ii-- > 0;) {
      for (std::size_t j = ii + 1; j < u_end_[ii]; ++j) {
        const T uij = lu_(ii, j);
        for (std::size_t r = 0; r < width; ++r) {
          panel[r * n + ii] -= uij * panel[r * n + j];
        }
      }
      const T diag = lu_(ii, ii);
      for (std::size_t r = 0; r < width; ++r) {
        panel[r * n + ii] = panel[r * n + ii] / diag;
      }
    }
    for (std::size_t r = 0; r < width; ++r) {
      const T* const col = panel + r * n;
      xs[b0 + r] = all_finite(col, n) ? std::vector<T>(col, col + n)
                                      : substitute(bs[b0 + r], true);
    }
  }
  return xs;
}

template <typename T>
std::vector<T> Lu<T>::solve_transposed(const std::vector<T>& b) const {
  const std::size_t n = size();
  if (b.size() != n) {
    throw std::invalid_argument("Lu::solve_transposed: rhs size mismatch");
  }
  // A^T = U^T L^T P, so solve U^T y = b, L^T z = y, then x = P^T z.
  std::vector<T> y(b);
  for (std::size_t i = 0; i < n; ++i) {
    T acc = y[i];
    for (std::size_t j = 0; j < i; ++j) acc -= lu_(j, i) * y[j];
    y[i] = acc / lu_(i, i);
  }
  for (std::size_t ii = n; ii-- > 0;) {
    T acc = y[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= lu_(j, ii) * y[j];
    y[ii] = acc;
  }
  std::vector<T> x(n);
  for (std::size_t i = 0; i < n; ++i) x[perm_[i]] = y[i];
  return x;
}

template <typename T>
T Lu<T>::determinant() const {
  T det = static_cast<T>(perm_sign_);
  for (std::size_t i = 0; i < size(); ++i) det *= lu_(i, i);
  return det;
}

template <typename T>
double Lu<T>::pivot_growth() const {
  double lo = std::abs(lu_(0, 0));
  double hi = lo;
  for (std::size_t i = 1; i < size(); ++i) {
    const double p = std::abs(lu_(i, i));
    lo = std::min(lo, p);
    hi = std::max(hi, p);
  }
  return lo > 0.0 ? hi / lo : std::numeric_limits<double>::infinity();
}

template <typename T>
double Lu<T>::condition_estimate(double a_norm_inf) const {
  const std::size_t n = size();
  if (n == 0) return 0.0;
  // Power iteration on A^{-T} A^{-1} to estimate ||A^{-1}||_inf-ish growth;
  // a handful of sweeps is enough for an order-of-magnitude answer, which
  // is all the moment-matrix diagnostics need.
  std::vector<T> v(n, T{1.0 / static_cast<double>(n)});
  double est = 0.0;
  for (int sweep = 0; sweep < 4; ++sweep) {
    std::vector<T> w = solve(v);
    est = norm_inf(w);
    const double nrm = norm2(w);
    if (nrm == 0.0) break;
    for (auto& x : w) x /= nrm;
    v = solve_transposed(w);
    const double nv = norm2(v);
    if (nv == 0.0) break;
    for (auto& x : v) x /= nv;
  }
  return est * a_norm_inf;
}

template <typename T>
Matrix<T> inverse(const Matrix<T>& a) {
  Lu<T> lu(a);
  const std::size_t n = a.rows();
  Matrix<T> inv(n, n);
  std::vector<T> e(n, T{});
  for (std::size_t j = 0; j < n; ++j) {
    e[j] = T{1};
    const std::vector<T> col = lu.solve(e);
    e[j] = T{};
    for (std::size_t i = 0; i < n; ++i) inv(i, j) = col[i];
  }
  return inv;
}

template class Lu<double>;
template class Lu<Complex>;
template Matrix<double> inverse(const Matrix<double>&);
template Matrix<Complex> inverse(const Matrix<Complex>&);

}  // namespace awesim::la
