// Modified nodal analysis (MNA) formulation of a linear circuit.
//
// Produces the pair of real matrices (G, C) and the stimulus vectors such
// that the circuit's behaviour is
//
//     G x(t) + C x'(t) = b(t),        b(t) = sum_k [db0_k + db1_k (t-t_k)]+
//
// with unknowns x = [node voltages (ground eliminated); branch currents of
// voltage sources, inductors, VCVS and CCVS].  In the Laplace domain with
// initial conditions,
//
//     (G + sC) X(s) = B(s) + C x(0-),
//
// which is exactly the form AWE's moment recursion (Section 3.2 of the
// paper) and the reference transient simulator both consume.
//
// Matrices are assembled as sparse triplets; small systems factor densely,
// large ones use the sparse Gilbert-Peierls LU with RCM ordering -- either
// way a single factorization of G is cached and reused for every moment,
// and shifted systems (G + aC) needed by the simulator's companion models
// and the sigma-limit computations are cached per coefficient a.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "circuit/circuit.h"
#include "core/diagnostic.h"
#include "la/lu.h"
#include "la/matrix.h"
#include "la/sparse.h"

namespace awesim::mna {

/// A singular MNA system that could not be resolved (gmin disabled, or the
/// gmin retry failed too).  Derives from la::SingularMatrixError so
/// existing catch sites keep working, but carries the full structured
/// diagnostic -- including the *names* of the floating nodes -- instead of
/// a bare pivot index.
class SingularSystemError : public la::SingularMatrixError {
 public:
  SingularSystemError(core::Diagnostic diag, std::size_t pivot_index)
      : la::SingularMatrixError(pivot_index),
        diag_(std::move(diag)),
        what_(diag_.to_string()) {}

  const char* what() const noexcept override { return what_.c_str(); }
  const core::Diagnostic& diagnostic() const { return diag_; }

 private:
  core::Diagnostic diag_;
  std::string what_;
};

struct Options {
  /// Conductance added from every node to ground when the G matrix proves
  /// singular (floating nodes: nodes reached only through capacitors, as
  /// discussed for the paper's charge-conservation case).  Zero disables
  /// the retry and lets SingularMatrixError propagate.
  double gmin = 1e-12;

  /// Systems of at least this dimension factor with the sparse LU.
  std::size_t sparse_threshold = 192;
};

/// Cumulative solver-cost counters of one MnaSystem (one thread owns a
/// system, so these are plain integers; see core::Stats for aggregation
/// across threads).  Substitutions count solves against the cached
/// factorization of G -- the AWE hot path the paper's Fig. 19 argument
/// amortizes -- not shifted-system solves.
struct SolveStats {
  std::size_t factorizations = 0;
  std::size_t substitutions = 0;
};

/// One merged stimulus breakpoint: at `time`, the MNA right-hand side
/// jumps by `value_jump` and its slope changes by `slope_change`.
struct SourceEvent {
  double time = 0.0;
  la::RealVector value_jump;    // size dim()
  la::RealVector slope_change;  // size dim()
};

/// A factored linear system, dense or sparse behind one interface.
class Solver {
 public:
  explicit Solver(la::Lu<double> dense) : impl_(std::move(dense)) {}
  explicit Solver(la::SparseLu sparse) : impl_(std::move(sparse)) {}

  la::RealVector solve(const la::RealVector& rhs) const {
    return std::visit([&](const auto& lu) { return lu.solve(rhs); },
                      impl_);
  }

  /// Batched solve via the cache-blocked panel kernels; per-RHS results
  /// are bitwise identical to solve() on each vector in order.
  std::vector<la::RealVector> solve_multi(
      const std::vector<la::RealVector>& rhs) const {
    return std::visit([&](const auto& lu) { return lu.solve_multi(rhs); },
                      impl_);
  }

  bool is_sparse() const {
    return std::holds_alternative<la::SparseLu>(impl_);
  }

 private:
  std::variant<la::Lu<double>, la::SparseLu> impl_;
};

class MnaSystem {
 public:
  explicit MnaSystem(const circuit::Circuit& ckt, Options options = {});

  /// Number of MNA unknowns.
  std::size_t dim() const { return dim_; }

  /// The circuit this system was built from.
  const circuit::Circuit& circuit() const { return *ckt_; }

  /// Index of a (non-ground) node voltage in the unknown vector.
  /// Throws std::invalid_argument for ground.
  std::size_t node_index(circuit::NodeId node) const;

  /// Index of the branch current unknown of a named element (voltage
  /// source, inductor, VCVS, or CCVS); nullopt if the element carries no
  /// branch unknown.  Branch unknowns follow the node voltages in element
  /// order.  O(1): one hashed lookup.
  std::optional<std::size_t> branch_index(std::string_view element) const;

  /// Dense G and C (built lazily; intended for analyses like the exact
  /// eigenvalue pole extraction and for tests -- O(n^2) memory).
  const la::RealMatrix& G() const;
  const la::RealMatrix& C() const;

  /// Sparse views (always available, no densification).
  const la::SparseMatrix& g_sparse() const { return g_sparse_; }
  const la::SparseMatrix& c_sparse() const { return c_sparse_; }

  /// True if this system factors with the sparse path.
  bool uses_sparse() const { return dim_ >= options_.sparse_threshold; }

  /// True if the gmin retry was needed (the circuit has floating nodes).
  bool used_gmin() const;

  /// Names of nodes with no conductive path to ground: reachable only
  /// through capacitors (or through nothing at all).  These are the
  /// usual culprits when the G factorization hits a singular pivot; the
  /// paper's charge-conservation discussion covers why a steady state
  /// needs the extra equation a tiny gmin leak supplies.
  std::vector<std::string> floating_node_names() const;

  /// Structured diagnostics accumulated by this system (floating-node
  /// reports, gmin fallback records).  Appended to, never cleared.
  const core::Diagnostics& diagnostics() const { return diagnostics_; }

  /// RHS value at t = 0- (all sources at their initial values, for the
  /// operating point that initial conditions are measured against).
  const la::RealVector& rhs_initial() const { return rhs_initial_; }

  /// Stimulus breakpoints, merged over all sources, ascending in time.
  const std::vector<SourceEvent>& events() const { return events_; }

  /// Full RHS vector b(t); for the transient simulator.
  la::RealVector rhs_at(double t) const;

  /// Initial MNA vector x(0-): the DC equilibrium at the initial source
  /// values, overridden by explicit initial conditions (.ic node voltages,
  /// capacitor ICs, inductor current ICs).  This is the shared starting
  /// state of both the AWE engine and the transient simulator; explicit
  /// ICs make it a nonequilibrium state (the paper's Section 5.2).
  const la::RealVector& initial_state() const;

  /// Solve G x = rhs reusing the cached factorization of G.
  la::RealVector solve(const la::RealVector& rhs) const;

  /// Solve G X = RHS for a block of right-hand sides with one cached
  /// factorization (the paper's "factor once, substitute 2q-1 times"
  /// pattern generalized across atoms).  Results are per-vector
  /// identical to calling solve() on each column in order.
  std::vector<la::RealVector> solve_multi(
      const std::vector<la::RealVector>& rhs) const;

  /// Cumulative factorization/substitution counts for this system.
  const SolveStats& solve_stats() const { return solve_stats_; }

  /// Factored (G + a*C); cached per coefficient.  Used by the transient
  /// simulator's companion models (a = 1/h or 2/h) and by the
  /// sigma-limit initial-value computations (a = sigma).
  const Solver& shifted(double a) const;

  /// y = C x (sparse multiply).
  la::RealVector apply_C(const la::RealVector& x) const;

  /// Infinity norm of G, for conditioning diagnostics.
  double g_norm_inf() const { return g_sparse_.to_dense().norm_inf(); }

 private:
  void stamp(const circuit::Circuit& ckt);
  void build_events(const circuit::Circuit& ckt);
  Solver factor(double shift) const;  // builds (G + shift*C) solver
  const Solver& g_solver() const;     // factors G on first use

  const circuit::Circuit* ckt_;
  Options options_;
  std::size_t dim_ = 0;
  std::vector<la::Triplet> g_triplets_;
  std::vector<la::Triplet> c_triplets_;
  la::SparseMatrix g_sparse_;
  la::SparseMatrix c_sparse_;
  mutable std::optional<la::RealMatrix> g_dense_;
  mutable std::optional<la::RealMatrix> c_dense_;
  la::RealVector rhs_initial_;
  mutable la::RealVector x0_;
  mutable bool x0_built_ = false;
  std::vector<SourceEvent> events_;
  // Lookup only; the unknowns themselves are numbered in element order.
  std::unordered_map<std::string, std::size_t, circuit::NameHash,
                     std::equal_to<>>
      branch_indices_;
  mutable std::optional<Solver> g_solver_;
  mutable std::map<double, std::unique_ptr<Solver>> shifted_;
  mutable bool used_gmin_ = false;
  mutable SolveStats solve_stats_;
  mutable core::Diagnostics diagnostics_;
};

}  // namespace awesim::mna
