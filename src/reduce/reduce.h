// Hierarchical net reduction: partition -- collapse -- stitch.
//
// The paper's pitch is that a q-pole AWE approximation makes one stage
// cheap; this subsystem makes a *million-node design* cheap by shrinking
// every stage before the engine ever sees it.  A net's interconnect is
// partitioned into boundary nodes (the driver hookup "DRV" plus every
// sink hookup) and interior nodes (everything else); the interior is
// collapsed into a moment-matched boundary macromodel (timing::NetMacro)
// by PRIMA-style congruence projection, and the reduced net -- kept
// boundary elements plus the macro block -- stitches back into an
// ordinary timing::Design that the engine, analyzer, graph, and serve
// layers analyze completely unmodified.
//
// The macromodel math: order the collapsed subnetwork's MNA blocks
// boundary-first,
//
//     G = [ G_bb  G_bi ]     C = [ C_bb  C_bi ]
//         [ G_ib  G_ii ]         [ C_ib  C_ii ]
//
// factor G_ii once, and build the block Krylov space
//
//     X = orth{ W, (G_ii^-1 C_ii) W, (G_ii^-1 C_ii)^2 W, ... },
//     W = G_ii^-1 G_ib,
//
// to depth ceil(moments/2).  The congruence projection
//
//     G^ = [ G_bb      G_bi X ]     C^ = [ C_bb      C_bi X ]
//          [ X^T G_ib  X^T G_ii X ]      [ X^T C_ib  X^T C_ii X ]
//
// preserves the first 2*depth boundary moments of the symmetric RC
// network (PRIMA's moment-matching theorem), so with the default
// moments = 12 every AWE order the engine can request (max order 6 needs
// 2q = 12 moments) sees boundary moments unchanged up to roundoff: the
// reduced stage's poles and residues match the flat stage within
// tolerance, never by construction bit-for-bit ("tolerance-equal, not
// bit-equal").
//
// Every reduction is *verified before it is trusted*: the exact
// first-order boundary admittances
//
//     Y0 = G_bb - G_bi G_ii^-1 G_ib          (DC / zeroth moment)
//     Y1 = C_bb - C_bi W - W^T C_ib + W^T C_ii W   (first moment)
//
// are recomputed from the reduced block and compared entrywise; relative
// mismatch beyond ReduceOptions::tolerance refuses the collapse with a
// ReductionToleranceExceeded diagnostic and the net analyzes flat.  A
// refusal is never an error -- flat analysis is always available and
// always correct; reduction is purely an accelerator.
//
// Refusal gates, in order: a net already carrying macros; interior
// smaller than min_interior (collapse would not pay); more boundary
// ports than max_ports (the dense macro block is (ports+states)^2);
// non-RC content (inductors, or anything classify_edges calls General);
// an armed "reduce.collapse" fault probe (the injection drill -- typed
// ReductionFallback diagnostic, flat fallback); an interior node with no
// resistive path to ground or a boundary node (G_ii structurally
// singular); a singular G_ii factorization; the verification gate above.
#pragma once

#include <cstddef>
#include <string>

#include "core/diagnostic.h"
#include "timing/analyzer.h"

namespace awesim::timing::detail {
class StageCache;
}

namespace awesim::reduce {

struct ReduceOptions {
  /// Nets with fewer interior nodes than this analyze flat -- below it
  /// the dense macro block costs as much as the nodes it replaces.
  std::size_t min_interior = 16;
  /// Refuse nets whose boundary (driver + sinks) exceeds this; the
  /// projected block is dense (ports+states)^2.
  std::size_t max_ports = 16;
  /// Boundary moments to preserve (Krylov depth = ceil(moments/2)).
  /// The default 12 covers 2q for the engine's maximum AWE order 6.
  int moments = 12;
  /// Relative mismatch allowed between the exact and reduced boundary
  /// admittance invariants (Y0, Y1) before the collapse is refused.
  /// Negative forces refusal deterministically (the test drill for the
  /// tolerance-exceeded path).
  double tolerance = 1e-6;
  /// Run the Y0/Y1 verification gate.  Off skips the exact Schur
  /// complements (cheaper, trusts the projection) -- benches only.
  bool verify = true;
};

/// Outcome of reducing one net.  `net` is the reduced net when
/// `reduced`, otherwise a verbatim copy of the input; diagnostics carry
/// the typed refusal records (ReductionFallback,
/// ReductionToleranceExceeded), empty for silent refusals (too small,
/// non-RC) where flat analysis is simply the right answer.
struct NetReduction {
  timing::Net net;
  bool reduced = false;
  /// Interior nodes eliminated (0 when refused).
  std::size_t interior_eliminated = 0;
  /// Reduced internal states retained in the macro (0 when refused).
  std::size_t states = 0;
  core::Diagnostics diagnostics;
};

/// Why a net will (or will not) reduce, decided from structure alone --
/// no factorization, no Krylov space.  Exactly the "cheap structural
/// gates" at the top of reduce_net, exposed so reduce::HierSession can
/// skip hopeless collapse attempts and the design audit can report
/// per-net reduction eligibility without doing the work.
enum class Eligibility {
  Eligible,          // passes every structural gate; collapse will be tried
  HasMacros,         // already carries a macromodel: reduced once already
  TooManyPorts,      // boundary (driver + sinks) exceeds max_ports
  SinkAtGround,      // a sink hookup names the ground node (lint's problem)
  InteriorTooSmall,  // fewer interior nodes than min_interior: no payoff
  NonRc,             // inductors or General topology: the moment theorem
                     // behind the congruence projection does not apply
};

const char* to_string(Eligibility eligibility);

/// Evaluate only the structural gates, in reduce_net's gate order.
/// Eligible means the collapse will be *attempted* -- the numeric gates
/// (interior solvability, singular G_ii, verification tolerance) can
/// still refuse it.
Eligibility net_eligibility(const timing::Net& net,
                            const ReduceOptions& options = {});

/// The exact bytes a net's reduction depends on: parasitics (kind,
/// nodes, value), the sorted boundary node-name set, and every
/// ReduceOptions field.  Deliberately name-agnostic (net name, sink
/// *gate* names, and gate parameters are absent), so two instances of
/// the same cell under different names share one reduction -- wrap with
/// timing::detail::reduction_key() to address a StageCache entry.
std::string reduction_content_key(const timing::Net& net,
                                  const ReduceOptions& options);

/// Reduce one net.  Never throws on circuit content: every failure mode
/// refuses into the flat fallback (see the gate list above).
NetReduction reduce_net(const timing::Net& net,
                        const ReduceOptions& options = {});

/// A whole-design reduction: every net reduced (or refused) into a new
/// Design with identical gates, drivers, sinks, and primary inputs.
struct DesignReduction {
  timing::Design design;
  std::size_t nets_total = 0;
  std::size_t nets_reduced = 0;
  /// Sum of interior nodes eliminated across all reduced nets.
  std::size_t interior_eliminated = 0;
  /// Sum of macro states retained across all reduced nets.
  std::size_t states = 0;
  /// Reductions served from the cache instead of recomputed.
  std::size_t cache_hits = 0;
  /// Refusal and cache-corruption diagnostics, element-stamped with the
  /// owning net's name, in net order.
  core::Diagnostics diagnostics;
};

/// Reduce every net of `design`.  With a cache, reductions are stored
/// content-addressed (timing::detail::reduction_key key space) so
/// repeated subcircuits -- buses, clock-tree cells, tiled meshes --
/// reduce once and every further instance rehydrates; refusals are
/// cached too (negative entries) so hopeless nets are not re-examined.
DesignReduction reduce_design(const timing::Design& design,
                              const ReduceOptions& options = {},
                              timing::detail::StageCache* cache = nullptr);

}  // namespace awesim::reduce
