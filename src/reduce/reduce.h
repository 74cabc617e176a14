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
// Every reduction is *verified before it is trusted* (the gate always
// runs; no option skips it): the exact first-order boundary admittances
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
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "check/partition.h"
#include "core/diagnostic.h"
#include "timing/analyzer.h"

namespace awesim::core {
class ThreadPool;
}

namespace awesim::timing::detail {
class StageCache;
struct CachedReduction;
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

/// A net's nodes as a caller already interned them (dense ids from 1,
/// ground 0, every name one id), so a caller that needs the same table
/// for its own walk does not build a second one.
struct InternedNet {
  /// Distinct boundary names: "DRV" and every sink hookup, ground names
  /// included.
  std::size_t ports = 0;
  /// Distinct non-ground boundary names.
  std::size_t boundary_nodes = 0;
  /// Distinct non-ground names over the boundary and the parasitics;
  /// every id in `edges` is at most this.
  std::size_t nodes = 0;
  /// Every parasitic by node ids, in element order.
  std::vector<check::Edge> edges;

  /// Append the next parasitic's edge.
  void add(timing::NetElement::Kind kind, int a, int b);
};

/// net_eligibility over `interned`, the same gates in the same order.
Eligibility net_eligibility(const timing::Net& net,
                            const InternedNet& interned,
                            const ReduceOptions& options = {});

/// The exact bytes a net's reduction depends on: parasitics (kind,
/// nodes, value), any macros the net already carries, the sorted
/// boundary node-name set, and every ReduceOptions field.  Deliberately
/// name-agnostic (net name, sink *gate* names, and gate parameters are
/// absent), so two instances of the same cell under different names
/// share one reduction -- wrap with timing::detail::reduction_key() to
/// address a StageCache entry.
std::string reduction_content_key(const timing::Net& net,
                                  const ReduceOptions& options);

/// Nets grouped by reduction_content_key.  Two nets in one class have
/// equal parasitics (kinds, node names, value bits), equal macros and
/// equal boundary node sets, so everything derived from those alone --
/// the reduction, eligibility, the audit's oracle topology and shape --
/// is class work.
struct ContentClasses {
  /// Per class, its nets in net order; classes in first-member order.
  std::vector<std::vector<std::size_t>> members;
  /// Per net, its class.
  std::vector<std::size_t> of_net;
  /// Per class, its content key (the bytes reduction_content_key gives
  /// every member).
  std::vector<std::string> keys;
};

/// Group `design`'s nets into content classes.  A batch of nets at a
/// time, the keys are serialized on `pool` and looked up among the
/// classes of earlier batches; the rest are grouped serially in net
/// order, so the result is the same at every pool size.  A member's key
/// is dropped as soon as it is grouped, and only one key per class is
/// kept.
ContentClasses content_classes(const timing::Design& design,
                               const ReduceOptions& options,
                               core::ThreadPool& pool);

/// Reduce one net.  Never throws on circuit content: every failure mode
/// refuses into the flat fallback (see the gate list above).
NetReduction reduce_net(const timing::Net& net,
                        const ReduceOptions& options = {});

/// One net's reduction through the content-addressed store: look it up
/// under its reduction key and, on a miss, reduce_net it and insert the
/// result (refusals included).  A null `cache` always reduces.  Lookup
/// recovery records go to `diagnostics`; `*cache_hit` tells whether the
/// store served the answer.
std::shared_ptr<const timing::detail::CachedReduction> lookup_or_reduce(
    const timing::Net& net, const ReduceOptions& options,
    timing::detail::StageCache* cache, core::Diagnostics* diagnostics,
    bool* cache_hit);

/// `design` with net i's parasitics and macros replaced by
/// `reductions[i]`'s wherever that reduction collapsed the net (a null
/// or refused entry keeps the net flat); gates, drivers, sinks and
/// primary inputs are unchanged.  `reductions` covers every net.
timing::Design stitch_design(
    const timing::Design& design,
    std::span<const std::shared_ptr<const timing::detail::CachedReduction>>
        reductions);

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
///
/// The work runs on a core::ThreadPool of one thread per hardware core:
/// the content keys and the collapses the store cannot serve go to the
/// pool, and a serial pass in net order then makes exactly the store
/// calls a net-at-a-time lookup_or_reduce walk makes (same lookups,
/// inserts, checksums, fault probes, counters and FIFO evictions).  The
/// result is bit-identical at every thread count.
DesignReduction reduce_design(const timing::Design& design,
                              const ReduceOptions& options = {},
                              timing::detail::StageCache* cache = nullptr);

namespace detail {
/// reduce_design on a pool of `threads` threads (0: one per hardware
/// core); the thread-count differential tests' entry point.
DesignReduction reduce_design(const timing::Design& design,
                              const ReduceOptions& options,
                              timing::detail::StageCache* cache,
                              std::size_t threads);
}  // namespace detail

}  // namespace awesim::reduce
