#pragma once

#include "src/btds/block_tridiag.hpp"
#include "src/btds/distributed.hpp"
#include "src/btds/partition.hpp"
#include "src/btds/thomas.hpp"
#include "src/core/scan.hpp"
#include "src/core/twoport.hpp"
#include "src/la/lu.hpp"
#include "src/mpsim/comm.hpp"

/// \file ard.hpp
/// The accelerated recursive doubling (ARD) solver — the library's
/// production implementation of the paper's contribution (S. Seal,
/// IPDPS 2014).
///
/// ARD splits a recursive-doubling solve into a right-hand-side-independent
/// *factor* phase, run once per matrix, and a cheap *solve* phase, run once
/// per right-hand-side batch:
///
///   factor — O(M^3 (N/P + log P)) work, O(M^2 (N/P + log P)) memory:
///     1. block-Thomas factorization of this rank's row segment T_loc;
///     2. the segment's spike panel W = T_loc^{-1} [E_first E_last] (one
///        2M-column local solve), whose corner blocks are the segment's
///        two-port;
///     3. forward and backward hypercube prefix scans over two-ports
///        (CachedScan<TwoPortOp>, log P rounds of O(M^3) merges, caching
///        the per-round matrices);
///     4. the prefix scans deliver exact boundary relations
///            x_{lo-1} = -S_pre C_{lo-1} x_lo     + q_pre(b)
///            x_hi     = -P_suf A_hi     x_{hi-1} + p_suf(b).
///        Substituted into x_loc = T_loc^{-1} b_loc - W [u; v], with
///        u = A_lo x_{lo-1} and v = C_{hi-1} x_hi, they leave the interface
///        system K [u; v] = [A_lo q_pre - F p; C_{hi-1} p_suf - G q] with
///            F = A_lo S_pre C_{lo-1},  G = C_{hi-1} P_suf A_hi,
///            K = I - diag(F, G) [[P, Q], [R, S]],
///        which is LU-factored once. K is 2M x 2M on interior ranks, M x M
///        on the two edge ranks (one neighbour), and empty at P = 1.
///
///   solve — O(M^2 R (N/P + log P)) for R right-hand sides:
///     one local solve t = T_loc^{-1} b_loc, whose first/last blocks are the
///     segment's (p, q); a vector-only replay of both scans (cached
///     matrices, M x R exchanges); the interface solve for [u; v]; and the
///     spike correction x_loc = t - W [u; v] — one (nloc M) x 2M by
///     2M x R gemm instead of a second dependent block sweep.
///
/// Classic RD re-runs the factor phase on every solve; amortized over R
/// right-hand sides ARD is therefore ~R/(1 + c R/M) times faster — the
/// abstract's O(R) improvement (experiment F1).
///
/// All entry points are SPMD-collective: every rank calls with the same
/// global arguments; rank r reads/writes only the block rows its
/// partition assigns. Ranks share the address space (mpsim), so global
/// inputs are passed by const reference and each rank writes disjoint row
/// ranges of the output.

namespace ardbt::core {

/// Tag space used by the production solver.
namespace ard_tags {
inline constexpr int kFwdFactor = 70;
inline constexpr int kBwdFactor = 71;
// Solve-phase replays claim a fresh comm.next_tag() pair per RHS panel.
}  // namespace ard_tags

/// Latency-hiding pipeline knobs (docs/PARALLELISM.md, "Latency-hiding
/// pipeline"). Both are pure scheduling choices on the one stepwise scan
/// schedule: solutions are bit-identical for every setting, and only
/// virtual waits change. The defaults run the forward scan, then the
/// backward scan, over one panel of all R columns.
struct PipelineOptions {
  /// Overlap scan communication with compute. In the solve phase, RHS
  /// panels are pipelined: the rank-local reduction of panel k+1 runs
  /// while panel k's vector-part scan replay is in flight, the forward
  /// and backward replays of one panel are round-interleaved, and each
  /// round merges the half its next send depends on first so the message
  /// is on the wire during the rest of the merge. In the factor phase the
  /// two scans are round-interleaved the same way. Solutions are
  /// bit-identical on/off and for any chunk size or --threads; only
  /// virtual waits shrink.
  bool overlap = false;
  /// Columns per RHS panel in solve(B); 0 = one panel with all R columns.
  /// Meaningful overlap needs at least two panels (chunk_cols < R); see
  /// docs/PARALLELISM.md for sizing guidance.
  la::index_t chunk_cols = 0;
};

/// Solver knobs.
struct ArdOptions {
  /// Consumed by the transfer-matrix ablation (see transfer_rd.hpp) when
  /// driven through the same options; the two-port solver needs no
  /// rescaling.
  bool rescale = true;
  /// Pivot factorization of the local segment. kCholesky halves the
  /// pivot-factor work and is unconditionally stable, but requires an SPD
  /// system (symmetric with A_{i+1} = C_i^T); every segment of an SPD
  /// system is SPD. The interface system K is not symmetric and is always
  /// LU-factored.
  btds::PivotKind pivot = btds::PivotKind::kLu;
  /// Pivot-growth ratio (diagnostics().growth()) above which a completed
  /// factorization is considered broken down: its solutions are accepted
  /// or repaired per the driver's BreakdownPolicy. The monitor itself only
  /// compares pivot magnitudes already computed — it never charges flops,
  /// so modeled virtual times are unchanged by any threshold.
  double breakdown_growth_threshold = 1e12;
  /// Latency-hiding pipeline (overlap / RHS chunking).
  PipelineOptions pipeline{};
};

/// Factor-once / solve-many distributed factorization.
class ArdFactorization {
 public:
  ArdFactorization() = default;

  /// Collective. Factor the system (phase 1). Throws std::runtime_error
  /// on singular segment or interface pivots (system not block-LU
  /// factorizable; cannot happen for block-diagonally-dominant input).
  ///
  /// A non-null `ws` is this rank's workspace arena: every solve-phase
  /// temporary (boundary panels, scan replay vectors, right-divide
  /// transposes) is drawn from and returned to it, making repeated
  /// solve() calls allocation-free once the arena is warm. The arena must
  /// outlive the factorization, is used only by this rank's thread, and
  /// never changes results (bit-identical with or without one).
  static ArdFactorization factor(mpsim::Comm& comm, const btds::BlockTridiag& sys,
                                 const btds::RowPartition& part, const ArdOptions& opts = {},
                                 la::Workspace* ws = nullptr);

  /// Collective. Factor from truly distributed storage — each rank reads
  /// only the block rows it owns (see btds/distributed.hpp). This is the
  /// path a real MPI deployment uses; the shared-global overload above is
  /// a convenience for in-process runs.
  static ArdFactorization factor(mpsim::Comm& comm, const btds::LocalBlockTridiag& sys,
                                 const btds::RowPartition& part, const ArdOptions& opts = {},
                                 la::Workspace* ws = nullptr);

  /// Collective. Solve for all columns of `b` (phase 2); writes this
  /// rank's block rows of `x`. `b` and `x` are global (N*M) x R matrices;
  /// `x` must be preallocated with the shape of `b`.
  void solve(mpsim::Comm& comm, const la::Matrix& b, la::Matrix& x) const;

  /// Collective. Local-slice variant: `b_local` holds only this rank's
  /// (nloc*M) x R rows (e.g. from btds::scatter_rows); the matching slice
  /// of the solution is returned.
  la::Matrix solve_local(mpsim::Comm& comm, const la::Matrix& b_local) const;

  /// Collective. Cheap refactorization after the matrix changed on *some*
  /// ranks. Pass `rows_changed = true` on ranks whose block rows differ
  /// from what was factored; those redo the full local phase. Unchanged
  /// ranks reuse their segment factorization, spike panel and two-port —
  /// all of the O(M^3 N/P) work — and only replay the O(M^3 log P) scans
  /// and refactor the (at most 2M x 2M) interface system K. The partition
  /// must be unchanged.
  void update(mpsim::Comm& comm, const btds::BlockTridiag& sys, bool rows_changed);
  void update(mpsim::Comm& comm, const btds::LocalBlockTridiag& sys, bool rows_changed);

  la::index_t num_blocks() const { return n_; }
  la::index_t block_size() const { return m_; }
  la::index_t local_rows() const { return hi_ - lo_; }

  /// Approximate bytes of factored state held by this rank (T1's memory
  /// column): the segment factorization, the spike panel (M columns per
  /// neighbour rank), the interface system's LU, and the scan caches.
  std::size_t storage_bytes() const;

  /// Pivot extremes of this rank's segment factorization with the
  /// interface system K's LU pivots folded in — the breakdown monitor the
  /// drivers compare against ArdOptions::breakdown_growth_threshold.
  /// K = I - ... is dimensionless while the segment pivots carry the
  /// matrix's scale, so K enters through its own max/min pivot ratio:
  /// growth() reads the worse of the two.
  fault::PivotDiagnostics diagnostics() const;

 private:
  /// Storage-agnostic implementation pieces (defined in ard.cpp; the
  /// public overloads instantiate them there). The factor phase splits
  /// into a purely local part (segment factorization, spike panel and
  /// two-port: the O(M^3 N/P) term) and a global part (scans + interface
  /// system, independent of N/P) so `update` can skip the former on
  /// unchanged ranks.
  template <typename SysView>
  static ArdFactorization factor_impl(mpsim::Comm& comm, const SysView& sys,
                                      const btds::RowPartition& part, const ArdOptions& opts,
                                      la::Workspace* ws);
  template <typename SysView>
  void local_phase(mpsim::Comm& comm, const SysView& sys);
  void global_phase(mpsim::Comm& comm);

  int rank_ = 0;
  ArdOptions opts_{};
  la::Workspace* ws_ = nullptr;  // per-rank scratch arena (not owned; may be null)
  la::index_t n_ = 0;   // global block rows
  la::index_t m_ = 0;   // block size
  la::index_t lo_ = 0;  // first local block row
  la::index_t hi_ = 0;  // one past last local block row

  btds::ThomasFactorization seg_;  // T_loc
  // W = T_loc^{-1} [E_first E_last], (nloc M) x k: only the M-column
  // halves facing a neighbour rank (E_first iff lo > 0, E_last iff
  // hi < N), so k = 2M, M on the edge ranks, 0 at P = 1.
  la::Matrix spikes_;
  la::Matrix f_;       // F = A_lo S_pre C_{lo-1} (empty on the rank owning row 0)
  la::Matrix g_;       // G = C_{hi-1} P_suf A_hi (empty on the rank owning row N-1)
  la::LuFactors k_;    // LU of the k x k interface system K
  TwoPort tp_;         // this segment's two-port (kept for update()); its
                       // a_first / c_last are A_lo / C_{hi-1}
  CachedScan<TwoPortOp> fwd_;
  CachedScan<TwoPortOpReversed> bwd_;
};

}  // namespace ardbt::core
