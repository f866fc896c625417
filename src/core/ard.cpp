#include "src/core/ard.hpp"

#include <algorithm>
#include <cassert>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/la/blas1.hpp"
#include "src/la/gemm.hpp"
#include "src/la/workspace.hpp"
#include "src/par/pool.hpp"

namespace ardbt::core {
namespace {

using btds::BlockTridiag;
using btds::ThomasFactorization;
using la::Matrix;

/// Copy this rank's block rows out of a global (N*M) x R matrix.
Matrix extract_local(const Matrix& global, la::index_t lo, la::index_t nloc, la::index_t m,
                     la::Workspace* ws) {
  Matrix local = la::ws_acquire(ws, nloc * m, global.cols());
  la::copy(global.block(lo * m, 0, nloc * m, global.cols()), local.view());
  return local;
}

/// Copy this rank's rows of `sys` into a standalone segment system.
template <typename SysView>
BlockTridiag copy_segment(const SysView& sys, la::index_t lo, la::index_t nloc, la::index_t m) {
  BlockTridiag tloc(nloc, m);
  for (la::index_t k = 0; k < nloc; ++k) {
    tloc.diag(k) = sys.diag(lo + k);
    if (k > 0) tloc.lower(k) = sys.lower(lo + k);
    if (k + 1 < nloc) tloc.upper(k) = sys.upper(lo + k);
  }
  return tloc;
}

}  // namespace

template <typename SysView>
void ArdFactorization::local_phase(mpsim::Comm& comm, const SysView& sys) {
  ARDBT_TRACE_SPAN(comm, obs::SpanKind::kPhase, "ard.factor.local");
  const la::index_t m = m_;
  const la::index_t nloc = hi_ - lo_;

  // --- 1. Local segment copy and its block-Thomas factorization.
  seg_ = ThomasFactorization::factor(copy_segment(sys, lo_, nloc, m), opts_.pivot);
  comm.charge_flops(ThomasFactorization::factor_flops(nloc, m, opts_.pivot));

  // --- 2. Spike panel W = T_loc^{-1} [E_first E_last] via a 2M-column
  // local solve: columns [0, M) carry the unit load on the first block
  // row, columns [M, 2M) on the last, so the corners of W are the corner
  // blocks of T_loc^{-1} — the segment's two-port.
  Matrix e = la::ws_acquire(ws_, nloc * m, 2 * m);
  for (la::index_t i = 0; i < m; ++i) {
    e(i, i) = 1.0;
    e((nloc - 1) * m + i, m + i) = 1.0;
  }
  Matrix w = seg_.solve(e, comm.pool(), ws_);
  comm.charge_flops(ThomasFactorization::solve_flops(nloc, m, 2 * m));

  tp_.P = la::to_matrix(w.block(0, 0, m, m));
  tp_.Q = la::to_matrix(w.block(0, m, m, m));
  tp_.R = la::to_matrix(w.block((nloc - 1) * m, 0, m, m));
  tp_.S = la::to_matrix(w.block((nloc - 1) * m, m, m, m));
  tp_.a_first = (lo_ > 0) ? sys.lower(lo_) : Matrix(m, m);
  tp_.c_last = (hi_ < n_) ? sys.upper(hi_ - 1) : Matrix(m, m);
  // Keep the halves of W that face a neighbour rank for the solve-phase
  // spike correction (out of the arena: they live as long as the
  // factorization).
  const la::index_t c0 = (lo_ > 0) ? 0 : m;
  const la::index_t c1 = (hi_ < n_) ? 2 * m : m;
  spikes_ = c1 > c0 ? la::to_matrix(w.block(0, c0, nloc * m, c1 - c0)) : Matrix{};
  la::ws_release(ws_, std::move(e));
  la::ws_release(ws_, std::move(w));
}

void ArdFactorization::global_phase(mpsim::Comm& comm) {
  ARDBT_TRACE_SPAN(comm, obs::SpanKind::kPhase, "ard.factor.global");
  const la::index_t m = m_;
  const la::index_t nloc = hi_ - lo_;

  // --- 3. Forward and backward two-port prefix scans (the log P term).
  // With overlap the two are round-interleaved: both keep a message in
  // flight while the other's O(M^3) merges run. Without it the backward
  // scan starts (and posts its round-0 send) only once the forward one has
  // finished. Operand pairs are the same either way, so the factored caches
  // — and every later solve — are bit-identical.
  const TwoPortOp::Context ctx{m, ws_};
  if (opts_.pipeline.overlap) {
    typename CachedScan<TwoPortOp>::Factoring ff(comm, ScanDirection::kForward, ctx, tp_,
                                                 ard_tags::kFwdFactor);
    typename CachedScan<TwoPortOpReversed>::Factoring fb(comm, ScanDirection::kBackward, ctx,
                                                         tp_, ard_tags::kBwdFactor);
    interleave(comm, ff, fb);
    fwd_ = std::move(ff).finish();
    bwd_ = std::move(fb).finish();
  } else {
    fwd_ = CachedScan<TwoPortOp>::factor(comm, ScanDirection::kForward, ctx, tp_,
                                         ard_tags::kFwdFactor);
    bwd_ = CachedScan<TwoPortOpReversed>::factor(comm, ScanDirection::kBackward, ctx, tp_,
                                                 ard_tags::kBwdFactor);
  }

  // --- 4. Interface system K = I - diag(F, G) [[P, Q], [R, S]] over the
  // sides facing a neighbour, with F = A_lo S_pre C_{lo-1} and
  // G = C_{hi-1} P_suf A_hi. Row block i of K is [I 0] - X_i times the
  // first (resp. last) block row of W, which holds [P Q] (resp. [R S])
  // restricted to the same sides.
  const la::index_t k = spikes_.cols();
  if (k == 0) return;
  Matrix kmat = Matrix::identity(k);
  // X = left * mid * right, then K[row block] -= X * W[w_row block].
  const auto fold = [&](const Matrix& left, const Matrix& mid, const Matrix& right,
                        la::index_t k_row, la::index_t w_row) {
    Matrix lm = la::ws_acquire(ws_, m, m);
    la::gemm(1.0, left.view(), mid.view(), 0.0, lm.view());
    Matrix x(m, m);
    la::gemm(1.0, lm.view(), right.view(), 0.0, x.view());
    la::ws_release(ws_, std::move(lm));
    la::gemm(-1.0, x.view(), spikes_.block(w_row, 0, m, k), 1.0, kmat.block(k_row, 0, m, k));
    comm.charge_flops(2.0 * la::gemm_flops(m, m, m) + la::gemm_flops(m, k, m));
    return x;
  };
  if (fwd_.has_incoming()) {
    const TwoPort& pre = fwd_.incoming_mat();
    f_ = fold(tp_.a_first, pre.S, pre.c_last, 0, 0);
  }
  if (bwd_.has_incoming()) {
    const TwoPort& suf = bwd_.incoming_mat();
    g_ = fold(tp_.c_last, suf.P, suf.a_first, k - m, (nloc - 1) * m);
  }
  k_ = la::lu_factor(std::move(kmat));
  comm.charge_flops(la::lu_factor_flops(k));
  if (!k_.ok()) {
    throw fault::SingularPivotError(fault::ErrorCode::kSingularPivot, "core::ard_interface", -1,
                                    static_cast<std::int64_t>(k_.info - 1), k_.growth);
  }
}

template <typename SysView>
ArdFactorization ArdFactorization::factor_impl(mpsim::Comm& comm, const SysView& sys,
                                               const btds::RowPartition& part,
                                               const ArdOptions& opts, la::Workspace* ws) {
  ArdFactorization f;
  f.rank_ = comm.rank();
  f.opts_ = opts;
  f.ws_ = ws;
  f.n_ = sys.num_blocks();
  f.m_ = sys.block_size();
  f.lo_ = part.begin(comm.rank());
  f.hi_ = part.end(comm.rank());
  assert(part.nranks() == comm.size());
  if (f.hi_ - f.lo_ < 1) {
    throw std::runtime_error("ARD: every rank needs at least one block row (N >= P)");
  }
  ARDBT_TRACE_SPAN(comm, obs::SpanKind::kPhase, "ard.factor");
  f.local_phase(comm, sys);
  f.global_phase(comm);
  if constexpr (obs::kTraceCompiledIn) {
    // Breakdown marks make suspect factorizations visible in traces even
    // when the driver's policy accepts them; pure comparisons, no flops.
    if (comm.trace() != nullptr &&
        f.diagnostics().growth() > opts.breakdown_growth_threshold) {
      comm.trace()->instant(obs::SpanKind::kMark, "ard.breakdown", comm.now_sample(), -1, 0);
    }
  }
  return f;
}

ArdFactorization ArdFactorization::factor(mpsim::Comm& comm, const btds::BlockTridiag& sys,
                                          const btds::RowPartition& part, const ArdOptions& opts,
                                          la::Workspace* ws) {
  return factor_impl(comm, sys, part, opts, ws);
}

ArdFactorization ArdFactorization::factor(mpsim::Comm& comm,
                                          const btds::LocalBlockTridiag& sys,
                                          const btds::RowPartition& part, const ArdOptions& opts,
                                          la::Workspace* ws) {
  assert(part.begin(comm.rank()) == sys.lo() && part.end(comm.rank()) == sys.hi());
  return factor_impl(comm, sys, part, opts, ws);
}

void ArdFactorization::update(mpsim::Comm& comm, const btds::BlockTridiag& sys,
                              bool rows_changed) {
  if (rows_changed) local_phase(comm, sys);
  global_phase(comm);
}

void ArdFactorization::update(mpsim::Comm& comm, const btds::LocalBlockTridiag& sys,
                              bool rows_changed) {
  if (rows_changed) local_phase(comm, sys);
  global_phase(comm);
}

void ArdFactorization::solve(mpsim::Comm& comm, const la::Matrix& b, la::Matrix& x) const {
  const la::index_t m = m_;
  const la::index_t nloc = hi_ - lo_;
  const la::index_t r = b.cols();
  assert(b.rows() == n_ * m_ && x.rows() == b.rows() && x.cols() == r);
  Matrix b_local = extract_local(b, lo_, nloc, m, ws_);
  Matrix xloc = solve_local(comm, b_local);
  la::copy(xloc.view(), x.block(lo_ * m, 0, nloc * m, r));
  la::ws_release(ws_, std::move(b_local));
  la::ws_release(ws_, std::move(xloc));
}

la::Matrix ArdFactorization::solve_local(mpsim::Comm& comm, const la::Matrix& b_local) const {
  ARDBT_TRACE_SPAN(comm, obs::SpanKind::kPhase, "ard.solve");
  const la::index_t m = m_;
  const la::index_t nloc = hi_ - lo_;
  const la::index_t r = b_local.cols();
  assert(b_local.rows() == nloc * m);
  par::Pool* pool = comm.pool();
  const TwoPortOp::Context ctx{m, ws_};
  const bool dist = comm.size() > 1;
  const bool overlap = opts_.pipeline.overlap;

  // RHS panels. chunk_cols == 0 (or >= R) degenerates to one panel, which
  // still exercises the round-interleaved replay when overlap is on.
  const la::index_t chunk = (opts_.pipeline.chunk_cols > 0 && opts_.pipeline.chunk_cols < r)
                                ? opts_.pipeline.chunk_cols
                                : r;
  struct Panel {
    la::index_t col0 = 0, cols = 0;
    Matrix t;  ///< T_loc^{-1} b_loc, corrected in place into the solution
    typename CachedScan<TwoPortOp>::Replay fwd;
    typename CachedScan<TwoPortOpReversed>::Replay bwd;
    std::optional<TwoPortVec> pre, suf;  ///< exclusive prefix / suffix vector parts
  };
  std::vector<Panel> panels;
  for (la::index_t c0 = 0; c0 < r; c0 += chunk) {
    Panel p;
    p.col0 = c0;
    p.cols = std::min(chunk, r - c0);
    panels.push_back(std::move(p));
  }
  // A single panel's corrected local solve IS the result; only a chunked
  // solve needs a separate buffer to assemble its panels into.
  const bool single = panels.size() == 1;
  Matrix xloc = single ? Matrix{} : la::ws_acquire(ws_, nloc * m, r);

  /// A-step: the panel's one local solve t = T_loc^{-1} b_loc and (overlap
  /// mode) both round-0 sends of its segment vector two-port (the first and
  /// last blocks of t). No receives — so a rank may run this for panel k+1
  /// while panel k's replies are still in flight.
  const auto start_panel = [&](Panel& p) {
    Matrix bloc = la::ws_acquire(ws_, nloc * m, p.cols);
    la::copy(b_local.block(0, p.col0, nloc * m, p.cols), bloc.view());
    p.t = seg_.solve(bloc, pool, ws_);
    comm.charge_flops(ThomasFactorization::solve_flops(nloc, m, p.cols));
    la::ws_release(ws_, std::move(bloc));
    if (!dist) return;
    TwoPortVec v{.p = la::ws_acquire(ws_, m, p.cols), .q = la::ws_acquire(ws_, m, p.cols)};
    la::copy(p.t.block(0, 0, m, p.cols), v.p.view());
    la::copy(p.t.block((nloc - 1) * m, 0, m, p.cols), v.q.view());
    // The forward replay consumes a copy of v; the backward one v itself.
    TwoPortVec v_fwd{.p = la::ws_acquire(ws_, m, p.cols), .q = la::ws_acquire(ws_, m, p.cols)};
    la::copy(v.p.view(), v_fwd.p.view());
    la::copy(v.q.view(), v_fwd.q.view());
    // Dynamic tags: one pair per in-flight panel, registry-enforced. The
    // schedule is SPMD-symmetric, so every rank picks the same pair.
    const int ftag = comm.next_tag();
    p.fwd = typename CachedScan<TwoPortOp>::Replay(fwd_, comm, std::move(v_fwd), ftag);
    const int btag = comm.next_tag();
    p.bwd = typename CachedScan<TwoPortOpReversed>::Replay(bwd_, comm, std::move(v), btag);
    if (overlap) {
      p.fwd.begin(comm);
      p.bwd.begin(comm);
    }
  };

  /// B-step: run the panel's replays to completion. Overlap mode
  /// round-interleaves the two scans, finishing whichever round's message
  /// is already visible on the virtual clock; off mode runs the forward
  /// replay, then the backward one.
  const auto drain_panel = [&](Panel& p) {
    if (!dist) return;
    if (overlap) {
      interleave(comm, p.fwd, p.bwd);
      p.pre = std::move(p.fwd).take_result();
      p.suf = std::move(p.bwd).take_result();
    } else {
      p.pre = std::move(p.fwd).run(comm);
      p.suf = std::move(p.bwd).run(comm);
    }
  };

  /// C-step: solve the interface system
  ///   K [u; v] = [A_lo q_pre - F p; C_{hi-1} p_suf - G q]
  /// (each row block present iff that neighbour exists) and apply the
  /// spike correction x_loc = t - W [u; v].
  const la::index_t k = spikes_.cols();
  const auto finish_panel = [&](Panel& p) {
    if (k > 0) {
      Matrix uv = la::ws_acquire(ws_, k, p.cols);
      // One row block: coupling * boundary - fg * (first or last block of t).
      const auto side = [&](const Matrix& coupling, const Matrix& boundary, const Matrix& fg,
                            la::index_t uv_row, la::index_t t_row) {
        const la::MatrixView dst = uv.block(uv_row, 0, m, p.cols);
        la::gemm(1.0, coupling.view(), boundary.view(), 0.0, dst, pool);
        la::gemm(-1.0, fg.view(), p.t.block(t_row, 0, m, p.cols), 1.0, dst, pool);
        comm.charge_flops(2.0 * la::gemm_flops(m, p.cols, m));
      };
      if (p.pre) {
        side(tp_.a_first, p.pre->q, f_, 0, 0);
        TwoPortOp::recycle_vec(ctx, std::move(*p.pre));
      }
      if (p.suf) {
        side(tp_.c_last, p.suf->p, g_, k - m, (nloc - 1) * m);
        TwoPortOp::recycle_vec(ctx, std::move(*p.suf));
      }
      la::lu_solve_inplace(k_, uv.view());
      la::gemm(-1.0, spikes_.view(), uv.view(), 1.0, p.t.view(), pool);
      comm.charge_flops(la::lu_solve_flops(k, p.cols) + la::gemm_flops(nloc * m, p.cols, k));
      la::ws_release(ws_, std::move(uv));
    }
    if (single) {
      xloc = std::move(p.t);
    } else {
      la::copy(p.t.view(), xloc.block(0, p.col0, nloc * m, p.cols));
      la::ws_release(ws_, std::move(p.t));
    }
  };

  if (overlap && !single) {
    // Software pipeline: panel k+1's A-step (local reduction + round-0
    // sends, no receives) runs while panel k's replies are in flight, so
    // its compute is what the receiver's clock advances on instead of
    // charged waits.
    start_panel(panels[0]);
    for (std::size_t k = 0; k < panels.size(); ++k) {
      if (k + 1 < panels.size()) start_panel(panels[k + 1]);
      drain_panel(panels[k]);
      finish_panel(panels[k]);
    }
  } else {
    for (Panel& p : panels) {
      start_panel(p);
      drain_panel(p);
      finish_panel(p);
    }
  }
  return xloc;
}

std::size_t ArdFactorization::storage_bytes() const {
  const auto scan_cache = [&](std::size_t rounds) {
    // Up to two merge events per round, four M x M matrices each.
    return rounds * 2 * 4 * static_cast<std::size_t>(m_ * m_) * sizeof(double);
  };
  const auto tp_bytes = static_cast<std::size_t>(tp_.P.size() + tp_.Q.size() + tp_.R.size() +
                                                 tp_.S.size() + tp_.a_first.size() +
                                                 tp_.c_last.size()) *
                        sizeof(double);
  const auto interface_bytes =
      static_cast<std::size_t>(spikes_.size() + f_.size() + g_.size() + k_.lu.size()) *
          sizeof(double) +
      k_.piv.size() * sizeof(la::index_t);
  return seg_.storage_bytes() + interface_bytes + scan_cache(fwd_.num_rounds()) +
         scan_cache(bwd_.num_rounds()) + tp_bytes;
}

fault::PivotDiagnostics ArdFactorization::diagnostics() const {
  fault::PivotDiagnostics d = seg_.pivot_diagnostics();
  if (k_.n() > 0) {
    // Rescale K's pivot range onto the segment's largest pivot so the
    // merged max/min ratio is max(segment growth, K growth).
    fault::PivotDiagnostics kd;
    kd.observe(d.max_pivot_abs * (k_.min_pivot_abs / k_.max_pivot_abs), d.max_pivot_abs, -1);
    d.merge(kd);
  }
  return d;
}

}  // namespace ardbt::core
