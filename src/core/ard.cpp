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
  const BlockTridiag tloc = copy_segment(sys, lo_, nloc, m);
  unmodified_ = ThomasFactorization::factor(tloc, opts_.pivot);
  comm.charge_flops(ThomasFactorization::factor_flops(nloc, m, opts_.pivot));

  // --- 2. Two-port corner blocks via a 2M-column local solve: columns
  // [0, M) carry the unit load on the first block row, columns [M, 2M)
  // on the last, so the corners of the solution are the corner blocks of
  // T_loc^{-1}.
  Matrix e = la::ws_acquire(ws_, nloc * m, 2 * m);
  for (la::index_t i = 0; i < m; ++i) {
    e(i, i) = 1.0;
    e((nloc - 1) * m + i, m + i) = 1.0;
  }
  Matrix w = unmodified_.solve(e, comm.pool(), ws_);
  comm.charge_flops(ThomasFactorization::solve_flops(nloc, m, 2 * m));

  tp_.P = la::to_matrix(w.block(0, 0, m, m));
  tp_.Q = la::to_matrix(w.block(0, m, m, m));
  tp_.R = la::to_matrix(w.block((nloc - 1) * m, 0, m, m));
  tp_.S = la::to_matrix(w.block((nloc - 1) * m, m, m, m));
  tp_.a_first = (lo_ > 0) ? sys.lower(lo_) : Matrix(m, m);
  tp_.c_last = (hi_ < n_) ? sys.upper(hi_ - 1) : Matrix(m, m);
  a_lo_ = tp_.a_first;
  c_hi_ = tp_.c_last;
  la::ws_release(ws_, std::move(e));
  la::ws_release(ws_, std::move(w));
}

template <typename SysView>
void ArdFactorization::global_phase(mpsim::Comm& comm, const SysView& sys) {
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

  // --- 4. Fold the boundary relations into the segment's corner diagonal
  // blocks and factor the modified segment:
  //   D'_lo     = D_lo     - A_lo S_pre C_{lo-1}
  //   D'_{hi-1} = D_{hi-1} - C_{hi-1} P_suf A_hi
  BlockTridiag tloc = copy_segment(sys, lo_, nloc, m);
  if (fwd_.has_incoming()) {
    const TwoPort& pre = fwd_.incoming_mat();
    Matrix as = la::ws_acquire(ws_, m, m);
    la::gemm(1.0, a_lo_.view(), pre.S.view(), 0.0, as.view());
    la::gemm(-1.0, as.view(), pre.c_last.view(), 1.0, tloc.diag(0).view());
    la::ws_release(ws_, std::move(as));
    comm.charge_flops(2.0 * la::gemm_flops(m, m, m));
  }
  if (bwd_.has_incoming()) {
    const TwoPort& suf = bwd_.incoming_mat();
    Matrix cp = la::ws_acquire(ws_, m, m);
    la::gemm(1.0, c_hi_.view(), suf.P.view(), 0.0, cp.view());
    la::gemm(-1.0, cp.view(), suf.a_first.view(), 1.0, tloc.diag(nloc - 1).view());
    la::ws_release(ws_, std::move(cp));
    comm.charge_flops(2.0 * la::gemm_flops(m, m, m));
  }
  modified_ = ThomasFactorization::factor(tloc, opts_.pivot);
  comm.charge_flops(ThomasFactorization::factor_flops(nloc, m, opts_.pivot));
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
  f.global_phase(comm, sys);
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
  global_phase(comm, sys);
}

void ArdFactorization::update(mpsim::Comm& comm, const btds::LocalBlockTridiag& sys,
                              bool rows_changed) {
  if (rows_changed) local_phase(comm, sys);
  global_phase(comm, sys);
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
    Matrix bloc;
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
  // A single panel's modified-segment solve IS the result; only a chunked
  // solve needs a separate buffer to assemble its panels into.
  const bool single = panels.size() == 1;
  Matrix xloc = single ? Matrix{} : la::ws_acquire(ws_, nloc * m, r);

  /// A-step: copy the panel, run its rank-local reduction, and (overlap
  /// mode) put both round-0 sends on the wire. No receives — so a rank may
  /// run this for panel k+1 while panel k's replies are still in flight.
  const auto start_panel = [&](Panel& p) {
    p.bloc = la::ws_acquire(ws_, nloc * m, p.cols);
    la::copy(b_local.block(0, p.col0, nloc * m, p.cols), p.bloc.view());
    if (!dist) return;
    // Segment vector two-port: first/last blocks of T_loc^{-1} b_loc.
    Matrix t = unmodified_.solve(p.bloc, pool, ws_);
    comm.charge_flops(ThomasFactorization::solve_flops(nloc, m, p.cols));
    TwoPortVec v{.p = la::ws_acquire(ws_, m, p.cols), .q = la::ws_acquire(ws_, m, p.cols)};
    la::copy(t.block(0, 0, m, p.cols), v.p.view());
    la::copy(t.block((nloc - 1) * m, 0, m, p.cols), v.q.view());
    la::ws_release(ws_, std::move(t));
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

  /// C-step: apply the boundary corrections b'_lo -= A_lo q_pre and
  /// b'_{hi-1} -= C_{hi-1} p_suf, then back-solve the modified segment.
  const auto finish_panel = [&](Panel& p) {
    if (p.pre) {
      la::gemm(-1.0, a_lo_.view(), p.pre->q.view(), 1.0, p.bloc.block(0, 0, m, p.cols), pool);
      comm.charge_flops(la::gemm_flops(m, p.cols, m));
      TwoPortOp::recycle_vec(ctx, std::move(*p.pre));
    }
    if (p.suf) {
      la::gemm(-1.0, c_hi_.view(), p.suf->p.view(), 1.0,
               p.bloc.block((nloc - 1) * m, 0, m, p.cols), pool);
      comm.charge_flops(la::gemm_flops(m, p.cols, m));
      TwoPortOp::recycle_vec(ctx, std::move(*p.suf));
    }
    Matrix xp = modified_.solve(p.bloc, pool, ws_);
    comm.charge_flops(ThomasFactorization::solve_flops(nloc, m, p.cols));
    la::ws_release(ws_, std::move(p.bloc));
    if (single) {
      xloc = std::move(xp);
    } else {
      la::copy(xp.view(), xloc.block(0, p.col0, nloc * m, p.cols));
      la::ws_release(ws_, std::move(xp));
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
  return unmodified_.storage_bytes() + modified_.storage_bytes() +
         scan_cache(fwd_.num_rounds()) + scan_cache(bwd_.num_rounds()) + tp_bytes +
         static_cast<std::size_t>(a_lo_.size() + c_hi_.size()) * sizeof(double);
}

}  // namespace ardbt::core
