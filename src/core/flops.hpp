#pragma once

#include <cmath>

#include "src/la/types.hpp"
#include "src/mpsim/costmodel.hpp"

/// \file flops.hpp
/// Closed-form work and communication counts mirroring the kernels the
/// solvers actually call (experiment T1). All counts are the *per-rank
/// critical path*: local terms use ceil(N/P) rows, cross-rank terms use
/// ceil(log2 P) hypercube rounds. Cross-checked against the runtime flop
/// counters (Comm::charge_flops) in tests. The *_terms builders bundle
/// them as mpsim::PhaseTerms, so a phase's closed-form runtime is
/// `cost.predict(flops::*_terms(...))` on any mpsim::CostModel.

namespace ardbt::core::flops {

using la::index_t;

/// ceil(log2 p), the hypercube round count (0 for p = 1).
inline double log2_rounds(int p) {
  double rounds = 0;
  for (int v = 1; v < p; v <<= 1) rounds += 1;
  return rounds;
}

/// ceil(N/P), local rows on the busiest rank.
inline double rows_per_rank(index_t n, int p) {
  return std::ceil(static_cast<double>(n) / static_cast<double>(p));
}

/// ARD factor phase flops (phase 1). The breakdown mirrors
/// ArdFactorization::factor (the two-port formulation):
///   per row : two block-Thomas factorizations (2 x 14/3 M^3) plus the
///             2M-column corner solve (12 M^3) ~ 21.3 M^3
///   per round: two scans x <= 2 two-port merges, each merge ~13 gemms +
///             LU + two right-divides ~ 31 M^3  =>  <= 124 M^3
inline double ard_factor(index_t n, index_t m, int p) {
  const double m3 = static_cast<double>(m) * static_cast<double>(m) * static_cast<double>(m);
  const double per_row = (2.0 * 14.0 / 3.0 + 12.0) * m3;
  const double per_round = 2.0 * 2.0 * 31.0 * m3;
  return rows_per_rank(n, p) * per_row + log2_rounds(p) * per_round;
}

/// ARD solve phase flops (phase 2) for R right-hand sides: two local
/// Thomas solves (12 M^2 R per row; only one when P = 1, where the
/// segment-vector pass is skipped) plus <= 2 scans x 2 merges x 4 gemms
/// per round (32 M^2 R) and the two boundary corrections.
inline double ard_solve(index_t n, index_t m, index_t r, int p) {
  const double m2r = static_cast<double>(m) * static_cast<double>(m) * static_cast<double>(r);
  const double per_row = (p == 1 ? 6.0 : 12.0) * m2r;
  return rows_per_rank(n, p) * per_row + log2_rounds(p) * 32.0 * m2r + 4.0 * m2r;
}

/// Classic RD, all R right-hand sides batched into one pass.
inline double rd_batched(index_t n, index_t m, index_t r, int p) {
  return ard_factor(n, m, p) + ard_solve(n, m, r, p);
}

/// Classic RD applied once per right-hand side (the paper's baseline).
inline double rd_per_rhs(index_t n, index_t m, index_t r, int p) {
  return static_cast<double>(r) * (ard_factor(n, m, p) + ard_solve(n, m, 1, p));
}

/// Predicted ARD-over-RD speedup for R right-hand sides (the F1 curve):
/// ARD amortizes one factor over one batched solve, the same count as
/// rd_batched. Approaches R for small R and saturates near
/// factor/solve-per-rhs ~ 4M.
inline double predicted_speedup(index_t n, index_t m, index_t r, int p) {
  return rd_per_rhs(n, m, r, p) / rd_batched(n, m, r, p);
}

/// Factor-phase bytes sent per rank: two scans exchanging a six-matrix
/// two-port (6 M^2 doubles) per round.
inline double ard_factor_bytes(index_t m, int p) {
  const double m2 = static_cast<double>(m) * static_cast<double>(m);
  return 8.0 * log2_rounds(p) * 2.0 * 6.0 * m2;
}

/// Solve-phase bytes sent per rank for R right-hand sides: two scans
/// exchanging a (p, q) pair (2 M R doubles) per round.
inline double ard_solve_bytes(index_t m, index_t r, int p) {
  return 8.0 * log2_rounds(p) * 2.0 * 2.0 * static_cast<double>(m) * static_cast<double>(r);
}

/// Factor-phase message count per rank (two scans, one send per round).
inline double ard_factor_messages(int p) { return 2.0 * log2_rounds(p); }

/// Solve-phase message count per rank.
inline double ard_solve_messages(int p) { return 2.0 * log2_rounds(p); }

/// Workload terms of the ARD factor phase (mpsim::CostModel::predict,
/// mpsim::judge): the same counts as ard_factor / ard_factor_messages /
/// ard_factor_bytes, bundled.
inline mpsim::PhaseTerms ard_factor_terms(index_t n, index_t m, int p) {
  return {ard_factor(n, m, p), ard_factor_messages(p), ard_factor_bytes(m, p)};
}

/// Workload terms of one ARD solve batch with R right-hand sides.
inline mpsim::PhaseTerms ard_solve_terms(index_t n, index_t m, index_t r, int p) {
  return {ard_solve(n, m, r, p), ard_solve_messages(p), ard_solve_bytes(m, r, p)};
}

/// Classic batched RD does factor-equivalent and solve-equivalent work in
/// one pass: the sum of both phases' terms.
inline mpsim::PhaseTerms rd_batched_terms(index_t n, index_t m, index_t r, int p) {
  const mpsim::PhaseTerms f = ard_factor_terms(n, m, p);
  const mpsim::PhaseTerms s = ard_solve_terms(n, m, r, p);
  return {f.flops + s.flops, f.messages + s.messages, f.bytes + s.bytes};
}

/// Per-RHS RD repeats the full pass once per right-hand side.
inline mpsim::PhaseTerms rd_per_rhs_terms(index_t n, index_t m, index_t r, int p) {
  const mpsim::PhaseTerms one = rd_batched_terms(n, m, 1, p);
  const double rr = static_cast<double>(r);
  return {rr * one.flops, rr * one.messages, rr * one.bytes};
}

}  // namespace ardbt::core::flops

namespace ardbt::core {

/// Measure this host's effective flop rate with a short dense-kernel loop
/// at a representative block size, returning `base` with its flop_rate
/// set to the host's (alpha/beta unchanged, "+calibrated" appended to the
/// name).
mpsim::CostModel calibrate_flop_rate(mpsim::CostModel base, la::index_t block_size = 32);

}  // namespace ardbt::core
