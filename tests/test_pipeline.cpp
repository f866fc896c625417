// Tests for the latency-hiding scan pipeline (docs/PARALLELISM.md,
// "Latency-hiding pipeline"): the bit-identity contract of overlap /
// chunked RHS panels across thread counts and uneven partitions, the
// attribution-visible effect of overlap on a comm-bound run, and the
// dynamic-tag registry the pipeline's concurrent scans lean on
// (regression: tag uniqueness used to be a comment, not a check).

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

#include "src/btds/generators.hpp"
#include "src/btds/spmv.hpp"
#include "src/core/ard.hpp"
#include "src/core/solver.hpp"
#include "src/fault/status.hpp"
#include "src/mpsim/comm.hpp"
#include "src/mpsim/engine.hpp"
#include "src/obs/attribution.hpp"
#include "src/obs/trace.hpp"

namespace ardbt {
namespace {

using btds::make_problem;
using btds::make_rhs;
using btds::ProblemKind;
using la::index_t;

mpsim::EngineOptions charged_engine(int threads = 1) {
  mpsim::EngineOptions engine;
  engine.timing = mpsim::TimingMode::ChargedFlops;
  engine.cost = mpsim::CostModel::cluster2014();
  engine.threads_per_rank = threads;
  // A schedule mismatch between ranks fails the test instead of hanging.
  engine.recv_timeout_wall = 30.0;
  return engine;
}

// 0.0 iff the two matrices agree bit-for-bit (same shape, all cells ==).
double max_abs_diff(const la::Matrix& a, const la::Matrix& b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  double d = 0.0;
  for (index_t j = 0; j < a.cols(); ++j)
    for (index_t i = 0; i < a.rows(); ++i)
      d = std::max(d, std::abs(a(i, j) - b(i, j)));
  return d;
}

la::Matrix pipeline_solve(const btds::BlockTridiag& sys, const la::Matrix& b, int p,
                          bool overlap, index_t chunk, int threads) {
  core::ArdOptions opts;
  opts.pipeline.overlap = overlap;
  opts.pipeline.chunk_cols = chunk;
  return core::solve(core::Method::kArd, sys, b, p,
                     {.ard = opts, .engine = charged_engine(threads)})
      .x;
}

// Tentpole contract: overlap and panel chunking never change a single
// bit of the solution, for any thread count and any chunk size — the
// merge reorder touches independent operand pairs only and pool-parallel
// Thomas solves have column-independent FP sequences.
TEST(Pipeline, BitIdentityAcrossOverlapChunkThreads) {
  const index_t n = 96, m = 4, r = 6;
  const int p = 4;
  const auto sys = make_problem(ProblemKind::kDiagDominant, n, m);
  const auto b = make_rhs(n, m, r);

  const la::Matrix base = pipeline_solve(sys, b, p, false, 0, 1);
  EXPECT_LT(btds::relative_residual(sys, base, b), 1e-12);

  for (const bool overlap : {false, true})
    for (const int threads : {1, 3})
      for (const index_t chunk : {index_t{1}, index_t{0}, r}) {
        const la::Matrix x = pipeline_solve(sys, b, p, overlap, chunk, threads);
        EXPECT_EQ(max_abs_diff(base, x), 0.0)
            << "overlap=" << overlap << " threads=" << threads << " chunk=" << chunk;
      }

  // Serial specialization (P=1) takes the same panel path and must agree too.
  const la::Matrix s_base = pipeline_solve(sys, b, 1, false, 0, 1);
  const la::Matrix s_pipe = pipeline_solve(sys, b, 1, true, 2, 1);
  EXPECT_EQ(max_abs_diff(s_base, s_pipe), 0.0);
}

// Uneven partitions (P <= N < 2P): single-row ranks and multi-row ranks
// must replay the same panel schedule with the same tags, or solve()
// hangs (as a rank-local schedule dispatch once did on this partition).
// Every overlap/chunk combination must complete, solve accurately, and
// stay bit-identical to the default schedule.
TEST(Pipeline, UnevenPartitionDoesNotDeadlock) {
  const index_t n = 5, m = 3, r = 4;
  const int p = 4;  // rows split {2,1,1,1}
  const auto sys = make_problem(ProblemKind::kDiagDominant, n, m);
  const auto b = make_rhs(n, m, r);

  const la::Matrix base = pipeline_solve(sys, b, p, false, 0, 1);
  EXPECT_LT(btds::relative_residual(sys, base, b), 1e-12);

  for (const bool overlap : {false, true})
    for (const index_t chunk : {index_t{0}, index_t{1}, index_t{2}}) {
      const la::Matrix x = pipeline_solve(sys, b, p, overlap, chunk, 1);
      EXPECT_EQ(max_abs_diff(base, x), 0.0) << "overlap=" << overlap << " chunk=" << chunk;
    }
}

// Regression (overlap deadlock): the round-interleaving scheduler used to
// block on whichever scan it preferred, even at a higher hypercube level
// than the other scan's next round. On P = 5 (and 9, 10, 11, 13, ...)
// two ranks then each waited for a message the other would only send
// after its own wait returned. Overlap must complete on ragged rank
// counts, for one and several panels, and match the default schedule.
TEST(Pipeline, OverlapCompletesOnNonPowerOfTwoRankCounts) {
  const index_t m = 2, r = 3;
  for (const int p : {5, 9, 11}) {
    for (const index_t n : {index_t{p + 2}, index_t{64}}) {
      const auto sys = make_problem(ProblemKind::kDiagDominant, n, m);
      const auto b = make_rhs(n, m, r);
      const la::Matrix base = pipeline_solve(sys, b, p, false, 0, 1);
      EXPECT_LT(btds::relative_residual(sys, base, b), 1e-12) << "P=" << p << " N=" << n;
      for (const index_t chunk : {index_t{0}, index_t{1}}) {
        const la::Matrix x = pipeline_solve(sys, b, p, true, chunk, 1);
        EXPECT_EQ(max_abs_diff(base, x), 0.0) << "P=" << p << " N=" << n << " chunk=" << chunk;
      }
    }
  }
}

struct OverlapRun {
  obs::Attribution attr;
  double solve_vtime = 0.0;
};

OverlapRun comm_bound_run(bool overlap) {
  const index_t n = 64, m = 8, r = 32;
  const int p = 8;
  const auto sys = make_problem(ProblemKind::kDiagDominant, n, m);
  const auto b = make_rhs(n, m, r);

  mpsim::EngineOptions engine;
  engine.timing = mpsim::TimingMode::ChargedFlops;
  // Bandwidth-bound model: the beta * bytes term dominates, so chunked
  // panels have something worth hiding behind panel compute.
  engine.cost = {.alpha = 2e-6, .beta = 2e-8, .flop_rate = 2e9, .name = "comm_bound"};
  obs::Tracer tracer;
  engine.tracer = &tracer;

  core::ArdOptions opts;
  opts.pipeline.overlap = overlap;
  opts.pipeline.chunk_cols = 8;
  const auto res = core::solve(core::Method::kArd, sys, b, p, {.ard = opts, .engine = engine});
  EXPECT_LT(btds::relative_residual(sys, res.x, b), 1e-12);
  return {obs::analyze(tracer), res.solve_vtime};
}

// Overlap must be visible to the attribution layer: on a comm-bound run
// the critical path's blocked time (wait + in-flight comm) strictly
// shrinks, and the solve makespan with it. Compute on the path does not
// grow — overlap hides waits, it does not add work.
TEST(Pipeline, AttributionBlockedTimeShrinksWithOverlap) {
  const OverlapRun off = comm_bound_run(false);
  const OverlapRun on = comm_bound_run(true);

  EXPECT_LT(on.solve_vtime, off.solve_vtime);
  EXPECT_LT(on.attr.makespan_s, off.attr.makespan_s);
  const double blocked_off = off.attr.critical_path.wait_s + off.attr.critical_path.comm_s;
  const double blocked_on = on.attr.critical_path.wait_s + on.attr.critical_path.comm_s;
  EXPECT_LT(blocked_on, blocked_off);
}

// Regression (tag registry): CachedScan used to document tag uniqueness
// in a comment only; a colliding tag silently cross-matched messages.
// Claiming a tag that is already in flight must now raise the typed
// error on every rank, before anything is posted.
TEST(TagAllocator, CollisionRaisesTypedError) {
  const index_t n = 16, m = 2;
  const int p = 2;
  const auto sys = make_problem(ProblemKind::kDiagDominant, n, m);
  std::atomic<int> caught{0};
  std::atomic<int> missed{0};

  mpsim::run(
      p,
      [&](mpsim::Comm& comm) {
        mpsim::TagGuard hold(comm, core::ard_tags::kFwdFactor);
        try {
          (void)core::ArdFactorization::factor(comm, sys, btds::RowPartition(n, p));
          ++missed;
        } catch (const fault::TagCollisionError& e) {
          if (e.code() == fault::ErrorCode::kTagCollision &&
              e.tag() == core::ard_tags::kFwdFactor)
            ++caught;
        }
      },
      charged_engine());

  EXPECT_EQ(caught.load(), p);
  EXPECT_EQ(missed.load(), 0);
}

// next_tag() hands out tags from the dynamic range and never one that is
// currently held, so concurrent panel replays get distinct wire tags.
TEST(TagAllocator, NextTagSkipsHeldTags) {
  mpsim::run(
      1,
      [&](mpsim::Comm& comm) {
        const int t0 = comm.next_tag();
        if (t0 < mpsim::Comm::kDynamicTagBase)
          throw std::logic_error("next_tag below the dynamic range");
        if (comm.next_tag() != t0)
          throw std::logic_error("next_tag claimed the tag it suggested");
        mpsim::TagGuard g0(comm, t0);
        const int t1 = comm.next_tag();
        if (t1 == t0) throw std::logic_error("next_tag returned a held tag");
        bool collided = false;
        try {
          comm.register_tag(t0);
        } catch (const fault::TagCollisionError&) {
          collided = true;
        }
        if (!collided) throw std::logic_error("re-registering a held tag did not throw");
        {
          mpsim::TagGuard g1(comm, t1);
          mpsim::TagGuard moved = std::move(g1);  // RAII handoff keeps the claim
          if (comm.next_tag() == t1) throw std::logic_error("moved guard dropped its tag");
        }
        if (comm.next_tag() != t1)
          throw std::logic_error("destroyed guard did not release its tag");
      },
      charged_engine());
}

}  // namespace
}  // namespace ardbt
