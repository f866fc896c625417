#include "src/core/solver.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/btds/generators.hpp"
#include "src/btds/spmv.hpp"
#include "src/obs/metrics.hpp"

namespace ardbt::core {
namespace {

using btds::make_problem;
using btds::make_rhs;
using btds::ProblemKind;

constexpr Method kAllMethods[] = {Method::kRdBatched, Method::kRdPerRhs, Method::kArd,
                                  Method::kTransferRd, Method::kPcr};

mpsim::EngineOptions charged() {
  mpsim::EngineOptions engine;
  engine.timing = mpsim::TimingMode::ChargedFlops;
  return engine;
}

TEST(Session, MatchesLegacyOneShotExactlyPerMethod) {
  const auto sys = make_problem(ProblemKind::kDiagDominant, 16, 3);
  const auto b = make_rhs(16, 3, 5);
  for (Method method : kAllMethods) {
    const DriverResult legacy = solve(method, sys, b, 4, {.engine = charged()});
    Session session(method, sys, 4, {.engine = charged()});
    session.factor();
    const la::Matrix x = session.solve(b);
    EXPECT_TRUE(x == legacy.x) << to_string(method);
  }
}

TEST(Session, FactorOnceThenRepeatedSolves) {
  const auto sys = make_problem(ProblemKind::kPoisson2D, 24, 4);
  const auto b1 = make_rhs(24, 4, 3, 1);
  const auto b2 = make_rhs(24, 4, 7, 2);
  Session session(Method::kArd, sys, 4, {.engine = charged()});
  EXPECT_FALSE(session.factored());
  session.factor();
  EXPECT_TRUE(session.factored());
  EXPECT_GT(session.factor_vtime(), 0.0);
  EXPECT_GT(session.storage_bytes(), 0u);

  const la::Matrix x1 = session.solve(b1);
  const la::Matrix x2 = session.solve(b2);
  ASSERT_EQ(session.ok_solves(), 2u);
  EXPECT_LT(btds::relative_residual(sys, x1, b1), 1e-10);
  EXPECT_LT(btds::relative_residual(sys, x2, b2), 1e-10);

  // Re-solving the same batch replays only the solve phase and must give
  // the identical answer.
  const la::Matrix x1_again = session.solve(b1);
  EXPECT_TRUE(x1_again == x1);
  // factor() stays idempotent.
  const double fv = session.factor_vtime();
  session.factor();
  EXPECT_EQ(session.factor_vtime(), fv);
}

TEST(Session, AutoFactorsOnFirstSolve) {
  const auto sys = make_problem(ProblemKind::kDiagDominant, 12, 2);
  const auto b = make_rhs(12, 2, 4);
  Session session(Method::kPcr, sys, 3, {.engine = charged()});
  const la::Matrix x = session.solve(b);
  EXPECT_TRUE(session.factored());
  EXPECT_GT(session.factor_vtime(), 0.0);
  EXPECT_LT(btds::relative_residual(sys, x, b), 1e-10);
}

TEST(Session, ClassicRdHasNoFactorPhase) {
  const auto sys = make_problem(ProblemKind::kDiagDominant, 12, 2);
  const auto b = make_rhs(12, 2, 2);
  for (Method method : {Method::kRdBatched, Method::kRdPerRhs}) {
    Session session(method, sys, 3, {.engine = charged()});
    const la::Matrix x = session.solve(b);
    EXPECT_EQ(session.factor_vtime(), 0.0) << to_string(method);
    EXPECT_GT(session.last_solve_vtime(), 0.0) << to_string(method);
    EXPECT_LT(btds::relative_residual(sys, x, b), 1e-9) << to_string(method);
  }
}

TEST(Session, SolutionsAreBitIdenticalAcrossThreadCounts) {
  const auto sys = make_problem(ProblemKind::kDiagDominant, 32, 6);
  const auto b = make_rhs(32, 6, 17);
  for (Method method : {Method::kArd, Method::kPcr}) {
    la::Matrix reference;
    for (int threads : {1, 2, 8}) {
      mpsim::EngineOptions engine = charged();
      engine.threads_per_rank = threads;
      Session session(method, sys, 4, {}, engine);
      session.factor();
      const la::Matrix x = session.solve(b);
      if (threads == 1) {
        reference = x;
        EXPECT_LT(btds::relative_residual(sys, x, b), 1e-10) << to_string(method);
      } else {
        EXPECT_TRUE(x == reference) << to_string(method) << " threads=" << threads;
      }
    }
  }
}

TEST(Session, VirtualTimesAreIndependentOfThreadCount) {
  // Flop charges stay on the rank thread, so the modeled clock must not
  // move when workers split the kernels.
  const auto sys = make_problem(ProblemKind::kDiagDominant, 32, 6);
  const auto b = make_rhs(32, 6, 17);
  double ref_factor = 0.0, ref_solve = 0.0, ref_flops = 0.0;
  for (int threads : {1, 2, 8}) {
    mpsim::EngineOptions engine = charged();
    engine.threads_per_rank = threads;
    Session session(Method::kArd, sys, 4, {}, engine);
    session.factor();
    session.solve(b);
    if (threads == 1) {
      ref_factor = session.factor_vtime();
      ref_solve = session.last_solve_vtime();
      ref_flops = session.report().totals().flops_charged;
      EXPECT_GT(ref_factor, 0.0);
      EXPECT_GT(ref_solve, 0.0);
    } else {
      EXPECT_DOUBLE_EQ(session.factor_vtime(), ref_factor) << threads;
      EXPECT_DOUBLE_EQ(session.last_solve_vtime(), ref_solve) << threads;
      EXPECT_DOUBLE_EQ(session.report().totals().flops_charged, ref_flops) << threads;
    }
  }
}

TEST(Session, RunsChainOnOneVirtualTimeline) {
  // Each engine run resumes the session clock (vtime_origin), so the
  // report's virtual time keeps growing: factor < factor+solve < ...
  const auto sys = make_problem(ProblemKind::kDiagDominant, 16, 3);
  const auto b = make_rhs(16, 3, 4);
  Session session(Method::kArd, sys, 4, {.engine = charged()});
  session.factor();
  const double after_factor = session.report().max_virtual_time();
  session.solve(b);
  const double after_one = session.report().max_virtual_time();
  session.solve(b);
  const double after_two = session.report().max_virtual_time();
  EXPECT_GT(after_factor, 0.0);
  EXPECT_GT(after_one, after_factor);
  EXPECT_GT(after_two, after_one);
}

TEST(Session, ArdSolveIsArenaSteadyStateAfterFirstSolve) {
  // The zero-allocation contract of the workspace arena: the first
  // solve(B) of a given shape may grow the per-rank arenas, but every
  // further solve of that shape must be satisfied entirely from pooled
  // slabs — the slab_allocs counters stop moving.
  const auto sys = make_problem(ProblemKind::kPoisson2D, 24, 4);
  const auto b = make_rhs(24, 4, 5, 3);
  const int nranks = 4;
  Session session(Method::kArd, sys, nranks, {.engine = charged()});
  session.factor();

  for (int r = 0; r < nranks; ++r) {
    const la::Workspace::Stats after_factor = session.arena_stats_after_factor(r);
    EXPECT_GT(after_factor.slab_allocs, 0u) << r;  // factor used the arena
    EXPECT_EQ(session.arena_stats(r).slab_allocs, after_factor.slab_allocs) << r;
  }

  session.solve(b);  // warm-up: sizes the solve-phase slabs
  std::vector<std::uint64_t> warm(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    warm[static_cast<std::size_t>(r)] = session.arena_stats(r).slab_allocs;
  }

  for (int repeat = 0; repeat < 3; ++repeat) {
    session.solve(b);
    for (int r = 0; r < nranks; ++r) {
      const la::Workspace::Stats s = session.arena_stats(r);
      EXPECT_EQ(s.slab_allocs, warm[static_cast<std::size_t>(r)])
          << "rank " << r << " allocated a new slab on steady-state solve " << repeat;
      EXPECT_GT(s.acquires, 0u) << r;  // arena is actually in use
    }
  }

  // Out-of-range queries are harmless zero stats.
  EXPECT_EQ(session.arena_stats(-1).acquires, 0u);
  EXPECT_EQ(session.arena_stats(nranks).acquires, 0u);

  // The registry export mirrors the per-rank counters. The solve-phase
  // slab count includes the warm-up solve, but is frozen in steady state.
  obs::MetricsRegistry reg;
  session.export_arena_metrics(reg);
  EXPECT_GT(reg.gauge("arena.high_water_bytes").value(), 0.0);
  const double solve_allocs = reg.gauge("arena.solve.slab_allocs").value();
  session.solve(b);
  obs::MetricsRegistry reg2;
  session.export_arena_metrics(reg2);
  EXPECT_EQ(reg2.gauge("arena.solve.slab_allocs").value(), solve_allocs);
}

TEST(Session, SolveLogStaysBoundedAndLatencyExportIsUnchanged) {
  // A time-stepping loop must not grow the robustness log: untroubled
  // solves are counted, not kept, while the exported latency histogram
  // still sees every solve, exactly as if each batch were observed.
  const auto sys = make_problem(ProblemKind::kDiagDominant, 16, 3);
  const auto b1 = make_rhs(16, 3, 2, 5);
  const auto b2 = make_rhs(16, 3, 6, 6);
  Session session(Method::kArd, sys, 3, {.engine = charged()});
  EXPECT_EQ(session.last_outcome(), nullptr);
  EXPECT_EQ(session.last_solve_vtime(), 0.0);
  session.factor();
  ASSERT_NE(session.last_outcome(), nullptr);
  EXPECT_EQ(session.last_outcome()->phase, "factor");

  obs::LatencyHistogram expected;
  const int kSolves = 40;
  for (int i = 0; i < kSolves; ++i) {
    session.solve(i % 2 == 0 ? b1 : b2);
    EXPECT_GT(session.last_solve_vtime(), 0.0);
    expected.observe(session.last_solve_vtime());
    ASSERT_NE(session.last_outcome(), nullptr);
    EXPECT_EQ(session.last_outcome()->phase, "solve");
    EXPECT_EQ(session.last_outcome()->action, "ok");
  }
  EXPECT_EQ(session.ok_solves(), static_cast<std::uint64_t>(kSolves));
  ASSERT_EQ(session.outcomes().size(), 1u);
  EXPECT_EQ(session.outcomes()[0].phase, "factor");

  obs::MetricsRegistry reg;
  session.export_latency_metrics(reg);
  EXPECT_EQ(reg.latency("latency.session.solve_s").to_json().dump(), expected.to_json().dump());
  EXPECT_EQ(reg.latency("latency.session.solve_s").total_count(),
            static_cast<std::uint64_t>(kSolves));
  EXPECT_EQ(reg.latency("latency.session.factor_s").total_count(), 1u);
}

TEST(Session, RejectsBadShapesAndRankCounts) {
  const auto sys = make_problem(ProblemKind::kDiagDominant, 8, 2);
  // Structured errors (fault:: taxonomy) rather than raw std exceptions,
  // so service-layer callers can dispatch on code().
  EXPECT_THROW(Session(Method::kArd, sys, 0), fault::InvalidArgumentError);
  try {
    Session(Method::kArd, sys, 0);
    FAIL() << "non-positive nranks must throw";
  } catch (const fault::SolveError& e) {
    EXPECT_EQ(e.code(), fault::ErrorCode::kInvalidArgument);
  }
  Session session(Method::kArd, sys, 2);
  const la::Matrix wrong(7, 3);
  EXPECT_THROW(session.solve(wrong), fault::ShapeMismatchError);
  try {
    session.solve(wrong);
    FAIL() << "wrong row count must throw";
  } catch (const fault::ShapeMismatchError& e) {
    EXPECT_EQ(e.code(), fault::ErrorCode::kShapeMismatch);
    EXPECT_EQ(e.got(), 7);
    EXPECT_EQ(e.expected(), 16);
  }
}

TEST(Session, SharedOwnershipKeepsSystemAlive) {
  // The owning constructor: the Session must stay valid after the caller
  // drops its last reference to the system (the FactorCache eviction
  // contract).
  auto sys = std::make_shared<const btds::BlockTridiag>(
      make_problem(ProblemKind::kDiagDominant, 8, 2));
  const la::Matrix b = make_rhs(8, 2, 3);
  Session session(Method::kArd, sys, 2, {.engine = charged()});
  session.factor();
  const std::weak_ptr<const btds::BlockTridiag> weak = sys;
  sys.reset();
  EXPECT_FALSE(weak.expired()) << "session must co-own the system";
  const la::Matrix x = session.solve(b);
  EXPECT_LT(btds::relative_residual(*weak.lock(), x, b), 1e-10);
  EXPECT_THROW(Session(Method::kArd, nullptr, 2), fault::InvalidArgumentError);
}

}  // namespace
}  // namespace ardbt::core
