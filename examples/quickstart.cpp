// Quickstart: build a block tridiagonal system, factor it once with
// accelerated recursive doubling (ARD) on a few simulated ranks, solve two
// right-hand-side batches, and verify the residuals.
//
//   cmake --build build && ./build/examples/quickstart

#include <cstdio>

#include "src/btds/generators.hpp"
#include "src/btds/spmv.hpp"
#include "src/core/solver.hpp"

int main() {
  using namespace ardbt;

  // A 2-D Poisson problem in line-solve form: N block rows (grid lines) of
  // block size M (points per line).
  const la::index_t n = 256;
  const la::index_t m = 16;
  const btds::BlockTridiag sys = btds::make_problem(btds::ProblemKind::kPoisson2D, n, m);

  // Two batches of right-hand sides sharing the matrix — the pattern the
  // accelerated algorithm exists for.
  const la::Matrix b1 = btds::make_rhs(n, m, /*num_rhs=*/8, /*seed=*/1);
  const la::Matrix b2 = btds::make_rhs(n, m, /*num_rhs=*/32, /*seed=*/2);

  // Factor once, solve both batches, on 4 simulated ranks. Timings use the
  // deterministic virtual clock with an IPDPS-2014-era cluster profile;
  // threads_per_rank adds intra-rank workers for the wide-panel kernels
  // (bit-identical results at any worker count).
  mpsim::EngineOptions engine;
  engine.timing = mpsim::TimingMode::ChargedFlops;
  engine.cost = mpsim::CostModel::cluster2014();
  engine.threads_per_rank = 2;

  core::Session session(core::Method::kArd, sys, /*nranks=*/4, {.engine = engine});
  session.factor();
  const la::Matrix x1 = session.solve(b1);
  const double t1 = session.last_solve_vtime();
  const la::Matrix x2 = session.solve(b2);
  const double t2 = session.last_solve_vtime();

  std::printf("ARD quickstart: N=%lld block rows, M=%lld, P=4\n", static_cast<long long>(n),
              static_cast<long long>(m));
  std::printf("  factor       : %.3g modeled seconds, %.2f MiB factored state\n",
              session.factor_vtime(), static_cast<double>(session.storage_bytes()) / (1 << 20));
  std::printf("  solve R=8    : %.3g modeled seconds, residual %.2e\n",
              t1, btds::relative_residual(sys, x1, b1));
  std::printf("  solve R=32   : %.3g modeled seconds, residual %.2e\n",
              t2, btds::relative_residual(sys, x2, b2));

  // The one-call driver is available when a single solve is all you need:
  const core::DriverResult once =
      core::solve(core::Method::kArd, sys, b1, /*nranks=*/4, {.engine = engine});
  std::printf("  one-call API : residual %.2e\n", btds::relative_residual(sys, once.x, b1));
  return 0;
}
