#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/btds/generators.hpp"
#include "src/btds/spmv.hpp"
#include "src/core/ard.hpp"
#include "src/mpsim/engine.hpp"

namespace ardbt::core {
namespace {

using btds::BlockTridiag;
using btds::make_problem;
using btds::make_rhs;
using btds::ProblemKind;
using la::index_t;
using la::Matrix;

TEST(Update, NoChangeReproducesSameSolution) {
  const index_t n = 32, m = 3;
  const BlockTridiag sys = make_problem(ProblemKind::kDiagDominant, n, m);
  const Matrix b = make_rhs(n, m, 2);
  Matrix x_before(b.rows(), b.cols());
  Matrix x_after(b.rows(), b.cols());
  const btds::RowPartition part(n, 4);
  mpsim::run(4, [&](mpsim::Comm& comm) {
    auto f = ArdFactorization::factor(comm, sys, part);
    f.solve(comm, b, x_before);
    f.update(comm, sys, /*rows_changed=*/false);
    f.solve(comm, b, x_after);
  });
  for (index_t i = 0; i < b.rows(); ++i) {
    for (index_t j = 0; j < b.cols(); ++j) EXPECT_EQ(x_before(i, j), x_after(i, j));
  }
}

TEST(Update, TracksMatrixChangeOnOneRank) {
  const index_t n = 32, m = 3;
  const int p = 4;
  BlockTridiag sys = make_problem(ProblemKind::kDiagDominant, n, m);
  const Matrix b = make_rhs(n, m, 3);
  Matrix x(b.rows(), b.cols());
  const btds::RowPartition part(n, p);
  const int changed_rank = 2;

  mpsim::run(p, [&](mpsim::Comm& comm) {
    auto f = ArdFactorization::factor(comm, sys, part);
    mpsim::barrier(comm);
    // Rank 2's rows change (a diagonal shift); everyone else's are intact.
    if (comm.rank() == 0) {
      for (index_t i = part.begin(changed_rank); i < part.end(changed_rank); ++i) {
        for (index_t d = 0; d < m; ++d) sys.diag(i)(d, d) += 1.5;
      }
    }
    mpsim::barrier(comm);
    f.update(comm, sys, /*rows_changed=*/comm.rank() == changed_rank);
    f.solve(comm, b, x);
  });
  EXPECT_LT(btds::relative_residual(sys, x, b), 1e-12);
}

TEST(Update, UnchangedRanksChargeFewerFlops) {
  const index_t m = 8;
  const int p = 4;
  // Rank 1's factor and update() flops for an N-row system whose only
  // change is on rank 0. Each phase runs on a fresh engine, so both counts
  // start from zero and sum the same charges in the same order.
  const auto rank1_flops = [&](index_t n) {
    BlockTridiag sys = make_problem(ProblemKind::kDiagDominant, n, m);
    const btds::RowPartition part(n, p);
    std::vector<ArdFactorization> f(p);
    std::pair<double, double> out{0.0, 0.0};
    mpsim::run(p, [&](mpsim::Comm& comm) {
      f[comm.rank()] = ArdFactorization::factor(comm, sys, part);
      if (comm.rank() == 1) out.first = comm.stats().flops_charged;
    });
    sys.diag(0)(0, 0) += 0.5;  // only rank 0's rows change
    mpsim::run(p, [&](mpsim::Comm& comm) {
      f[comm.rank()].update(comm, sys, /*rows_changed=*/comm.rank() == 0);
      if (comm.rank() == 1) out.second = comm.stats().flops_charged;
    });
    return out;
  };
  const auto [factor_128, update_128] = rank1_flops(128);
  const auto [factor_512, update_512] = rank1_flops(512);
  // The unchanged rank skips its segment factorization and the 2M-wide
  // spike solve — all of its O(N/P M^3) work: what is left (the scans and
  // the interface system K) does not depend on N at all.
  EXPECT_GT(update_128, 0.0);
  EXPECT_EQ(update_128, update_512);
  EXPECT_LT(update_128, 0.5 * factor_128);
  EXPECT_GT(factor_512, factor_128);
}

TEST(Update, RepeatedUpdatesStayAccurate) {
  const index_t n = 24, m = 2;
  BlockTridiag sys = make_problem(ProblemKind::kPoisson2D, n, m);
  const btds::RowPartition part(n, 3);
  Matrix x(n * m, 1);

  mpsim::run(3, [&](mpsim::Comm& comm) {
    auto f = ArdFactorization::factor(comm, sys, part);
    for (int round = 0; round < 4; ++round) {
      mpsim::barrier(comm);
      if (comm.rank() == 0) {
        // A creeping diagonal shift on every row (all ranks changed).
        for (index_t i = 0; i < n; ++i) {
          for (index_t d = 0; d < m; ++d) sys.diag(i)(d, d) += 0.25;
        }
      }
      mpsim::barrier(comm);
      f.update(comm, sys, /*rows_changed=*/true);
      const Matrix b = make_rhs(n, m, 1, static_cast<std::uint64_t>(round));
      f.solve(comm, b, x);
      mpsim::barrier(comm);
      if (comm.rank() == 0) {
        EXPECT_LT(btds::relative_residual(sys, x, b), 1e-12) << "round " << round;
      }
      mpsim::barrier(comm);
    }
  });
}

}  // namespace
}  // namespace ardbt::core
