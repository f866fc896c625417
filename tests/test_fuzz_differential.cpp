// Randomized differential testing: many seeded problems, every solver in
// the library cross-checked against block Thomas, and ARD's residual
// against the banded-LU oracle's. Shapes, problem kinds, the ARD pivot
// kind and schedule options are drawn from a seeded generator so failures
// are reproducible by seed.

#include <gtest/gtest.h>

#include <algorithm>
#include <exception>
#include <limits>
#include <random>

#include "src/btds/banded_lu.hpp"
#include "src/btds/cyclic_reduction.hpp"
#include "src/la/blas1.hpp"
#include "src/btds/generators.hpp"
#include "src/btds/spmv.hpp"
#include "src/btds/thomas.hpp"
#include "src/core/solver.hpp"

namespace ardbt {
namespace {

using btds::BlockTridiag;
using btds::make_problem;
using btds::make_rhs;
using btds::ProblemKind;
using la::index_t;
using la::Matrix;

struct FuzzCase {
  ProblemKind kind;
  index_t n, m, r;
  int p;
  // ARD schedule options; every combination must reproduce the default
  // schedule's solution bit for bit.
  bool overlap;
  index_t chunk;
  int threads;
  // Segment pivot factorization (kCholesky only on SPD Poisson draws).
  btds::PivotKind pivot;
};

// Seeds from here on force an uneven partition with P <= N < 2P, where
// single-row and multi-row ranks must still run one schedule.
constexpr std::uint64_t kFirstUnevenSeed = 60;
constexpr std::uint64_t kEndSeed = 80;

FuzzCase draw_case(std::uint64_t seed) {
  std::mt19937_64 rng(seed * 2654435761ULL + 1);
  const ProblemKind kinds[] = {ProblemKind::kDiagDominant, ProblemKind::kPoisson2D,
                               ProblemKind::kConvectionDiffusion, ProblemKind::kToeplitz};
  FuzzCase c;
  c.kind = kinds[rng() % 4];
  c.n = 1 + static_cast<index_t>(rng() % 48);
  c.m = 1 + static_cast<index_t>(rng() % 6);
  c.r = 1 + static_cast<index_t>(rng() % 5);
  c.p = 1 + static_cast<int>(rng() % 6);
  if (c.n < c.p) c.p = static_cast<int>(c.n);
  c.overlap = rng() % 2 == 1;
  const index_t chunks[] = {0, 1, c.r};
  c.chunk = chunks[rng() % 3];
  c.threads = rng() % 2 == 0 ? 1 : 3;
  if (seed >= kFirstUnevenSeed) {
    c.p = 2 + static_cast<int>(rng() % 5);
    c.n = c.p + 1 + static_cast<index_t>(rng() % static_cast<std::uint64_t>(c.p - 1));
  }
  // Drawn after everything above, so every seed keeps its shape and
  // schedule options.
  if (rng() % 5 == 0) c.kind = ProblemKind::kIllConditioned;
  const bool cholesky = rng() % 2 == 1;
  c.pivot = (cholesky && c.kind == ProblemKind::kPoisson2D) ? btds::PivotKind::kCholesky
                                                             : btds::PivotKind::kLu;
  return c;
}

// A rank schedule mismatch fails the run with a DeadlineError (reported
// with the seed) instead of hanging until the ctest timeout.
core::SessionConfig ard_config(btds::PivotKind pivot, bool overlap, index_t chunk,
                               int threads) {
  core::SessionConfig config;
  config.ard.pivot = pivot;
  config.ard.pipeline.overlap = overlap;
  config.ard.pipeline.chunk_cols = chunk;
  config.engine.threads_per_rank = threads;
  config.engine.recv_timeout_wall = 30.0;
  return config;
}

class FuzzDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzDifferential, AllSolversMatchThomas) {
  const FuzzCase c = draw_case(GetParam());
  SCOPED_TRACE(::testing::Message()
               << "seed=" << GetParam() << " kind=" << btds::to_string(c.kind) << " N=" << c.n
               << " M=" << c.m << " R=" << c.r << " P=" << c.p << " overlap=" << c.overlap
               << " chunk=" << c.chunk << " threads=" << c.threads
               << " cholesky=" << (c.pivot == btds::PivotKind::kCholesky));

  const BlockTridiag sys = make_problem(c.kind, c.n, c.m, GetParam());
  const Matrix b = make_rhs(c.n, c.m, c.r, GetParam() + 1);
  const Matrix x_ref = btds::thomas_solve(sys, b);
  const double scale = la::norm_max(x_ref.view()) + 1.0;

  const auto check = [&](const Matrix& x, double tol, const char* name) {
    for (index_t i = 0; i < x.rows(); ++i) {
      for (index_t j = 0; j < x.cols(); ++j) {
        ASSERT_NEAR(x(i, j), x_ref(i, j), tol * scale) << name << " at (" << i << "," << j << ")";
      }
    }
  };
  Matrix x_ard, x_sched;
  try {
    x_ard = core::solve(core::Method::kArd, sys, b, c.p, ard_config(c.pivot, false, 0, 1)).x;
    x_sched = core::solve(core::Method::kArd, sys, b, c.p,
                          ard_config(c.pivot, c.overlap, c.chunk, c.threads))
                  .x;
  } catch (const std::exception& e) {
    FAIL() << "seed=" << GetParam() << ": ARD threw " << e.what();
  }
  check(x_ard, 1e-9, "ard");
  EXPECT_TRUE(x_sched == x_ard) << "ARD schedule options changed the solution";
  // Residual against the exact oracle: banded LU pivots across the whole
  // band.
  const double res_oracle =
      btds::relative_residual(sys, btds::banded_lu_solve(sys, b), b);
  const double res_ard = btds::relative_residual(sys, x_ard, b);
  EXPECT_LE(res_ard, 10.0 * std::max(res_oracle, std::numeric_limits<double>::epsilon()))
      << "ARD residual " << res_ard << " vs banded LU " << res_oracle;
  check(core::solve(core::Method::kPcr, sys, b, c.p).x, 1e-9, "pcr");
  check(btds::cyclic_reduction_solve(sys, b), 1e-9, "cyclic reduction");
  // Transfer RD only where its known N-degradation allows a meaningful
  // comparison.
  if (c.n <= 12 || c.m == 1) {
    check(core::solve(core::Method::kTransferRd, sys, b, c.p).x, 1e-5, "transfer rd");
  }
}

// Guards the generator: every forced seed draws an uneven partition
// (P <= N < 2P, N not a multiple of P) with at least two ranks.
TEST(FuzzDifferentialCases, SeedsCoverUnevenPartitions) {
  int uneven = 0;
  for (std::uint64_t seed = 0; seed < kEndSeed; ++seed) {
    const FuzzCase c = draw_case(seed);
    ASSERT_LE(c.p, c.n) << "seed=" << seed;
    if (c.p >= 2 && c.n < 2 * c.p && c.n % c.p != 0) ++uneven;
  }
  EXPECT_GE(uneven, static_cast<int>(kEndSeed - kFirstUnevenSeed));
}

// Guards the option draws: ill-conditioned systems and Cholesky segment
// factorizations both come up among the seeds.
TEST(FuzzDifferentialCases, SeedsCoverIllConditionedAndCholesky) {
  int ill = 0;
  int cholesky = 0;
  for (std::uint64_t seed = 0; seed < kEndSeed; ++seed) {
    const FuzzCase c = draw_case(seed);
    if (c.kind == ProblemKind::kIllConditioned) ++ill;
    if (c.pivot == btds::PivotKind::kCholesky) {
      ASSERT_EQ(c.kind, ProblemKind::kPoisson2D) << "seed=" << seed;
      ++cholesky;
    }
  }
  EXPECT_GE(ill, 10);
  EXPECT_GE(cholesky, 4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDifferential, ::testing::Range<std::uint64_t>(0, kEndSeed),
                         [](const auto& info) { return "seed" + std::to_string(info.param); });

}  // namespace
}  // namespace ardbt
