// Batched-right-hand-side example: steady-state multigroup diffusion.
//
// A 1-D slab is discretized into N cells; within each cell, M energy
// groups are coupled by a scattering matrix, giving one block tridiagonal
// system (diffusion couples neighbouring cells, scattering couples groups
// inside the diagonal blocks). R independent source configurations —
// "channels", e.g. candidate source placements in a design study — share
// the matrix, which is exactly the multi-RHS workload of the paper:
// factor once with ARD, solve all channels in one batched pass.
//
// Validation: flux positivity for positive sources (the matrix is an
// M-matrix), source-superposition linearity, and per-channel residuals.

#include <cmath>
#include <cstdio>

#include "src/btds/block_tridiag.hpp"
#include "src/btds/spmv.hpp"
#include "src/core/solver.hpp"
#include "src/la/blas1.hpp"

namespace {

using namespace ardbt;
using la::index_t;
using la::Matrix;

/// Assemble the multigroup diffusion operator: per cell,
///   -D_g (flux_{i-1} - 2 flux_i + flux_{i+1})/h^2 + Sigma_r flux
///     - sum_{g' != g} S_{g g'} flux_{g'} = q,
/// with group-dependent diffusion coefficients and downscattering.
btds::BlockTridiag assemble(index_t cells, index_t groups, double h) {
  btds::BlockTridiag t(cells, groups);
  for (index_t i = 0; i < cells; ++i) {
    Matrix& d = t.diag(i);
    for (index_t g = 0; g < groups; ++g) {
      const double diff = 1.0 + 0.5 * static_cast<double>(g);  // D_g
      const double removal = 0.3 + 0.1 * static_cast<double>(g);
      d(g, g) = 2.0 * diff / (h * h) + removal;
      // Downscattering from faster groups (strictly lower triangle).
      for (index_t gp = 0; gp < g; ++gp) d(g, gp) = -0.05 / static_cast<double>(g - gp + 1);
    }
    if (i > 0) {
      for (index_t g = 0; g < groups; ++g) {
        t.lower(i)(g, g) = -(1.0 + 0.5 * static_cast<double>(g)) / (h * h);
      }
    }
    if (i + 1 < cells) {
      for (index_t g = 0; g < groups; ++g) {
        t.upper(i)(g, g) = -(1.0 + 0.5 * static_cast<double>(g)) / (h * h);
      }
    }
  }
  return t;
}

}  // namespace

int main() {
  const index_t cells = 512;
  const index_t groups = 8;
  const index_t channels = 64;
  const double h = 1.0 / static_cast<double>(cells);
  const int p_ranks = 4;

  const btds::BlockTridiag sys = assemble(cells, groups, h);

  // Channel c: a localized source in group 0 centred at a channel-specific
  // position (a design sweep over source placement).
  Matrix q(cells * groups, channels);
  for (index_t c = 0; c < channels; ++c) {
    const index_t centre = (c + 1) * cells / (channels + 1);
    for (index_t i = 0; i < cells; ++i) {
      const double dx = static_cast<double>(i) - static_cast<double>(centre);
      q(i * groups + 0, c) = std::exp(-dx * dx / 50.0);
    }
  }

  mpsim::EngineOptions engine;
  engine.timing = mpsim::TimingMode::ChargedFlops;
  engine.cost = mpsim::CostModel::cluster2014();

  // Factor once; the session keeps the factored state so the superposition
  // check below reuses it instead of refactoring.
  core::Session session(core::Method::kArd, sys, p_ranks, {.engine = engine});
  session.factor();
  const Matrix x = session.solve(q);
  std::printf("multigroup diffusion: %lld cells x %lld groups, %lld channels, P=%d\n",
              static_cast<long long>(cells), static_cast<long long>(groups),
              static_cast<long long>(channels), p_ranks);
  std::printf("factor %.3g modeled s + batched solve %.3g modeled s; residual %.2e\n",
              session.factor_vtime(), session.last_solve_vtime(),
              btds::relative_residual(sys, x, q));

  // Physics checks: positive flux everywhere, and superposition — solving
  // the sum of channels 0 and 1 equals the sum of their solutions.
  double min_flux = 1e300;
  for (index_t i = 0; i < x.rows(); ++i) {
    for (index_t c = 0; c < channels; ++c) min_flux = std::min(min_flux, x(i, c));
  }
  std::printf("minimum flux over all channels: %.3e (must be >= 0 for an M-matrix)\n", min_flux);

  Matrix q_sum(cells * groups, 1);
  for (index_t i = 0; i < q_sum.rows(); ++i) q_sum(i, 0) = q(i, 0) + q(i, 1);
  const Matrix x_sum = session.solve(q_sum);  // reuses the factorization
  double superposition_err = 0.0;
  for (index_t i = 0; i < x_sum.rows(); ++i) {
    superposition_err =
        std::max(superposition_err, std::abs(x_sum(i, 0) - x(i, 0) - x(i, 1)));
  }
  std::printf("superposition error (channel 0 + 1): %.2e\n", superposition_err);

  // Per-channel summary for a few channels: peak flux and its location.
  for (index_t c : {index_t{0}, channels / 2, channels - 1}) {
    double peak = 0.0;
    index_t at = 0;
    for (index_t i = 0; i < cells; ++i) {
      if (x(i * groups, c) > peak) {
        peak = x(i * groups, c);
        at = i;
      }
    }
    std::printf("channel %3lld: group-0 peak %.4g at cell %lld\n", static_cast<long long>(c),
                peak, static_cast<long long>(at));
  }
  return 0;
}
