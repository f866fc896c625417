#pragma once

#include "bench.hpp"
#include "src/btds/block_tridiag.hpp"

/// \file probes.hpp
/// Per-layer probes of the traced run. Each probe calls one library layer
/// directly at the workload's shape, inside a benchmark-side span, and the
/// figure it returns is read back from those spans.

namespace perfbench {

struct LayerProbes {
  double launch_s = 0.0;        ///< mpsim::run(P, no-op)
  double msg_s = 0.0;           ///< one M x R-double send/recv, launch removed
  double gemm_gflops = 0.0;     ///< la::gemm on M x M blocks
  double peak_gflops = 0.0;     ///< la::gemm on a large square product
  double lu_factor_s = 0.0;     ///< la::lu_factor_inplace on one M x M block
  double local_factor_s = 0.0;  ///< ThomasFactorization::factor on an N/P-row segment
  double local_solve_s = 0.0;   ///< ... and its solve on the segment's M x R panel
  double thomas_step_s = 0.0;   ///< serial whole-system block Thomas solve of one step
  double f1_wall_gain = 0.0;    ///< wall(kRdPerRhs) / wall(ARD factor + solve)
  double f1_vtime_gain = 0.0;   ///< the same ratio on the virtual clock
};

/// Run every probe at `shape` on `sys`, except the F1 probe, which runs on
/// a fixed wide-panel system of its own. Fails `report` when a probe's own
/// solution misses the residual tolerance.
LayerProbes run_layer_probes(SpanLog& log, const Shape& shape, const btds::BlockTridiag& sys,
                             std::uint64_t seed, Report& report);

/// Sequential message rounds of one ARD solve step: the entry barrier plus
/// the forward and backward scan replays, ceil(log2 P) rounds each.
int solve_rounds(int p);

}  // namespace perfbench
