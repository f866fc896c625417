#include "probes.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>

#include "src/btds/generators.hpp"
#include "src/btds/spmv.hpp"
#include "src/btds/thomas.hpp"
#include "src/core/solver.hpp"
#include "src/la/gemm.hpp"
#include "src/la/lu.hpp"
#include "src/la/random.hpp"
#include "src/mpsim/engine.hpp"

namespace perfbench {

namespace {

/// Repeat `fn` inside a span named `name` until `budget_s` has passed
/// (between `min_reps` and `max_reps` times); the median span duration.
template <class Fn>
double span_median(SpanLog& log, const char* name, double budget_s, int min_reps, int max_reps,
                   Fn&& fn) {
  std::vector<double> d;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < max_reps && (i < min_reps || seconds_since(t0) < budget_s); ++i) {
    std::int32_t id = -1;
    {
      ScopedSpan span(&log, name, i);
      id = span.id();
      fn();
    }
    d.push_back(log.duration(id));
  }
  return median(d);
}

/// Block rows [0, count) of `sys` as a standalone system: rank 0's segment.
btds::BlockTridiag leading_segment(const btds::BlockTridiag& sys, la::index_t count) {
  btds::BlockTridiag seg(count, sys.block_size());
  for (la::index_t i = 0; i < count; ++i) {
    seg.diag(i) = sys.diag(i);
    if (i > 0) seg.lower(i) = sys.lower(i);
    if (i + 1 < count) seg.upper(i) = sys.upper(i);
  }
  return seg;
}

void probe_mpsim(SpanLog& log, const Shape& shape, LayerProbes& out) {
  const ScopedSpan span(&log, "probe.mpsim");
  const mpsim::EngineOptions opts = engine_options();
  out.launch_s = span_median(log, "mpsim.run.noop", 0.15, 51, 4001,
                             [&] { mpsim::run(shape.p, [](mpsim::Comm&) {}, opts); });
  if (shape.p < 2) return;
  // Rank 0 and rank 1 ping-pong an M x R panel; the other ranks idle.
  constexpr int kTrips = 64;
  constexpr int kTag = 11;
  const std::size_t count = static_cast<std::size_t>(shape.m * shape.r);
  const mpsim::RankFn pingpong = [&](mpsim::Comm& comm) {
    std::vector<double> buf(count, 1.0);
    for (int k = 0; k < kTrips; ++k) {
      if (comm.rank() == 0) {
        comm.send(1, kTag, std::span<const double>(buf));
        comm.recv_into(1, kTag, std::span<double>(buf));
      } else if (comm.rank() == 1) {
        comm.recv_into(0, kTag, std::span<double>(buf));
        comm.send(0, kTag, std::span<const double>(buf));
      }
    }
  };
  const double run_s = span_median(log, "mpsim.run.pingpong", 0.15, 11, 1001,
                                   [&] { mpsim::run(shape.p, pingpong, opts); });
  out.msg_s = (run_s - out.launch_s) / (2.0 * kTrips);
}

void probe_la(SpanLog& log, const Shape& shape, std::uint64_t seed, LayerProbes& out) {
  const ScopedSpan span(&log, "probe.la");
  la::Rng rng(seed);
  const la::index_t m = shape.m;

  // Small gemm at the workload's M: enough calls per span for ~0.2 ms.
  {
    const la::Matrix a = la::random_uniform(m, m, rng);
    const la::Matrix b = la::random_uniform(m, m, rng);
    la::Matrix c(m, m);
    int calls = 0;
    const Clock::time_point t0 = Clock::now();
    while (seconds_since(t0) < 1e-3) {
      la::gemm(1.0, a.view(), b.view(), 0.0, c.view());
      ++calls;
    }
    const int per_span = std::max(1, calls / 5);
    const double span_s = span_median(log, "la.gemm.small", 0.1, 15, 2001, [&] {
      for (int k = 0; k < per_span; ++k) la::gemm(1.0, a.view(), b.view(), 0.0, c.view());
    });
    out.gemm_gflops = la::gemm_flops(m, m, m) * per_span / span_s * 1e-9;
  }

  // Square gemms of growing order: the best median rate is the in-process
  // reference peak.
  for (const la::index_t big : {64, 128, 256}) {
    const la::Matrix a = la::random_uniform(big, big, rng);
    const la::Matrix b = la::random_uniform(big, big, rng);
    la::Matrix c(big, big);
    const double span_s = span_median(log, "la.gemm.square", 0.05, 5, 1001, [&] {
      la::gemm(1.0, a.view(), b.view(), 0.0, c.view());
    });
    out.peak_gflops = std::max(out.peak_gflops, la::gemm_flops(big, big, big) / span_s * 1e-9);
  }

  // In-place LU of many independent M x M blocks per span.
  {
    constexpr int kBlocks = 512;
    const std::size_t mm = static_cast<std::size_t>(m * m);
    std::vector<double> source(kBlocks * mm);
    for (int k = 0; k < kBlocks; ++k) {
      const la::Matrix d = la::random_diag_dominant(m, rng);
      std::memcpy(source.data() + k * mm, d.data().data(), mm * sizeof(double));
    }
    std::vector<double> work(source.size());
    std::vector<la::index_t> piv(static_cast<std::size_t>(m));
    std::vector<double> d;
    for (int rep = 0; rep < 15; ++rep) {
      std::memcpy(work.data(), source.data(), source.size() * sizeof(double));
      std::int32_t id = -1;
      {
        ScopedSpan span(&log, "la.lu_factor_inplace", rep);
        id = span.id();
        for (int k = 0; k < kBlocks; ++k) {
          la::lu_factor_inplace(la::MatrixView(work.data() + k * mm, m, m), piv);
        }
      }
      d.push_back(log.duration(id));
    }
    out.lu_factor_s = median(d) / kBlocks;
  }
}

void probe_btds(SpanLog& log, const Shape& shape, const btds::BlockTridiag& sys,
                std::uint64_t seed, LayerProbes& out, Report& report) {
  const ScopedSpan span(&log, "probe.btds");
  const btds::RowPartition part(shape.n, shape.p);
  const btds::BlockTridiag seg = leading_segment(sys, part.count(0));
  const la::Matrix seg_b = btds::make_rhs(seg.num_blocks(), shape.m, shape.r, seed);
  btds::ThomasFactorization seg_f = btds::ThomasFactorization::factor(seg);
  out.local_factor_s = span_median(log, "btds.ThomasFactorization.factor.segment", 0.15, 11, 2001,
                                   [&] { seg_f = btds::ThomasFactorization::factor(seg); });
  la::Matrix seg_x;
  out.local_solve_s = span_median(log, "btds.ThomasFactorization.solve.segment", 0.15, 11, 4001,
                                  [&] { seg_x = seg_f.solve(seg_b); });

  const la::Matrix b = btds::make_rhs(shape.n, shape.m, shape.r, seed + 1);
  const btds::ThomasFactorization whole = btds::ThomasFactorization::factor(sys);
  la::Matrix x;
  out.thomas_step_s = span_median(log, "btds.ThomasFactorization.solve.whole", 0.15, 11, 4001,
                                  [&] { x = whole.solve(b); });
  const double res = btds::relative_residual(sys, x, b);
  if (!(res <= kResidualTolerance)) {
    report.fail("block Thomas probe residual " + std::to_string(res) + " above tolerance");
  }
}

/// The paper's F1 claim is about wide panels, so it is probed on one fixed
/// wide-panel system whatever the workload.
constexpr Shape kF1Shape{4096, 4, 64, 2};

/// The paper's F1 claim on kF1Shape: classic per-RHS recursive doubling
/// against ARD factor + one solve of the same R-column panel.
void probe_f1(SpanLog& log, std::uint64_t seed, LayerProbes& out, Report& report) {
  const ScopedSpan span(&log, "probe.f1");
  const Shape& shape = kF1Shape;
  const btds::BlockTridiag sys = btds::make_problem(kProblemKind, shape.n, shape.m, seed + 1);
  const la::Matrix b = btds::make_rhs(shape.n, shape.m, shape.r, seed + 2);
  const core::SessionConfig cfg = session_config();
  double ard_vtime = 0.0;
  la::Matrix x;
  const double ard_s = span_median(log, "core.Session.factor_solve.ard", 0.2, 3, 51, [&] {
    core::Session session(core::Method::kArd, sys, shape.p, cfg);
    session.factor();
    x = session.solve(b);
    ard_vtime = session.factor_vtime() + session.solve_vtimes().front();
  });
  double rd_vtime = 0.0;
  la::Matrix x_rd;
  const double rd_s = span_median(log, "core.solve.rd_per_rhs", 0.5, 3, 51, [&] {
    const core::DriverResult d = core::solve(core::Method::kRdPerRhs, sys, b, shape.p, cfg);
    rd_vtime = d.factor_vtime + d.solve_vtime;
    x_rd = d.x;
  });
  for (const la::Matrix* sol : {&x, &x_rd}) {
    const double res = btds::relative_residual(sys, *sol, b);
    if (!(res <= kResidualTolerance)) {
      report.fail("F1 probe residual " + std::to_string(res) + " above tolerance");
    }
  }
  out.f1_wall_gain = rd_s / ard_s;
  out.f1_vtime_gain = rd_vtime / ard_vtime;
  report.add_exact("f1_vtime_gain", out.f1_vtime_gain);
}

}  // namespace

int solve_rounds(int p) {
  int log2p = 0;
  while ((1 << log2p) < p) ++log2p;
  return 3 * log2p;
}

LayerProbes run_layer_probes(SpanLog& log, const Shape& shape, const btds::BlockTridiag& sys,
                             std::uint64_t seed, Report& report) {
  LayerProbes out;
  probe_mpsim(log, shape, out);
  probe_la(log, shape, derive_seed(seed, 101), out);
  probe_btds(log, shape, sys, derive_seed(seed, 102), out, report);
  probe_f1(log, derive_seed(seed, 103), out, report);
  return out;
}

}  // namespace perfbench
