// Ablation B-abl-live: wall-clock cost of the live-telemetry chain on a
// chained factor-once / solve-many session, in three configurations:
//   absent    — no telemetry installed (the seed baseline);
//   disabled  — flight recorder attached but switched off: the engine's
//               comm taps pay exactly one pointer test per operation and
//               the driver hooks drop their records (the zero-cost
//               contract a service binary relies on to leave telemetry
//               compiled in);
//   enabled   — the full chain: recorder, structured log, snapshotter on
//               a virtual-clock cadence, watchdogs (in-memory sink).
//
// The recorder never touches the virtual clock, so solutions AND modeled
// solve vtimes must be bit-identical across all three configurations —
// the run aborts if they ever differ. The headline number is the
// disabled-vs-absent per-solve overhead: it must sit below the perf
// gate's measurement noise floor (perf_gate.py --min-seconds, 1e-5 s),
// which is what lets the recorder ship always-on.
//
// Timings are host wall-clock, best of `reps` (mpsim virtual time charges
// identical flops in every configuration, so it cannot see the overhead).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/btds/generators.hpp"
#include "src/core/solver.hpp"
#include "src/obs/live/telemetry.hpp"

namespace {

using namespace ardbt;

bool bitwise_equal(const la::Matrix& a, const la::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (la::index_t i = 0; i < a.rows(); ++i) {
    for (la::index_t j = 0; j < a.cols(); ++j) {
      if (a(i, j) != b(i, j)) return false;
    }
  }
  return true;
}

struct ConfigResult {
  double t_solves = 1e300;  ///< best-of-reps wall seconds for the S solves
  la::Matrix x;             ///< final solution
  std::vector<double> solve_vtimes;
};

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args(argc, argv);
  bench::JsonReport report(args, "bench_abl_live");

  const la::index_t n = args.smoke() ? 32 : 128;
  const la::index_t m = args.smoke() ? 4 : 8;
  const la::index_t r = args.smoke() ? 4 : 8;
  const int p = 4;
  const int solves = args.smoke() ? 16 : 64;
  const int reps = args.smoke() ? 3 : 5;
  report.config("n", n).config("m", m).config("r", r).config("p", p)
      .config("solves", solves).config("reps", reps)
      .config("mode", args.smoke() ? "smoke" : "full");

  const auto engine = bench::virtual_engine();
  const auto sys = btds::make_problem(btds::ProblemKind::kDiagDominant, n, m);
  const la::Matrix b = btds::make_rhs(n, m, r, /*seed=*/3);

  std::printf("# B-abl-live: chained session (%d solves), telemetry absent vs disabled vs on\n",
              solves);
  std::printf("# wall-clock, best of %d; bit-identical solutions and vtimes required\n", reps);

  const char* kConfigs[3] = {"absent", "disabled", "enabled"};
  ConfigResult results[3];
  for (int cfg = 0; cfg < 3; ++cfg) {
    // Owners must outlive the sessions of every rep.
    obs::live::FlightRecorder disabled_recorder;
    disabled_recorder.set_enabled(false);
    obs::MetricsRegistry registry;
    obs::live::LiveTelemetry::Options live_opts;
    live_opts.snapshot.period_s = 1e-5;  // a few snapshots per rep at this shape
    obs::live::LiveTelemetry full(std::move(live_opts), &registry);

    for (int rep = 0; rep < reps; ++rep) {
      core::Session session(core::Method::kArd, sys, p, {.engine = engine});
      if (cfg == 1) {
        obs::live::Telemetry t;
        t.recorder = &disabled_recorder;
        session.set_telemetry(t);
      } else if (cfg == 2) {
        session.set_telemetry(full.handle());
      }
      session.factor();
      std::vector<double> vtimes;
      vtimes.reserve(static_cast<std::size_t>(solves) + 2);
      session.solve(b);  // warm the arena: steady-state solves from here on
      vtimes.push_back(session.last_solve_vtime());
      const bench::WallTimer timer;
      for (int s = 0; s < solves; ++s) {
        (void)session.solve(b);
        vtimes.push_back(session.last_solve_vtime());
      }
      const double t = timer.seconds();
      if (t < results[cfg].t_solves) results[cfg].t_solves = t;
      if (rep == 0) {
        results[cfg].x = session.solve(b);
        vtimes.push_back(session.last_solve_vtime());
        results[cfg].solve_vtimes = std::move(vtimes);
      }
    }
  }

  bench::Table table({"config", "t_solves[s]", "per_solve[s]", "overhead_vs_absent[s]",
                      "x_identical", "vtimes_identical"});
  bool all_identical = true;
  for (int cfg = 0; cfg < 3; ++cfg) {
    const bool x_ok = bitwise_equal(results[cfg].x, results[0].x);
    const bool v_ok = results[cfg].solve_vtimes == results[0].solve_vtimes;
    all_identical = all_identical && x_ok && v_ok;
    const double per_solve = results[cfg].t_solves / solves;
    const double overhead = (results[cfg].t_solves - results[0].t_solves) / solves;
    table.add_row({kConfigs[cfg], bench::fmt_sci(results[cfg].t_solves),
                   bench::fmt_sci(per_solve), cfg == 0 ? "-" : bench::fmt_sci(overhead),
                   x_ok ? "yes" : "NO", v_ok ? "yes" : "NO"});
  }
  table.print();

  const double disabled_overhead = (results[1].t_solves - results[0].t_solves) / solves;
  const double kNoiseFloor = 1e-5;  // perf_gate.py --min-seconds default
  report.add_table("main", table);
  report.set_section("identical", obs::Json(all_identical));
  report.set_section("disabled_overhead_per_solve_s", obs::Json(disabled_overhead));
  report.set_section("noise_floor_s", obs::Json(kNoiseFloor));
  report.set_section("below_noise_floor", obs::Json(disabled_overhead < kNoiseFloor));
  report.write();

  if (!all_identical) {
    std::fprintf(stderr, "bench_abl_live: FAIL: telemetry changed the solution or vtime bits\n");
    return 1;
  }
  std::printf("\nExpected shapes: disabled overhead per solve %s the %.0e s perf-gate noise\n"
              "floor (measured %.2e s); identical solutions and vtimes in every config\n"
              "(the recorder never reads or charges the virtual clock).\n",
              disabled_overhead < kNoiseFloor ? "below" : "ABOVE", kNoiseFloor,
              disabled_overhead);
  return 0;
}
