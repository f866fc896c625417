#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <numeric>

#include "probes.hpp"
#include "src/btds/generators.hpp"
#include "src/btds/spmv.hpp"
#include "src/service/factor_cache.hpp"
#include "src/service/fingerprint.hpp"
#include "src/service/loadgen.hpp"
#include "src/service/server.hpp"

namespace perfbench {

namespace {

/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 25;
/// SpeedProbe samples between two set-ups: about 200 in a 55 s run.
constexpr int kProbesPerSlice = 8;
/// Solver steps whose residual is checked (the first ones, so the checked
/// set depends only on the seed, never on how many steps fit the run).
constexpr std::uint64_t kCheckedSteps = 256;
/// Traced runs alternate untraced and traced blocks of this many steps.
constexpr std::uint64_t kBlockSteps = 16;
/// peak_rss_mb is read after this many solver steps (or the exact service
/// rounds). The first slice of the timed phase always runs them, so the
/// reading comes before any repeated set-up and depends neither on how many
/// steps fit the run nor on how fast a step is.
constexpr std::uint64_t kRssSteps = 512;
/// rhs_per_s is the median throughput over consecutive windows of this
/// many steps (on service-mix, rounded up to whole cycles of the streams).
constexpr std::size_t kWindowSteps = 16;
/// Service rounds per stream whose counts and latencies are the exact figures.
constexpr std::size_t kExactRounds = 2;

// ---------------------------------------------------------------------------
// Solver steps (timestep-small, and the core probe of service-mix)

/// Engine counters of one solve step, summed over ranks.
struct StepCounts {
  double vtime = 0.0;  ///< modeled seconds of the step (Session::solve_vtimes)
  double msgs = 0.0;
  double bytes = 0.0;
  double flops = 0.0;
  double vwait_frac = 0.0;  ///< virtual wait over virtual time, all ranks
};

StepCounts step_delta(const mpsim::RunReport& before, const mpsim::RunReport& after) {
  StepCounts c;
  double wait = 0.0;
  double time = 0.0;
  for (std::size_t r = 0; r < after.ranks.size(); ++r) {
    const mpsim::RankStats& a = before.ranks[r];
    const mpsim::RankStats& b = after.ranks[r];
    c.msgs += static_cast<double>(b.msgs_sent - a.msgs_sent);
    c.bytes += static_cast<double>(b.bytes_sent - a.bytes_sent);
    c.flops += b.flops_charged - a.flops_charged;
    wait += b.virtual_wait - a.virtual_wait;
    time += b.virtual_time - a.virtual_time;
  }
  c.vwait_frac = time > 0.0 ? wait / time : 0.0;
  return c;
}

/// A factored Session, its system and a pool of pre-generated RHS panels.
struct SolverState {
  std::shared_ptr<const btds::BlockTridiag> sys;
  std::vector<la::Matrix> rhs;
  std::unique_ptr<core::Session> session;
  StepCounts warm;             ///< counters of the arena-filling first solve
  mpsim::RunReport after_warm;  ///< session report right after it
};

/// Input generation + Session construction + factor() + first solve: the
/// work setup_s times.
SolverState set_up_solver(const Shape& s, std::uint64_t seed, int pool) {
  SolverState st;
  st.sys = std::make_shared<const btds::BlockTridiag>(
      btds::make_problem(kProblemKind, s.n, s.m, derive_seed(seed, 1)));
  st.rhs.reserve(static_cast<std::size_t>(pool));
  for (int i = 0; i < pool; ++i) {
    st.rhs.push_back(btds::make_rhs(s.n, s.m, s.r, derive_seed(seed, 1000 + i)));
  }
  st.session = std::make_unique<core::Session>(core::Method::kArd, st.sys, s.p, session_config());
  st.session->factor();
  const mpsim::RunReport before = st.session->report();
  st.session->solve(st.rhs.front());
  st.after_warm = st.session->report();
  st.warm = step_delta(before, st.after_warm);
  st.warm.vtime = st.session->solve_vtimes().back();
  return st;
}

/// Run one set-up and record its wall time. The workloads call this
/// kSetupReps times, spread over the run (see measure_with_setups), so
/// the set-ups sample the host in several states.
template <class SetUp>
auto timed_setup(std::vector<double>& setup_s, SetUp&& set_up) {
  const Clock::time_point t0 = Clock::now();
  auto state = set_up();
  setup_s.push_back(seconds_since(t0));
  return state;
}

/// The timed phase: `seconds` of `measure(part_s)` calls, each followed by
/// one `speed` sample, in kSetupReps - 1 slices of kProbesPerSlice calls.
/// Each slice ends with one more set-up (kSetupReps set-ups in all, with the
/// first one) whose state is handed to `check`. Each call gets an equal
/// share of the time left, so a first call that must run longer shortens
/// the others.
template <class Measure, class SetUp, class Check>
void measure_with_setups(double seconds, std::vector<double>& setup_s, SpeedProbe& speed,
                         Measure&& measure, SetUp&& set_up, Check&& check) {
  const Clock::time_point end = deadline_after(seconds);
  int calls_left = (kSetupReps - 1) * kProbesPerSlice;
  for (int slice = 1; slice < kSetupReps; ++slice) {
    for (int part = 0; part < kProbesPerSlice; ++part, --calls_left) {
      const double left = std::chrono::duration<double>(end - Clock::now()).count();
      measure(std::max(0.0, left) / calls_left);
      speed.sample();
    }
    check(timed_setup(setup_s, set_up));
  }
}

/// Fails the run when `again`, the exact figures of a repeated computation
/// from the same seed, differ from `first`.
void check_repeat(const std::vector<Metric>& first, const std::vector<Metric>& again,
                  Report& report) {
  for (const Metric& a : again) {
    const auto f = std::find_if(first.begin(), first.end(),
                                [&](const Metric& m) { return m.name == a.name; });
    if (f == first.end() || f->value != a.value) {
      report.fail("exact figure " + a.name + " is " + std::to_string(a.value) +
                  " on a repeat from the same seed, " +
                  (f == first.end() ? std::string("missing") : std::to_string(f->value)) +
                  " the first time");
    }
  }
}

struct StepSamples {
  std::vector<double> plain;   ///< untraced step wall times, in step order
  std::vector<double> traced;  ///< step wall times with a span around the solve
  double residual_max = 0.0;
  double rss_mb = 0.0;  ///< peak RSS after kRssSteps steps
  std::uint64_t steps = 0;  ///< steps run so far (all calls of run_steps)
};

/// Solve on the pool's panels in turn for `seconds`, and at least until
/// kRssSteps steps ran, continuing the step sequence of earlier calls. A
/// non-null `log` alternates untraced and traced blocks of steps.
void run_steps(SolverState& st, double seconds, SpanLog* log, StepSamples& out,
               Report& report) {
  const Clock::time_point end = deadline_after(seconds);
  const std::size_t pool = st.rhs.size();
  std::uint64_t step = out.steps;
  while (Clock::now() < end || step < kRssSteps) {
    const bool traced = log != nullptr && (step / kBlockSteps) % 2 == 1;
    std::vector<double>& samples = traced ? out.traced : out.plain;
    for (std::uint64_t k = 0; k < kBlockSteps; ++k, ++step) {
      const la::Matrix& b = st.rhs[step % pool];
      la::Matrix x;
      const Clock::time_point t0 = Clock::now();
      {
        ScopedSpan span(traced ? log : nullptr, "core.Session.solve",
                        static_cast<std::int64_t>(step));
        x = st.session->solve(b);
      }
      samples.push_back(seconds_since(t0));
      ++report.attempted;
      if (step < kCheckedSteps) {
        const double res = btds::relative_residual(*st.sys, x, b);
        out.residual_max = std::max(out.residual_max, res);
        if (!(res <= kResidualTolerance)) {
          ++report.failed;
          report.fail("step " + std::to_string(step) + " residual " + std::to_string(res) +
                      " above tolerance");
        }
      }
      if (step + 1 == kRssSteps) out.rss_mb = peak_rss_mb();
    }
  }
  out.steps = step;
}

/// Every timed step must repeat the warm-up step's modeled cost: the same
/// virtual time (up to the rounding of a growing clock origin) and the
/// same message and byte counts.
void check_step_determinism(const SolverState& st, std::uint64_t steps, Report& report) {
  const std::vector<double>& vt = st.session->solve_vtimes();
  for (std::size_t i = 1; i < vt.size(); ++i) {
    if (std::abs(vt[i] - st.warm.vtime) > 1e-9 * st.warm.vtime) {
      report.fail("solve step " + std::to_string(i) + " virtual time " + std::to_string(vt[i]) +
                  " differs from the first step's " + std::to_string(st.warm.vtime));
      break;
    }
  }
  const StepCounts total = step_delta(st.after_warm, st.session->report());
  const double n = static_cast<double>(steps);
  if (total.msgs != n * st.warm.msgs || total.bytes != n * st.warm.bytes) {
    report.fail("message or byte count of the timed steps is not steps x the first step's");
  }
}

// ---------------------------------------------------------------------------
// Service rounds (service-mix, and the service probe of the solver workloads)

struct ServiceConfig {
  Shape shape;  ///< system shape; shape.r is the batch-size cap
  int requests = 0;       ///< requests per round
  int warm_requests = 0;  ///< requests of the cache-filling warm-up round
  int clients = 0;
  int pool = 0;
  int hot = 0;
  double window_s = 0.0;
  /// FactorCache budget in factorizations of this shape; 0 = unlimited.
  int cached_entries = 0;
  /// Independent request streams, each with its own system pool and cache,
  /// served round-robin. The stream drives the hit rate, so averaging over
  /// several keeps one seed's luck from setting the run's work.
  int streams = 1;
};

// P=2, not 4: with four rank threads on the benchmark's one CPU, the order
// in which the scheduler runs them changed from run to run and spread the
// step figures twice as much (see WORKLOADS.md).
constexpr ServiceConfig kServiceMix{.shape = {96, 8, 32, 2},
                                    .requests = 512,
                                    .warm_requests = 128,
                                    .clients = 64,
                                    .pool = 8,
                                    .hot = 2,
                                    .window_s = 2e-3,
                                    .cached_entries = 6,
                                    .streams = 16};

/// Service probe run on the solver workloads' shapes (traced run only).
ServiceConfig service_probe_config(const Shape& s) {
  return ServiceConfig{.shape = {s.n, s.m, 32, s.p},
                       .requests = 256,
                       .warm_requests = 64,
                       .clients = 8,
                       .pool = 2,
                       .hot = 1,
                       .window_s = 2e-3,
                       .cached_entries = 0,
                       .streams = 1};
}

/// One request stream: its warm cache and the load that replays it.
struct ServiceStream {
  std::unique_ptr<service::FactorCache> cache;
  service::ServerOptions server;
  service::LoadOptions load;
};

struct RoundSample {
  double wall_s = 0.0;
  std::uint64_t batches = 0;
  std::uint64_t done = 0;
  double busy_s = 0.0;  ///< executor busy virtual seconds
};

struct ServiceTotals {
  std::vector<RoundSample> plain;
  std::vector<RoundSample> traced;
  // Exact figures over the first kExactRounds rounds of every stream.
  service::FactorCache::Stats cache;
  std::uint64_t batches = 0;
  std::uint64_t batch_cols = 0;
  std::vector<double> vlat;  ///< finish - arrival of every kDone completion
  double residual_max = 0.0;
  double rss_mb = 0.0;  ///< peak RSS after those rounds
  std::size_t rounds = 0;  ///< rounds run so far (all calls of run_rounds)
};

/// Every admitted request ends in exactly one terminal state, and the
/// load summary agrees with the server's completion list.
void check_ledger(const service::Server& server, const service::LoadResult& res,
                  Report& report) {
  const std::vector<service::Completion>& done = server.completions();
  std::vector<char> seen(res.issued + res.rejected, 0);
  std::uint64_t n_done = 0;
  std::uint64_t n_failed = 0;
  std::uint64_t n_deadline = 0;
  bool ids_ok = true;
  for (const service::Completion& c : done) {
    if (c.id >= seen.size() || seen[c.id]++ != 0) ids_ok = false;
    switch (c.outcome) {
      case service::Outcome::kDone: ++n_done; break;
      case service::Outcome::kFailed: ++n_failed; break;
      case service::Outcome::kDeadlineExceeded: ++n_deadline; break;
    }
  }
  const bool ok = ids_ok && res.completed == res.issued && done.size() == res.completed &&
                  res.done + res.failed + res.deadline_exceeded == res.completed &&
                  n_done == res.done && n_failed == res.failed && n_deadline == res.deadline_exceeded;
  if (!ok) {
    report.fail("service ledger broken: issued " + std::to_string(res.issued) + ", completed " +
                std::to_string(res.completed) + ", done+failed+deadline " +
                std::to_string(res.done + res.failed + res.deadline_exceeded) + ", completions " +
                std::to_string(done.size()));
  }
}

/// Pool build for the service: per stream, a cache whose byte budget is
/// sized from one factorization of the shape, and a warm-up round that
/// fills it.
std::vector<ServiceStream> set_up_service(const ServiceConfig& cfg, std::uint64_t seed,
                                          Report& report) {
  const Shape& s = cfg.shape;
  std::size_t budget = 0;
  if (cfg.cached_entries > 0) {
    const auto sys = std::make_shared<const btds::BlockTridiag>(
        btds::make_problem(kProblemKind, s.n, s.m, derive_seed(seed, 3)));
    core::Session probe(core::Method::kArd, sys, s.p, session_config());
    probe.factor();
    budget = static_cast<std::size_t>(cfg.cached_entries) * probe.storage_bytes();
  }
  std::vector<ServiceStream> streams(static_cast<std::size_t>(cfg.streams));
  for (std::size_t k = 0; k < streams.size(); ++k) {
    ServiceStream& st = streams[k];
    st.cache = std::make_unique<service::FactorCache>(
        service::FactorCache::Options{.method = core::Method::kArd,
                                      .nranks = s.p,
                                      .byte_budget = budget,
                                      .session = session_config()});
    st.server.window_s = cfg.window_s;
    st.server.max_batch_cols = s.r;
    st.load.arrival = service::Arrival::kClosed;
    st.load.requests = cfg.requests;
    st.load.clients = cfg.clients;
    st.load.pool = cfg.pool;
    st.load.hot = cfg.hot;
    st.load.num_blocks = s.n;
    st.load.block_size = s.m;
    st.load.kind = kProblemKind;
    st.load.seed = derive_seed(seed, 200 + k);

    service::LoadOptions warm = st.load;
    warm.requests = cfg.warm_requests;
    service::Server server(*st.cache, st.server);
    const service::LoadResult res = service::run_load(server, warm);
    check_ledger(server, res, report);
  }
  return streams;
}

/// Closed-loop rounds of run_load, one stream after another, each on a
/// fresh Server over the stream's warm cache, for `seconds` (and until at
/// least kExactRounds rounds of every stream ran, at most `max_rounds` in
/// all), continuing the round sequence of earlier calls. A non-null `log`
/// traces every second cycle through the streams.
void run_rounds(std::vector<ServiceStream>& streams, double seconds, std::size_t max_rounds,
                SpanLog* log, ServiceTotals& out, Report& report) {
  const Clock::time_point end = deadline_after(seconds);
  const std::size_t exact_rounds = kExactRounds * streams.size();
  for (std::size_t& round = out.rounds;
       round < max_rounds && (round < exact_rounds || Clock::now() < end); ++round) {
    ServiceStream& st = streams[round % streams.size()];
    const bool traced = log != nullptr && (round / streams.size()) % 2 == 1;
    const service::FactorCache::Stats c0 = st.cache->stats();
    service::Server server(*st.cache, st.server);
    service::LoadResult res;
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(traced ? log : nullptr, "service.run_load",
                      static_cast<std::int64_t>(round));
      res = service::run_load(server, st.load);
    }
    const double wall = seconds_since(t0);

    check_ledger(server, res, report);
    report.attempted += res.issued + res.rejected;
    report.failed += res.rejected + (res.completed - res.done) + res.gave_up;
    (traced ? out.traced : out.plain)
        .push_back({wall, res.batches, res.done, server.stats().busy_s});
    if (round < exact_rounds) {
      const service::FactorCache::Stats& c1 = st.cache->stats();
      out.cache.lookups += c1.lookups - c0.lookups;
      out.cache.hits += c1.hits - c0.hits;
      out.cache.misses += c1.misses - c0.misses;
      out.cache.evictions += c1.evictions - c0.evictions;
      out.batches += server.stats().batches;
      out.batch_cols += server.stats().batch_cols;
      for (const service::Completion& c : server.completions()) {
        if (c.outcome == service::Outcome::kDone) out.vlat.push_back(c.latency_s());
      }
      if (round + 1 == exact_rounds) out.rss_mb = peak_rss_mb();
    }
  }
}

/// Solve a probe panel on every pool system through its stream's cache (the
/// factorizations the rounds left resident, refactored when evicted) and
/// check the residuals. The pool seeds follow service::run_load's pool
/// generation; were that to change, acquire() simply factors afresh.
void check_service_solutions(std::vector<ServiceStream>& streams, const ServiceConfig& cfg,
                             std::uint64_t seed, ServiceTotals& out, Report& report) {
  const Shape& s = cfg.shape;
  for (ServiceStream& st : streams) {
    for (int i = 0; i < cfg.pool; ++i) {
      const auto sys = std::make_shared<const btds::BlockTridiag>(btds::make_problem(
          kProblemKind, s.n, s.m, st.load.seed + 7919ull * static_cast<std::uint64_t>(i + 1)));
      const service::FactorCache::Lease lease =
          st.cache->acquire(service::fingerprint(*sys), [sys] { return sys; });
      const la::Matrix b = btds::make_rhs(s.n, s.m, 4, derive_seed(seed, 500 + i));
      const la::Matrix x = lease.session->solve(b);
      const double res = btds::relative_residual(*sys, x, b);
      out.residual_max = std::max(out.residual_max, res);
      if (!(res <= kResidualTolerance)) {
        report.fail("service system " + std::to_string(i) + " residual " + std::to_string(res) +
                    " above tolerance");
      }
    }
  }
}

void add_service_exact(const ServiceTotals& t, Report& report) {
  report.add_exact("service.lookups", static_cast<double>(t.cache.lookups));
  report.add_exact("service.hits", static_cast<double>(t.cache.hits));
  report.add_exact("service.misses", static_cast<double>(t.cache.misses));
  report.add_exact("service.evictions", static_cast<double>(t.cache.evictions));
  report.add_exact("service.batches", static_cast<double>(t.batches));
  report.add_exact("service.batch_cols", static_cast<double>(t.batch_cols));
  report.add_exact("service.vlat_p50_s", nearest_rank(t.vlat, 0.50));
  report.add_exact("service.vlat_p99_s", nearest_rank(t.vlat, 0.99));
}

/// Repeat the set-up and the exact rounds on fresh streams, outside the
/// timed phase, and fail the run if any exact service figure differs.
void check_service_repeat(const ServiceConfig& cfg, std::uint64_t seed, Report& report) {
  std::vector<ServiceStream> streams = set_up_service(cfg, seed, report);
  ServiceTotals totals;
  run_rounds(streams, 0.0, kExactRounds * streams.size(), nullptr, totals, report);
  Report again;
  add_service_exact(totals, again);
  check_repeat(report.exact, again.exact, report);
}

// ---------------------------------------------------------------------------
// Metrics

std::vector<double> round_walls(const std::vector<RoundSample>& rounds) {
  std::vector<double> v;
  for (const RoundSample& r : rounds) v.push_back(r.wall_s);
  return v;
}

/// Whole-run step statistics: every untraced step counts.
struct StepStats {
  double p50 = 0.0;
  double p90 = 0.0;
  double units_per_s = 0.0;  ///< median over windows of kWindowSteps steps
};

/// `units_per_step`: RHS columns (solver) or served requests (service) per
/// step. `granule`: window lengths are a multiple of it (the service's
/// stream count, so every window holds whole stream cycles).
StepStats step_stats(const std::vector<double>& steps, std::size_t granule,
                     double units_per_step) {
  const std::size_t n =
      std::min(steps.size(), (kWindowSteps + granule - 1) / granule * granule);
  std::vector<double> rates;
  for (std::size_t start = 0; start + n <= steps.size(); start += n) {
    const auto first = steps.begin() + static_cast<std::ptrdiff_t>(start);
    rates.push_back(units_per_step * static_cast<double>(n) /
                    std::accumulate(first, first + static_cast<std::ptrdiff_t>(n), 0.0));
  }
  return {quantile(steps, 0.50), quantile(steps, 0.90), median(rates)};
}

/// The wall-clock figures are scaled to the reference host speed (see
/// SpeedProbe); the unscaled ones go to standard error.
void add_end_to_end(Report& report, const std::vector<double>& setup_s,
                    const std::vector<double>& steps, std::size_t granule, double units_per_step,
                    const SpeedProbe& speed, double residual_max, double rss_mb) {
  const StepStats q = step_stats(steps, granule, units_per_step);
  const double f = speed.factor();
  std::fprintf(stderr,
               "perfbench: speed probe median %.4g s, factor %.4f; unscaled setup_s %.6g, "
               "step_p50_s %.6g, step_p90_s %.6g, rhs_per_s %.6g\n",
               speed.median_s(), f, median(setup_s), q.p50, q.p90, q.units_per_s);
  report.add("setup_s", median(setup_s) * f, "s");
  report.add("step_p50_s", q.p50 * f, "s");
  report.add("step_p90_s", q.p90 * f, "s");
  report.add("rhs_per_s", q.units_per_s / f, "1/s");
  report.add("residual_max", residual_max, "ratio");
  report.add("peak_rss_mb", rss_mb, "MiB");
}

/// Solver-side layer figures: the workload's own steps, or the core probe.
struct CoreFigures {
  double step_p50_s = 0.0;
  StepCounts counts;
  std::size_t storage_bytes = 0;
};

void add_per_layer(Report& report, const Shape& s, const LayerProbes& lp, const CoreFigures& core,
                   const ServiceTotals& svc, const std::vector<RoundSample>& svc_traced_spans,
                   double trace_overhead, std::size_t samples) {
  report.add("mpsim.launch_s", lp.launch_s, "s");
  report.add("mpsim.msg_s", lp.msg_s, "s");
  report.add("mpsim.msgs_per_step", core.counts.msgs, "count");
  report.add("mpsim.bytes_per_step", core.counts.bytes, "bytes");
  report.add("mpsim.vwait_frac", core.counts.vwait_frac, "ratio");

  report.add("la.gemm_gflops", lp.gemm_gflops, "GFlop/s");
  report.add("la.peak_gflops", lp.peak_gflops, "GFlop/s");
  report.add("la.gemm_frac_peak", lp.gemm_gflops / lp.peak_gflops, "ratio");
  report.add("la.lu_factor_s", lp.lu_factor_s, "s");
  report.add("la.flops_per_step", core.counts.flops, "flop");

  report.add("btds.local_factor_s", lp.local_factor_s, "s");
  report.add("btds.local_solve_s", lp.local_solve_s, "s");
  report.add("btds.thomas_step_s", lp.thomas_step_s, "s");

  // The ranks share the benchmark's one CPU, so all P ranks' two local
  // solves (reduction and back substitution) lie on the step's path.
  const double explained =
      2.0 * s.p * lp.local_solve_s + lp.launch_s + solve_rounds(s.p) * lp.msg_s;
  report.add("core.step_vtime_s", core.counts.vtime, "s_virtual");
  report.add("core.wall_over_vtime", core.step_p50_s / core.counts.vtime, "ratio");
  report.add("core.storage_bytes", static_cast<double>(core.storage_bytes), "bytes");
  report.add("core.speedup_vs_thomas", lp.thomas_step_s / core.step_p50_s, "ratio");
  report.add("core.unattributed_s", core.step_p50_s - explained, "s");
  report.add("core.f1_wall_gain", lp.f1_wall_gain, "ratio");
  report.add("core.f1_vtime_gain", lp.f1_vtime_gain, "ratio");

  double wall = 0.0;
  double busy = 0.0;
  std::vector<double> batch_s;
  for (const RoundSample& r : svc_traced_spans) {
    wall += r.wall_s;
    busy += r.busy_s;
    batch_s.push_back(r.wall_s / static_cast<double>(r.batches));
  }
  report.add("service.hit_rate", svc.cache.hit_rate(), "ratio");
  report.add("service.misses", static_cast<double>(svc.cache.misses), "count");
  report.add("service.evictions", static_cast<double>(svc.cache.evictions), "count");
  report.add("service.batches", static_cast<double>(svc.batches), "count");
  report.add("service.mean_batch_cols",
             static_cast<double>(svc.batch_cols) / static_cast<double>(svc.batches), "count");
  report.add("service.wall_per_batch_s", median(batch_s), "s");
  report.add("service.wall_over_vtime", wall / busy, "ratio");
  report.add("service.vlat_p50_s", nearest_rank(svc.vlat, 0.50), "s_virtual");
  report.add("service.vlat_p99_s", nearest_rank(svc.vlat, 0.99), "s_virtual");

  report.add("obs.trace_overhead_frac", trace_overhead, "ratio");
  report.add("obs.step_samples", static_cast<double>(samples), "count");
}

void add_solver_exact(const SolverState& st, Report& report) {
  report.add_exact("step_vtime_s", st.warm.vtime);
  report.add_exact("msgs_per_step", st.warm.msgs);
  report.add_exact("bytes_per_step", st.warm.bytes);
  report.add_exact("flops_per_step", st.warm.flops);
  report.add_exact("storage_bytes", static_cast<double>(st.session->storage_bytes()));
}

/// Service layer figures on a solver workload's shape (traced run only).
ServiceTotals service_probe(const Shape& s, std::uint64_t seed, SpanLog& log, Report& report) {
  const ScopedSpan span(&log, "probe.service");
  const ServiceConfig cfg = service_probe_config(s);
  Report probe_report;  // the probe's requests are not the workload's operations
  std::vector<ServiceStream> streams = set_up_service(cfg, derive_seed(seed, 9), probe_report);
  ServiceTotals totals;
  run_rounds(streams, 0.0, 2 * kExactRounds, &log, totals, probe_report);
  for (const std::string& e : probe_report.errors) report.fail("service probe: " + e);
  if (probe_report.failed > 0) report.fail("service probe: requests failed");
  return totals;
}

// ---------------------------------------------------------------------------
// Workloads

struct SolverWorkload {
  const char* name;
  Shape shape;
  int rhs_pool;  ///< distinct pre-generated RHS panels, reused in turn
};

constexpr SolverWorkload kTimestepSmall{"timestep-small", {96, 8, 1, 2}, 1024};
constexpr const char* kServiceMixName = "service-mix";

void run_solver_workload(const SolverWorkload& w, const RunOptions& opts, Report& report) {
  const Shape& s = w.shape;
  const auto set_up = [&] { return set_up_solver(s, opts.seed, w.rhs_pool); };
  std::vector<double> setup_s;
  SolverState st = timed_setup(setup_s, set_up);
  add_solver_exact(st, report);
  StepSamples samples;

  if (!opts.trace) {
    SpeedProbe speed;
    measure_with_setups(
        opts.seconds, setup_s, speed,
        [&](double part_s) { run_steps(st, part_s, nullptr, samples, report); }, set_up,
        [&](const SolverState& again) {
          Report r;
          add_solver_exact(again, r);
          check_repeat(report.exact, r.exact, report);
        });
    check_step_determinism(st, samples.steps, report);
    add_end_to_end(report, setup_s, samples.plain, 1, static_cast<double>(s.r), speed,
                   samples.residual_max, samples.rss_mb);
    return;
  }

  SpanLog log;
  const LayerProbes lp = run_layer_probes(log, s, *st.sys, opts.seed, report);
  const ServiceTotals svc = service_probe(s, opts.seed, log, report);
  run_steps(st, opts.seconds, &log, samples, report);
  check_step_determinism(st, samples.steps, report);
  const CoreFigures core{median(samples.plain), st.warm, st.session->storage_bytes()};
  add_per_layer(report, s, lp, core, svc, svc.traced,
                median(samples.traced) / median(samples.plain) - 1.0, samples.plain.size());
  if (!opts.trace_out.empty() && !log.write_json(opts.trace_out)) {
    report.fail("cannot write spans to " + opts.trace_out);
  }
}

void run_service_workload(const RunOptions& opts, Report& report) {
  const ServiceConfig& cfg = kServiceMix;
  const auto set_up = [&] { return set_up_service(cfg, opts.seed, report); };
  const std::size_t streams_n = static_cast<std::size_t>(cfg.streams);
  std::vector<double> setup_s;
  std::vector<ServiceStream> streams = timed_setup(setup_s, set_up);
  ServiceTotals totals;

  if (!opts.trace) {
    SpeedProbe speed;
    measure_with_setups(
        opts.seconds, setup_s, speed,
        [&](double part_s) {
          run_rounds(streams, part_s, std::size_t{1} << 20, nullptr, totals, report);
        },
        set_up, [](const std::vector<ServiceStream>&) {});
    check_service_solutions(streams, cfg, opts.seed, totals, report);
    add_service_exact(totals, report);
    check_service_repeat(cfg, opts.seed, report);
    std::uint64_t done = 0;
    for (const RoundSample& r : totals.plain) done += r.done;
    add_end_to_end(report, setup_s, round_walls(totals.plain), streams_n,
                   static_cast<double>(done) / static_cast<double>(totals.plain.size()), speed,
                   totals.residual_max, totals.rss_mb);
    return;
  }

  // The probes use their own Session, never the service's caches.
  SpanLog log;
  SolverState probe = set_up_solver(cfg.shape, derive_seed(opts.seed, 4), 16);
  const LayerProbes lp = run_layer_probes(log, cfg.shape, *probe.sys, opts.seed, report);
  StepSamples steps;
  run_steps(probe, 0.5, nullptr, steps, report);
  check_step_determinism(probe, steps.steps, report);
  const CoreFigures core{median(steps.plain), probe.warm, probe.session->storage_bytes()};

  run_rounds(streams, opts.seconds, std::size_t{1} << 20, &log, totals, report);
  check_service_solutions(streams, cfg, opts.seed, totals, report);
  add_service_exact(totals, report);
  check_service_repeat(cfg, opts.seed, report);
  add_per_layer(report, cfg.shape, lp, core, totals, totals.traced,
                median(round_walls(totals.traced)) / median(round_walls(totals.plain)) - 1.0,
                totals.plain.size());
  if (!opts.trace_out.empty() && !log.write_json(opts.trace_out)) {
    report.fail("cannot write spans to " + opts.trace_out);
  }
}

}  // namespace

bool is_workload(const std::string& name) {
  return name == kServiceMixName || name == kTimestepSmall.name;
}

const char* workload_names() { return "timestep-small, service-mix"; }

void run_workload(const RunOptions& opts, Report& report) {
  try {
    if (opts.workload == kServiceMixName) {
      run_service_workload(opts, report);
      return;
    }
    if (opts.workload == kTimestepSmall.name) run_solver_workload(kTimestepSmall, opts, report);
  } catch (const std::exception& e) {
    ++report.failed;
    report.fail(std::string("exception: ") + e.what());
  }
}

}  // namespace perfbench
