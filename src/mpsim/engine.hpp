#pragma once

#include <functional>
#include <vector>

#include "src/fault/plan.hpp"
#include "src/fault/status.hpp"
#include "src/mpsim/comm.hpp"
#include "src/mpsim/costmodel.hpp"
#include "src/mpsim/stats.hpp"

/// \file engine.hpp
/// Runs a rank function on P logical ranks, MPI "SPMD" style. Rank 0 runs
/// on the calling thread; ranks 1..P-1 run on parked worker threads taken
/// from a process-wide free list (a new worker is started only when the
/// list is empty) and handed back once the run has joined them, so a
/// cached solve pays no thread launch and no worker ever serves two
/// in-flight runs — concurrent and nested runs cannot deadlock. Every wait
/// blocks on a condition variable; nothing spins. Workers are never shut
/// down: they stay parked, reachable from the free list, until the
/// process exits.
///
/// Everything else is per run: the World (mailboxes, death flags, fault
/// plan, deadlines), error slots, tracer/recorder channels and each
/// rank's par::Pool, so a failed run leaves nothing behind. The engine
/// owns all shared state; ranks only see their Comm endpoint. If any rank
/// throws it is marked dead; peers keep running until they block on a
/// receive from a dead rank (data-flow failure propagation — deterministic
/// under any thread schedule), those wake with AbortedError and die in
/// turn, all ranks are joined, and the lowest-numbered rank's root-cause
/// exception is rethrown to the caller.

namespace ardbt::mpsim {

/// Configuration of one run.
struct EngineOptions {
  CostModel cost{};
  TimingMode timing = TimingMode::MeasuredCpu;
  /// Optional per-rank event tracer (not owned; must outlive the run).
  /// Null — or a tracer with enabled() == false — records nothing and
  /// keeps the hot path at a single pointer test per event.
  obs::Tracer* tracer = nullptr;
  /// Optional always-on flight recorder (not owned; must outlive the
  /// run). Null — or a disabled recorder — installs null channels, so
  /// every tap stays one pointer test and virtual times are untouched.
  obs::live::FlightRecorder* recorder = nullptr;
  /// Intra-rank worker threads: each rank gets a par::Pool of this many
  /// lanes (1 = serial, no pool). Pool workers split RHS-panel kernels;
  /// charged flops and the virtual clock are unaffected, so ChargedFlops
  /// results are bit-identical for any value.
  int threads_per_rank = 1;
  /// Starting value of every rank's virtual clock. Lets a caller chain
  /// several runs (factor, then solves) into one seamless timeline.
  double vtime_origin = 0.0;
  /// Deterministic fault schedule (not owned; must outlive the run). Null
  /// or empty keeps the fault-free hot path: no wire framing, no
  /// checksums, identical byte streams and virtual times.
  fault::FaultPlan* fault_plan = nullptr;
  /// A receive whose virtual wait exceeds this is counted as a deadline
  /// miss (detection of delayed/straggling peers). 0 = off.
  double virtual_deadline = 0.0;
  /// Wall-clock seconds a blocked receive may wait before DeadlineError
  /// (hang detector for crashed peers). 0 = wait forever.
  double recv_timeout_wall = 0.0;
  /// What solve drivers layered on this engine do on breakdown or a
  /// recoverable fault; the engine itself only transports the setting.
  fault::BreakdownPolicy on_breakdown = fault::BreakdownPolicy::kFailFast;
  /// How often a driver may re-run after a transient fault (is_transient).
  int max_fault_retries = 2;
};

/// Result of one run.
struct RunReport {
  std::vector<RankStats> ranks;
  /// Wall-clock seconds of the whole run (host time, oversubscription-y).
  double wall_seconds = 0.0;

  /// Modeled parallel runtime: the maximum rank virtual clock.
  double max_virtual_time() const;
  /// Aggregate counters over all ranks (sums; virtual fields are maxima).
  RankStats totals() const;
};

/// The SPMD rank body. Must be thread-safe with respect to its peers; all
/// inter-rank interaction goes through Comm.
using RankFn = std::function<void(Comm&)>;

/// Run `fn` on `nranks` logical ranks and collect per-rank statistics.
/// Rank 0 runs on the calling thread. Blocks until all ranks finish.
/// Rethrows the first rank exception.
RunReport run(int nranks, const RankFn& fn, const EngineOptions& options = {});

}  // namespace ardbt::mpsim
