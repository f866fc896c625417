#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/btds/banded_lu.hpp"
#include "src/btds/block_tridiag.hpp"
#include "src/btds/partition.hpp"
#include "src/core/ard.hpp"
#include "src/core/pcr.hpp"
#include "src/core/transfer_rd.hpp"
#include "src/fault/status.hpp"
#include "src/la/workspace.hpp"
#include "src/mpsim/engine.hpp"
#include "src/obs/live/telemetry.hpp"
#include "src/obs/metrics.hpp"

/// \file solver.hpp
/// Driver API: an explicit factor/solve `Session` plus one-shot
/// conveniences built on it.
///
/// A Session owns the engine configuration, the row partition, and the
/// per-rank factored state of one system. `factor()` runs the
/// right-hand-side-independent phase once; every `solve(B)` afterwards
/// replays only the O(M^2 R) work — the incremental right-hand-side
/// arrival pattern (time stepping) that motivates the accelerated
/// algorithm. Each call is one engine run — rank 0 on the calling thread,
/// the other ranks on parked workers that mpsim reuses across runs, so a
/// cached solve pays no thread launch. The virtual clock is threaded
/// across runs (EngineOptions::vtime_origin) so a session's trace reads
/// as one seamless timeline: factor, then solve, then solve…
///
/// Intra-rank parallelism: set EngineOptions::threads_per_rank > 1 and
/// every rank's solve kernels fan RHS-column panels out over a par::Pool.
/// Charged flops stay on the rank thread, so modeled virtual times — and
/// the solutions themselves — are bit-identical for any thread count.
///
/// Benchmarks and advanced users drive the rank-level API
/// (ard.hpp / rd.hpp / pcr.hpp) inside their own engine runs.

namespace ardbt::core {

/// Which distributed algorithm to run.
enum class Method {
  kRdBatched,   ///< classic recursive doubling, one batched pass
  kRdPerRhs,    ///< classic recursive doubling, one pass per right-hand side
  kArd,         ///< accelerated: factor once, solve once
  kTransferRd,  ///< transfer-matrix ablation (numerically unstable at large N)
  kPcr,         ///< parallel cyclic reduction (factor/solve split), the
                ///< classic O(M^3 (N/P) log N) competitor
};

/// Short stable name ("rd", "rd-per-rhs", "ard").
std::string_view to_string(Method method);

/// Everything a Session needs besides the system itself, collapsed into
/// one designated-initializer-friendly aggregate:
///
///     core::Session s(method, sys, p,
///                     {.ard = {...}, .engine = {.timing = ...}});
///
/// Replaces the (ArdOptions, EngineOptions, Telemetry) parameter triple
/// previously threaded through Session, core::solve and ard_session; the
/// old signatures survive as thin wrappers (see below) but new code —
/// and everything in-tree — uses this form. A default SessionConfig{} is
/// byte-for-byte the old default behaviour.
struct SessionConfig {
  ArdOptions ard{};               ///< algorithm options (tolerances, ladder)
  mpsim::EngineOptions engine{};  ///< cost model, timing mode, threads, faults
  /// Live telemetry bundle; a default (inert) handle costs one pointer
  /// test per run. Installed via Session::set_telemetry at construction.
  obs::live::Telemetry telemetry{};
};

/// One entry of the session's robustness log: what happened during a
/// factor or solve phase and what the driver did about it. An untroubled
/// phase records {status ok, action "ok", no retries}; a degraded one
/// records the triggering error and the recovery rung taken.
struct SolveOutcome {
  std::string phase;     ///< "factor" or "solve"
  fault::Status status;  ///< error that triggered recovery (ok when none)
  /// "ok" | "failfast" | "refine" | "fallback" — the ladder rung used.
  std::string action = "ok";
  int retries = 0;       ///< engine re-runs spent on transient faults
  int refine_steps = 0;  ///< iterative-refinement corrections applied
  double residual = -1.0;      ///< relative residual, when the driver computed it
  double pivot_growth = 0.0;   ///< monitor reading at this phase (0 = none)
  std::string detail;          ///< free-form context for the run report
};

/// Factor/solve driver for one system. Not thread-safe; one engine run is
/// in flight at a time.
///
/// Lifetime contract (the one place it is documented): a Session never
/// copies the system. The reference-taking constructors *borrow* `sys` —
/// the caller guarantees it outlives the session and stays unmodified
/// between factor() and the last solve(); this is the right form for
/// stack-scoped callers (benches, tests, the CLI). The shared_ptr
/// constructor *shares ownership* — the session keeps the system alive by
/// itself, so it can sit in a cache and be evicted/destroyed in any order
/// relative to the code that built it; this is the form service::
/// FactorCache uses. Internally both paths store one
/// shared_ptr<const BlockTridiag> (the borrow is a non-owning alias), so
/// every downstream code path is identical.
class Session {
 public:
  /// Borrows `sys` (see the lifetime contract above). Throws
  /// fault::InvalidArgumentError on a non-positive rank count.
  Session(Method method, const btds::BlockTridiag& sys, int nranks, SessionConfig config = {});

  /// Shares ownership of `sys` (see the lifetime contract above). Throws
  /// fault::InvalidArgumentError on a null system or non-positive rank
  /// count.
  Session(Method method, std::shared_ptr<const btds::BlockTridiag> sys, int nranks,
          SessionConfig config = {});

  /// Deprecated: prefer the SessionConfig form. Thin wrapper kept for
  /// out-of-tree callers of the pre-service API; borrows `sys` like the
  /// primary reference constructor.
  Session(Method method, const btds::BlockTridiag& sys, int nranks, const ArdOptions& opts,
          const mpsim::EngineOptions& engine = {});

  /// Run the right-hand-side-independent phase. Idempotent: repeated
  /// calls after a successful factor are no-ops. The classic RD methods
  /// have no separable factor phase — for them this only marks the
  /// session factored (factor_vtime() stays 0; each solve redoes the
  /// full pass, which is exactly the cost the accelerated methods avoid).
  void factor();

  /// Solve T X = B for all columns of `b`; auto-factors on first use.
  /// Records the batch's modeled seconds (last_solve_vtime()).
  la::Matrix solve(const la::Matrix& b);

  bool factored() const { return factored_; }
  Method method() const { return method_; }
  int nranks() const { return nranks_; }

  /// Modeled seconds of the factor run (0 until factored; 0 forever for
  /// the classic RD methods).
  double factor_vtime() const { return factor_vtime_; }
  /// Modeled seconds of the latest solve batch (0 before the first).
  double last_solve_vtime() const { return last_solve_vtime_; }
  /// Modeled seconds of every solve batch, in call order. Grows by one
  /// value per solve; kept only because perfbench/ checks each timed step
  /// against the first. Everything else reads last_solve_vtime().
  const std::vector<double>& solve_vtimes() const { return solve_vtimes_; }
  /// Bytes of factored state on rank 0 (0 for methods without one).
  std::size_t storage_bytes() const { return storage_bytes_; }

  /// Arena statistics of rank `r`'s workspace (populated for Method::kArd
  /// once factored; all-zero otherwise). Steady-state contract: after the
  /// first solve(B) of a given shape, further solves of that shape add
  /// zero slab_allocs — every scratch matrix recycles through the arena.
  la::Workspace::Stats arena_stats(int r) const;
  /// The same counters snapshotted right after factor() — the factor
  /// phase's share; solve-phase deltas are arena_stats() minus this.
  la::Workspace::Stats arena_stats_after_factor(int r) const;
  /// Export per-phase arena gauges ("arena.rank.R.*", "arena.factor.*",
  /// "arena.solve.slab_allocs", aggregate high-water marks) into `reg`.
  void export_arena_metrics(obs::MetricsRegistry& reg) const;

  /// Export modeled phase latencies into `reg`: the factor run into
  /// "latency.session.factor_s" (when one ran) and every solve batch into
  /// "latency.session.solve_s" — the p50/p99 source for the service-layer
  /// view of a long-lived session. Solves feed a fixed-size histogram as
  /// they run, so a long-lived session keeps no per-solve list for this.
  /// Virtual-clock values: deterministic under ChargedFlops.
  void export_latency_metrics(obs::MetricsRegistry& reg) const;

  /// Engine counters accumulated over every run so far (virtual-clock
  /// fields reflect the session timeline, counters sum across runs).
  const mpsim::RunReport& report() const { return report_; }

  /// Install live telemetry (see obs/live/telemetry.hpp). After every
  /// engine run the session records the phase span and metric deltas on
  /// the recorder's driver channel, refreshes the registry, runs the
  /// straggler/deadline/arena watchdogs, and ticks the snapshotter on the
  /// virtual clock; the degradation ladder emits structured log records;
  /// on a SolveError or breakdown a postmortem bundle is written to
  /// telemetry.postmortem_path (overwritten per incident). A default
  /// Telemetry{} (or none) costs one test per run and leaves solutions
  /// and vtimes bit-identical.
  void set_telemetry(const obs::live::Telemetry& telemetry);
  const obs::live::Telemetry& telemetry() const { return telemetry_; }

  /// Robustness log (see SolveOutcome): the factor outcome and every
  /// troubled solve — one that took a recovery rung or needed retries —
  /// in call order. Untroubled solves are only counted (ok_solves()), so
  /// a time-stepping loop or a cached service session does not grow it.
  const std::vector<SolveOutcome>& outcomes() const { return outcomes_; }
  /// Number of untroubled solves (not kept in outcomes()).
  std::uint64_t ok_solves() const { return ok_solves_; }
  /// Latest phase's outcome, troubled or not; nullptr before any phase
  /// ran. Service-layer callers read it to attach the triggering status
  /// and recovery rung of a degraded solve to the Completion they hand
  /// back.
  const SolveOutcome* last_outcome() const {
    return last_outcome_ ? &*last_outcome_ : nullptr;
  }
  /// True once the session runs on the exact banded-LU fallback.
  bool degraded() const { return degraded_; }
  /// True when the breakdown monitor flagged the fast factorization
  /// (solves are refined or escalated per the policy).
  bool breakdown() const { return breakdown_; }
  /// Largest pivot-growth reading the monitor produced (0 until factored;
  /// methods without a monitor stay 0).
  double pivot_growth() const { return pivot_growth_; }

 private:
  mpsim::RunReport run_engine(const char* phase, const mpsim::RankFn& fn);
  void fold_report(const mpsim::RunReport& run);
  /// Telemetry fan-out after a successful engine run: driver-channel
  /// span + metric deltas, registry refresh, watchdogs, snapshot tick.
  void after_run(const char* phase, const mpsim::RunReport& run, double t0);
  /// Structured log record for a ladder outcome (info when untroubled,
  /// warn when a recovery rung was taken).
  void log_outcome(const SolveOutcome& outcome);
  /// Log `outcome`, make it last_outcome(), and keep it in outcomes_ unless
  /// it is an untroubled solve (then only ok_solves_ counts it).
  void record_outcome(SolveOutcome outcome);
  /// Bookkeeping of one finished solve batch of `vtime` modeled seconds.
  void record_solve_vtime(double vtime);
  /// Write the postmortem bundle (no-op without a postmortem_path). The
  /// code classifies the incident; its stable name becomes the reason.
  void dump_postmortem(const char* phase, fault::ErrorCode code, const std::string& message);
  /// Factor the banded-LU fallback (rank 0, inside an engine run) if not
  /// already cached.
  void ensure_fallback();
  /// Solve with the cached fallback factorization (rank 0, engine run).
  la::Matrix fallback_solve(const la::Matrix& b);

  Method method_;
  /// Always set. Owning when constructed from a shared_ptr; a non-owning
  /// alias (empty control block) when constructed from a reference.
  std::shared_ptr<const btds::BlockTridiag> sys_;
  int nranks_;
  ArdOptions opts_;
  mpsim::EngineOptions engine_;
  btds::RowPartition part_;
  obs::live::Telemetry telemetry_;

  bool factored_ = false;
  double vtime_cursor_ = 0.0;  ///< virtual-time origin of the next run
  double factor_vtime_ = 0.0;
  double last_solve_vtime_ = 0.0;
  std::vector<double> solve_vtimes_;
  obs::LatencyHistogram solve_latency_;  ///< every solve batch's modeled seconds
  std::size_t storage_bytes_ = 0;
  mpsim::RunReport report_;
  bool have_report_ = false;

  // Robustness state (see docs/ROBUSTNESS.md).
  std::vector<SolveOutcome> outcomes_;
  std::uint64_t ok_solves_ = 0;
  std::optional<SolveOutcome> last_outcome_;
  bool degraded_ = false;   ///< solves go through the banded-LU fallback
  bool breakdown_ = false;  ///< monitor flagged the fast factorization
  double pivot_growth_ = 0.0;
  int last_retries_ = 0;  ///< transient-fault retries of the latest run
  std::uint64_t arena_allocs_prev_ = 0;  ///< slab allocs at the last telemetry check
  bool arena_warm_ = false;  ///< a solve has run; the arena should be steady
  double last_phase_vtime_ = 0.0;  ///< rank-0 phase seconds of the latest helper run
  std::unique_ptr<btds::BandedLuFactorization> fallback_;

  // Per-rank factored state (indexed by rank; only the active method's
  // vector is populated).
  std::vector<ArdFactorization> ard_;
  std::vector<PcrFactorization> pcr_;
  std::vector<TransferRdFactorization> trd_;

  // Per-rank scratch arenas (kArd): ard_[r] keeps a pointer to ws_[r], so
  // the vector is sized exactly once, in factor(). Each arena is touched
  // only by its rank's engine thread.
  std::vector<la::Workspace> ws_;
  std::vector<la::Workspace::Stats> ws_after_factor_;
};

/// Result of a one-shot driver call.
struct DriverResult {
  la::Matrix x;                ///< solution, shape of b
  mpsim::RunReport report;     ///< engine counters
  double factor_vtime = 0.0;   ///< modeled seconds in the factor phase
  double solve_vtime = 0.0;    ///< modeled seconds in the solve phase(s)
  std::vector<SolveOutcome> outcomes;  ///< robustness log (Session::outcomes())
};

/// One-shot convenience: Session(method, ...), factor, one solve. A
/// non-empty config.telemetry handle is installed on the session first
/// (see Session::set_telemetry); the default inert handle costs nothing.
DriverResult solve(Method method, const btds::BlockTridiag& sys, const la::Matrix& b, int nranks,
                   const SessionConfig& config = {});

/// Deprecated: prefer the SessionConfig form above.
DriverResult solve(Method method, const btds::BlockTridiag& sys, const la::Matrix& b, int nranks,
                   const ArdOptions& opts, const mpsim::EngineOptions& engine = {},
                   const obs::live::Telemetry& telemetry = {});

/// Result of an ARD session (factor once, many solve batches).
struct SessionResult {
  std::vector<la::Matrix> x;        ///< one solution per batch
  mpsim::RunReport report;          ///< engine counters
  double factor_vtime = 0.0;        ///< modeled factor seconds
  std::vector<double> solve_vtimes; ///< modeled seconds per batch
  std::size_t storage_bytes = 0;    ///< factored state on rank 0
};

/// One-shot convenience over Session: factor once, then solve every batch
/// in order. Throws fault::InvalidArgumentError on a null batch. A
/// non-empty config.telemetry handle is installed on the session first.
SessionResult ard_session(const btds::BlockTridiag& sys,
                          const std::vector<const la::Matrix*>& batches, int nranks,
                          const SessionConfig& config = {});

/// Deprecated: prefer the SessionConfig form above.
SessionResult ard_session(const btds::BlockTridiag& sys,
                          const std::vector<const la::Matrix*>& batches, int nranks,
                          const ArdOptions& opts, const mpsim::EngineOptions& engine = {},
                          const obs::live::Telemetry& telemetry = {});

}  // namespace ardbt::core
