#pragma once

#include <string>
#include <vector>

#include "src/mpsim/engine.hpp"
#include "src/obs/live/watchdog.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

/// \file obs_bridge.hpp
/// Projections from the simulator's per-rank counters into the
/// observability layer: RankStats stays the plain lock-free aggregate the
/// hot path updates, and these helpers expose it as JSON documents and
/// registry metrics after a run (the "RankStats is a view" direction —
/// the registry is derived, never written during the run).

namespace ardbt::mpsim {

/// {"msgs_sent": ..., "bytes_sent": ..., ..., "wait_fraction": ...}.
obs::Json to_json(const RankStats& stats);

/// {"wall_s", "max_virtual_time_s", "totals", "ranks": [...]}.
obs::Json to_json(const RunReport& report);

/// Register run counters and per-rank gauges:
///   counters  mpsim.msgs_sent / bytes_sent / msgs_received /
///             bytes_received / flops_charged / cpu_seconds
///   gauges    mpsim.max_virtual_time_s, mpsim.wall_s,
///             mpsim.rank.<r>.virtual_time_s / virtual_wait_s /
///             wait_fraction
void export_metrics(const RunReport& report, obs::MetricsRegistry& registry);

/// Fold a tracer's per-rank tallies into the registry:
///   histogram mpsim.message_size_bytes (log2 buckets)
///   counters  trace.bytes_by_phase.<phase>, trace.events_recorded,
///             trace.events_dropped
///   latency   latency.phase.<name>_s — per-phase span durations on the
///             virtual clock (deterministic under ChargedFlops);
///             latency.panel.wall_s — pool worker-lane job durations on
///             the host wall clock (real time; nondeterministic, present
///             only when a pool ran under tracing)
///   gauge     trace.dropped_events — point-in-time drop total; nonzero
///             means bounded rings overwrote events (attribution partial)
void export_metrics(const obs::Tracer& tracer, obs::MetricsRegistry& registry);

/// The cost-model oracle's band: a phase is flagged when its
/// measured/predicted ratio exceeds this or falls below its inverse.
inline constexpr double kCostFlagThreshold = 2.0;

/// Judge a measured phase against `model.predict(terms)`; flagged when the
/// ratio leaves [1/kCostFlagThreshold, kCostFlagThreshold] (only with a
/// nonzero prediction).
obs::CostVerdict judge(const CostModel& model, const std::string& phase, const PhaseTerms& terms,
                       double measured_s);

/// The oracle's report section:
///   {"constants": {"seconds_per_flop", "alpha_s", "beta_s_per_byte"},
///    "threshold", "calibration_scale",
///    "phases": [{"phase","measured_s","predicted_s","ratio","flagged"}]}
/// where `model` is the (already rescaled) model the verdicts used and
/// seconds_per_flop is 1 / model.flop_rate.
obs::Json to_json(const CostModel& model, double calibration_scale,
                  const std::vector<obs::CostVerdict>& verdicts);

/// Flight-recorder tallies as gauges: recorder.events_recorded /
/// events_dropped / anomalies_noted / max_resident_events.
void export_metrics(const obs::live::FlightRecorder& recorder, obs::MetricsRegistry& registry);

}  // namespace ardbt::mpsim
