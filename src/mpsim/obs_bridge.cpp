#include "src/mpsim/obs_bridge.hpp"

#include <string>

namespace ardbt::mpsim {

obs::Json to_json(const RankStats& stats) {
  obs::Json j = obs::Json::object();
  j.set("msgs_sent", stats.msgs_sent);
  j.set("bytes_sent", stats.bytes_sent);
  j.set("msgs_received", stats.msgs_received);
  j.set("bytes_received", stats.bytes_received);
  j.set("flops_charged", stats.flops_charged);
  j.set("cpu_seconds", stats.cpu_seconds);
  j.set("virtual_time_s", stats.virtual_time);
  j.set("virtual_wait_s", stats.virtual_wait);
  j.set("wait_fraction", stats.wait_fraction());
  j.set("faults_injected", stats.faults_injected);
  j.set("faults_detected", stats.faults_detected);
  j.set("deadline_misses", stats.deadline_misses);
  return j;
}

obs::Json to_json(const RunReport& report) {
  obs::Json j = obs::Json::object();
  j.set("wall_s", report.wall_seconds);
  j.set("max_virtual_time_s", report.max_virtual_time());
  j.set("totals", to_json(report.totals()));
  obs::Json ranks = obs::Json::array();
  for (const RankStats& r : report.ranks) ranks.push(to_json(r));
  j.set("ranks", std::move(ranks));
  return j;
}

obs::CostVerdict judge(const CostModel& model, const std::string& phase, const PhaseTerms& terms,
                       double measured_s) {
  obs::CostVerdict v;
  v.phase = phase;
  v.measured_s = measured_s;
  v.predicted_s = model.predict(terms);
  if (v.predicted_s > 0.0) {
    v.ratio = measured_s / v.predicted_s;
    v.flagged = v.ratio > kCostFlagThreshold || v.ratio < 1.0 / kCostFlagThreshold;
  }
  return v;
}

obs::Json to_json(const CostModel& model, double calibration_scale,
                  const std::vector<obs::CostVerdict>& verdicts) {
  obs::Json out = obs::Json::object();
  obs::Json constants = obs::Json::object();
  constants.set("seconds_per_flop", 1.0 / model.flop_rate);
  constants.set("alpha_s", model.alpha);
  constants.set("beta_s_per_byte", model.beta);
  out.set("constants", std::move(constants));
  out.set("threshold", kCostFlagThreshold);
  out.set("calibration_scale", calibration_scale);
  obs::Json phases = obs::Json::array();
  for (const obs::CostVerdict& v : verdicts) {
    obs::Json p = obs::Json::object();
    p.set("phase", v.phase);
    p.set("measured_s", v.measured_s);
    p.set("predicted_s", v.predicted_s);
    p.set("ratio", v.ratio);
    p.set("flagged", v.flagged);
    phases.push(std::move(p));
  }
  out.set("phases", std::move(phases));
  return out;
}

void export_metrics(const RunReport& report, obs::MetricsRegistry& registry) {
  const RankStats totals = report.totals();
  registry.counter("mpsim.msgs_sent").add(totals.msgs_sent);
  registry.counter("mpsim.bytes_sent").add(totals.bytes_sent);
  registry.counter("mpsim.msgs_received").add(totals.msgs_received);
  registry.counter("mpsim.bytes_received").add(totals.bytes_received);
  registry.counter("mpsim.flops_charged").add(totals.flops_charged);
  registry.counter("mpsim.cpu_seconds").add(totals.cpu_seconds);
  registry.counter("mpsim.faults_injected").add(totals.faults_injected);
  registry.counter("mpsim.faults_detected").add(totals.faults_detected);
  registry.counter("mpsim.deadline_misses").add(totals.deadline_misses);
  registry.gauge("mpsim.max_virtual_time_s").set(report.max_virtual_time());
  registry.gauge("mpsim.wall_s").set(report.wall_seconds);
  for (std::size_t r = 0; r < report.ranks.size(); ++r) {
    const RankStats& s = report.ranks[r];
    const std::string prefix = "mpsim.rank." + std::to_string(r) + ".";
    registry.gauge(prefix + "virtual_time_s").set(s.virtual_time);
    registry.gauge(prefix + "virtual_wait_s").set(s.virtual_wait);
    registry.gauge(prefix + "wait_fraction").set(s.wait_fraction());
  }
}

void export_metrics(const obs::Tracer& tracer, obs::MetricsRegistry& registry) {
  obs::Histogram& sizes = registry.histogram("mpsim.message_size_bytes");
  std::uint64_t recorded = 0, dropped = 0;
  for (int r = 0; r < tracer.nranks(); ++r) {
    const obs::RankTrace& rt = tracer.rank(r);
    sizes.merge_log2(rt.message_size_log2());
    recorded += rt.total_recorded();
    dropped += rt.dropped();
    for (const auto& [phase, bytes] : rt.bytes_by_phase()) {
      registry.counter("trace.bytes_by_phase." + phase).add(bytes);
    }
    for (const obs::TraceEvent& e : rt.events()) {
      if (e.kind == obs::SpanKind::kPhase) {
        registry.latency(std::string("latency.phase.") + e.name + "_s")
            .observe(e.vtime_end - e.vtime_begin);
      }
    }
  }
  // Pool worker-lane jobs carry wall-anchored times (the virtual clock is
  // frozen inside fork-join regions), so their latencies are real elapsed
  // seconds and vary run to run — keep them out of deterministic
  // snapshots (the CLI --metrics filter does).
  for (int r = 0; r < tracer.nranks(); ++r) {
    for (int w = 0; w < tracer.workers_per_rank(); ++w) {
      for (const obs::TraceEvent& e : tracer.worker(r, w).events()) {
        if (e.kind == obs::SpanKind::kPhase) {
          registry.latency("latency.panel.wall_s").observe(e.wall_end - e.wall_begin);
        }
      }
    }
  }
  registry.counter("trace.events_recorded").add(recorded);
  registry.counter("trace.events_dropped").add(dropped);
  // Point-in-time drop total: a nonzero value means the bounded rings
  // overwrote events and any attribution over this trace is partial
  // (`complete=false`). The CLI surfaces it as a structured warning.
  registry.gauge("trace.dropped_events").set(static_cast<double>(dropped));
}

void export_metrics(const obs::live::FlightRecorder& recorder, obs::MetricsRegistry& registry) {
  registry.gauge("recorder.events_recorded").set(static_cast<double>(recorder.total_recorded()));
  registry.gauge("recorder.events_dropped").set(static_cast<double>(recorder.total_dropped()));
  registry.gauge("recorder.anomalies_noted").set(static_cast<double>(recorder.anomalies_noted()));
  registry.gauge("recorder.max_resident_events")
      .set(static_cast<double>(recorder.max_resident_events()));
}

}  // namespace ardbt::mpsim
