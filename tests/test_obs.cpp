// Tests for the ardbt::obs subsystem: JSON builder determinism, span
// RAII/nesting, ring-buffer overflow, Chrome-trace export (golden),
// charged-flops trace determinism across runs, runtime kill switch, the
// metrics registry, and RankStats::accumulate semantics.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/btds/generators.hpp"
#include "src/core/solver.hpp"
#include "src/mpsim/engine.hpp"
#include "src/mpsim/obs_bridge.hpp"
#include "src/mpsim/stats.hpp"
#include "src/obs/chrome_trace.hpp"
#include "src/obs/json.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/run_report.hpp"
#include "src/obs/trace.hpp"

namespace {

using namespace ardbt;

// ---------------------------------------------------------------- Json

TEST(Json, PreservesInsertionOrderAndEscapes) {
  obs::Json j = obs::Json::object();
  j.set("zeta", 1);
  j.set("alpha", "line\n\"quoted\"");
  j.set("flag", true);
  j.set("nothing", obs::Json());
  EXPECT_EQ(j.dump(),
            R"({"zeta":1,"alpha":"line\n\"quoted\"","flag":true,"nothing":null})");
}

TEST(Json, NumbersRoundTripShortest) {
  obs::Json a = obs::Json::array();
  a.push(0.1);
  a.push(1.0);
  a.push(obs::Json(std::int64_t{-7}));
  a.push(obs::Json(std::uint64_t{18446744073709551615ull}));
  a.push(1.0 / 0.0);  // non-finite -> null
  EXPECT_EQ(a.dump(), "[0.1,1,-7,18446744073709551615,null]");
}

TEST(Json, IndentedDump) {
  obs::Json j = obs::Json::object();
  j.set("k", obs::Json::array().push(1).push(2));
  EXPECT_EQ(j.dump(1), "{\n \"k\": [\n  1,\n  2\n ]\n}");
}

// --------------------------------------------------------------- Trace

// Deterministic clock for driving RankTrace/SpanScope without an engine.
struct FakeClock {
  double t = 0.0;
  static obs::TimeSample now(void* ctx) {
    const double t = static_cast<FakeClock*>(ctx)->t;
    return {t, t};
  }
};

TEST(Trace, SpanNestingAndRaii) {
  obs::Tracer tracer;
  tracer.prepare(1);
  obs::RankTrace& rt = tracer.rank(0);
  FakeClock clock;

  {
    obs::SpanScope outer(&rt, obs::SpanKind::kPhase, "outer", &FakeClock::now, &clock);
    clock.t = 1.0;
    {
      obs::SpanScope inner(&rt, obs::SpanKind::kPhase, "inner", &FakeClock::now, &clock);
      clock.t = 2.0;
    }  // inner closes here
    clock.t = 3.0;
  }  // outer closes here

  const auto events = rt.events();
  ASSERT_EQ(events.size(), 2u);
  // Spans are recorded when they END, so inner lands first.
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_EQ(events[0].depth, 1);
  EXPECT_DOUBLE_EQ(events[0].vtime_begin, 1.0);
  EXPECT_DOUBLE_EQ(events[0].vtime_end, 2.0);
  EXPECT_STREQ(events[1].name, "outer");
  EXPECT_EQ(events[1].depth, 0);
  EXPECT_DOUBLE_EQ(events[1].vtime_begin, 0.0);
  EXPECT_DOUBLE_EQ(events[1].vtime_end, 3.0);
}

TEST(Trace, SpanScopeMoveAndEarlyClose) {
  obs::Tracer tracer;
  tracer.prepare(1);
  obs::RankTrace& rt = tracer.rank(0);
  FakeClock clock;

  obs::SpanScope a(&rt, obs::SpanKind::kPhase, "moved", &FakeClock::now, &clock);
  obs::SpanScope b = std::move(a);
  EXPECT_FALSE(a.active());  // NOLINT(bugprone-use-after-move) — testing the moved-from state
  EXPECT_TRUE(b.active());
  clock.t = 5.0;
  b.close();
  b.close();  // idempotent
  EXPECT_FALSE(b.active());

  const auto events = rt.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "moved");
  EXPECT_DOUBLE_EQ(events[0].vtime_end, 5.0);
}

TEST(Trace, AdjacentComputeCoalesces) {
  obs::Tracer tracer;
  tracer.prepare(1);
  obs::RankTrace& rt = tracer.rank(0);

  rt.add_compute({0.0, 0.0}, {1.0, 0.0}, 100.0);
  rt.add_compute({1.0, 0.0}, {2.0, 0.0}, 50.0);   // adjacent -> merges
  rt.add_compute({5.0, 0.0}, {6.0, 0.0}, 25.0);   // gap -> new event

  const auto events = rt.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_DOUBLE_EQ(events[0].vtime_begin, 0.0);
  EXPECT_DOUBLE_EQ(events[0].vtime_end, 2.0);
  EXPECT_DOUBLE_EQ(events[0].value, 150.0);
  EXPECT_DOUBLE_EQ(events[1].value, 25.0);
}

TEST(Trace, RingDropsOldest) {
  obs::Tracer tracer({.ring_capacity = 4});
  tracer.prepare(1);
  obs::RankTrace& rt = tracer.rank(0);
  for (int i = 0; i < 10; ++i) {
    rt.instant(obs::SpanKind::kMark, "mark", {static_cast<double>(i), 0.0}, -1, 0);
  }
  const auto events = rt.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(rt.dropped(), 6u);
  EXPECT_EQ(rt.total_recorded(), 10u);
  // Oldest-first: the surviving events are marks 6..9.
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(events[static_cast<std::size_t>(i)].vtime_begin, 6.0 + i);
  }
}

TEST(Trace, SentBytesTalliedByPhase) {
  obs::Tracer tracer;
  tracer.prepare(1);
  obs::RankTrace& rt = tracer.rank(0);
  FakeClock clock;

  rt.tally_sent(100);  // before any phase opens
  {
    obs::SpanScope s(&rt, obs::SpanKind::kPhase, "factor", &FakeClock::now, &clock);
    rt.tally_sent(64);
    rt.tally_sent(64);
  }
  const auto& by_phase = rt.bytes_by_phase();
  ASSERT_EQ(by_phase.count("factor"), 1u);
  EXPECT_EQ(by_phase.at("factor"), 128u);
  ASSERT_EQ(by_phase.count("(no phase)"), 1u);
  EXPECT_EQ(by_phase.at("(no phase)"), 100u);
  // 64 = 2^6 -> bucket 6 twice; 100 -> bucket 7.
  EXPECT_EQ(rt.message_size_log2()[6], 2u);
  EXPECT_EQ(rt.message_size_log2()[7], 1u);
}

// -------------------------------------------------- Chrome trace export

TEST(ChromeTrace, GoldenSmallTrace) {
  obs::Tracer tracer;
  tracer.prepare(1);
  obs::RankTrace& rt = tracer.rank(0);
  rt.complete(obs::SpanKind::kSend, "send", {0.0, 0.0}, {1e-6, 0.0}, /*peer=*/1,
              /*bytes=*/64);
  rt.instant(obs::SpanKind::kRecv, "recv", {2e-6, 0.0}, /*peer=*/1, /*bytes=*/32);

  const std::string expected =
      R"({"traceEvents":[)"
      R"x({"name":"process_name","ph":"M","pid":0,"args":{"name":"ardbt mpsim (virtual clock)"}},)x"
      R"({"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"rank 0"}},)"
      R"({"name":"send","cat":"send","ph":"X","ts":0,"dur":1,"pid":0,"tid":0,)"
      R"("args":{"peer":1,"bytes":64,"wall_begin_s":0,"wall_end_s":0}},)"
      R"({"name":"recv","cat":"recv","ph":"i","ts":2,"s":"t","pid":0,"tid":0,)"
      R"("args":{"peer":1,"bytes":32,"wall_begin_s":0,"wall_end_s":0}})"
      R"(],"displayTimeUnit":"ms","otherData":{"clock":"virtual","dropped_events":0}})";
  EXPECT_EQ(obs::chrome_trace_json(tracer).dump(), expected);
}

// --------------------------------------------- Engine-level integration

core::DriverResult traced_solve(obs::Tracer* tracer) {
  const la::index_t n = 64;
  const la::index_t m = 4;
  const auto sys = btds::make_problem(btds::ProblemKind::kDiagDominant, n, m);
  const auto b = btds::make_rhs(n, m, 4);
  mpsim::EngineOptions engine;
  engine.timing = mpsim::TimingMode::ChargedFlops;
  engine.tracer = tracer;
  return core::solve(core::Method::kArd, sys, b, /*nranks=*/4, {.engine = engine});
}

TEST(TraceEngine, ChargedFlopsStreamsAreDeterministic) {
  obs::Tracer t1;
  obs::Tracer t2;
  traced_solve(&t1);
  traced_solve(&t2);

  ASSERT_EQ(t1.nranks(), 4);
  ASSERT_EQ(t2.nranks(), 4);
  for (int r = 0; r < 4; ++r) {
    const auto e1 = t1.rank(r).events();
    const auto e2 = t2.rank(r).events();
    ASSERT_FALSE(e1.empty());
    ASSERT_EQ(e1.size(), e2.size()) << "rank " << r;
    for (std::size_t i = 0; i < e1.size(); ++i) {
      EXPECT_STREQ(e1[i].name, e2[i].name);
      EXPECT_EQ(e1[i].kind, e2[i].kind);
      EXPECT_DOUBLE_EQ(e1[i].vtime_begin, e2[i].vtime_begin);
      EXPECT_DOUBLE_EQ(e1[i].vtime_end, e2[i].vtime_end);
      EXPECT_EQ(e1[i].bytes, e2[i].bytes);
      EXPECT_EQ(e1[i].peer, e2[i].peer);
      EXPECT_EQ(e1[i].depth, e2[i].depth);
    }
  }
}

TEST(TraceEngine, PhaseSpansCoverDriverPhases) {
  obs::Tracer tracer;
  const auto res = traced_solve(&tracer);
  bool saw_factor = false;
  bool saw_solve = false;
  for (const auto& e : tracer.rank(0).events()) {
    if (std::string(e.name) == "driver.factor") {
      saw_factor = true;
      EXPECT_NEAR(e.vtime_end - e.vtime_begin, res.factor_vtime, 1e-12);
    }
    if (std::string(e.name) == "driver.solve") saw_solve = true;
  }
  EXPECT_TRUE(saw_factor);
  EXPECT_TRUE(saw_solve);
}

TEST(TraceEngine, DisabledTracerRecordsNothing) {
  obs::Tracer tracer;
  tracer.set_enabled(false);
  traced_solve(&tracer);
  EXPECT_EQ(tracer.nranks(), 0);  // never prepared, zero events
}

// ------------------------------------------------------------- Metrics

TEST(Metrics, RegistrySnapshot) {
  obs::MetricsRegistry reg;
  reg.counter("b.count").add(2.0);
  reg.counter("a.count").add(std::uint64_t{3});
  reg.gauge("g.level").set(0.5);
  reg.histogram("h.sizes").observe(64.0);
  reg.histogram("h.sizes").observe(100.0);

  const obs::Json snapshot = reg.to_json();
  // Keys sorted; histogram keeps only non-empty buckets.
  EXPECT_EQ(snapshot.dump(),
            R"({"counters":{"a.count":3,"b.count":2},"gauges":{"g.level":0.5},)"
            R"("histograms":{"h.sizes":{"count":2,"sum":164,)"
            R"("log2_buckets":{"6":1,"7":1}}}})");
}

// ------------------------------------------------- LatencyHistogram

TEST(Metrics, LatencyZeroAndNegativeSamplesLandInZeroBucket) {
  obs::LatencyHistogram h;
  h.observe(0.0);
  h.observe(-1.5);  // negative duration: caller bug, must not poison stats
  EXPECT_EQ(h.total_count(), 2u);
  EXPECT_EQ(h.zero_count(), 2u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.50), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 0.0);
  EXPECT_TRUE(h.nonzero_buckets().empty());
}

TEST(Metrics, LatencySubBucketTinyValueClampsToMinExp) {
  obs::LatencyHistogram h;
  h.observe(1e-300);  // far below 2^kMinExp
  ASSERT_EQ(h.nonzero_buckets().size(), 1u);
  EXPECT_EQ(h.nonzero_buckets()[0].first, obs::LatencyHistogram::kMinExp);
  // The bucket's upper bound (2^-64) overshoots, so the percentile is
  // capped at the exact maximum.
  EXPECT_DOUBLE_EQ(h.percentile(0.50), 1e-300);
}

TEST(Metrics, LatencyOverflowClampsToMaxExp) {
  obs::LatencyHistogram h;
  h.observe(1e300);
  h.observe(std::numeric_limits<double>::infinity());
  ASSERT_EQ(h.nonzero_buckets().size(), 1u);
  EXPECT_EQ(h.nonzero_buckets()[0].first, obs::LatencyHistogram::kMaxExp);
  EXPECT_EQ(h.nonzero_buckets()[0].second, 2u);
  // Percentiles report the bucket bound 2^64, not the (infinite) max.
  EXPECT_DOUBLE_EQ(h.percentile(0.50), std::ldexp(1.0, obs::LatencyHistogram::kMaxExp));
}

TEST(Metrics, LatencyNanIgnoredAndEmptyReportsZero) {
  obs::LatencyHistogram h;
  EXPECT_DOUBLE_EQ(h.percentile(0.50), 0.0);
  h.observe(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(h.total_count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 0.0);
}

TEST(Metrics, LatencyMergeMatchesObservingEverySample) {
  const std::vector<double> a = {0.0, 1.5, 3.0, 1e-300};
  const std::vector<double> b = {-2.0, 6.0, 12.0, 0.25};
  obs::LatencyHistogram all;
  obs::LatencyHistogram ha;
  obs::LatencyHistogram hb;
  for (double x : a) {
    all.observe(x);
    ha.observe(x);
  }
  for (double x : b) {
    all.observe(x);
    hb.observe(x);
  }
  obs::LatencyHistogram merged;
  merged.merge(ha);  // into an empty histogram: an exact copy
  EXPECT_EQ(merged.to_json().dump(), ha.to_json().dump());
  merged.merge(hb);
  merged.merge(obs::LatencyHistogram{});  // empty: no effect
  EXPECT_EQ(merged.total_count(), all.total_count());
  EXPECT_EQ(merged.zero_count(), all.zero_count());
  EXPECT_EQ(merged.nonzero_buckets(), all.nonzero_buckets());
  EXPECT_DOUBLE_EQ(merged.sum(), all.sum());
  EXPECT_EQ(merged.min(), all.min());
  EXPECT_EQ(merged.max(), all.max());
  for (double q : {0.1, 0.5, 0.9, 0.99}) EXPECT_EQ(merged.percentile(q), all.percentile(q)) << q;
}

TEST(Metrics, LatencyNearestRankPercentiles) {
  obs::LatencyHistogram h;
  // One sample per bucket: (1,2], (2,4], (4,8], (8,16].
  for (double x : {1.5, 3.0, 6.0, 12.0}) h.observe(x);
  EXPECT_DOUBLE_EQ(h.percentile(0.25), 2.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.50), 4.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.75), 8.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.00), 12.0);  // bound 16 capped at max
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 2.0);    // q clamps to rank 1
}

TEST(Metrics, LatencyExactPowerOfTwoLandsInLowerBucket) {
  obs::LatencyHistogram h;
  h.observe(4.0);  // bucket e counts 2^(e-1) < x <= 2^e, so 4 -> e = 2
  ASSERT_EQ(h.nonzero_buckets().size(), 1u);
  EXPECT_EQ(h.nonzero_buckets()[0].first, 2);
  EXPECT_DOUBLE_EQ(h.percentile(0.50), 4.0);
}

TEST(Metrics, LatencyMixedZeroAndPositiveToJson) {
  obs::LatencyHistogram h;
  h.observe(0.0);
  h.observe(1.0);
  EXPECT_EQ(h.to_json().dump(),
            R"({"count":2,"sum":1,"min":0,"max":1,"p50":0,"p90":1,"p99":1,)"
            R"("log2_buckets":{"zero":1,"0":1}})");
}

TEST(Metrics, TracerExportsMessageHistogram) {
  obs::Tracer tracer;
  tracer.prepare(2);
  tracer.rank(0).tally_sent(64);
  tracer.rank(1).tally_sent(64);
  obs::MetricsRegistry reg;
  mpsim::export_metrics(tracer, reg);
  EXPECT_EQ(reg.histogram("mpsim.message_size_bytes").total_count(), 2u);
  EXPECT_EQ(reg.counter("trace.events_recorded").value(), 0.0);
}

// ---------------------------------------------------------- Run report

TEST(RunReport, BuilderEmitsSchemaHeaderFirst) {
  obs::RunReportBuilder builder("test_tool");
  builder.config("n", 64);
  obs::Json timing = obs::Json::object();
  timing.set("wall_s", 1.5);
  builder.set_section("timing", std::move(timing));

  const obs::Json doc = builder.build();
  ASSERT_TRUE(doc.is_object());
  const auto& items = doc.items();
  ASSERT_GE(items.size(), 5u);
  EXPECT_EQ(items[0].first, "schema");
  EXPECT_EQ(items[1].first, "version");
  EXPECT_EQ(items[2].first, "tool");
  EXPECT_EQ(doc.dump(),
            R"({"schema":"ardbt.run_report","version":2,"tool":"test_tool",)"
            R"("config":{"n":64},"timing":{"wall_s":1.5}})");
}

// ----------------------------------------------------------- RankStats

TEST(RankStats, AccumulateSumsCountersAndMaxesClocks) {
  mpsim::RankStats a;
  a.msgs_sent = 3;
  a.bytes_sent = 300;
  a.flops_charged = 10.0;
  a.virtual_time = 2.0;
  a.virtual_wait = 1.0;
  mpsim::RankStats b;
  b.msgs_sent = 4;
  b.bytes_sent = 100;
  b.flops_charged = 5.0;
  b.virtual_time = 3.0;
  b.virtual_wait = 0.5;

  a.accumulate(b);
  EXPECT_EQ(a.msgs_sent, 7u);
  EXPECT_EQ(a.bytes_sent, 400u);
  EXPECT_DOUBLE_EQ(a.flops_charged, 15.0);
  EXPECT_DOUBLE_EQ(a.virtual_time, 3.0);  // max, not sum
  EXPECT_DOUBLE_EQ(a.virtual_wait, 1.0);
  EXPECT_DOUBLE_EQ(a.wait_fraction(), 1.0 / 3.0);
}

TEST(RankStats, WaitFractionIsZeroOnFreshStats) {
  mpsim::RankStats s;
  EXPECT_DOUBLE_EQ(s.wait_fraction(), 0.0);
  s.virtual_time = 2.0;
  s.virtual_wait = 0.5;
  EXPECT_DOUBLE_EQ(s.wait_fraction(), 0.25);
}

}  // namespace
