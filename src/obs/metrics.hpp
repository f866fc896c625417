#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/json.hpp"

/// \file metrics.hpp
/// Named counters / gauges / histograms for run-level observability.
///
/// The registry is the machine-readable aggregation point between the
/// simulator's per-rank counters (mpsim::RankStats stays the lock-free
/// hot-path aggregate; export_metrics() in mpsim/obs_bridge.hpp projects
/// it into the registry after a run) and the structured run report every
/// bench binary and the CLI can emit. Metric creation takes a lock;
/// updating an existing metric is lock-free (atomics would be overkill —
/// metrics are populated post-run, from one thread).
///
/// Naming convention: dotted lowercase paths, unit suffix where
/// meaningful — "mpsim.bytes_sent", "mpsim.rank.3.wait_fraction",
/// "ard.factor.vtime_seconds".

namespace ardbt::obs {

/// Monotonic counter.
class Counter {
 public:
  void add(double v) { value_ += v; }
  void add(std::uint64_t v) { value_ += static_cast<double>(v); }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Point-in-time value.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Power-of-two bucketed histogram (bucket k counts samples with
/// 2^(k-1) < x <= 2^k; bucket 0 counts x <= 1). Suits message sizes and
/// span durations, which spread over decades.
class Histogram {
 public:
  Histogram() : buckets_(64, 0) {}

  void observe(double x);
  /// Merge pre-bucketed counts (e.g. RankTrace::message_size_log2()).
  void merge_log2(const std::vector<std::uint64_t>& buckets);

  std::uint64_t total_count() const { return count_; }
  double sum() const { return sum_; }
  const std::vector<std::uint64_t>& buckets() const { return buckets_; }

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

/// Log2-bucketed histogram for latencies: bucket e (a signed exponent in
/// [kMinExp, kMaxExp]) counts samples with 2^(e-1) < x <= 2^e, so
/// sub-second durations land in negative-exponent buckets instead of all
/// collapsing into Histogram's bucket 0. Non-positive samples go to a
/// dedicated zero bucket; sub-2^kMinExp and beyond-2^kMaxExp samples clamp
/// to the edge buckets (min/max stay exact). Percentiles are the
/// nearest-rank bucket upper bound capped at the exact max — a purely
/// count-based estimate, so identical sample multisets give bit-identical
/// p50/p90/p99 regardless of observation order or thread count.
class LatencyHistogram {
 public:
  static constexpr int kMinExp = -64;
  static constexpr int kMaxExp = 64;

  void observe(double x);
  /// Fold in every sample of `other`: the same buckets, count, min and max
  /// as observing them here one by one (the sum may differ in rounding).
  void merge(const LatencyHistogram& other);

  std::uint64_t total_count() const { return count_; }
  std::uint64_t zero_count() const { return zero_; }
  double sum() const { return sum_; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  /// Nearest-rank percentile for q in (0, 1]; 0 when empty.
  double percentile(double q) const;

  /// Occupied buckets as (signed exponent, count) pairs, ascending; the
  /// zero bucket is reported separately (zero_count()).
  std::vector<std::pair<int, std::uint64_t>> nonzero_buckets() const;

  /// {"count", "sum", "min", "max", "p50", "p90", "p99",
  ///  "log2_buckets": {"<exp>": count, ...}} (zero bucket under key "zero").
  Json to_json() const;

 private:
  static constexpr std::size_t kBuckets = static_cast<std::size_t>(kMaxExp - kMinExp + 1);
  std::vector<std::uint64_t> buckets_;  ///< lazily sized to kBuckets
  std::uint64_t zero_ = 0;              ///< samples with x <= 0
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Name -> metric registry with a stable JSON snapshot.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);
  LatencyHistogram& latency(const std::string& name);

  /// {"counters": {...}, "gauges": {...}, "histograms": {...},
  ///  "latencies": {...}} with keys sorted by name; empty sections are
  /// omitted.
  Json to_json() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> latencies_;
};

/// Deterministic projection of a MetricsRegistry::to_json() snapshot:
/// drops every metric whose name mentions wall/cpu/panel time (host-clock
/// values vary run to run; everything else is virtual-clock or count
/// data, bit-identical under charged timing for any thread count). Used
/// by the CLI `--metrics` sentinel block and the live snapshot stream.
Json deterministic_metrics(const Json& snapshot);

}  // namespace ardbt::obs
