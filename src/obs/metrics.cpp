#include "src/obs/metrics.hpp"

#include <cmath>

namespace ardbt::obs {

void Histogram::observe(double x) {
  std::size_t bucket = 0;
  while (bucket + 1 < buckets_.size() && static_cast<double>(std::uint64_t{1} << bucket) < x) {
    ++bucket;
  }
  buckets_[bucket] += 1;
  count_ += 1;
  sum_ += x;
}

void Histogram::merge_log2(const std::vector<std::uint64_t>& buckets) {
  for (std::size_t k = 0; k < buckets.size() && k < buckets_.size(); ++k) {
    buckets_[k] += buckets[k];
    count_ += buckets[k];
    // Attribute the bucket upper bound to the sum (the exact sample values
    // are gone); good enough for mean-order summaries.
    sum_ += static_cast<double>(buckets[k]) * static_cast<double>(std::uint64_t{1} << (k < 63 ? k : 63));
  }
}

void LatencyHistogram::observe(double x) {
  if (std::isnan(x)) return;  // undefined latencies carry no information
  count_ += 1;
  if (x <= 0.0) {
    zero_ += 1;
    if (count_ == 1) min_ = max_ = 0.0;
    min_ = std::min(min_, 0.0);
    // sum unchanged (x may be -0.0); negative durations are a caller bug
    // but must not poison the percentiles.
    return;
  }
  sum_ += x;
  if (count_ == 1 || (count_ - zero_) == 1) {
    // First positive sample; fold in any earlier zeros via min_.
    min_ = zero_ > 0 ? 0.0 : x;
    max_ = x;
  }
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
  // frexp gives x = f * 2^e with f in [0.5, 1): e-1 is the exponent with
  // 2^(e-2) < x <= 2^(e-1) except at exact powers of two, where x == 2^(e-1).
  int e = 0;
  const double f = std::frexp(x, &e);
  int exp = (f == 0.5) ? e - 1 : e;  // smallest exp with x <= 2^exp
  if (std::isinf(x)) exp = kMaxExp;
  exp = std::max(kMinExp, std::min(kMaxExp, exp));
  if (buckets_.empty()) buckets_.assign(kBuckets, 0);
  buckets_[static_cast<std::size_t>(exp - kMinExp)] += 1;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  if (!other.buckets_.empty()) {
    buckets_.resize(kBuckets, 0);
    for (std::size_t k = 0; k < kBuckets; ++k) buckets_[k] += other.buckets_[k];
  }
  zero_ += other.zero_;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double LatencyHistogram::percentile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::max(0.0, std::min(1.0, q));
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_))));
  std::uint64_t seen = zero_;
  if (rank <= seen) return 0.0;
  for (std::size_t k = 0; k < buckets_.size(); ++k) {
    seen += buckets_[k];
    if (rank <= seen) {
      const double upper = std::ldexp(1.0, static_cast<int>(k) + kMinExp);
      return std::min(upper, max_);
    }
  }
  return max_;
}

std::vector<std::pair<int, std::uint64_t>> LatencyHistogram::nonzero_buckets() const {
  std::vector<std::pair<int, std::uint64_t>> out;
  for (std::size_t k = 0; k < buckets_.size(); ++k) {
    if (buckets_[k] != 0) out.emplace_back(static_cast<int>(k) + kMinExp, buckets_[k]);
  }
  return out;
}

Json LatencyHistogram::to_json() const {
  Json j = Json::object();
  j.set("count", count_);
  j.set("sum", sum_);
  j.set("min", min());
  j.set("max", max());
  j.set("p50", percentile(0.50));
  j.set("p90", percentile(0.90));
  j.set("p99", percentile(0.99));
  Json buckets = Json::object();
  if (zero_ != 0) buckets.set("zero", zero_);
  for (const auto& [exp, n] : nonzero_buckets()) buckets.set(std::to_string(exp), n);
  j.set("log2_buckets", std::move(buckets));
  return j;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

LatencyHistogram& MetricsRegistry::latency(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = latencies_[name];
  if (!slot) slot = std::make_unique<LatencyHistogram>();
  return *slot;
}

Json MetricsRegistry::to_json() const {
  std::lock_guard lock(mutex_);
  Json out = Json::object();
  if (!counters_.empty()) {
    Json section = Json::object();
    for (const auto& [name, c] : counters_) section.set(name, c->value());
    out.set("counters", std::move(section));
  }
  if (!gauges_.empty()) {
    Json section = Json::object();
    for (const auto& [name, g] : gauges_) section.set(name, g->value());
    out.set("gauges", std::move(section));
  }
  if (!histograms_.empty()) {
    Json section = Json::object();
    for (const auto& [name, h] : histograms_) {
      Json entry = Json::object();
      entry.set("count", h->total_count());
      entry.set("sum", h->sum());
      // Emit only non-empty buckets as {"log2_upper": count}.
      Json buckets = Json::object();
      for (std::size_t k = 0; k < h->buckets().size(); ++k) {
        if (h->buckets()[k] != 0) buckets.set(std::to_string(k), h->buckets()[k]);
      }
      entry.set("log2_buckets", std::move(buckets));
      section.set(name, std::move(entry));
    }
    out.set("histograms", std::move(section));
  }
  if (!latencies_.empty()) {
    Json section = Json::object();
    for (const auto& [name, h] : latencies_) section.set(name, h->to_json());
    out.set("latencies", std::move(section));
  }
  return out;
}

Json deterministic_metrics(const Json& snapshot) {
  const auto keep = [](const std::string& name) {
    return name.find("wall") == std::string::npos && name.find("cpu") == std::string::npos &&
           name.find("panel") == std::string::npos;
  };
  Json out = Json::object();
  for (const auto& [section, body] : snapshot.items()) {
    Json filtered = Json::object();
    for (const auto& [name, value] : body.items()) {
      if (keep(name)) filtered.set(name, value);
    }
    if (filtered.size() > 0) out.set(section, std::move(filtered));
  }
  return out;
}

}  // namespace ardbt::obs
