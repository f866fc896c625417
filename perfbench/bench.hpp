#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/btds/generators.hpp"
#include "src/core/solver.hpp"
#include "src/la/types.hpp"
#include "src/mpsim/engine.hpp"

/// \file bench.hpp
/// Shared pieces of the wall-clock benchmark: the workload shape, the
/// benchmark-side span log, sample statistics and the metric sink.
///
/// The span log records spans only in the benchmark's own code, around
/// calls into a library layer (core::Session, btds::ThomasFactorization,
/// la::gemm / la::lu_factor_inplace, mpsim::run, service::run_load). It is
/// never installed inside the library: a null log makes every ScopedSpan a
/// no-op, which is how the untraced (end-to-end) measurements run.

namespace perfbench {

using namespace ardbt;
using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline Clock::time_point deadline_after(double seconds) {
  return Clock::now() +
         std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

/// One solver shape: N block rows of order M, R right-hand-side columns
/// per solve step, P simulated ranks.
struct Shape {
  la::index_t n = 0;
  la::index_t m = 0;
  la::index_t r = 0;
  int p = 1;
};

/// Uncalibrated cluster2014 cost model with charged flops: virtual times
/// depend only on the shape, never on the host (unlike a calibrated rate).
inline mpsim::EngineOptions engine_options() {
  mpsim::EngineOptions options;
  options.cost = mpsim::CostModel::cluster2014();
  options.timing = mpsim::TimingMode::ChargedFlops;
  return options;
}
inline core::SessionConfig session_config() { return {.engine = engine_options()}; }

/// splitmix64 finalizer: derives independent input seeds from --seed.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Every system the benchmark solves is of this kind.
inline constexpr btds::ProblemKind kProblemKind = btds::ProblemKind::kDiagDominant;

/// Largest relative residual a solve step may have before the run fails.
inline constexpr double kResidualTolerance = 1e-10;

// ---------------------------------------------------------------------------
// Span log

struct Span {
  const char* name = "";
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
  std::int32_t parent = -1;  ///< index of the enclosing open span, -1 at top level
  std::int64_t req = -1;     ///< step / round / repetition the span belongs to
};

/// In-memory span store, written out once when the benchmark ends. Spans
/// nest: one opened while another is open is its child.
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

  std::int32_t open(const char* name, std::int64_t req) {
    spans_.push_back(Span{name, now_ns(), 0, current_, req});
    current_ = static_cast<std::int32_t>(spans_.size() - 1);
    return current_;
  }
  void close(std::int32_t id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.t1_ns = now_ns();
    current_ = s.parent;
  }

  /// Duration in seconds of span `id`.
  double duration(std::int32_t id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return static_cast<double>(s.t1_ns - s.t0_ns) * 1e-9;
  }

  /// Chrome trace-event JSON (chrome://tracing, Perfetto); ids and parents
  /// go into each event's args. Returns false when the file cannot be written.
  bool write_json(const std::string& path) const;

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::int32_t current_ = -1;  ///< innermost open span
};

/// RAII span; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::int64_t req = -1)
      : log_(log), id_(log != nullptr ? log->open(name, req) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int32_t id() const { return id_; }

 private:
  SpanLog* log_;
  std::int32_t id_;
};

// ---------------------------------------------------------------------------
// Statistics

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }
/// Nearest-rank percentile, the definition used for exact latency counts.
double nearest_rank(std::vector<double> v, double q);

/// Peak resident set of this process in MiB.
double peak_rss_mb();

// ---------------------------------------------------------------------------
// Host speed

/// Median time of SpeedProbe's sweep on the reference host (four-vCPU
/// shared VM, GCC 12, -O2) in a fast stretch.
inline constexpr double kReferenceProbeS = 2.0e-3;

/// Times a fixed piece of benchmark-owned work between the workload's steps:
/// a read-write sweep and a strided read over an 8 MiB buffer. On a shared
/// VM the host's speed drifts by up to a third over tens of seconds (other
/// tenants' load on the same physical core, cache and memory), and the
/// sweep slows with it. The end-to-end wall times are scaled by factor()
/// to the speed at which the sweep takes kReferenceProbeS (see WORKLOADS.md,
/// "Host speed").
class SpeedProbe {
 public:
  /// Time the probe once. The first call allocates the buffer, so call it
  /// only after peak_rss_mb() has been read.
  void sample();
  /// kReferenceProbeS / median probe time: below 1 while the host is
  /// slower than the reference.
  double factor() const;
  double median_s() const;

 private:
  std::vector<double> buf_;
  std::vector<double> times_;
};

// ---------------------------------------------------------------------------
// Result sink

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports: the end-to-end or per-layer metrics, the
/// exact (host-independent) values cross-checked between runs of one seed,
/// and the operation ledger.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  std::vector<Metric> exact;

  void fail(std::string message) {
    correct = false;
    errors.push_back(std::move(message));
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void add_exact(std::string name, double value) { exact.push_back({std::move(name), value, ""}); }
};

}  // namespace perfbench
