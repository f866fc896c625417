// Wall-clock benchmark of ardbt: one workload per run, printing one JSON
// line with the end-to-end (or, with --trace 1, per-layer) metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// Exit status 0 when every correctness gate passed, 1 when one failed (the
// JSON line still says which), 2 on a usage error. perfbench/run.py builds
// this binary and is the supported entry point; WORKLOADS.md describes the
// workloads and metrics.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.hpp"
#include "workloads.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double nearest_rank(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across exec, so
// it would also count the launching process (run.py's Python interpreter).
double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (kib < 0 && std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) != 1) kib = -1;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

volatile double g_probe_sink = 0.0;

void SpeedProbe::sample() {
  if (buf_.empty()) {
    // Allocated on first use, after the workload has read its peak RSS;
    // faulting the pages in is not timed.
    buf_.assign(std::size_t{1} << 20, 1.0);
  }
  const Clock::time_point t0 = Clock::now();
  for (double& x : buf_) x = x * 0.9999999 + 1e-7;
  double sum = 0.0;
  for (std::size_t i = 0; i < buf_.size(); i += 8) sum += buf_[i];
  times_.push_back(seconds_since(t0));
  g_probe_sink = sum;
}

double SpeedProbe::median_s() const { return median(times_); }

double SpeedProbe::factor() const { return kReferenceProbeS / median_s(); }

bool SpanLog::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%zu,\"parent\":%d,\"req\":%lld}}",
                 i == 0 ? "" : ",", s.name, static_cast<double>(s.t0_ns) * 1e-3,
                 static_cast<double>(s.t1_ns - s.t0_ns) * 1e-3, i, s.parent,
                 static_cast<long long>(s.req));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_report(const Report& r) {
  std::string out = "{\"correct\":" + std::string(r.correct ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(r.attempted) +
                    ",\"failed\":" + std::to_string(r.failed) + ",\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    out += (i ? "," : "") + json_string(m.name) + ":{\"value\":" + json_number(m.value) +
           ",\"unit\":" + json_string(m.unit) + "}";
  }
  out += "},\"exact\":{";
  for (std::size_t i = 0; i < r.exact.size(); ++i) {
    out += (i ? "," : "") + json_string(r.exact[i].name) + ":" + json_number(r.exact[i].value);
  }
  out += "},\"errors\":[";
  for (std::size_t i = 0; i < r.errors.size(); ++i) out += (i ? "," : "") + json_string(r.errors[i]);
  out += "]}";
  std::printf("%s\n", out.c_str());
}

[[noreturn]] void usage(const char* program, const std::string& message) {
  std::fprintf(stderr,
               "%s: %s\nusage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\nworkloads: %s\n",
               program, message.c_str(), program, workload_names());
  std::exit(2);
}

double parse_number(const char* program, const std::string& flag, const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE || !std::isfinite(v) || v < 0.0) {
    usage(program, flag + " expects a nonnegative number, got '" + text + "'");
  }
  return v;
}

/// Pin this thread, and so every thread started after it (the library's
/// rank threads among them), to the highest-numbered CPU it may run on.
/// Returns that CPU, or -1 when the affinity cannot be read or set.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
  }
  return -1;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const char* program = argc > 0 ? argv[0] : "perfbench";
  RunOptions opts;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(program, flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      if (!is_workload(value)) usage(program, "unknown workload '" + value + "'");
      opts.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      errno = 0;
      char* end = nullptr;
      opts.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || value[0] == '-' || *end != '\0' || errno == ERANGE) {
        usage(program, "--seed expects a nonnegative integer, got '" + value + "'");
      }
    } else if (flag == "--seconds") {
      opts.seconds = parse_number(program, flag, value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage(program, "--trace expects 0 or 1");
      opts.trace = value == "1";
    } else if (flag == "--trace-out") {
      opts.trace_out = value;
    } else {
      usage(program, "unknown flag " + flag);
    }
  }
  if (!have_workload) usage(program, "--workload is required");

  // One CPU for the whole run (see WORKLOADS.md, "One CPU"): rank handoffs
  // become same-CPU context switches, not wake-ups of other shared vCPUs.
  const int cpu = pin_to_one_cpu();
  if (cpu < 0) {
    std::fprintf(stderr, "%s: cannot pin the benchmark to one CPU\n", program);
    return 2;
  }
  std::fprintf(stderr, "%s: pinned to CPU %d\n", program, cpu);

  Report report;
  run_workload(opts, report);
  print_report(report);
  return report.correct ? 0 : 1;
}
