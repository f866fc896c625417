#pragma once

#include <string>

#include "bench.hpp"

/// \file workloads.hpp
/// The two named workloads (see WORKLOADS.md for why each was chosen).

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// false: end-to-end metrics, no spans. true: per-layer metrics from a
  /// run that records benchmark-side spans.
  bool trace = false;
  /// Where the traced run writes its spans ("" = keep them in memory only).
  std::string trace_out;
};

bool is_workload(const std::string& name);
/// Names of every workload, comma separated (for usage messages).
const char* workload_names();

/// Set up, measure and check one workload; fills `report`. Library
/// exceptions are caught and recorded as failures.
void run_workload(const RunOptions& opts, Report& report);

}  // namespace perfbench
