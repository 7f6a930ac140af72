// The benchmark's four workloads.  Each call sets up one workload from its
// seed, runs it to completion and checks its outputs; the caller repeats
// calls to fill the measuring time.  Why each workload exists is recorded
// in perfbench/layers.json and BENCHMARK.json.
#pragma once

#include <string_view>

#include "harness.hpp"

namespace perfbench {

/// What one call of a workload does: set up only (for the set-up time),
/// or set up and run, with or without the traced step loop.
enum class Mode { kSetup, kRun, kTraced };

struct Workload {
  std::string_view name;
  RepResult (*rep)(u64 seed, Mode mode);
};

/// Every workload, in BENCHMARK.json order.
const std::vector<Workload>& workloads();

}  // namespace perfbench
