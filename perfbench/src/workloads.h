// The benchmark's four workloads. Each one does a cold set-up, checks
// its outputs, then repeats fixed, seeded passes for the configured
// time. Untraced runs report end-to-end metrics; traced runs alternate
// untraced and traced passes and report per-layer metrics.
#pragma once

#include <string>
#include <vector>

#include "measure.h"

namespace perfbench {

/// analytic_sweeps, event_replay, registry_parallel.
[[nodiscard]] Outcome run_registry_workload(const RunConfig& config);
/// service_closed_loop.
[[nodiscard]] Outcome run_service_workload(const RunConfig& config);

[[nodiscard]] const std::vector<std::string>& workload_names();

}  // namespace perfbench
