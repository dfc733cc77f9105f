// Measurement plumbing shared by the benchmark's workloads: clocks,
// process CPU time and peak RSS, order statistics, obs-registry deltas,
// benchmark-side trace spans, and the result line the benchmark prints.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bevr/obs/metrics.h"
#include "bevr/obs/trace.h"

namespace perfbench {

/// One benchmark invocation, as parsed from the command line.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// CLOCK_MONOTONIC nanoseconds at which the launcher started this
  /// process; set-up time is measured from it.
  std::uint64_t start_ns = 0;
  /// Where the traced mode writes its Chrome trace-event JSON.
  std::string trace_out;
};

/// What a workload hands back to main: the four result-line fields.
/// `metrics` maps a metric name (from kEndToEnd or kPerLayer) to its
/// value; names the workload does not set print as 0.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics (untraced mode) and per-layer metrics (traced
/// mode), in print order. BENCHMARK.json lists the same names.
extern const std::vector<MetricDef> kEndToEnd;
extern const std::vector<MetricDef> kPerLayer;

/// Steady-clock nanoseconds (CLOCK_MONOTONIC on Linux, the clock the
/// launcher's time.monotonic_ns() reads).
[[nodiscard]] std::uint64_t monotonic_ns();
[[nodiscard]] double seconds_between(std::uint64_t from_ns, std::uint64_t to_ns);
/// CPU time of the whole process (all threads), seconds.
[[nodiscard]] double process_cpu_s();
/// Peak resident set (VmHWM) of this process, MiB.
[[nodiscard]] double peak_rss_mib();
/// Fixed memory-bound reference: a dependent random walk over an 8 MiB
/// array, a fixed number of steps. Its time tells a slow host period
/// apart from a slower program; it is printed, never reported as a
/// metric.
[[nodiscard]] double host_probe_s();

[[nodiscard]] double median(std::vector<double> values);
/// Linear-interpolation quantile of an ascending-sorted sample.
[[nodiscard]] double sorted_quantile(const std::vector<double>& sorted,
                                     double q);

/// Before/after view of the global obs registry.
class ObsDelta {
 public:
  ObsDelta();  ///< snapshots "before"
  void finish();  ///< snapshots "after"
  [[nodiscard]] double counter(const std::string& name) const;
  /// Quantile of the observations a histogram received in between.
  [[nodiscard]] double histogram_quantile(const std::string& name,
                                          double q) const;
  /// Sum of the observations a histogram received in between.
  [[nodiscard]] double histogram_sum(const std::string& name) const;

 private:
  bevr::obs::MetricsSnapshot before_;
  bevr::obs::MetricsSnapshot after_;
};

/// Per-layer values every workload reads the same way from obs counter
/// deltas: memo-cache hit ratio and the kernels' work counts.
/// `kernel_seconds` is the time spent in calls that evaluate through
/// the kernels, for kernels.ns_per_term.
void add_cache_and_kernel_layers(std::map<std::string, double>& layers,
                                 const ObsDelta& obs, double kernel_seconds);

/// numerator / denominator, or 0 when nothing was counted.
[[nodiscard]] double ratio(double numerator, double denominator);

/// Median over passes of each per-layer value the traced passes set.
[[nodiscard]] std::map<std::string, double> median_by_name(
    const std::vector<std::map<std::string, double>>& passes);

/// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
[[nodiscard]] std::string result_json(const Outcome& outcome, bool traced);

/// Write the global collector's spans as Chrome trace-event JSON.
void write_trace(const std::string& path);

}  // namespace perfbench
