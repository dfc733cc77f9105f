#include "measure.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace perfbench {

const std::vector<MetricDef> kEndToEnd = {
    {"pass_s", "s"},           {"pass_cpu_s", "s"},
    {"peak_rss_mib", "MiB"},   {"throughput_rps", "req/s"},
    {"latency_p50_us", "us"},  {"latency_p99_us", "us"},
    {"setup_s", "s"},
};

const std::vector<MetricDef> kPerLayer = {
    {"runner.expand_s", "s"},
    {"runner.execute_s", "s"},
    {"runner.emit_s", "s"},
    {"runner.model.variable_load_s", "s"},
    {"runner.model.welfare_s", "s"},
    {"runner.model.fixed_load_s", "s"},
    {"runner.model.continuum_s", "s"},
    {"runner.model.simulation_s", "s"},
    {"runner.model.admission_s", "s"},
    {"runner.model.net2_s", "s"},
    {"runner.cache.hit_ratio", "ratio"},
    {"runner.pool.queue_wait_us_p50", "us"},
    {"runner.pool.busy_ratio", "ratio"},
    {"kernels.batch_terms", "count"},
    {"kernels.table_builds", "count"},
    {"kernels.table_terms", "count"},
    {"kernels.kmax.probes", "count"},
    {"kernels.kmax.warm_ratio", "ratio"},
    {"kernels.ns_per_term", "ns"},
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"admission.offered", "count"},
    {"admission.counteroffers", "count"},
    {"admission.ns_per_request", "ns"},
    {"net2.offered", "count"},
    {"net2.alternate_share", "ratio"},
    {"net2.ns_per_request", "ns"},
    {"net2.meanfield_s", "s"},
    {"service.queue_us_p50", "us"},
    {"service.server_us_p50", "us"},
    {"service.eval_us_p50", "us"},
    {"service.client_wait_us_p50", "us"},
    {"service.batch_rows_mean", "rows"},
    {"service.evaluations_per_request", "ratio"},
    {"obs.trace_overhead", "ratio"},
};

std::uint64_t monotonic_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double seconds_between(std::uint64_t from_ns, std::uint64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

double process_cpu_s() {
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) {
    throw std::runtime_error("clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
  }
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

double host_probe_s() {
  // One random cycle through 1 Mi slots (8 MiB): each load depends on
  // the previous one, so the time is memory latency, not bandwidth.
  constexpr std::size_t kSlots = std::size_t{1} << 20;
  constexpr std::size_t kSteps = std::size_t{1} << 22;
  std::vector<std::uint64_t> next(kSlots);
  std::vector<std::uint64_t> order(kSlots);
  std::iota(order.begin(), order.end(), std::uint64_t{0});
  std::uint64_t state = 0x2545F4914F6CDD1DULL;  // fixed: same walk every run
  for (std::size_t i = kSlots - 1; i > 0; --i) {
    state = bevr::obs::mix64(state);
    std::swap(order[i], order[state % (i + 1)]);
  }
  for (std::size_t i = 0; i < kSlots; ++i) {
    next[order[i]] = order[(i + 1) % kSlots];
  }
  const std::uint64_t start = monotonic_ns();
  std::uint64_t at = 0;
  for (std::size_t i = 0; i < kSteps; ++i) at = next[at];
  const std::uint64_t end = monotonic_ns();
  if (at >= kSlots) throw std::logic_error("host probe walked off its array");
  return seconds_between(start, end);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return sorted_quantile(values, 0.5);
}

double sorted_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

ObsDelta::ObsDelta() : before_(bevr::obs::MetricsRegistry::global().snapshot()) {}

void ObsDelta::finish() {
  after_ = bevr::obs::MetricsRegistry::global().snapshot();
}

double ObsDelta::counter(const std::string& name) const {
  return static_cast<double>(after_.counter(name) - before_.counter(name));
}

double ObsDelta::histogram_quantile(const std::string& name, double q) const {
  const bevr::obs::HistogramSnapshot* after = after_.histogram(name);
  if (after == nullptr) return 0.0;
  bevr::obs::HistogramSnapshot delta = *after;
  if (const bevr::obs::HistogramSnapshot* before = before_.histogram(name)) {
    for (std::size_t i = 0; i < delta.counts.size(); ++i) {
      delta.counts[i] -= before->counts[i];
    }
    delta.count -= before->count;
    delta.sum -= before->sum;
  }
  return delta.count == 0 ? 0.0 : delta.quantile(q);
}

double ObsDelta::histogram_sum(const std::string& name) const {
  const bevr::obs::HistogramSnapshot* after = after_.histogram(name);
  const bevr::obs::HistogramSnapshot* before = before_.histogram(name);
  if (after == nullptr) return 0.0;
  return after->sum - (before == nullptr ? 0.0 : before->sum);
}

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

void add_cache_and_kernel_layers(std::map<std::string, double>& layers,
                                 const ObsDelta& obs, double kernel_seconds) {
  const double hits = obs.counter("runner/cache/hits");
  layers["runner.cache.hit_ratio"] =
      ratio(hits, hits + obs.counter("runner/cache/misses"));
  const double terms = obs.counter("kernels/batch_terms");
  layers["kernels.batch_terms"] = terms;
  layers["kernels.table_builds"] = obs.counter("kernels/table_builds");
  layers["kernels.table_terms"] = obs.counter("kernels/table_terms");
  layers["kernels.kmax.probes"] = obs.counter("kernels/kmax/probes");
  const double warm = obs.counter("kernels/kmax/warm_hits");
  layers["kernels.kmax.warm_ratio"] =
      ratio(warm, warm + obs.counter("kernels/kmax/cold_starts"));
  layers["kernels.ns_per_term"] = ratio(1e9 * kernel_seconds, terms);
}

std::map<std::string, double> median_by_name(
    const std::vector<std::map<std::string, double>>& passes) {
  std::map<std::string, std::vector<double>> samples;
  for (const auto& pass : passes) {
    for (const auto& [name, value] : pass) samples[name].push_back(value);
  }
  std::map<std::string, double> out;
  for (auto& [name, values] : samples) out[name] = median(std::move(values));
  return out;
}

std::string result_json(const Outcome& outcome, bool traced) {
  const std::vector<MetricDef>& defs = traced ? kPerLayer : kEndToEnd;
  for (const auto& [name, value] : outcome.metrics) {
    const bool known = std::any_of(defs.begin(), defs.end(),
                                   [&](const MetricDef& d) { return name == d.name; });
    if (!known) throw std::logic_error("workload set unknown metric '" + name + "'");
  }
  std::ostringstream out;
  out << "{\"correct\": " << (outcome.correct ? "true" : "false")
      << ", \"attempted\": " << outcome.attempted
      << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
  char value[64];
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = outcome.metrics.find(defs[i].name);
    std::snprintf(value, sizeof value, "%.17g",
                  it == outcome.metrics.end() ? 0.0 : it->second);
    out << (i == 0 ? "" : ", ") << '"' << defs[i].name << "\": {\"value\": "
        << value << ", \"unit\": \"" << defs[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

void write_trace(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  bevr::obs::TraceCollector::global().write_chrome_trace(out);
}

}  // namespace perfbench
