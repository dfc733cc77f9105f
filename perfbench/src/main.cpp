// bevr_perfbench: runs one named workload in one process and prints one
// JSON result line. See perfbench/README.md.
//
//   bevr_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--start-ns NS] [--trace-out FILE]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "measure.h"
#include "workloads.h"

namespace {

int usage(const char* message) {
  std::fprintf(stderr,
               "bevr_perfbench: %s\n"
               "usage: bevr_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--start-ns NS] [--trace-out FILE]\n",
               message);
  return 2;
}

bool parse_unsigned(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  try {
    out = std::stoull(text);
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  config.start_ns = monotonic_ns();
  std::uint64_t seconds = 0;
  std::uint64_t trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    bool ok = true;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      ok = parse_unsigned(value, config.seed);
    } else if (flag == "--seconds") {
      ok = parse_unsigned(value, seconds) && seconds >= 1 && seconds <= 600;
    } else if (flag == "--trace") {
      ok = parse_unsigned(value, trace) && trace <= 1;
    } else if (flag == "--start-ns") {
      ok = parse_unsigned(value, config.start_ns) && config.start_ns <= monotonic_ns();
    } else if (flag == "--trace-out") {
      config.trace_out = value;
    } else {
      return usage(("unknown option " + flag).c_str());
    }
    if (!ok) return usage(("bad value for " + flag + ": " + value).c_str());
  }
  bool known = false;
  for (const std::string& name : workload_names()) known = known || name == config.workload;
  if (!known) return usage(("unknown workload '" + config.workload + "'").c_str());
  if (seconds == 0) return usage("--seconds is required");
  config.seconds = static_cast<double>(seconds);
  config.trace = trace == 1;
  if (config.trace && config.trace_out.empty()) {
    config.trace_out = "trace_" + config.workload + ".json";
  }

  try {
    const Outcome outcome = config.workload == "service_closed_loop"
                                ? run_service_workload(config)
                                : run_registry_workload(config);
    // Reference figure for the host, not a metric: a slow host period
    // shows here as well as in the workload's times.
    std::fprintf(stderr, "host_probe_s=%.6f\n", host_probe_s());
    std::printf("%s\n", result_json(outcome, config.trace).c_str());
    return outcome.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bevr_perfbench: %s\n", e.what());
    return 1;
  }
}

namespace perfbench {

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "analytic_sweeps", "event_replay", "registry_parallel",
      "service_closed_loop"};
  return names;
}

}  // namespace perfbench
