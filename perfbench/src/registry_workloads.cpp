// analytic_sweeps, event_replay and registry_parallel: passes over a
// slice of the built-in scenario registry through runner::run_scenario,
// each pass with a fresh MemoCache shared by its scenarios, as one
// bevr_run invocation over those scenarios would do.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bevr/obs/trace.h"
#include "bevr/runner/runner.h"
#include "checks.h"
#include "workloads.h"

namespace perfbench {

namespace {

using bevr::runner::ModelKind;
using bevr::runner::ScenarioSpec;

bool event_driven(const ScenarioSpec& spec) {
  return spec.model == ModelKind::kSimulation ||
         spec.model == ModelKind::kAdmission || spec.model == ModelKind::kNet2;
}

std::vector<const ScenarioSpec*> select_scenarios(const std::string& workload) {
  std::vector<const ScenarioSpec*> specs;
  for (const ScenarioSpec& spec : bevr::runner::ScenarioRegistry::builtin().all()) {
    const bool keep = workload == "registry_parallel" ||
                      (workload == "event_replay") == event_driven(spec);
    if (keep) specs.push_back(&spec);
  }
  return specs;
}

const char* model_metric(ModelKind kind) {
  switch (kind) {
    case ModelKind::kVariableLoad: return "runner.model.variable_load_s";
    case ModelKind::kWelfare: return "runner.model.welfare_s";
    case ModelKind::kFixedLoad: return "runner.model.fixed_load_s";
    case ModelKind::kContinuum: return "runner.model.continuum_s";
    case ModelKind::kSimulation: return "runner.model.simulation_s";
    case ModelKind::kAdmission: return "runner.model.admission_s";
    case ModelKind::kNet2: return "runner.model.net2_s";
  }
  throw std::invalid_argument("unknown model kind");
}

struct Pass {
  double wall_s = 0.0;
  std::vector<Table> tables;             ///< one per scenario, in order
  std::vector<double> scenario_wall_s;   ///< run_scenario time per scenario
  std::vector<double> scenario_cpu_s;    ///< process CPU time per scenario
  std::map<std::string, double> layers;  ///< per-layer values of this pass
  std::vector<Failure> failures;         ///< engine counter balance
};

class RegistryBench {
 public:
  RegistryBench(const RunConfig& config, std::vector<const ScenarioSpec*> specs,
                unsigned threads)
      : config_(config), specs_(std::move(specs)), threads_(threads) {
    if (threads_ > 1) pool_ = std::make_unique<bevr::runner::ThreadPool>(threads_);
    for (const ScenarioSpec* spec : specs_) {
      span_names_.push_back("runner/" + spec->name);
    }
  }

  /// One pass over every scenario. `pooled` = false runs the pass at 1
  /// thread whatever the workload's thread count (the reference run).
  Pass run(std::uint64_t index, bool pooled) {
    bevr::runner::RunOptions options;
    options.base_seed = config_.seed;
    options.threads = 1;
    options.pool = pooled ? pool_.get() : nullptr;
    options.cache = std::make_shared<bevr::runner::MemoCache>();
    std::vector<bevr::runner::VectorSink> sinks(specs_.size());
    std::vector<bevr::runner::RunSummary> summaries(specs_.size());

    Pass pass;
    pass.scenario_wall_s.resize(specs_.size());
    pass.scenario_cpu_s.resize(specs_.size());
    ObsDelta obs;
    const bevr::obs::TraceContext context =
        bevr::obs::TraceContext::derive(config_.seed, index);
    const std::uint64_t start = monotonic_ns();
    {
      const bevr::obs::TraceSpan pass_span("bench/pass", context);
      for (std::size_t i = 0; i < specs_.size(); ++i) {
        const double scenario_cpu = process_cpu_s();
        const std::uint64_t scenario_start = monotonic_ns();
        {
          const bevr::obs::TraceSpan span(span_names_[i].c_str(), context.child(i));
          summaries[i] = bevr::runner::run_scenario(*specs_[i], options, sinks[i]);
        }
        pass.scenario_wall_s[i] = seconds_between(scenario_start, monotonic_ns());
        pass.scenario_cpu_s[i] = process_cpu_s() - scenario_cpu;
      }
    }
    pass.wall_s = seconds_between(start, monotonic_ns());
    obs.finish();

    for (std::size_t i = 0; i < specs_.size(); ++i) {
      Table table{specs_[i]->name, sinks[i].columns(), {}};
      for (const auto& row : sinks[i].rows()) table.rows.push_back(row.values);
      pass.tables.push_back(std::move(table));
    }
    record_layers(pass, summaries, obs, pooled ? threads_ : 1);
    for (const char* layer : {"admission", "net2"}) {
      const std::string prefix = std::string(layer) + "/";
      if (auto f = check_flow_balance(layer, index, obs.counter(prefix + "offered"),
                                      obs.counter(prefix + "admitted"),
                                      obs.counter(prefix + "blocked"))) {
        pass.failures.push_back(*f);
      }
    }
    return pass;
  }

  [[nodiscard]] const std::vector<const ScenarioSpec*>& specs() const {
    return specs_;
  }

 private:
  void record_layers(Pass& pass,
                     const std::vector<bevr::runner::RunSummary>& summaries,
                     const ObsDelta& obs, unsigned threads) const {
    auto& m = pass.layers;
    double task_s = 0.0;
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      m["runner.expand_s"] += summaries[i].expand_seconds;
      m["runner.execute_s"] += summaries[i].execute_seconds;
      m["runner.emit_s"] += summaries[i].emit_seconds;
      m[model_metric(specs_[i]->model)] += pass.scenario_wall_s[i];
      task_s += summaries[i].task_seconds_total;
      if (specs_[i]->name == "net2_meanfield_scale") {
        m["net2.meanfield_s"] = pass.scenario_wall_s[i];
      }
    }
    add_cache_and_kernel_layers(
        m, obs, m["runner.model.variable_load_s"] + m["runner.model.welfare_s"]);
    m["runner.pool.queue_wait_us_p50"] =
        obs.histogram_quantile("runner/pool/queue_wait_us", 0.5);
    m["runner.pool.busy_ratio"] =
        ratio(task_s, threads * m["runner.execute_s"]);

    const double events = obs.counter("sim/events");
    m["sim.events"] = events;
    m["sim.ns_per_event"] = ratio(1e9 * m["runner.model.simulation_s"], events);

    const double offered = obs.counter("admission/offered");
    m["admission.offered"] = offered;
    m["admission.counteroffers"] = obs.counter("admission/counteroffers");
    m["admission.ns_per_request"] =
        ratio(1e9 * m["runner.model.admission_s"], offered);

    const double calls = obs.counter("net2/offered");
    m["net2.offered"] = calls;
    m["net2.alternate_share"] = ratio(obs.counter("net2/alternate_routed"),
                                      obs.counter("net2/admitted"));
    // The mean-field scenario replays no calls; leave it out of the
    // per-call cost.
    m["net2.ns_per_request"] =
        ratio(1e9 * (m["runner.model.net2_s"] - m["net2.meanfield_s"]), calls);
  }

  const RunConfig& config_;
  std::vector<const ScenarioSpec*> specs_;
  /// The trace collector stores span names by pointer; these live as
  /// long as the bench, which outlasts the trace export.
  std::vector<std::string> span_names_;
  unsigned threads_;
  std::unique_ptr<bevr::runner::ThreadPool> pool_;
};

void report(Outcome& outcome, const Failure& failure) {
  std::fprintf(stderr, "%s\n", failure.describe().c_str());
  outcome.correct = false;
}

/// Timed passes must reproduce the reference rows bit for bit, and the
/// engines' counters must balance.
void verify_pass(Outcome& outcome, const Pass& pass,
                 const std::vector<Table>& reference) {
  for (std::size_t i = 0; i < pass.tables.size(); ++i) {
    if (auto f = check_identical(pass.tables[i], reference[i])) report(outcome, *f);
  }
  for (const Failure& f : pass.failures) report(outcome, f);
}

/// The time of one pass: each scenario's median over `passes`, summed,
/// so a slow stretch inside one pass does not move the figure.
double pass_time(const std::vector<Pass>& passes,
                 std::vector<double> Pass::*per_scenario) {
  double total = 0.0;
  const std::size_t scenarios = (passes.front().*per_scenario).size();
  for (std::size_t i = 0; i < scenarios; ++i) {
    std::vector<double> samples;
    for (const Pass& p : passes) samples.push_back((p.*per_scenario)[i]);
    total += median(samples);
  }
  return total;
}

}  // namespace

Outcome run_registry_workload(const RunConfig& config) {
  // registry_parallel is the one pooled workload; it never asks for more
  // threads than the host has.
  const unsigned threads =
      config.workload == "registry_parallel"
          ? std::clamp(std::thread::hardware_concurrency(), 1U, 4U)
          : 1U;
  RegistryBench bench(config, select_scenarios(config.workload), threads);
  Outcome outcome;

  // Cold set-up: everything up to the first complete answer to every
  // scenario of the workload, as a user of bevr_run pays it.
  const Pass cold = bench.run(0, true);
  outcome.metrics["setup_s"] = seconds_between(config.start_ns, monotonic_ns());

  // Reference rows: a 1-thread pass of the same seed, untimed. The
  // pooled workload must reproduce it exactly.
  const std::vector<Table> reference =
      threads > 1 ? bench.run(0, false).tables : cold.tables;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    if (auto f = check_scenario(*bench.specs()[i], reference[i])) {
      report(outcome, *f);
    }
  }
  verify_pass(outcome, cold, reference);

  std::vector<Pass> untraced;
  std::vector<Pass> traced;
  const std::uint64_t start = monotonic_ns();
  for (std::uint64_t index = 1;; ++index) {
    const bool trace_this = config.trace && index % 2 == 0;
    bevr::obs::TraceCollector::global().set_enabled(trace_this);
    Pass pass = bench.run(index, true);
    bevr::obs::TraceCollector::global().set_enabled(false);
    verify_pass(outcome, pass, reference);
    outcome.attempted += bench.specs().size();
    pass.tables.clear();
    const double last_wall = pass.wall_s;
    (trace_this ? traced : untraced).push_back(std::move(pass));
    // Start another pass only if at least half of it would fall inside
    // the measured time.
    const bool timed_out =
        seconds_between(start, monotonic_ns()) + last_wall / 2 >= config.seconds;
    if (timed_out && (!config.trace || !traced.empty())) break;
  }

  if (config.trace) {
    std::vector<std::map<std::string, double>> layers;
    for (const Pass& p : traced) layers.push_back(p.layers);
    outcome.metrics = median_by_name(layers);
    outcome.metrics["obs.trace_overhead"] =
        pass_time(traced, &Pass::scenario_wall_s) /
        pass_time(untraced, &Pass::scenario_wall_s);
    write_trace(config.trace_out);
    return outcome;
  }

  std::size_t rows = 0;
  for (const Table& t : reference) rows += t.rows.size();
  // Per-scenario latency: each scenario's median run_scenario time over
  // the timed passes, then quantiles across the workload's scenarios.
  std::vector<double> scenario_us;
  for (std::size_t i = 0; i < bench.specs().size(); ++i) {
    std::vector<double> samples;
    for (const Pass& p : untraced) samples.push_back(p.scenario_wall_s[i]);
    scenario_us.push_back(1e6 * median(samples));
  }
  std::sort(scenario_us.begin(), scenario_us.end());
  std::string walls;
  for (const Pass& p : untraced) walls += " " + std::to_string(p.wall_s);
  std::fprintf(stderr, "%zu timed passes, wall s:%s\n", untraced.size(),
               walls.c_str());

  outcome.metrics["pass_s"] = pass_time(untraced, &Pass::scenario_wall_s);
  outcome.metrics["pass_cpu_s"] = pass_time(untraced, &Pass::scenario_cpu_s);
  outcome.metrics["throughput_rps"] =
      static_cast<double>(rows) / outcome.metrics["pass_s"];
  outcome.metrics["latency_p50_us"] = sorted_quantile(scenario_us, 0.50);
  outcome.metrics["latency_p99_us"] = sorted_quantile(scenario_us, 0.99);
  outcome.metrics["peak_rss_mib"] = peak_rss_mib();
  return outcome;
}

}  // namespace perfbench
