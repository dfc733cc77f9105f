// service_closed_loop: two closed-loop clients against a two-worker
// service::Server. Each client cycles its own slice of variable-load
// queries; the slices share no scenario, so no two in-flight requests
// ever coalesce or batch together and every pass does the same work.
#include <algorithm>
#include <barrier>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "bevr/obs/trace.h"
#include "bevr/runner/runner.h"
#include "bevr/service/server.h"
#include "checks.h"
#include "workloads.h"

namespace perfbench {

namespace {

using bevr::service::Response;

constexpr unsigned kWorkers = 2;
/// Scenarios per client. Every point evaluates in well under 0.1 ms.
const std::vector<std::vector<std::string>> kSlices = {
    {"fig2_rigid", "fig2_adaptive", "fig4_rigid"},
    {"fig3_rigid", "fig3_adaptive"},
};
/// Requests each client issues per pass (10 and 15 cycles of its slice).
constexpr std::size_t kRequestsPerClient = 1200;

struct Slot {
  std::size_t table = 0;  ///< index into the reference tables
  std::size_t row = 0;    ///< grid index = reference row
  bevr::service::Query query;
};

/// What a pass keeps per request.
struct Sample {
  double latency_us = 0.0;
  double queue_us = 0.0;
  double total_us = 0.0;
  double batch_rows = 0.0;
};

struct Client {
  std::vector<Slot> slice;
  std::size_t next = 0;
  std::vector<Sample> samples;  ///< the current pass
  std::uint64_t failed = 0;
  std::vector<Failure> failures;
};

/// Seeded Fisher–Yates over SplitMix64: the order each client cycles.
void shuffle(std::vector<Slot>& slots, std::uint64_t seed) {
  std::uint64_t state = seed;
  for (std::size_t i = slots.size(); i > 1; --i) {
    state = bevr::obs::mix64(state);
    std::swap(slots[i - 1], slots[state % i]);
  }
}

Table reference_table(const bevr::runner::ScenarioSpec& spec) {
  bevr::runner::RunOptions options;
  options.threads = 1;
  bevr::runner::VectorSink sink;
  (void)bevr::runner::run_scenario(spec, options, sink);
  Table table{spec.name, sink.columns(), {}};
  for (const auto& row : sink.rows()) table.rows.push_back(row.values);
  return table;
}

}  // namespace

Outcome run_service_workload(const RunConfig& config) {
  const auto& registry = bevr::runner::ScenarioRegistry::builtin();
  Outcome outcome;

  // Workset: every grid point of each slice's scenarios.
  std::vector<const bevr::runner::ScenarioSpec*> specs;
  std::vector<Client> clients(kSlices.size());
  for (std::size_t c = 0; c < kSlices.size(); ++c) {
    clients[c].samples.reserve(kRequestsPerClient);
    for (const std::string& name : kSlices[c]) {
      const bevr::runner::ScenarioSpec* spec = registry.find(name);
      if (spec == nullptr) throw std::logic_error("no scenario " + name);
      const std::vector<double> grid = spec->grid.values();
      for (std::size_t i = 0; i < grid.size(); ++i) {
        clients[c].slice.push_back(Slot{specs.size(), i, {name, grid[i], false}});
      }
      specs.push_back(spec);
    }
    shuffle(clients[c].slice, config.seed ^ bevr::obs::mix64(c));
  }

  // Cold set-up: server construction plus one answer to every workset
  // query, which builds each scenario's model and load table.
  bevr::service::Server::Options options;
  options.workers = kWorkers;
  options.trace_seed = config.seed;
  bevr::service::Server server(options);
  std::vector<std::pair<const Slot*, Response>> cold;
  for (const Client& client : clients) {
    for (const Slot& slot : client.slice) {
      cold.emplace_back(&slot, server.submit(slot.query).get());
    }
  }
  outcome.metrics["setup_s"] = seconds_between(config.start_ns, monotonic_ns());

  // Reference rows from the runner, untimed, checked on their own.
  std::vector<Table> reference;
  for (const auto* spec : specs) {
    reference.push_back(reference_table(*spec));
    if (auto f = check_scenario(*spec, reference.back())) {
      outcome.correct = false;
      std::fprintf(stderr, "%s\n", f->describe().c_str());
    }
  }
  for (const auto& [slot, response] : cold) {
    if (auto f = check_response(reference[slot->table], slot->row, response)) {
      outcome.correct = false;
      std::fprintf(stderr, "%s\n", f->describe().c_str());
    }
  }

  // Timed loop. The main thread opens and closes each pass on a barrier
  // and reads the clients' records only while they wait on it.
  std::barrier<> gate(static_cast<std::ptrdiff_t>(clients.size() + 1));
  bool stop = false;
  bool traced_pass = false;
  std::uint64_t pass_index = 0;
  const auto client_loop = [&](Client& client) {
    for (;;) {
      gate.arrive_and_wait();  // pass opens
      if (stop) return;
      const bevr::obs::TraceContext pass_context =
          bevr::obs::TraceContext::derive(config.seed, pass_index);
      client.samples.clear();
      for (std::size_t j = 0; j < kRequestsPerClient; ++j) {
        const Slot& slot = client.slice[client.next];
        client.next = (client.next + 1) % client.slice.size();
        try {
          const std::uint64_t start = monotonic_ns();
          Response response;
          {
            const bevr::obs::TraceSpan span("service/request",
                                            pass_context.child(j));
            response = server.submit(slot.query).get();
          }
          const double latency_us = 1e-3 * static_cast<double>(monotonic_ns() - start);
          if (response.status != bevr::service::StatusCode::kOk) ++client.failed;
          if (auto f = check_response(reference[slot.table], slot.row, response)) {
            if (client.failures.empty()) client.failures.push_back(*f);
          }
          client.samples.push_back(Sample{latency_us, response.queue_us,
                                          response.total_us,
                                          static_cast<double>(response.batch_rows)});
        } catch (const std::exception& e) {
          ++client.failed;
          if (client.failures.empty()) {
            client.failures.push_back(Failure{slot.query.scenario, slot.row,
                                              "status", e.what()});
          }
        }
      }
      gate.arrive_and_wait();  // pass closes
    }
  };
  std::vector<std::thread> threads;
  for (Client& client : clients) threads.emplace_back(client_loop, std::ref(client));

  const double requests_per_pass =
      static_cast<double>(kRequestsPerClient * clients.size());
  std::vector<double> untraced_wall, untraced_cpu, traced_wall;
  std::vector<double> p50_us, p99_us;  // per untraced pass
  std::vector<std::map<std::string, double>> layers;
  auto& collector = bevr::obs::TraceCollector::global();
  const std::uint64_t loop_start = monotonic_ns();
  for (pass_index = 1;; ++pass_index) {
    traced_pass = config.trace && pass_index % 2 == 0;
    if (traced_pass) collector.clear();  // the trace file keeps one pass
    collector.set_enabled(traced_pass);
    ObsDelta obs;
    const double cpu_start = process_cpu_s();
    const std::uint64_t start = monotonic_ns();
    gate.arrive_and_wait();
    gate.arrive_and_wait();
    const double wall = seconds_between(start, monotonic_ns());
    const double cpu = process_cpu_s() - cpu_start;
    collector.set_enabled(false);
    obs.finish();
    outcome.attempted += static_cast<std::uint64_t>(requests_per_pass);

    if (traced_pass) {
      traced_wall.push_back(wall);
      std::vector<double> queue, server_us, client_wait;
      double batch_rows = 0.0;
      for (const Client& client : clients) {
        for (const Sample& s : client.samples) {
          queue.push_back(s.queue_us);
          server_us.push_back(s.total_us);
          client_wait.push_back(s.latency_us - s.total_us);
          batch_rows += s.batch_rows;
        }
      }
      std::map<std::string, double> m;
      m["service.queue_us_p50"] = median(queue);
      m["service.server_us_p50"] = median(server_us);
      m["service.client_wait_us_p50"] = median(client_wait);
      m["service.eval_us_p50"] = obs.histogram_quantile("service/eval_us", 0.5);
      m["service.batch_rows_mean"] =
          ratio(batch_rows, static_cast<double>(queue.size()));
      m["service.evaluations_per_request"] =
          obs.counter("service/evaluations") / requests_per_pass;
      add_cache_and_kernel_layers(m, obs,
                                  1e-6 * obs.histogram_sum("service/eval_us"));
      layers.push_back(std::move(m));
    } else {
      untraced_wall.push_back(wall);
      untraced_cpu.push_back(cpu);
      // Latency quantiles per pass (2400 requests leave 24 beyond p99),
      // then the median over passes: a stalled stretch of the host
      // moves one pass, not the run's figure.
      std::vector<double> latencies;
      for (const Client& client : clients) {
        for (const Sample& s : client.samples) latencies.push_back(s.latency_us);
      }
      std::sort(latencies.begin(), latencies.end());
      p50_us.push_back(sorted_quantile(latencies, 0.50));
      p99_us.push_back(sorted_quantile(latencies, 0.99));
    }
    const bool timed_out = seconds_between(loop_start, monotonic_ns()) >= config.seconds;
    if (timed_out && (!config.trace || !traced_wall.empty())) break;
  }
  stop = true;
  gate.arrive_and_wait();
  for (std::thread& t : threads) t.join();
  server.shutdown();

  for (const Client& client : clients) {
    outcome.failed += client.failed;
    for (const Failure& f : client.failures) {
      outcome.correct = false;
      std::fprintf(stderr, "%s\n", f.describe().c_str());
    }
  }
  if (outcome.failed != 0) {
    outcome.correct = false;
    std::fprintf(stderr, "%llu requests did not resolve kOk\n",
                 static_cast<unsigned long long>(outcome.failed));
  }

  if (config.trace) {
    outcome.metrics = median_by_name(layers);
    outcome.metrics["obs.trace_overhead"] = median(traced_wall) / median(untraced_wall);
    write_trace(config.trace_out);
    return outcome;
  }
  outcome.metrics["pass_s"] = median(untraced_wall);
  outcome.metrics["pass_cpu_s"] = median(untraced_cpu);
  outcome.metrics["throughput_rps"] = requests_per_pass / outcome.metrics["pass_s"];
  outcome.metrics["latency_p50_us"] = median(p50_us);
  outcome.metrics["latency_p99_us"] = median(p99_us);
  outcome.metrics["peak_rss_mib"] = peak_rss_mib();
  return outcome;
}

}  // namespace perfbench
