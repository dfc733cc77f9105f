// The benchmark's own tests: every correctness check must accept the
// program's real rows and reject a perturbed copy, naming the perturbed
// scenario, row and column. Exits 0 when every case behaves.
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>

#include "bevr/runner/runner.h"
#include "checks.h"

namespace {

using perfbench::CheckResult;
using perfbench::Table;

int g_failures = 0;

Table run(const std::string& name) {
  const auto* spec = bevr::runner::ScenarioRegistry::builtin().find(name);
  if (spec == nullptr) throw std::logic_error("no scenario " + name);
  bevr::runner::RunOptions options;
  bevr::runner::VectorSink sink;
  (void)bevr::runner::run_scenario(*spec, options, sink);
  Table table{name, sink.columns(), {}};
  for (const auto& row : sink.rows()) table.rows.push_back(row.values);
  return table;
}

const bevr::runner::ScenarioSpec& spec_of(const std::string& name) {
  return *bevr::runner::ScenarioRegistry::builtin().find(name);
}

void expect_pass(const std::string& label, const CheckResult& result) {
  if (result) {
    ++g_failures;
    std::printf("FAIL %s: real rows rejected: %s\n", label.c_str(),
                result->describe().c_str());
  } else {
    std::printf("ok   %s accepts the program's rows\n", label.c_str());
  }
}

/// Perturb one cell of a copy of `table`, run `check`, and expect a
/// failure naming that row and column.
void expect_reject(const std::string& label, const Table& table, std::size_t row,
                   const std::string& column, const std::function<double(double)>& edit,
                   const std::function<CheckResult(const Table&)>& check) {
  Table bad = table;
  double& cell = bad.rows.at(row).at(bad.column(column));
  cell = edit(cell);
  const CheckResult result = check(bad);
  if (!result) {
    ++g_failures;
    std::printf("FAIL %s: perturbed row %zu column %s accepted\n", label.c_str(),
                row, column.c_str());
  } else if (result->scenario != table.scenario || result->row != row ||
             result->column != column) {
    ++g_failures;
    std::printf("FAIL %s: wrong location: %s\n", label.c_str(),
                result->describe().c_str());
  } else {
    std::printf("ok   %s rejects row %zu column %s\n", label.c_str(), row,
                column.c_str());
  }
}

double next_up(double x) { return std::nextafter(x, INFINITY); }

}  // namespace

int main() {
  using namespace perfbench;
  try {
    const Table fig2 = run("fig2_rigid");
    const auto poisson = [&](const Table& t) { return check_poisson_rigid(t, 100.0); };
    expect_pass("poisson_rigid", poisson(fig2));
    expect_reject("poisson_rigid", fig2, 18, "best_effort",
                  [](double v) { return v + 1e-9; }, poisson);
    expect_reject("poisson_rigid", fig2, 9, "reservation",
                  [](double v) { return v - 1e-9; }, poisson);
    const auto dispatch = [](const Table& t) {
      return check_scenario(spec_of(t.scenario), t);
    };
    expect_pass("check_scenario", dispatch(fig2));
    expect_reject("check_scenario", fig2, 5, "reservation",
                  [](double v) { return v - 1e-6; }, dispatch);

    const Table fig3 = run("fig3_adaptive");
    expect_pass("variable_load_bounds", check_variable_load_bounds(fig3));
    const std::size_t b = fig3.column("best_effort");
    expect_reject("variable_load_bounds", fig3, 12, "best_effort",
                  [&](double) { return fig3.rows[12][fig3.column("reservation")] + 0.01; },
                  check_variable_load_bounds);
    expect_reject("variable_load_bounds", fig3, 20, "best_effort",
                  [&](double) { return fig3.rows[19][b] - 0.01; },
                  check_variable_load_bounds);
    expect_reject("variable_load_bounds", fig3, 39, "reservation",
                  [](double) { return 1.0 + 1e-9; }, check_variable_load_bounds);

    const Table fixed = run("fixed_load_adaptive");
    expect_pass("kmax_integer", check_kmax_integer(fixed));
    expect_reject("kmax_integer", fixed, 3, "k_max", [](double v) { return v + 1; },
                  check_kmax_integer);

    // The simulated scenarios go through check_scenario, so the tests
    // use the parameters the benchmark runs with (servers from the spec,
    // scored epochs = sim_horizon − sim_warmup).
    const Table erlang = run("admission_mmcc_erlang");
    expect_pass("admission_erlang", dispatch(erlang));
    const double ci3 = erlang.rows[2][erlang.column("ci3")];
    expect_reject("admission_erlang", erlang, 2, "sim_blocking",
                  [&](double v) { return v + 2.0 * ci3; }, dispatch);

    const Table meanfield = run("net2_meanfield_scale");
    const auto operating = [](const Table& t) {
      return check_meanfield_operating_point(t, 0.01);
    };
    expect_pass("meanfield_operating_point", operating(meanfield));
    expect_reject("meanfield_operating_point", meanfield, 4, "pair_load",
                  [](double v) { return v * 1.001; }, operating);

    const Table sim = run("sim_mm_inf_validation");
    expect_pass("simulation", dispatch(sim));
    // The program's own model_blocking column (a static Poisson snapshot)
    // is not the loss system's blocking; the check must tell them apart.
    expect_reject("simulation", sim, 2, "sim_blocking",
                  [&](double) { return sim.rows[2][sim.column("model_blocking")]; },
                  dispatch);
    expect_reject("simulation", sim, 3, "sim_best_effort",
                  [](double v) { return v - 0.05; }, dispatch);

    expect_pass("flow_balance", check_flow_balance("admission", 1, 10, 7, 3));
    if (!check_flow_balance("admission", 1, 10, 7, 2)) {
      ++g_failures;
      std::printf("FAIL flow_balance: unbalanced counters accepted\n");
    } else {
      std::printf("ok   flow_balance rejects offered != admitted + blocked\n");
    }

    const auto same = [&](const Table& t) { return check_identical(t, fig3); };
    expect_pass("identical", same(fig3));
    expect_reject("identical", fig3, 7, "delta", next_up, same);

    bevr::service::Response response;
    response.status = bevr::service::StatusCode::kOk;
    const auto& row = fig2.rows[15];
    response.capacity = row[fig2.column("capacity")];
    response.best_effort = row[fig2.column("best_effort")];
    response.reservation = row[fig2.column("reservation")];
    response.performance_gap = row[fig2.column("delta")];
    response.k_max = row[fig2.column("k_max")];
    response.blocking = row[fig2.column("blocking")];
    expect_pass("response", check_response(fig2, 15, response));
    const auto answered = [&](const Table& t) { return check_response(t, 15, response); };
    expect_reject("response", fig2, 15, "blocking", next_up, answered);
    bevr::service::Response shed = response;
    shed.status = bevr::service::StatusCode::kOverloaded;
    if (!check_response(fig2, 15, shed)) {
      ++g_failures;
      std::printf("FAIL response: a shed request was accepted\n");
    } else {
      std::printf("ok   response rejects a non-kOk status\n");
    }
  } catch (const std::exception& e) {
    std::printf("FAIL selftest: %s\n", e.what());
    return 1;
  }
  std::printf("%s\n", g_failures == 0 ? "selftest passed" : "selftest FAILED");
  return g_failures == 0 ? 0 : 1;
}
