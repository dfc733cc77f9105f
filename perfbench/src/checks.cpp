#include "checks.h"

#include <bit>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {

// The library documents 1e-12 as its external tolerance for analytic
// values; properties that hold exactly in real arithmetic get the same
// slack for rounding.
constexpr double kTolerance = 1e-12;

// Sampling tolerances for simulated quantities, in standard deviations
// σ = sqrt(p(1−p)/epochs) of a binomial estimate over the scored
// holding-time epochs (1800 in sim_mm_inf_validation). Over seeds 0–999
// blocking deviated at most 1.5σ for C ≤ 140, so 4σ leaves room and
// still rejects the static Poisson-snapshot blocking, 5.75σ off at
// C = k̄. Best-effort utility follows the slow occupancy process and
// spreads wider: its deviation had an RMS of 1.2σ at C = k̄ and reached
// 4.3σ over the same seeds. None of the 1000 seeds failed either check.
constexpr double kBlockingSigmas = 4.0;
constexpr double kUtilitySigmas = 12.0;
// Where blocking is rare (Erlang-B 8e-9 at C = 160), σ is far below one
// blocked flow and a single burst of blocked arrivals is many σ (one
// seed in 1000 blocked 2 flows at C = 160, 4.75σ). A burst ends at the
// next departure: at C = 160 each further arrival comes before it with
// odds 100/260, so 10 blocked flows of slack cover any burst.
constexpr double kBlockedFlowSlack = 10.0;

std::string format(double value) {
  char text[40];
  std::snprintf(text, sizeof text, "%.17g", value);
  return text;
}

Failure fail(const Table& table, std::size_t row, const std::string& column,
             const std::string& message) {
  return Failure{table.scenario, row, column, message};
}

CheckResult compare_value(const Table& table, std::size_t row,
                          const std::string& column, double got, double want,
                          double tolerance) {
  if (std::abs(got - want) <= tolerance) return std::nullopt;
  return fail(table, row, column,
              "got " + format(got) + ", reference " + format(want) +
                  ", tolerance " + format(tolerance));
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

double binomial_sigma(double p, double epochs) {
  return std::sqrt(std::max(p * (1.0 - p), 0.0) / epochs);
}

}  // namespace

std::size_t Table::column(const std::string& name) const {
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] == name) return i;
  }
  throw std::invalid_argument(scenario + ": no column '" + name + "'");
}

std::string Failure::describe() const {
  return "check failed: scenario " + scenario + ", row " +
         std::to_string(row) + ", column " + column + ": " + message;
}

double poisson_pmf(std::int64_t k, double mean) {
  const auto kd = static_cast<double>(k);
  return std::exp(kd * std::log(mean) - mean - std::lgamma(kd + 1.0));
}

double erlang_b(double load, std::int64_t servers) {
  double b = 1.0;
  for (std::int64_t n = 1; n <= servers; ++n) {
    b = load * b / (static_cast<double>(n) + load * b);
  }
  return b;
}

CheckResult check_poisson_rigid(const Table& table, double mean) {
  const std::size_t c_col = table.column("capacity");
  const std::size_t b_col = table.column("best_effort");
  const std::size_t r_col = table.column("reservation");
  // Terms beyond mean + 40·sqrt(mean) + 50 are below 1e-300.
  const auto k_end =
      static_cast<std::int64_t>(mean + 40.0 * std::sqrt(mean) + 50.0);
  for (std::size_t i = 0; i < table.rows.size(); ++i) {
    const double c = table.rows[i][c_col];
    const auto n = static_cast<std::int64_t>(std::floor(c));
    double served = 0.0;  // Σ_{k≤n} k·P(k)
    for (std::int64_t k = 1; k <= n; ++k) {
      served += static_cast<double>(k) * poisson_pmf(k, mean);
    }
    double tail = 0.0;  // P(k > n), summed directly: no 1 − x cancellation
    for (std::int64_t k = std::max<std::int64_t>(n + 1, 0);
         k <= std::max(k_end, n + 1); ++k) {
      tail += poisson_pmf(k, mean);
    }
    const double b = served / mean;
    const double r = b + static_cast<double>(n) * tail / mean;
    if (auto f = compare_value(table, i, "best_effort", table.rows[i][b_col], b,
                               kTolerance)) {
      return f;
    }
    if (auto f = compare_value(table, i, "reservation", table.rows[i][r_col], r,
                               kTolerance)) {
      return f;
    }
  }
  return std::nullopt;
}

CheckResult check_variable_load_bounds(const Table& table) {
  const std::size_t b_col = table.column("best_effort");
  const std::size_t r_col = table.column("reservation");
  for (std::size_t i = 0; i < table.rows.size(); ++i) {
    const double b = table.rows[i][b_col];
    const double r = table.rows[i][r_col];
    if (!(b >= -kTolerance)) {
      return fail(table, i, "best_effort", "B = " + format(b) + " < 0");
    }
    if (!(r <= 1.0 + kTolerance)) {
      return fail(table, i, "reservation", "R = " + format(r) + " > 1");
    }
    if (!(b <= r + kTolerance)) {
      return fail(table, i, "best_effort",
                  "B = " + format(b) + " > R = " + format(r));
    }
    if (i == 0) continue;
    if (!(b >= table.rows[i - 1][b_col] - kTolerance)) {
      return fail(table, i, "best_effort", "B decreases in C");
    }
    if (!(r >= table.rows[i - 1][r_col] - kTolerance)) {
      return fail(table, i, "reservation", "R decreases in C");
    }
  }
  return std::nullopt;
}

CheckResult check_kmax_integer(const Table& table) {
  const std::size_t c_col = table.column("capacity");
  const std::size_t k_col = table.column("k_max");
  for (std::size_t i = 0; i < table.rows.size(); ++i) {
    const double c = table.rows[i][c_col];
    const double whole = std::round(c);
    // Linear grids land a few ulps off integers (59.99999999999999).
    if (std::abs(c - whole) > 1e-9 * whole) continue;
    if (table.rows[i][k_col] != whole) {
      return fail(table, i, "k_max",
                  "k_max = " + format(table.rows[i][k_col]) + " at C = " +
                      format(c) + ", expected " + format(whole));
    }
  }
  return std::nullopt;
}

CheckResult check_admission_erlang(const Table& table, std::int64_t servers) {
  const std::size_t a_col = table.column("offered_load");
  const std::size_t s_col = table.column("sim_blocking");
  const std::size_t ci_col = table.column("ci3");
  for (std::size_t i = 0; i < table.rows.size(); ++i) {
    const auto& row = table.rows[i];
    if (auto f = compare_value(table, i, "sim_blocking", row[s_col],
                               erlang_b(row[a_col], servers), row[ci_col])) {
      return f;
    }
  }
  return std::nullopt;
}

CheckResult check_meanfield_operating_point(const Table& table, double target) {
  const std::size_t c_col = table.column("capacity");
  const std::size_t a_col = table.column("pair_load");
  for (std::size_t i = 0; i < table.rows.size(); ++i) {
    const auto servers = static_cast<std::int64_t>(table.rows[i][c_col]);
    if (auto f = compare_value(table, i, "pair_load",
                               erlang_b(table.rows[i][a_col], servers), target,
                               1e-9 * target)) {
      return f;
    }
  }
  return std::nullopt;
}

CheckResult check_simulation(const Table& table, double mean,
                             double scored_time) {
  const std::size_t lim_col = table.column("admission_limit");
  const std::size_t sb_col = table.column("sim_blocking");
  const std::size_t sbe_col = table.column("sim_best_effort");
  const std::size_t mbe_col = table.column("model_best_effort");
  // Holding times are Exp(1), so the scored window holds `scored_time`
  // independent holding-time epochs. Blocking is counted over at least
  // mean·scored_time arrivals, so `flow_slack` is worth at most
  // kBlockedFlowSlack blocked flows.
  const double epochs = scored_time;
  const double flow_slack = kBlockedFlowSlack / (mean * scored_time);
  for (std::size_t i = 0; i < table.rows.size(); ++i) {
    const auto& row = table.rows[i];
    const double blocking =
        erlang_b(mean, static_cast<std::int64_t>(row[lim_col]));
    if (auto f = compare_value(
            table, i, "sim_blocking", row[sb_col], blocking,
            kBlockingSigmas * binomial_sigma(blocking, epochs) + flow_slack)) {
      return f;
    }
    if (auto f = compare_value(
            table, i, "sim_best_effort", row[sbe_col], row[mbe_col],
            kUtilitySigmas * binomial_sigma(row[mbe_col], epochs) + kTolerance)) {
      return f;
    }
  }
  return std::nullopt;
}

CheckResult check_flow_balance(const std::string& layer, std::size_t pass,
                               double offered, double admitted,
                               double blocked) {
  if (offered == admitted + blocked) return std::nullopt;
  return Failure{layer, pass, layer + "/offered",
                 "offered " + format(offered) + " != admitted " +
                     format(admitted) + " + blocked " + format(blocked)};
}

CheckResult check_identical(const Table& got, const Table& want) {
  if (got.columns != want.columns) {
    return fail(got, 0, "columns", "column set differs from the reference run");
  }
  if (got.rows.size() != want.rows.size()) {
    return fail(got, got.rows.size(), "rows",
                "row count differs from the reference run");
  }
  for (std::size_t i = 0; i < got.rows.size(); ++i) {
    for (std::size_t j = 0; j < got.columns.size(); ++j) {
      if (!same_bits(got.rows[i][j], want.rows[i][j])) {
        return fail(got, i, got.columns[j],
                    format(got.rows[i][j]) + " differs from the reference run's " +
                        format(want.rows[i][j]));
      }
    }
  }
  return std::nullopt;
}

CheckResult check_response(const Table& want, std::size_t row,
                           const bevr::service::Response& got) {
  if (got.status != bevr::service::StatusCode::kOk) {
    return fail(want, row, "status",
                "response status " + bevr::service::to_string(got.status));
  }
  const auto& values = want.rows.at(row);
  const struct {
    const char* column;
    double value;
  } answered[] = {
      {"capacity", got.capacity},
      {"best_effort", got.best_effort},
      {"reservation", got.reservation},
      {"delta", got.performance_gap},
      {"k_max", got.k_max},
      {"blocking", got.blocking},
  };
  for (const auto& [column, value] : answered) {
    const double expected = values[want.column(column)];
    if (!same_bits(value, expected)) {
      return fail(want, row, column,
                  "service answered " + format(value) + ", runner row has " +
                      format(expected));
    }
  }
  return std::nullopt;
}

CheckResult check_scenario(const bevr::runner::ScenarioSpec& spec,
                           const Table& table) {
  using bevr::runner::ModelKind;
  if (spec.model == ModelKind::kVariableLoad) {
    if (auto f = check_variable_load_bounds(table)) return f;
  }
  if (spec.name == "fig2_rigid") return check_poisson_rigid(table, spec.load_mean);
  if (spec.name == "fixed_load_adaptive") return check_kmax_integer(table);
  if (spec.name == "admission_mmcc_erlang") {
    const auto& adm = spec.admission;
    return check_admission_erlang(
        table, static_cast<std::int64_t>(
                   std::floor(adm.capacity / adm.trace.rate + 1e-9)));
  }
  if (spec.name == "net2_meanfield_scale") {
    return check_meanfield_operating_point(table, spec.net2.mf_target_blocking);
  }
  if (spec.name == "sim_mm_inf_validation") {
    return check_simulation(table, spec.load_mean,
                            spec.sim_horizon - spec.sim_warmup);
  }
  return std::nullopt;
}

}  // namespace perfbench
