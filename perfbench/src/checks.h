// Correctness checks for the benchmark's outputs. Each check compares
// the program's rows against a reference computed here, apart from the
// program (log-space Poisson sums, the Erlang-B recursion), or against
// a property the method must have. A failing check names the scenario,
// row and column it failed on.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bevr/runner/scenario.h"
#include "bevr/service/request.h"

namespace perfbench {

/// One scenario's output: its column names and rows, in grid order.
struct Table {
  std::string scenario;
  std::vector<std::string> columns;
  std::vector<std::vector<double>> rows;

  /// Index of `name`; throws std::invalid_argument when absent.
  [[nodiscard]] std::size_t column(const std::string& name) const;
};

struct Failure {
  std::string scenario;
  std::size_t row = 0;
  std::string column;
  std::string message;

  [[nodiscard]] std::string describe() const;
};

using CheckResult = std::optional<Failure>;

// ---- independent references -------------------------------------------

/// Poisson(mean) probability of k, from its logarithm.
[[nodiscard]] double poisson_pmf(std::int64_t k, double mean);
/// Erlang-B blocking of `servers` circuits offered `load` erlangs, by
/// the recursion B(0) = 1, B(n) = a·B(n−1) / (n + a·B(n−1)).
[[nodiscard]] double erlang_b(double load, std::int64_t servers);

// ---- checks -----------------------------------------------------------

/// Rigid apps under Poisson load (fig2_rigid): with n = k_max = ⌊C⌋,
/// B = (1/k̄)·Σ_{k≤n} k·P(k) and R = B + n·P(k>n)/k̄, to 1e-12.
[[nodiscard]] CheckResult check_poisson_rigid(const Table& table, double mean);
/// Every variable-load row: 0 ≤ B ≤ R ≤ 1, B and R nondecreasing in C.
[[nodiscard]] CheckResult check_variable_load_bounds(const Table& table);
/// fixed_load_adaptive (κ = 0.62086): k_max(C) = C at integer C.
[[nodiscard]] CheckResult check_kmax_integer(const Table& table);
/// admission_mmcc_erlang: |sim_blocking − Erlang-B| ≤ the row's ci3.
[[nodiscard]] CheckResult check_admission_erlang(const Table& table,
                                                 std::int64_t servers);
/// net2_meanfield_scale: Erlang-B(C, pair_load) equals the target.
[[nodiscard]] CheckResult check_meanfield_operating_point(const Table& table,
                                                          double target);
/// sim_mm_inf_validation: the reservation simulation is an Erlang loss
/// system, so sim_blocking must sit within 4σ (plus 10 blocked flows, for
/// rare blocking) of Erlang-B(admission_limit, k̄); sim_best_effort must
/// sit within 12σ of model_best_effort, where σ is the binomial deviation
/// over `scored_time` holding-time epochs (sim_horizon − sim_warmup).
[[nodiscard]] CheckResult check_simulation(const Table& table, double mean,
                                           double scored_time);
/// Engine counters over one pass: every offered flow is admitted or
/// blocked.
[[nodiscard]] CheckResult check_flow_balance(const std::string& layer,
                                             std::size_t pass, double offered,
                                             double admitted, double blocked);
/// Bit-for-bit equality of two runs of the same scenario.
[[nodiscard]] CheckResult check_identical(const Table& got, const Table& want);
/// A service response must equal the runner's row at its capacity, bit
/// for bit, in every column the service answers.
[[nodiscard]] CheckResult check_response(const Table& want, std::size_t row,
                                         const bevr::service::Response& got);

/// Every check that applies to `spec`'s output.
[[nodiscard]] CheckResult check_scenario(const bevr::runner::ScenarioSpec& spec,
                                         const Table& table);

}  // namespace perfbench
