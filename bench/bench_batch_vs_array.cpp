// Backend face-off: agent-array Simulation vs the count-based batched
// backend (core/batch_simulation.h) on Silent-n-state-SSR.
//
// Two experiments:
//  * fixed interaction budget per n — both backends simulate the same
//    number of scheduler draws from the worst-case configuration; the
//    batched backend geometric-skips the null stretches that dominate the
//    Theta(n^2) regime, so its advantage grows without bound in n
//    (the speedup curve is the deliverable: ISSUE 1 demands >= 10x at
//    n = 10^6, the log-log fit shows how far beyond that it lands)
//  * run-to-silence at moderate n — wall-clock to stabilization for the
//    array backend and the batched backend, with the parallel-time means
//    printed so distributional agreement is visible alongside the speed
//    difference.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/bench_report.h"
#include "analysis/convergence.h"
#include "analysis/experiments.h"
#include "core/batch_simulation.h"
#include "core/engine.h"
#include "core/stats.h"
#include "core/table.h"
#include "protocols/silent_nstate.h"

namespace ppsim {
namespace {

void experiment_fixed_budget(const BenchScale& scale, BenchReport& report) {
  // --strategy= pins the batched engine's path (default: geometric skip,
  // the configuration ISSUE 1's >= 10x acceptance was measured on); the
  // choice lands in every record so bench_compare keys on it.
  const BatchStrategy strategy =
      scale.strategy_or(BatchStrategy::kGeometricSkip);
  std::cout << "\n== fixed parallel-time budget: array vs batched backend "
               "(worst-case config, strategy "
            << to_string(strategy) << ") ==\n";
  // Equal *parallel time* per n is the apples-to-apples workload: the
  // model's time unit is interactions/n, and every paper experiment runs
  // Omega(n)..Omega(n^2) parallel time, far beyond this budget.
  const std::uint64_t ptime_budget = scale.quick ? 20 : 100;
  std::cout << "budget = " << ptime_budget << " parallel time units ("
            << ptime_budget << "n interactions) per run\n";
  Table t({"n", "array s", "batch s", "speedup", "batch eff. events",
           "batch null-skipped"});
  std::vector<double> ns, speedups;
  for (std::uint32_t n : scale.sizes({10'000, 100'000, 1'000'000})) {
    const std::uint64_t seed = derive_seed(42, n);
    const std::uint64_t budget = ptime_budget * n;

    const WallTimer t_array;
    Simulation<SilentNStateSSR> array_sim(SilentNStateSSR(n),
                                          silent_nstate_worst_config(n), seed);
    array_sim.run(budget);
    const double array_s = t_array.seconds();

    const WallTimer t_batch;
    BatchSimulation<SilentNStateSSR> batch_sim(
        SilentNStateSSR(n), silent_nstate_worst_config(n), seed, strategy);
    batch_sim.run(budget);
    const double batch_s = t_batch.seconds();
    const BatchStepStats& batch_stats = batch_sim.stats();

    const double speedup = array_s / batch_s;
    ns.push_back(static_cast<double>(n));
    speedups.push_back(speedup);
    t.add_row({std::to_string(n), fmt(array_s, 4), fmt(batch_s, 4),
               fmt(speedup, 1),
               std::to_string(batch_stats.effective),
               std::to_string(batch_stats.batched)});
    for (const char* backend : {"array", "batch"}) {
      BenchRecord& rec = report.add();
      if (backend == std::string("batch"))
        rec.set("strategy", to_string(strategy));
      rec.set("experiment", "fixed_budget")
          .set("backend", backend)
          .set("n", static_cast<std::uint64_t>(n))
          .set("interactions", budget)
          .set("parallel_time", static_cast<double>(ptime_budget))
          .set("wall_seconds",
               backend == std::string("array") ? array_s : batch_s)
          .set("speedup_vs_array", speedup);
    }
  }
  t.print();
  if (ns.size() < 2) return;
  const LinearFit f = fit_power_law(ns, speedups);
  std::cout << "speedup curve: speedup ~ n^" << fmt(f.slope, 2)
            << "  (R^2 = " << fmt(f.r2, 3) << ")\n";
  if (scale.quick)
    std::cout << "(acceptance check skipped: --quick shrinks the budget; "
                 "run without flags for the >= 10x criterion)\n";
  else if (speedups.back() >= 10.0)
    std::cout << "PASS: >= 10x at n = 10^6 (measured " << fmt(speedups.back(), 1)
              << "x)\n";
  else
    std::cout << "FAIL: < 10x at n = 10^6 (measured " << fmt(speedups.back(), 1)
              << "x)\n";
}

void experiment_run_to_silence(const BenchScale& scale, BenchReport& report) {
  const BatchStrategy strategy =
      scale.strategy_or(BatchStrategy::kGeometricSkip);
  std::cout << "\n== run to stabilization: wall clock per backend (batch "
               "strategy "
            << to_string(strategy) << ") ==\n";
  Table t({"n", "trials", "array s", "batch s", "array E[time]",
           "batch E[time]"});
  const auto sizes = scale.sizes({256, 512, 1024});
  for (std::uint32_t n : sizes) {
    const std::uint32_t trials = scale.trials(10);
    std::vector<double> at, bt;

    const WallTimer t_array;
    for (std::uint32_t i = 0; i < trials; ++i) {
      RunOptions opts;
      opts.max_interactions = 1ull << 62;
      at.push_back(run_until_ranked(SilentNStateSSR(n),
                                    silent_nstate_worst_config(n),
                                    derive_seed(100 + n, i), opts)
                       .stabilization_ptime);
    }
    const double array_s = t_array.seconds();

    const WallTimer t_batch;
    for (std::uint32_t i = 0; i < trials; ++i) {
      BatchSimulation<SilentNStateSSR> sim(
          SilentNStateSSR(n), silent_nstate_worst_config(n),
          derive_seed(200 + n, i), strategy);
      run_until(sim, [](const auto& s) { return s.silent(); }, 1ull << 62);
      bt.push_back(sim.parallel_time());
    }
    const double batch_s = t_batch.seconds();

    t.add_row({std::to_string(n), std::to_string(trials), fmt(array_s, 3),
               fmt(batch_s, 4), fmt(summarize(at).mean, 0),
               fmt(summarize(bt).mean, 0)});
    report.add()
        .set("experiment", "run_to_silence")
        .set("backend", "batch")
        .set("strategy", to_string(strategy))
        .set("n", static_cast<std::uint64_t>(n))
        .set("trials", static_cast<std::uint64_t>(trials))
        .set("parallel_time", summarize(bt).mean)
        .set("wall_seconds", batch_s);
  }
  t.print();
  std::cout << "(the two E[time] columns agree within noise: the same "
               "process, two engines)\n";
}

}  // namespace
}  // namespace ppsim

int main(int argc, char** argv) {
  const auto scale = ppsim::BenchScale::from_args(argc, argv);
  ppsim::BenchReport report("batch_vs_array");
  std::cout << "=== bench_batch_vs_array: count-based batched backend "
               "(ISSUE 1 tentpole) ===\n";
  ppsim::experiment_fixed_budget(scale, report);
  ppsim::experiment_run_to_silence(scale, report);
  const std::string path = report.write();
  if (!path.empty())
    std::cout << "\nmachine-readable results: " << path << "\n";
  return 0;
}
