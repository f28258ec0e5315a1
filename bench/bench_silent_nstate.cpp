// Experiment T2.4 (Theorem 2.4 of the paper): the Theta(n^2)-time behavior of
// Silent-n-state-SSR [Cai-Izumi-Wada], Protocol 1 — migrated onto the
// Scenario API (ISSUE 5 satellite; ROADMAP named this mechanical
// follow-up). Every sweep cell is one ScenarioSpec executed by the
// registry; the hand-rolled measurement loops are gone and --strategy /
// --threads flow through like every other scenario-driven bench.
//
//   * worst-case configuration: E[interactions] = (n-1) * C(n,2) exactly;
//     parallel time grows x4 per doubling (slope 2 in log-log)
//   * random configurations: same order, smaller constant
//   * validation: the agent array and the count engine measure the same
//     stabilization-time distribution (diff within combined CIs)
#include <benchmark/benchmark.h>

#include <cmath>
#include <iostream>

#include "analysis/bench_report.h"
#include "analysis/scenarios.h"
#include "common/cli.h"
#include "protocols/silent_nstate.h"

namespace ppsim {
namespace {

ScenarioSpec base_spec(const BenchScale& scale, std::uint32_t n,
                       const char* init, std::uint64_t seed,
                       std::uint32_t trials) {
  ScenarioSpec spec;
  spec.protocol = "silent-nstate";
  spec.init = init;
  spec.engine = "batch";
  spec.strategy = scale.strategy_name.empty() ? "auto" : scale.strategy_name;
  spec.n = n;
  spec.trials = trials;
  spec.seed = seed;
  spec.threads = scale.threads;
  return spec;
}

void experiment_worst_case(const BenchScale& scale, BenchReport& report) {
  std::cout << "\n== T2.4: worst-case stabilization time (count engine via "
               "ScenarioSpec) ==\n";
  Table t({"n", "mean time", "p95 time", "mean inter.", "(n-1)C(n,2)",
           "ratio", "x vs n/2"});
  Sweep sweep;
  for (std::uint32_t n : scale.sizes({64, 128, 256, 512, 1024, 2048, 4096})) {
    const auto trials = scale.trials(n <= 1024 ? 60 : 25);
    const ScenarioResult r =
        run_scenario(base_spec(scale, n, "worst-case", 100 + n, trials));
    const double exact = silent_nstate_worst_expected_interactions(n);
    sweep.points.push_back({static_cast<double>(n), r.summary});
    t.add_row({std::to_string(n), fmt(r.summary.mean, 0),
               fmt(r.summary.p95, 0), fmt(r.interactions_mean, 0),
               fmt(exact, 0), fmt(r.interactions_mean / exact, 3),
               fmt(r.summary.mean / (n / 2.0), 2)});
    report.add()
        .set("experiment", "worst_case")
        .set("backend", r.backend)
        .set("strategy", r.strategy)
        .set("n", static_cast<std::uint64_t>(n))
        .set("trials", static_cast<std::uint64_t>(trials))
        .set("parallel_time", r.summary.mean)
        .set("interactions", r.interactions_mean)
        .set("expected_interactions", exact)
        .set("wall_seconds", r.wall_seconds);
  }
  t.print();
  if (sweep.points.size() < 2) return;
  const LinearFit f = sweep.fit();
  std::cout << "log-log fit: time ~ n^" << fmt(f.slope, 3)
            << "  (paper: Theta(n^2), exponent 2)\n";
}

void experiment_random_configs(const BenchScale& scale) {
  std::cout << "\n== T2.4: stabilization from uniformly random "
               "configurations ==\n";
  Table t({"n", "mean time", "p95 time", "worst-case mean", "random/worst"});
  for (std::uint32_t n : scale.sizes({64, 256, 1024})) {
    const auto trials = scale.trials(60);
    const ScenarioResult random_r =
        run_scenario(base_spec(scale, n, "uniform-random", 200 + n, trials));
    const ScenarioResult worst_r =
        run_scenario(base_spec(scale, n, "worst-case", 400 + n, trials));
    t.add_row({std::to_string(n), fmt(random_r.summary.mean, 0),
               fmt(random_r.summary.p95, 0), fmt(worst_r.summary.mean, 0),
               fmt(random_r.summary.mean / worst_r.summary.mean, 3)});
  }
  t.print();
  std::cout << "random starts are Theta(n^2) as well, with a smaller "
               "constant\n";
}

void experiment_validation(const BenchScale& scale) {
  std::cout << "\n== validation: agent array vs count engine (exact "
               "distribution) ==\n";
  Table t({"n", "array mean time", "batch mean time", "diff/ci"});
  for (std::uint32_t n : scale.sizes({16, 32})) {
    const auto trials = scale.trials(200);
    ScenarioSpec array_spec =
        base_spec(scale, n, "worst-case", 500 + n, trials);
    array_spec.engine = "array";
    const ScenarioResult direct = run_scenario(array_spec);
    const ScenarioResult fast =
        run_scenario(base_spec(scale, n, "worst-case", 600 + n, trials));
    const double ci_sum = direct.summary.ci95 + fast.summary.ci95;
    t.add_row({std::to_string(n), fmt(direct.summary.mean, 1),
               fmt(fast.summary.mean, 1),
               ci_sum > 0
                   ? fmt(std::abs(direct.summary.mean - fast.summary.mean) /
                             ci_sum,
                         2)
                   : "n/a (1 trial)"});
  }
  t.print();
  std::cout << "diff/ci < ~2 indicates statistically identical means\n";
}

void BM_SilentNStateInteraction(benchmark::State& state) {
  SilentNStateSSR proto(1024);
  Rng rng(1);
  SilentNStateSSR::State a{5}, b{5};
  for (auto _ : state) {
    proto.interact(a, b, rng);
    benchmark::DoNotOptimize(b.rank);
  }
}
BENCHMARK(BM_SilentNStateInteraction);

}  // namespace
}  // namespace ppsim

int main(int argc, char** argv) {
  const auto scale = ppsim::BenchScale::from_args(argc, argv);
  std::cout << "=== bench_silent_nstate: Protocol 1 / Theorem 2.4 "
               "(Table 1 row 1) ===\n";
  ppsim::BenchReport report("silent_nstate");
  ppsim::experiment_worst_case(scale, report);
  ppsim::experiment_random_configs(scale);
  ppsim::experiment_validation(scale);
  const std::string path = report.write();
  if (!path.empty())
    std::cout << "\nmachine-readable results: " << path << "\n";
  if (scale.micro) {
    int bench_argc = 1;
    benchmark::Initialize(&bench_argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  return 0;
}
