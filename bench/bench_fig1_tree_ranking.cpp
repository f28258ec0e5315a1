// Experiment F1: Figure 1 — the binary-tree rank assignment
// of Optimal-Silent-SSR.
//
// Reproduces the figure's exact scenario (n = 12, eight settled agents with
// ranks {1,2,3,4,5,8,9,10}, four unsettled agents, pending ranks
// {6,7,11,12}), renders the rank tree as ASCII before and after, and then
// measures the level-by-level assignment dynamics behind Lemma 4.1.
#include <benchmark/benchmark.h>

#include <iostream>
#include <vector>

#include "analysis/bench_report.h"
#include "analysis/convergence.h"
#include "analysis/experiments.h"
#include "analysis/scenarios.h"
#include "core/simulation.h"
#include "protocols/optimal_silent.h"

namespace ppsim {
namespace {

using State = OptimalSilentSSR::State;

State settled(std::uint32_t rank, std::uint8_t children) {
  State s;
  s.role = OsRole::Settled;
  s.rank = rank;
  s.children = children;
  return s;
}

void render_tree(const std::vector<State>& states, std::uint32_t n) {
  std::vector<char> present(n + 1, 0);
  for (const auto& s : states)
    if (s.role == OsRole::Settled && s.rank >= 1 && s.rank <= n)
      present[s.rank] = 1;
  std::cout << "rank tree ([r] = settled, (r) = pending):\n";
  std::uint32_t level_start = 1;
  while (level_start <= n) {
    std::cout << "  ";
    for (std::uint32_t r = level_start;
         r < std::min<std::uint64_t>(n + 1, 2ull * level_start); ++r) {
      if (present[r])
        std::cout << "[" << r << "] ";
      else
        std::cout << "(" << r << ") ";
    }
    std::cout << "\n";
    level_start *= 2;
  }
}

void figure1_scenario(BenchReport& report) {
  constexpr std::uint32_t kN = 12;
  const auto params = OptimalSilentParams::standard(kN);
  OptimalSilentSSR proto(params);
  std::vector<State> init(kN);
  init[0] = settled(1, 2);
  init[1] = settled(2, 2);
  init[2] = settled(3, 0);  // 6, 7 pending
  init[3] = settled(4, 2);
  init[4] = settled(5, 1);  // 11 pending
  init[5] = settled(8, 0);
  init[6] = settled(9, 0);
  init[7] = settled(10, 0);
  for (std::uint32_t i = 8; i < kN; ++i) {
    init[i].role = OsRole::Unsettled;
    init[i].errorcount = params.emax;
  }

  std::cout << "\n== F1: Figure 1's configuration (n = 12, 8 settled, 4 "
               "unsettled) ==\n";
  render_tree(init, kN);

  Simulation<OptimalSilentSSR> sim(proto, std::move(init), 2021);
  while (true) {
    sim.step();
    bool done = true;
    std::vector<char> present(kN + 1, 0);
    for (const auto& s : sim.states())
      if (s.role == OsRole::Settled) present[s.rank] = 1;
    for (std::uint32_t r = 1; r <= kN; ++r)
      if (!present[r]) done = false;
    if (done) break;
  }
  std::cout << "\nafter " << fmt(sim.parallel_time(), 1)
            << " parallel time units, all ranks are assigned:\n";
  render_tree(sim.states(), kN);
  std::cout << "resets triggered: "
            << sim.counters().collision_triggers +
                   sim.counters().timeout_triggers
            << " (expected 0: the figure's configuration completes "
               "directly)\n";
  report.add()
      .set("experiment", "figure1_scenario")
      .set("backend", "array")
      .set("n", static_cast<std::uint64_t>(kN))
      .set("parallel_time", sim.parallel_time())
      .set("interactions", sim.interactions());
}

// Lemma 4.1 dynamics: settled count over time from a single leader; each
// doubling of the settled population should take roughly constant time
// proportional to the level size (O(2^d) for level d).
//
// The total time-to-ranked is the registered (optimal-silent,
// single-leader, ranked) scenario cell, so it runs through run_scenario;
// only the intermediate quartile crossings — which no ScenarioSpec stop
// condition expresses — keep a hand-rolled loop, stopping at 75%.
void level_dynamics(const BenchScale& scale, BenchReport& report) {
  std::cout << "\n== F1/L4.1: settled-population growth from one leader ==\n";
  Table t({"n", "time to 25% settled", "to 50%", "to 75%", "to 100%",
           "total/n"});
  for (std::uint32_t n : scale.sizes({256, 1024, 4096})) {
    const auto trials = scale.trials(10);
    std::vector<double> q25, q50, q75;
    for (std::uint32_t i = 0; i < trials; ++i) {
      const auto params = OptimalSilentParams::standard(n);
      OptimalSilentSSR proto(params);
      std::vector<State> init(n);
      init[0] = settled(1, 0);
      for (std::uint32_t j = 1; j < n; ++j) {
        init[j].role = OsRole::Unsettled;
        init[j].errorcount = params.emax;
      }
      Simulation<OptimalSilentSSR> sim(proto, std::move(init),
                                       derive_seed(n, i));
      double t25 = -1, t50 = -1, t75 = -1;
      while (t75 < 0) {
        sim.step();
        if (sim.interactions() % 64 != 0) continue;
        std::uint32_t settled_count = 0;
        for (const auto& s : sim.states())
          if (s.role == OsRole::Settled) ++settled_count;
        const double frac = static_cast<double>(settled_count) / n;
        if (t25 < 0 && frac >= 0.25) t25 = sim.parallel_time();
        if (t50 < 0 && frac >= 0.50) t50 = sim.parallel_time();
        if (t75 < 0 && frac >= 0.75) t75 = sim.parallel_time();
      }
      q25.push_back(t25);
      q50.push_back(t50);
      q75.push_back(t75);
    }
    ScenarioSpec spec;
    spec.protocol = "optimal-silent";
    spec.init = "single-leader";
    spec.until = "ranked";
    spec.engine = "array";
    spec.n = n;
    spec.trials = trials;
    spec.seed = n;
    const ScenarioResult total = run_scenario(spec);
    t.add_row({std::to_string(n), fmt(summarize(q25).mean, 1),
               fmt(summarize(q50).mean, 1), fmt(summarize(q75).mean, 1),
               fmt(total.summary.mean, 1), fmt(total.summary.mean / n, 3)});
    report.add()
        .set("experiment", "level_dynamics")
        .set("backend", total.backend)
        .set("n", static_cast<std::uint64_t>(n))
        .set("trials", static_cast<std::uint64_t>(trials))
        .set("parallel_time", total.summary.mean);
  }
  t.print();
  std::cout << "paper (Lemma 4.1): total time O(n) (total/n ~ const); the "
               "last quarter costs the most (the deepest, largest levels)\n";
}

void BM_RankAssignmentFullRun(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto params = OptimalSilentParams::standard(n);
    OptimalSilentSSR proto(params);
    std::vector<State> init(n);
    init[0] = settled(1, 0);
    for (std::uint32_t j = 1; j < n; ++j) {
      init[j].role = OsRole::Unsettled;
      init[j].errorcount = params.emax;
    }
    RunOptions opts;
    opts.max_interactions = 1ull << 30;
    benchmark::DoNotOptimize(
        run_until_ranked(proto, std::move(init), seed++, opts));
  }
}
BENCHMARK(BM_RankAssignmentFullRun)->Arg(256)->Arg(1024);

}  // namespace
}  // namespace ppsim

int main(int argc, char** argv) {
  const auto scale = ppsim::BenchScale::from_args(argc, argv);
  std::cout << "=== bench_fig1_tree_ranking: Figure 1 / Lemma 4.1 ===\n";
  ppsim::BenchReport report("fig1_tree_ranking");
  ppsim::figure1_scenario(report);
  ppsim::level_dynamics(scale, report);
  const std::string path = report.write();
  if (!path.empty())
    std::cout << "\nmachine-readable results: " << path << "\n";
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--micro") {
      int bench_argc = 1;
      benchmark::Initialize(&bench_argc, argv);
      benchmark::RunSpecifiedBenchmarks();
      break;
    }
  }
  return 0;
}
