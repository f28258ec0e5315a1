// Experiments T4.3 / C4.4 / L4.1 / L4.2 (Theorem 4.3, Corollary 4.4 and
// Lemmas 4.1-4.2 of the paper): Optimal-Silent-SSR.
//
// The stabilization and tree-ranking sweeps are thin wrappers over the
// Scenario API (one ScenarioSpec per cell, batched backend + parallel seed
// fan-out for stabilization, agent array for Lemma 4.1); the Lemma 4.1
// per-level microscope and the Lemma 4.2 awakening census keep custom
// agent-array loops — they inspect individual agent states, which is
// exactly what the count-based engine anonymizes away.
//
//   * full stabilization from adversarial starts is Theta(n) expected and
//     O(n log n) whp (log-log slope ~1; p99/mean stays bounded)
//   * the binary-tree rank assignment from a single leader is O(n)
//     (Lemma 4.1), with per-level times proportional to the level size
//   * awakening configurations carry a unique leader with high constant
//     probability at Dmax = 8n (Lemma 4.2)
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>

#include "analysis/bench_report.h"
#include "analysis/scenarios.h"
#include "common/cli.h"
#include "core/simulation.h"
#include "init/optimal_silent_init.h"

namespace ppsim {
namespace {

void experiment_stabilization(const BenchScale& scale, BenchReport& report) {
  // Engine strategy: auto by default (the run crosses timer-heavy reset
  // epochs and silent-heavy endgames, so the density switch pays on both);
  // --strategy= pins one path for A/B runs, and the choice is recorded in
  // every BENCH record so bench_compare never mixes configurations.
  const std::string strategy =
      scale.strategy_name.empty() ? "auto" : scale.strategy_name;
  std::cout << "(batched backend strategy: " << strategy << ")\n";
  for (const char* init :
       {"uniform-random", "duplicate-rank", "all-leaders"}) {
    Sweep sweep;
    // The batched backend extends the sweep beyond the agent array's
    // practical range (4096 by default, 8192 under --full).
    auto sizes = scale.sizes({64, 128, 256, 512, 1024, 2048, 4096});
    if (scale.full) sizes.push_back(8192);
    for (std::uint32_t n : sizes) {
      ScenarioSpec spec;
      spec.protocol = "optimal-silent";
      spec.init = init;
      spec.engine = "batch";
      spec.strategy = strategy;
      spec.trials = scale.trials(n <= 512 ? 20 : (n <= 2048 ? 8 : 4));
      spec.n = n;
      spec.seed = 1000 + n;
      spec.threads = scale.threads;
      sweep.points.push_back(
          {static_cast<double>(n), run_scenario(spec).summary});
    }
    print_sweep(std::string("T4.3: stabilization time from '") + init +
                    "' start (batched backend)",
                sweep);
    report_sweep_strategy(report, std::string("stabilization_") + init,
                          "batch", strategy, sweep);
    std::cout << "paper: Theta(n) expected (slope ~1); O(n log n) whp "
                 "(p99/mean grows at most logarithmically)\n";
    Table t({"n", "time/n (expected O(1))", "p99/mean"});
    for (const auto& pt : sweep.points)
      t.add_row({fmt(pt.n, 0), fmt(pt.summary.mean / pt.n, 3),
                 fmt(pt.summary.p99 / pt.summary.mean, 2)});
    t.print();
  }
}

// Lemma 4.1: leader-driven binary-tree ranking from one Settled leader
// (the `single-leader` initial condition).
void experiment_tree_ranking(const BenchScale& scale, BenchReport& report) {
  Sweep sweep;
  for (std::uint32_t n : scale.sizes({64, 256, 1024, 4096})) {
    ScenarioSpec spec;
    spec.protocol = "optimal-silent";
    spec.init = "single-leader";
    spec.engine = "array";
    spec.trials = scale.trials(n <= 1024 ? 30 : 10);
    spec.n = n;
    spec.seed = 3000 + n;
    spec.threads = scale.threads;
    sweep.points.push_back(
        {static_cast<double>(n), run_scenario(spec).summary});
  }
  print_sweep("L4.1: binary-tree ranking time from a single leader", sweep);
  report_sweep(report, "tree_ranking", "array", sweep);
  std::cout << "paper: expected O(n) (slope ~1)\n";

  // Per-level completion times at one size: level d should cost ~ 2^d.
  const std::uint32_t kN = scale.smoke ? 64 : 1024;
  const auto params = OptimalSilentParams::standard(kN);
  OptimalSilentSSR proto(params);
  Simulation<OptimalSilentSSR> sim(
      proto, optimal_silent_inits().agents(proto, "single-leader", 0), 777);
  std::uint32_t levels = 0;
  while ((1u << (levels + 1)) <= kN) ++levels;
  std::vector<double> level_done(levels + 1, -1);
  std::uint32_t settled = 1;
  while (settled < kN) {
    sim.step();
    if (sim.interactions() % (kN / 4) != 0) continue;  // sample sparsely
    std::vector<char> present(kN + 1, 0);
    for (const auto& s : sim.states())
      if (s.role == OsRole::Settled && s.rank >= 1 && s.rank <= kN)
        present[s.rank] = 1;
    settled = 0;
    for (std::uint32_t r = 1; r <= kN; ++r) settled += present[r];
    for (std::uint32_t d = 0; d <= levels; ++d) {
      if (level_done[d] >= 0) continue;
      bool complete = true;
      for (std::uint32_t r = 1u << d; r < std::min(kN + 1, 1u << (d + 1));
           ++r)
        if (!present[r]) {
          complete = false;
          break;
        }
      if (complete) level_done[d] = sim.parallel_time();
    }
  }
  Table t({"tree level d", "ranks", "completion time", "delta from prev"});
  double prev = 0;
  for (std::uint32_t d = 0; d <= levels; ++d) {
    if (level_done[d] < 0) level_done[d] = sim.parallel_time();
    t.add_row({std::to_string(d),
               std::to_string(1u << d) + ".." +
                   std::to_string(std::min(kN, (1u << (d + 1)) - 1)),
               fmt(level_done[d], 1), fmt(level_done[d] - prev, 1)});
    prev = level_done[d];
  }
  t.print();
  std::cout << "paper (Lemma 4.1 proof): level d costs O(2^d) time; the "
               "deltas should grow with the level size, summing to O(n)\n";
}

// ISSUE 6 acceptance leg: the dense-regime cliff. A uniform-random start
// occupies ~min(n, |state space|) distinct codes, so count-based engines
// pay per-round costs proportional to occupancy and fall off a cliff that
// the agent array never sees; a dormant-mix start collapses onto a handful
// of codes and is the count engine's best case. With engine=auto the
// strategy controller probes trial-0 occupancy and routes each side to its
// winning engine — acceptance is the dense cell landing within 3x of the
// sparse cell's wall clock over the same ptime window on the same
// controller (both cells simulate exactly ptime * n interactions).
// Both cells run in well under a second even at n = 1e6 (run wall excludes
// construction), so the acceptance size is used at every scale — the
// --smoke baseline records the real verdict, not a proxy.
void experiment_dense_cliff(const BenchScale& scale, BenchReport& report) {
  const std::uint32_t n = 1'000'000;
  const double window = 0.25;
  const std::uint32_t trials = scale.smoke ? 1 : 3;
  std::cout << "\n== ISSUE 6: dense-regime cliff (engine=auto, n = " << n
            << ", ptime " << window << ", " << trials
            << " trial(s) per cell) ==\n";
  Table t({"init", "engine (controller)", "run s (mean)", "ns/interaction"});
  double sparse = 0.0;
  double dense = 0.0;
  for (const char* init : {"dormant-mix", "uniform-random"}) {
    ScenarioSpec spec;
    spec.protocol = "optimal-silent";
    spec.init = init;
    spec.engine = "auto";
    spec.until = "ptime";
    spec.horizon_ptime = window;
    spec.n = n;
    spec.trials = trials;
    spec.seed = 2026;
    spec.threads = scale.threads;
    const ScenarioResult r = run_scenario(spec);
    const double per_interaction_ns =
        r.summary.mean / std::max(1.0, r.interactions_mean) * 1e9;
    const std::string engine_desc =
        (r.engine_arm.empty() ? "" : "auto:") +
        (r.backend == "batch" ? r.backend + "/" + r.strategy : r.backend);
    t.add_row({init, engine_desc, fmt(r.summary.mean, 4),
               fmt(per_interaction_ns, 1)});
    if (std::string(init) == "dormant-mix")
      sparse = r.summary.mean;
    else
      dense = r.summary.mean;
    report_scenario(report, "dense_cliff", r)
        .set("ns_per_interaction", per_interaction_ns);
  }
  t.print();
  const double ratio = sparse > 0 ? dense / sparse : 0.0;
  report.add()
      .set("experiment", "dense_cliff_verdict")
      .set("n", static_cast<std::uint64_t>(n))
      .set("ptime_window", window)
      .set("dense_over_sparse_ratio", ratio)
      .set("pass", static_cast<std::uint64_t>(ratio <= 3.0 ? 1 : 0));
  std::cout << (ratio <= 3.0 ? "PASS" : "FAIL")
            << ": uniform-random wall clock is " << fmt(ratio, 2)
            << "x dormant-mix over the same window (acceptance: <= 3x "
               "with engine=auto at n = 1e6)\n";
}

// ISSUE 7 acceptance leg: the approximate tau tier. Two cells:
//
//   * Matched 0.25-ptime window at n = 1e6 (dormant-mix): strategy=tau vs
//     the best exact batch strategy over the SAME fixed interaction budget.
//     Acceptance is tau >= 10x faster; the ratio is recorded as
//     `tau_speedup` on the tau record. Every tau record is stamped
//     approximate + tau_eps by report_scenario, which is what keeps it out
//     of bench_compare's strict drift gate.
//   * Full drain to certified silence at moderate n — the tau engine's
//     silent() is exact (structured active weight == 0), so until=silent
//     terminates on a real certificate, not a heuristic.
//
// Why the silence cell is NOT run at n = 1e6: the dormant conveyor forces
// ~Dmax = 8n parallel time (every agent counts its own timer down), i.e.
// ~8e12 scheduler interactions at n = 1e6. The tau engine compresses that
// into >= ptime / kMaxLeapPtime ~ 125k macro-leaps — wall clock bounded by
// leap count rather than interactions, minutes instead of centuries, but
// still far too slow for a bench cell; the window cell above measures the
// same regime at bench-friendly cost, and the printed note keeps the bound
// honest.
void experiment_tau_tier(const BenchScale& scale, BenchReport& report) {
  const std::uint32_t n = 1'000'000;
  const double window = 0.25;
  const std::uint32_t trials = scale.smoke ? 1 : 3;
  std::cout << "\n== ISSUE 7: approximate tau tier (dormant-mix window, n = "
            << n << ", ptime " << window << ", " << trials
            << " trial(s) per cell) ==\n";
  auto run_window = [&](const char* strategy) {
    ScenarioSpec spec;
    spec.protocol = "optimal-silent";
    spec.init = "dormant-mix";
    spec.engine = "batch";
    spec.strategy = strategy;
    spec.until = "ptime";
    spec.horizon_ptime = window;
    spec.n = n;
    spec.trials = trials;
    spec.seed = 7100;
    spec.threads = scale.threads;
    return run_scenario(spec);
  };
  Table t({"strategy", "run s (mean)", "approximate", "speedup vs best exact"});
  double best_exact = 0.0;
  std::string best_name;
  for (const char* strategy : {"multinomial", "geometric_skip"}) {
    const ScenarioResult r = run_window(strategy);
    report_scenario(report, "tau_window", r);
    t.add_row({strategy, fmt(r.summary.mean, 5), "no", "-"});
    if (best_name.empty() || r.summary.mean < best_exact) {
      best_exact = r.summary.mean;
      best_name = strategy;
    }
  }
  const ScenarioResult tau = run_window("tau");
  const double tau_speedup =
      tau.summary.mean > 0 ? best_exact / tau.summary.mean : 0.0;
  report_scenario(report, "tau_window", tau).set("tau_speedup", tau_speedup);
  t.add_row({"tau", fmt(tau.summary.mean, 5), "YES", fmt(tau_speedup, 1)});
  t.print();
  std::cout << (tau_speedup >= 10.0 ? "PASS" : "FAIL") << ": tau is "
            << fmt(tau_speedup, 1) << "x the best exact strategy ("
            << best_name << ") over the same " << window
            << "-ptime window (acceptance: >= 10x at n = 1e6)\n";

  // Full drain to certified silence: tau reaches the until=silent
  // certificate at moderate n (exact-comparable sizes; the CI-overlap
  // harness in tests/approx_error_test.cpp checks the distribution).
  const std::uint32_t sn = scale.smoke ? 256 : (scale.full ? 2048 : 512);
  ScenarioSpec spec;
  spec.protocol = "optimal-silent";
  spec.init = "dormant-mix";
  spec.engine = "batch";
  spec.strategy = "tau";
  spec.until = "silent";
  spec.n = sn;
  spec.trials = scale.trials(sn <= 512 ? 10 : 4);
  spec.seed = 7200;
  spec.threads = scale.threads;
  const ScenarioResult drain = run_scenario(spec);
  report_scenario(report, "tau_silence", drain);
  std::cout << "tau to certified silence at n = " << sn << ": "
            << fmt(drain.summary.mean, 1) << " +- "
            << fmt(drain.summary.ci95, 1) << " parallel time over "
            << drain.trials << " trials (approximate: "
            << (drain.approximate ? "yes" : "NO (BUG)")
            << ", eps = " << drain.tau_eps << ")\n"
            << "note: n = 1e6 silence sits behind the dormant conveyor "
               "(~8n parallel time, ~8e12 interactions; tau covers it in "
               "~1.25e5 macro-leaps) — measured here through the window "
               "cell instead\n";
}

// Lemma 4.2: probability that an awakening configuration has one leader.
void experiment_awakening_leader(const BenchScale& scale,
                                 BenchReport& report) {
  std::cout << "\n== L4.2: unique leader at awakening (Dmax = 8n) ==\n";
  Table t({"n", "trials", "unique-leader fraction"});
  for (std::uint32_t n : scale.sizes({64, 256, 1024})) {
    const auto trials = scale.trials(40);
    std::uint32_t unique = 0;
    for (std::uint32_t i = 0; i < trials; ++i) {
      const auto params = OptimalSilentParams::standard(n);
      OptimalSilentSSR proto(params);
      auto init = optimal_silent_config(params, OsAdversary::kAllPropagating,
                                        derive_seed(4000 + n, i));
      Simulation<OptimalSilentSSR> sim(proto, std::move(init),
                                       derive_seed(5000 + n, i));
      while (sim.counters().resets_executed == 0 &&
             sim.interactions() < (1ull << 30))
        sim.step();
      std::uint32_t leaders = 0;
      for (const auto& s : sim.states()) {
        if (s.role == OsRole::Resetting && s.leader) ++leaders;
        if (s.role == OsRole::Settled && s.rank == 1) ++leaders;
      }
      if (leaders == 1) ++unique;
    }
    t.add_row({std::to_string(n), std::to_string(trials),
               fmt(static_cast<double>(unique) / trials, 3)});
    report.add()
        .set("experiment", "awakening_unique_leader")
        .set("backend", "array")
        .set("n", static_cast<std::uint64_t>(n))
        .set("trials", static_cast<std::uint64_t>(trials))
        .set("unique_fraction", static_cast<double>(unique) / trials);
  }
  t.print();
  std::cout << "paper: constant probability (epochs repeat on failure); the "
               "fraction should be a healthy constant\n";
}

void BM_OptimalSilentInteraction(benchmark::State& state) {
  const auto params = OptimalSilentParams::standard(1024);
  OptimalSilentSSR proto(params);
  OptimalSilentSSR::Counters counters;
  Rng rng(1);
  auto states = optimal_silent_config(params, OsAdversary::kUniformRandom, 3);
  std::size_t i = 0;
  for (auto _ : state) {
    proto.interact(states[i % states.size()],
                   states[(i + 7) % states.size()], rng, counters);
    ++i;
  }
}
BENCHMARK(BM_OptimalSilentInteraction);

}  // namespace
}  // namespace ppsim

int main(int argc, char** argv) {
  const auto scale = ppsim::BenchScale::from_args(argc, argv);
  ppsim::BenchReport report("optimal_silent");
  std::cout << "=== bench_optimal_silent: Protocols 3-4 / Theorem 4.3 "
               "(Table 1 row 2) ===\n";
  ppsim::experiment_stabilization(scale, report);
  ppsim::experiment_dense_cliff(scale, report);
  ppsim::experiment_tau_tier(scale, report);
  ppsim::experiment_tree_ranking(scale, report);
  ppsim::experiment_awakening_leader(scale, report);
  const std::string path = report.write();
  if (!path.empty()) std::cout << "\nmachine-readable results: " << path << "\n";
  if (scale.micro) {
    int bench_argc = 1;
    benchmark::Initialize(&bench_argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  return 0;
}
