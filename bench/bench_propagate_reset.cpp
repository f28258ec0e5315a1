// Experiment group L3.2 / L3.3 / T3.4 / C3.5 (Lemmas 3.2-3.3, Theorem 3.4
// and Corollary 3.5 of the paper): phase timing of Propagate-Reset
// (Protocol 2) in isolation.
//
//   trigger -> fully propagating   O(log n)            (Lemma 3.2)
//   fully propagating -> dormant   O(log n + Rmax)     (Lemma 3.3)
//   dormant -> awakening           O(Dmax)             (Theorem 3.4)
//   awakening -> fully computing   O(log n) epidemic
//   arbitrary debris -> computing  O(log n + Dmax)     (Corollary 3.5)
//
// The at-scale strategy face-off, the epidemic residual drain and the
// debris drain are thin wrappers over the Scenario API (reset-process /
// one-way-epidemic registry entries, `trigger-one` / `residual-16` /
// `mid-reset-mix` initial conditions); the per-phase microscopes keep
// custom agent-array loops — they census phases per interaction.
#include <benchmark/benchmark.h>

#include <cmath>
#include <iostream>

#include "analysis/bench_report.h"
#include "analysis/scenarios.h"
#include "common/cli.h"
#include "core/simulation.h"
#include "init/reset_init.h"
#include "reset/reset_process.h"

namespace ppsim {
namespace {

struct PhaseTimes {
  double fully_propagating = -1;
  double fully_dormant = -1;
  double awakening = -1;
  double all_computing = -1;
  bool clean = false;  // one computing agent, rest dormant, at awakening
};

PhaseTimes run_phases(std::uint32_t n, std::uint32_t rmax, std::uint32_t dmax,
                      std::uint64_t seed) {
  ResetProcess proto(n, rmax, dmax);
  Simulation<ResetProcess> sim(
      proto, reset_process_inits().agents(proto, "trigger-one", 0), seed);
  PhaseTimes out;
  while (sim.interactions() < (1ull << 32)) {
    sim.step();
    std::uint32_t propagating = 0, dormant = 0, computing = 0;
    for (const auto& s : sim.states()) {
      if (!s.resetting)
        ++computing;
      else if (s.resetcount > 0)
        ++propagating;
      else
        ++dormant;
    }
    if (out.fully_propagating < 0 && propagating == n)
      out.fully_propagating = sim.parallel_time();
    if (out.fully_dormant < 0 && dormant == n)
      out.fully_dormant = sim.parallel_time();
    if (out.awakening < 0 && sim.counters().resets_executed > 0) {
      out.awakening = sim.parallel_time();
      out.clean = computing == 1 && propagating == 0;
    }
    if (computing == n) {
      out.all_computing = sim.parallel_time();
      break;
    }
  }
  return out;
}

void experiment_phases(const BenchScale& scale, BenchReport& report) {
  std::cout << "\n== T3.4: phase completion times (Rmax = 8 ln n, "
               "Dmax = 4 Rmax) ==\n";
  Table t({"n", "Rmax", "Dmax", "fully-propag.", "fully-dormant", "awakening",
           "all-computing", "clean frac", "awk/Dmax"});
  for (std::uint32_t n : scale.sizes({64, 256, 1024, 4096})) {
    const auto rmax =
        static_cast<std::uint32_t>(std::ceil(8 * std::log(n))) + 4;
    const std::uint32_t dmax = 4 * rmax;
    const auto trials = scale.trials(n <= 1024 ? 20 : 8);
    std::vector<double> prop, dorm, awk, comp;
    int clean = 0;
    for (std::uint32_t i = 0; i < trials; ++i) {
      const PhaseTimes p = run_phases(n, rmax, dmax, derive_seed(n, i));
      prop.push_back(p.fully_propagating);
      dorm.push_back(p.fully_dormant);
      awk.push_back(p.awakening);
      comp.push_back(p.all_computing);
      if (p.clean) ++clean;
    }
    t.add_row({std::to_string(n), std::to_string(rmax), std::to_string(dmax),
               fmt(summarize(prop).mean, 1), fmt(summarize(dorm).mean, 1),
               fmt(summarize(awk).mean, 1), fmt(summarize(comp).mean, 1),
               fmt(static_cast<double>(clean) / trials, 2),
               fmt(summarize(awk).mean / dmax, 3)});
    report.add()
        .set("experiment", "phases")
        .set("backend", "array")
        .set("n", static_cast<std::uint64_t>(n))
        .set("trials", static_cast<std::uint64_t>(trials))
        .set("parallel_time", summarize(comp).mean)
        .set("awakening_time", summarize(awk).mean);
  }
  t.print();
  std::cout << "paper: propagation O(log n) (Lemma 3.2); dormancy O(log n + "
               "Rmax) (Lemma 3.3); awakening ~ Dmax/2 agent-interactions "
               "(Theorem 3.4, awk/Dmax ~ 0.4-0.5); clean frac ~ 1\n";
}

void experiment_scaling_in_dmax(const BenchScale& scale) {
  std::cout << "\n== T3.4: awakening time is linear in Dmax ==\n";
  constexpr std::uint32_t kN = 512;
  const auto rmax =
      static_cast<std::uint32_t>(std::ceil(8 * std::log(kN))) + 4;
  Table t({"Dmax", "mean awakening time", "awakening/Dmax"});
  for (std::uint32_t factor : scale.sizes({2, 4, 8, 16, 32})) {
    const std::uint32_t dmax = factor * rmax;
    const auto trials = scale.trials(12);
    std::vector<double> awk;
    for (std::uint32_t i = 0; i < trials; ++i)
      awk.push_back(run_phases(kN, rmax, dmax, derive_seed(9000 + factor, i))
                        .awakening);
    const Summary s = summarize(awk);
    t.add_row({std::to_string(dmax), fmt(s.mean, 1),
               fmt(s.mean / dmax, 3)});
  }
  t.print();
  std::cout << "the ratio settles near 0.5: delaytimer counts per-agent "
               "interactions, ~2 per parallel-time unit\n";
}

// Corollary 3.5: arbitrary Resetting debris drains quickly. One
// ScenarioSpec per n: the `mid-reset-mix` initial condition on the agent
// array, run until drained.
void experiment_debris(const BenchScale& scale) {
  std::cout << "\n== C3.5: drain time from arbitrary Resetting debris "
               "(scenario: reset-process / mid-reset-mix / drained) ==\n";
  Table t({"n", "mean drain time", "p95", "(log n + Dmax) scale"});
  for (std::uint32_t n : scale.sizes({64, 256, 1024})) {
    const auto rmax =
        static_cast<std::uint32_t>(std::ceil(8 * std::log(n))) + 4;
    ScenarioSpec spec;
    spec.protocol = "reset-process";
    spec.init = "mid-reset-mix";
    spec.engine = "array";
    spec.trials = scale.trials(20);
    spec.n = n;
    spec.seed = 100 + n;
    spec.threads = scale.threads;
    const ScenarioResult r = run_scenario(spec);
    t.add_row({std::to_string(n), fmt(r.summary.mean, 1),
               fmt(r.summary.p95, 1), fmt(std::log(n) + 4.0 * rmax, 1)});
  }
  t.print();
}

// ISSUE 3: the Section 3 phase experiments past n = 10^6, on the batched
// backend (ResetProcess is enumerable). A full trigger -> drain cycle is
// Theta(n (log n + Dmax)) interactions, nearly all of them effective
// (resetcount waves and delaytimer countdowns tick on every contact) —
// auto runs them on the count engine's array arm, and drops to the
// unkeyed-passive geometric skip while the wave is still small and most
// pairs are Computing-Computing. Head-to-head wall clock per strategy via
// one ScenarioSpec per cell, with the auto wall-vs-n slope recorded (~1:
// near-constant amortized cost per interaction).
void experiment_phases_at_scale(const BenchScale& scale, BenchReport& report) {
  std::cout << "\n== T3.4 at scale (batched backend): trigger -> all "
               "computing, Rmax = 8 ln n, Dmax = 4 Rmax ==\n";
  std::vector<std::uint32_t> sizes = scale.sizes({100'000, 1'000'000});
  if (scale.full) sizes.push_back(10'000'000);
  Table t({"n", "strategy", "wall s", "drain time", "interactions"});
  std::vector<double> ns, auto_walls;
  for (std::uint32_t n : sizes) {
    for (const char* strategy : {"geometric_skip", "auto"}) {
      // The pure geometric skip simulates every candidate pair one by one;
      // past 10^6 that is the slow baseline auto replaces — skip it there
      // outside --full to keep the default run short.
      if (strategy == std::string("geometric_skip") && n > 1'000'000 &&
          !scale.full)
        continue;
      ScenarioSpec spec;
      spec.protocol = "reset-process";
      spec.init = "trigger-one";
      spec.engine = "batch";
      spec.strategy = strategy;
      spec.n = n;
      spec.seed = 373 + n;
      const ScenarioResult r = run_scenario(spec);
      t.add_row({std::to_string(n), strategy, fmt(r.wall_seconds, 2),
                 fmt(r.summary.mean, 1), fmt_sci(r.interactions_mean)});
      report.add()
          .set("experiment", "phases_at_scale")
          .set("backend", "batch")
          .set("strategy", strategy)
          .set("n", static_cast<std::uint64_t>(n))
          .set("parallel_time", r.summary.mean)
          .set("interactions",
               static_cast<std::uint64_t>(r.interactions_mean))
          .set("wall_seconds", r.wall_seconds);
      if (strategy == std::string("auto")) {
        ns.push_back(static_cast<double>(n));
        auto_walls.push_back(r.wall_seconds);
      }
    }
  }
  t.print();
  if (ns.size() >= 2) {
    const LinearFit f = fit_power_law(ns, auto_walls);
    std::cout << "auto-strategy wall ~ n^" << fmt(f.slope, 2)
              << " (R^2 = " << fmt(f.r2, 3)
              << "); drain time is Theta(Dmax) = Theta(log n) as in T3.4\n";
    report.add()
        .set("experiment", "phases_at_scale_slope")
        .set("backend", "batch")
        .set("strategy", "auto")
        .set("slope", f.slope)
        .set("r2", f.r2);
  }
}

// The unkeyed passive structure on a one-way epidemic: residual-infection
// drain (all but 16 agents already infected, the `residual-16` initial
// condition). Completion needs ~n H_16 / 2 more interactions, but almost
// all pairs are infected-infected (null by the passive structure), so the
// batched engine simulates only O(16 log 16) candidate pairs between
// geometric jumps; the agent array must grind through every interaction.
// Two ScenarioSpecs per n, differing only in the engine field.
void experiment_epidemic_residual(const BenchScale& scale,
                                  BenchReport& report) {
  std::cout << "\n== one-way epidemic, residual drain (residual-16): "
               "unkeyed passive skip vs agent array ==\n";
  std::vector<std::uint32_t> sizes = scale.sizes({1'000'000, 10'000'000});
  if (scale.full) sizes.push_back(100'000'000);
  Table t({"n", "array s", "batch s", "speedup", "batch interactions"});
  for (std::uint32_t n : sizes) {
    ScenarioSpec spec;
    spec.protocol = "one-way-epidemic";
    spec.init = "residual-16";
    spec.n = n;
    spec.seed = 571 + n;

    spec.engine = "array";
    const ScenarioResult array_r = run_scenario(spec);
    spec.engine = "batch";
    spec.strategy = "geometric_skip";
    const ScenarioResult batch_r = run_scenario(spec);

    const double speedup = array_r.wall_seconds / batch_r.wall_seconds;
    t.add_row({std::to_string(n), fmt(array_r.wall_seconds, 3),
               fmt(batch_r.wall_seconds, 5), fmt(speedup, 0),
               fmt_sci(batch_r.interactions_mean)});
    for (const char* backend : {"array", "batch"}) {
      const bool is_batch = backend == std::string("batch");
      BenchRecord& rec = report.add();
      rec.set("experiment", "epidemic_residual")
          .set("backend", backend)
          .set("n", static_cast<std::uint64_t>(n))
          .set("wall_seconds",
               is_batch ? batch_r.wall_seconds : array_r.wall_seconds);
      if (is_batch)
        rec.set("strategy", "geometric_skip")
            .set("interactions",
                 static_cast<std::uint64_t>(batch_r.interactions_mean))
            .set("speedup_vs_array", speedup);
    }
  }
  t.print();
  std::cout << "the batched engine simulates O(k log k) candidate pairs "
               "regardless of n; the array pays ~n H_k / 2 steps\n";
}

void BM_PropagateResetStep(benchmark::State& state) {
  ResetProcess proto(1024, 60, 240);
  ResetProcess::Counters counters;
  Rng rng(1);
  ResetProcess::State a, b;
  proto.trigger(a);
  for (auto _ : state) {
    proto.interact(a, b, rng, counters);
    if (!a.resetting) proto.trigger(a);
  }
}
BENCHMARK(BM_PropagateResetStep);

}  // namespace
}  // namespace ppsim

int main(int argc, char** argv) {
  const auto scale = ppsim::BenchScale::from_args(argc, argv);
  std::cout << "=== bench_propagate_reset: Protocol 2 / Section 3 ===\n";
  ppsim::BenchReport report("propagate_reset");
  ppsim::experiment_phases(scale, report);
  ppsim::experiment_phases_at_scale(scale, report);
  ppsim::experiment_epidemic_residual(scale, report);
  ppsim::experiment_scaling_in_dmax(scale);
  ppsim::experiment_debris(scale);
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
