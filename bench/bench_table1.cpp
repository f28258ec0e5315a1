// Experiment T1: the paper's Table 1 — time and space of
// every self-stabilizing ranking protocol, side by side — now a thin
// wrapper over the Scenario API (core/registry.h, analysis/scenarios.h):
// every measurement below is a declarative ScenarioSpec executed by the
// protocol registry, the same specs `ppsle_run --scenario` takes on the
// command line (bench/scenarios/table1_row1.json reproduces the row-1
// sweep standalone).
//
//   protocol                    expected time   WHP time        states  silent
//   Silent-n-state-SSR [21]     Theta(n^2)      Theta(n^2)      n       yes
//   Optimal-Silent-SSR          Theta(n)        Theta(n log n)  O(n)    yes
//   Sublinear-Time-SSR  H=logn  Theta(log n)    Theta(log n)    exp     no
//   Sublinear-Time-SSR  H=const Theta(H n^{1/(H+1)})            exp     no
//
// Sections:
//  * the measured Table 1 at laptop sizes (rows 1-2 on the batched backend,
//    rows 3-4 on the agent array — Sublinear's state space is not
//    enumerable);
//  * the batched backend's large-n extension of rows 1-2: full row-1
//    stabilization up to n = 10^6+ and the Observation 2.6 detection
//    latency (time until a duplicated rank is detected, the paper's Omega(n)
//    lower-bound quantity for silent protocols) up to n = 10^7;
//  * the backend acceptance head-to-head at n = 10^6: the same
//    duplicate-rank workload on both engines, end-to-end wall clock
//    measured, >= 10x required and recorded in BENCH_table1.json with each
//    side's achieved parallel time.
#include <benchmark/benchmark.h>

#include <cmath>
#include <iostream>
#include <iterator>

#include "analysis/bench_report.h"
#include "analysis/scenarios.h"
#include "common/cli.h"
#include "core/stats.h"
#include "core/table.h"

namespace ppsim {
namespace {

struct RowResult {
  Sweep sweep;
  std::string states;
  std::string silent;
};

// One Table-1 sweep: the same spec at each n, summaries into a Sweep.
Sweep sweep_scenario(const BenchScale& scale, ScenarioSpec spec,
                     const std::vector<std::uint32_t>& sizes,
                     std::uint64_t seed_base) {
  Sweep sweep;
  spec.threads = scale.threads;
  for (std::uint32_t n : sizes) {
    spec.n = n;
    spec.seed = seed_base + n;
    sweep.points.push_back(
        {static_cast<double>(n), run_scenario(spec).summary});
  }
  return sweep;
}

RowResult measure_silent_nstate(const BenchScale& scale,
                                const std::vector<std::uint32_t>& sizes) {
  ScenarioSpec spec;
  spec.protocol = "silent-nstate";
  spec.init = "worst-case";
  spec.engine = "batch";
  spec.strategy = "geometric_skip";
  spec.trials = scale.trials(30);
  RowResult row;
  row.sweep = sweep_scenario(scale, spec, sizes, 11);
  row.states = "n (exact)";
  row.silent = "yes";
  return row;
}

RowResult measure_optimal_silent(const BenchScale& scale,
                                 const std::vector<std::uint32_t>& sizes) {
  RowResult row;
  for (std::uint32_t n : sizes) {
    ScenarioSpec spec;
    spec.protocol = "optimal-silent";
    spec.init = "uniform-random";
    spec.engine = "batch";
    spec.strategy = "geometric_skip";
    spec.trials = scale.trials(n <= 256 ? 8 : 5);
    spec.n = n;
    spec.seed = 21 + n;
    spec.threads = scale.threads;
    row.sweep.points.push_back(
        {static_cast<double>(n), run_scenario(spec).summary});
  }
  const auto p = OptimalSilentParams::standard(1024);
  row.states = "~" + std::to_string((3 * 1024 + p.emax + 1 +
                                     2 * (p.rmax + p.dmax + 1)) /
                                    1024) +
               "n";
  row.silent = "yes";
  return row;
}

RowResult measure_sublinear(const BenchScale& scale, std::uint32_t h,
                            const std::vector<std::uint32_t>& sizes) {
  RowResult row;
  for (std::uint32_t n : sizes) {
    // The H = Theta(log n) row's trees make single interactions expensive
    // to simulate at larger n (the quasi-exponential state is real).
    ScenarioSpec spec;
    spec.protocol = h == 0 ? "sublinear-hlog" : "sublinear-h1";
    spec.init = "uniform-random";
    spec.engine = "array";
    spec.trials = scale.trials(h == 0 ? 3 : (n <= 64 ? 5 : 3));
    spec.n = n;
    spec.seed = 31 + n + h;
    spec.threads = scale.threads;
    row.sweep.points.push_back(
        {static_cast<double>(n), run_scenario(spec).summary});
  }
  row.states = h == 0 ? "exp(O(n^log n) log n)" : "exp(O(n^H) log n)";
  row.silent = "no";
  return row;
}

void print_table1(const BenchScale& scale, BenchReport& report) {
  const std::vector<std::uint32_t> common = scale.sizes({32, 64, 128, 256});
  std::cout << "\n== Table 1 (measured): stabilization parallel time from "
               "adversarial starts ==\n";
  std::cout << "(rows 1-2: batched backend + parallel seed fan-out; rows "
               "3-4: agent array; every cell one ScenarioSpec)\n";

  const RowResult r1 = measure_silent_nstate(scale, common);
  const RowResult r2 = measure_optimal_silent(scale, common);
  const RowResult r3 = measure_sublinear(scale, 0, scale.sizes({8, 16}));
  const RowResult r4 = measure_sublinear(scale, 1, common);
  report_sweep(report, "table1_silent_nstate", "batch", r1.sweep);
  report_sweep(report, "table1_optimal_silent", "batch", r2.sweep);
  report_sweep(report, "table1_sublinear_hlog", "array", r3.sweep);
  report_sweep(report, "table1_sublinear_h1", "array", r4.sweep);

  Table t({"protocol", "paper expected", "paper WHP", "states", "silent",
           "measured mean time @n", "measured exponent"});
  auto cell = [](const RowResult& r) {
    std::string s;
    for (const auto& p : r.sweep.points)
      s += fmt(p.summary.mean, 0) + "@" + fmt(p.n, 0) + " ";
    return s;
  };
  auto slope = [](const RowResult& r) {
    return r.sweep.points.size() >= 2 ? fmt(r.sweep.fit().slope, 2)
                                      : std::string("-");
  };
  t.add_row({"Silent-n-state-SSR [21]", "Theta(n^2)", "Theta(n^2)",
             r1.states, r1.silent, cell(r1), slope(r1)});
  t.add_row({"Optimal-Silent-SSR", "Theta(n)", "Theta(n log n)", r2.states,
             r2.silent, cell(r2), slope(r2)});
  t.add_row({"Sublinear-Time-SSR H=3log2(n)", "Theta(log n)", "Theta(log n)",
             r3.states, r3.silent, cell(r3), slope(r3)});
  t.add_row({"Sublinear-Time-SSR H=1", "Theta(H n^{1/(H+1)})",
             "Theta(log n * n^{1/(H+1)})", r4.states, r4.silent, cell(r4),
             slope(r4)});
  t.print();

  std::cout
      << "\npaper exponents: 2 / 1 / ~0 / 0.5. The sublinear rows carry an "
         "additive reset overhead (~Dmax/2) that biases their fitted\n"
         "exponents downward at laptop n; bench_sublinear isolates the "
         "H-dependent detection component, where the exponents match.\n";

  std::cout << "\n== who wins at which n (mean time, same adversarial "
               "family) ==\n";
  Table w({"n", "Silent-n-state", "Optimal-Silent", "Sublinear H=1",
           "fastest"});
  for (std::size_t i = 0; i < common.size(); ++i) {
    const double a = r1.sweep.points[i].summary.mean;
    const double b = r2.sweep.points[i].summary.mean;
    const double c = r4.sweep.points[i].summary.mean;
    const char* win = a < b && a < c ? "Silent-n-state"
                      : b < c        ? "Optimal-Silent"
                                     : "Sublinear H=1";
    w.add_row({fmt(common[i], 0), fmt(a, 0), fmt(b, 0), fmt(c, 0), win});
  }
  w.print();
  std::cout << "paper: the n-state baseline loses quickly (x4 per doubling); "
               "the crossover between Optimal-Silent (x2 per doubling) and "
               "Sublinear (additive + n^{1/2} growth) moves with the reset "
               "constants\n";
}

// Row 1 at population sizes only the count-based backend can reach: full
// stabilization of the Theta(n^2)-time protocol from the worst-case
// configuration (the batched engine does O(1) work per *effective*
// interaction; the agent array would need ~n^3/2 scheduler draws).
void experiment_row1_scale(const BenchScale& scale, BenchReport& report) {
  std::cout << "\n== row 1 at scale (batched backend): Silent-n-state-SSR "
               "full stabilization ==\n";
  Table t({"n", "trials", "E[time] (~n^2/2)", "wall s/run",
           "interactions/run"});
  std::vector<std::uint32_t> sizes =
      scale.sizes({100'000, 1'000'000, 10'000'000});
  if (!scale.full && !scale.smoke) sizes.pop_back();  // 10^7: --full only
  Sweep sweep;
  for (std::uint32_t n : sizes) {
    ScenarioSpec spec;
    spec.protocol = "silent-nstate";
    spec.init = "worst-case";
    spec.engine = "batch";
    spec.strategy = "geometric_skip";
    spec.trials = scale.smoke ? 1 : (n >= 1'000'000 ? 2 : 3);
    spec.n = n;
    spec.seed = 41 + n;
    spec.threads = 1;  // serial: wall s/run is a measurement here
    const ScenarioResult r = run_scenario(spec);
    const double wall = r.wall_seconds / static_cast<double>(r.trials);
    sweep.points.push_back({static_cast<double>(n), r.summary});
    t.add_row({std::to_string(n), std::to_string(r.trials),
               fmt_sci(r.summary.mean), fmt(wall, 2),
               fmt_sci(r.interactions_mean)});
    report.add()
        .set("experiment", "row1_scale")
        .set("backend", "batch")
        .set("strategy", "geometric_skip")
        .set("n", static_cast<std::uint64_t>(n))
        .set("trials", r.trials)
        .set("parallel_time", r.summary.mean)
        .set("interactions",
             static_cast<std::uint64_t>(r.interactions_mean))
        .set("wall_seconds", wall);
  }
  t.print();
  if (sweep.points.size() >= 2)
    std::cout << "log-log slope (expect ~2): "
              << fmt(sweep.fit().slope, 3) << "\n";
}

// Observation 2.6 at scale: a silent protocol can detect a duplicated rank
// only when the two duplicates meet (expected n(n-1)/2 interactions =
// (n-1)/2 parallel time) — the paper's Omega(n) silent lower bound. The
// keyed-passive batched engine simulates the whole wait as one geometric
// jump, so the sweep reaches n = 10^7.
void experiment_detection_scale(const BenchScale& scale, BenchReport& report) {
  std::cout << "\n== Observation 2.6 at scale (batched backend): "
               "duplicate-rank detection latency, Optimal-Silent-SSR ==\n";
  Table t({"n", "trials", "E[detect] measured", "analytic (n-1)/2",
           "wall s/run"});
  const std::vector<std::uint32_t> sizes =
      scale.sizes({10'000, 100'000, 1'000'000, 10'000'000});
  for (std::uint32_t n : sizes) {
    ScenarioSpec spec;
    spec.protocol = "optimal-silent";
    spec.init = "duplicate-rank";
    spec.engine = "batch";
    spec.strategy = "geometric_skip";
    spec.until = "detected";
    spec.trials = scale.smoke ? 1 : (n >= 10'000'000 ? 2 : 5);
    spec.n = n;
    spec.seed = 51 + n;
    spec.threads = 1;  // serial: wall s/run is a measurement here
    const ScenarioResult r = run_scenario(spec);
    const double wall = r.wall_seconds / static_cast<double>(r.trials);
    t.add_row({std::to_string(n), std::to_string(r.trials),
               fmt_sci(r.summary.mean), fmt_sci((n - 1) / 2.0),
               fmt(wall, 2)});
    report.add()
        .set("experiment", "detection_latency")
        .set("backend", "batch")
        .set("strategy", "geometric_skip")
        .set("n", static_cast<std::uint64_t>(n))
        .set("trials", r.trials)
        .set("parallel_time", r.summary.mean)
        .set("analytic_parallel_time", (n - 1) / 2.0)
        .set("wall_seconds", wall);
  }
  t.print();
  std::cout << "the measured latency is Theta(n) with the analytic constant: "
               "the silent lower bound, reproduced at n = 10^7\n";
}

// Strategy head-to-head, auto vs geometric skip, on the timer-heavy regime
// of Optimal-Silent-SSR, up to n = 10^6.
//
// Workload: the dormant countdown (the `dormant-mix` initial condition —
// everyone Resetting with delaytimer = Dmax, the post-wave configuration
// of every reset epoch). Every interaction decrements two delay timers, so
// every interaction is effective: the geometric skip degenerates to
// one-by-one simulation whose per-step Fenwick updates walk a 35n-entry
// tree (280 MB at n = 10^6, ~25 DRAM misses per draw), while auto runs the
// countdown on the count engine's array arm, two random array reads per
// interaction.
//
// The head-to-head runs a fixed parallel-time budget per n (until=ptime;
// running FULL stabilization at n = 10^6 is not an option for either
// strategy — the countdown alone is ~4 n^2 = 4e12 sequential effective
// interactions, days of wall clock for any exact engine). The recorded
// acceptance quantities: auto >= 5x faster at n = 10^6, and each
// strategy's wall-vs-n log-log slope.
void experiment_strategy_timer_heavy(const BenchScale& scale,
                                     BenchReport& report) {
  const double budget_ptime = scale.smoke ? 0.25 : (scale.quick ? 2.0 : 5.0);
  std::cout << "\n== strategy head-to-head (timer-heavy dormant countdown): "
            << budget_ptime << " parallel time units per run ==\n";
  const std::vector<std::uint32_t> sizes =
      scale.sizes({62'500, 250'000, 1'000'000});
  const char* strategies[] = {"geometric_skip", "auto"};
  constexpr std::size_t kStrategies = std::size(strategies);
  Table t({"n", "strategy", "wall s (min)", "interactions", "Minter/s"});
  // Wall clock at sub-second scales swings with ambient memory/frequency
  // state (the neighboring experiments allocate GBs); interleaved
  // repetitions with a per-strategy minimum measure the code, not the
  // machine's mood.
  const int reps = scale.smoke || scale.quick ? 1 : 3;
  std::vector<double> ns;
  std::vector<std::vector<double>> walls(kStrategies);
  for (std::uint32_t n : sizes) {
    ns.push_back(static_cast<double>(n));
    double best[kStrategies] = {1e300, 1e300};
    double interactions[kStrategies] = {0, 0};
    for (int rep = 0; rep < reps; ++rep) {
      for (std::size_t si = 0; si < kStrategies; ++si) {
        ScenarioSpec spec;
        spec.protocol = "optimal-silent";
        spec.init = "dormant-mix";
        spec.engine = "batch";
        spec.strategy = strategies[si];
        spec.until = "ptime";
        spec.horizon_ptime = budget_ptime;
        spec.n = n;
        spec.seed = 97 + n;
        const ScenarioResult r = run_scenario(spec);
        best[si] = std::min(best[si], r.summary.mean);  // run wall, 1 trial
        interactions[si] = r.interactions_mean;
      }
    }
    for (std::size_t si = 0; si < kStrategies; ++si) {
      walls[si].push_back(best[si]);
      t.add_row({std::to_string(n), strategies[si], fmt(best[si], 3),
                 fmt_sci(interactions[si]),
                 fmt(interactions[si] / best[si] / 1e6, 1)});
      report.add()
          .set("experiment", "strategy_timer_heavy")
          .set("backend", "batch")
          .set("strategy", strategies[si])
          .set("n", static_cast<std::uint64_t>(n))
          .set("parallel_time", budget_ptime)
          .set("interactions", static_cast<std::uint64_t>(interactions[si]))
          .set("wall_seconds", best[si]);
    }
  }
  t.print();
  if (ns.size() >= 2) {
    for (std::size_t si = 0; si < kStrategies; ++si) {
      const LinearFit f = fit_power_law(ns, walls[si]);
      std::cout << "wall ~ n^" << fmt(f.slope, 2) << " for "
                << strategies[si] << " (R^2 = " << fmt(f.r2, 3) << ")\n";
      report.add()
          .set("experiment", "strategy_timer_heavy_slope")
          .set("backend", "batch")
          .set("strategy", strategies[si])
          .set("slope", f.slope)
          .set("r2", f.r2);
    }
  }
  const double speedup = walls[0].back() / walls[1].back();
  const bool gate_active = !scale.smoke && !scale.quick;
  if (gate_active) {
    std::cout << (speedup >= 5.0 ? "PASS" : "FAIL")
              << ": auto strategy " << fmt(speedup, 1)
              << "x faster than geometric_skip at n = " << sizes.back()
              << " (>= 5x required)\n";
  } else {
    std::cout << "auto strategy " << fmt(speedup, 1)
              << "x faster than geometric_skip at n = " << sizes.back()
              << " (acceptance gate needs the default budget)\n";
  }
  BenchRecord& rec = report.add();
  rec.set("experiment", "strategy_acceptance")
      .set("backend", "batch")
      .set("n", static_cast<std::uint64_t>(sizes.back()))
      .set("speedup_auto_vs_geometric", speedup);
  if (gate_active) rec.set("acceptance_pass", speedup >= 5.0);
}

// Full stabilization (uniform-random adversarial start) strategy face-off
// at the largest feasible n: the same runs the Table 1 sweep does, wall
// clock per strategy. Stabilization times agree across strategies (the
// cross-strategy CI tests enforce it); the wall clock shows where each
// strategy earns its keep over a whole run that crosses timer-heavy *and*
// silent-heavy phases (auto switches between them on the exact
// active-weight density).
void experiment_strategy_full_stabilization(const BenchScale& scale,
                                            BenchReport& report) {
  const std::uint32_t n = scale.smoke ? 256 : (scale.full ? 8192 : 4096);
  std::cout << "\n== full stabilization strategy face-off (n = " << n
            << ", uniform-random start) ==\n";
  Table t({"strategy", "trials", "wall s/run", "E[time]"});
  for (const char* strategy : {"geometric_skip", "auto"}) {
    ScenarioSpec spec;
    spec.protocol = "optimal-silent";
    spec.init = "uniform-random";
    spec.engine = "batch";
    spec.strategy = strategy;
    spec.trials = scale.smoke ? 1 : 4;
    spec.n = n;
    spec.seed = 71 + n;
    spec.threads = 1;  // serial: this experiment measures wall clock
    const ScenarioResult r = run_scenario(spec);
    const double wall = r.wall_seconds / static_cast<double>(r.trials);
    t.add_row({strategy, std::to_string(r.trials), fmt(wall, 3),
               fmt(r.summary.mean, 0)});
    report.add()
        .set("experiment", "row2_full_stabilization_strategy")
        .set("backend", "batch")
        .set("strategy", strategy)
        .set("n", static_cast<std::uint64_t>(n))
        .set("trials", r.trials)
        .set("parallel_time", r.summary.mean)
        .set("wall_seconds", wall);
  }
  t.print();
}

// ISSUE 2 acceptance: the same n = 10^6 Optimal-Silent-SSR run on both
// engines, wall-clock measured, >= 10x required. Workload: simulate T
// parallel time units from the duplicate-rank configuration (the stable
// regime a deployed silent protocol spends its life in). Identical
// stochastic process and horizon on both engines — the two ScenarioSpecs
// differ only in the engine field; the batched backend geometric-skips the
// null stretches, the agent array cannot.
void experiment_backend_acceptance(const BenchScale& scale,
                                   BenchReport& report) {
  const std::uint32_t n = scale.smoke ? 1024 : 1'000'000;
  const double budget_time = scale.smoke ? 50 : (scale.quick ? 200 : 1000);
  std::cout << "\n== backend acceptance (n = " << n << "): " << budget_time
            << " parallel time units from the duplicate-rank start ==\n";
  ScenarioSpec spec;
  spec.protocol = "optimal-silent";
  spec.init = "duplicate-rank";
  spec.until = "ptime";
  spec.horizon_ptime = budget_time;
  spec.n = n;
  spec.seed = 7;

  // Each side is gated on its end-to-end wall (resolve, init, engine
  // construction and the run), not the run phase alone.
  auto run_timed = [&](double& wall_s) {
    const WallTimer wall;
    ScenarioResult r = run_scenario(spec);
    wall_s = wall.seconds();
    return r;
  };
  spec.engine = "array";
  double array_s = 0;
  const ScenarioResult array_r = run_timed(array_s);
  const double array_rate = array_r.interactions_mean / array_r.summary.mean;

  spec.engine = "batch";
  spec.strategy = "geometric_skip";
  double batch_s = 0;
  const ScenarioResult batch_r = run_timed(batch_s);

  // Achieved simulation parallel time = interactions / n: the batched
  // engine may overshoot the requested budget by far (a final geometric
  // jump is real simulated time), so both sides print and record what
  // actually ran, and --strict drift checks can fire on it.
  const double array_ptime =
      array_r.interactions_mean / static_cast<double>(n);
  const double batch_ptime =
      batch_r.interactions_mean / static_cast<double>(n);
  const double speedup = array_s / batch_s;
  Table t({"backend", "wall s (end to end)", "run s", "parallel time",
           "interactions simulated"});
  t.add_row({"agent array", fmt(array_s, 3), fmt(array_r.summary.mean, 3),
             fmt_sci(array_ptime), fmt_sci(array_r.interactions_mean)});
  t.add_row({"batched", fmt(batch_s, 3), fmt(batch_r.summary.mean, 3),
             fmt_sci(batch_ptime), fmt_sci(batch_r.interactions_mean)});
  t.print();
  if (scale.smoke || scale.quick) {
    std::cout << "batched backend " << fmt(speedup, 1)
              << "x faster end to end (acceptance check needs the default "
                 "budget: --quick/--smoke shrink the horizon below the "
                 "batched engine's per-run overheads)\n";
  } else {
    std::cout << (speedup >= 10.0 ? "PASS" : "FAIL") << ": batched backend "
              << fmt(speedup, 1)
              << "x faster end to end (>= 10x required at n = 10^6)\n";
  }
  report.add()
      .set("experiment", "acceptance_fixed_budget")
      .set("backend", "array")
      .set("n", static_cast<std::uint64_t>(n))
      .set("parallel_time", array_ptime)
      .set("interactions",
           static_cast<std::uint64_t>(array_r.interactions_mean))
      .set("wall_seconds", array_s)
      .set("run_seconds", array_r.summary.mean);
  {
    BenchRecord& rec = report.add();
    rec.set("experiment", "acceptance_fixed_budget")
        .set("backend", "batch")
        .set("strategy", "geometric_skip")
        .set("n", static_cast<std::uint64_t>(n))
        .set("parallel_time", batch_ptime)
        .set("interactions",
             static_cast<std::uint64_t>(batch_r.interactions_mean))
        .set("wall_seconds", batch_s)
        .set("run_seconds", batch_r.summary.mean)
        .set("speedup_vs_array", speedup)
        .set("mode", scale.smoke   ? "smoke"
                     : scale.quick ? "quick"
                     : scale.full  ? "full"
                                   : "default");
    // The >= 10x acceptance verdict is only meaningful at the default (or
    // --full) budget; smoke/quick shrink the horizon below the batched
    // engine's fixed construction cost, and perf tooling must not read a
    // failing gate out of a CI smoke artifact.
    if (!scale.smoke && !scale.quick)
      rec.set("acceptance_pass", speedup >= 10.0);
  }

  // Run-to-detection at the same n: the batched engine completes the full
  // expected n(n-1)/2-interaction wait outright; the agent array's time for
  // the identical run is projected from its measured per-interaction rate
  // (labeled as a projection — at n = 10^6 the direct run would take hours).
  spec.until = "detected";
  spec.horizon_ptime = 0;
  spec.seed = 11;
  const ScenarioResult detect_r = run_scenario(spec);
  const double detect_s = detect_r.wall_seconds;
  const double array_projected_s = detect_r.interactions_mean / array_rate;
  std::cout << "run-to-detection at n = " << n << ": batched "
            << fmt(detect_s, 3) << " s for "
            << fmt_sci(detect_r.interactions_mean)
            << " interactions; agent array projected "
            << fmt(array_projected_s, 0) << " s at its measured "
            << fmt_sci(array_rate) << " interactions/s ("
            << fmt_sci(array_projected_s / detect_s)
            << "x, projection)\n";
  report.add()
      .set("experiment", "run_to_detection")
      .set("backend", "batch")
      .set("n", static_cast<std::uint64_t>(n))
      .set("interactions",
           static_cast<std::uint64_t>(detect_r.interactions_mean))
      .set("parallel_time", detect_r.summary.mean)
      .set("wall_seconds", detect_s)
      .set("array_projected_seconds", array_projected_s)
      .set("array_projected", true);
}

}  // namespace
}  // namespace ppsim

int main(int argc, char** argv) {
  const auto scale = ppsim::BenchScale::from_args(argc, argv);
  ppsim::BenchReport report("table1");
  std::cout << "=== bench_table1: the paper's Table 1, measured "
               "(Scenario API over the unified Engine API) ===\n";
  // The strategy head-to-head runs before the n = 10^7 detection sweep:
  // the latter's multi-GB engines perturb wall clocks for a while after.
  ppsim::print_table1(scale, report);
  ppsim::experiment_row1_scale(scale, report);
  ppsim::experiment_strategy_timer_heavy(scale, report);
  ppsim::experiment_strategy_full_stabilization(scale, report);
  ppsim::experiment_detection_scale(scale, report);
  ppsim::experiment_backend_acceptance(scale, report);
  const std::string path = report.write();
  if (!path.empty()) std::cout << "\nmachine-readable results: " << path << "\n";
  return 0;
}
