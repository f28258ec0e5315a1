// Experiments T5.7 / L5.6 / L5.4-5.5 (Theorem 5.7 and Lemmas 5.4-5.6 of the
// paper): Sublinear-Time-SSR.
//
//   * collision-detection latency (Lemma 5.6): from a planted duplicate
//     name, some agent detects the collision in O(TH) time, i.e.
//     O(H n^{1/(H+1)}) for constant H and O(log n) for H = Theta(log n)
//   * full stabilization (Theorem 5.7): detection + reset + renaming + roll
//     call; sweeps over H show the time/space tradeoff of Table 1 rows 3-4
//   * state growth: measured history-tree sizes (live and logical nodes) as
//     the state-complexity proxy for the exp(O(n^H log n)) bound
//   * safety (Lemmas 5.4/5.5): zero false collisions over long horizons
//   * count-form abstraction: the sublinear-*-count quotient protocols on
//     the batch engine — detection latency up to n = 10^6 and the measured
//     array-vs-count wall-clock speedup (records stamped abstracted=true)
#include <benchmark/benchmark.h>

#include <cmath>
#include <iostream>

#include "analysis/bench_report.h"
#include "analysis/experiments.h"
#include "analysis/scenarios.h"
#include "core/simulation.h"
#include "init/sublinear_init.h"
#include "protocols/sublinear.h"

namespace ppsim {
namespace {

std::string h_label(std::uint32_t h) {
  return h == 0 ? "Theta(log n)" : std::to_string(h);
}

// h = 0 encodes the H = Theta(log n) configuration. Used only by the
// experiments that stay hand-rolled below (state growth, safety, the
// google-benchmark micro): they inspect individual agent states and
// detector counters, which the Scenario API's count-based summaries
// anonymize away.
SublinearParams params_for(std::uint32_t n, std::uint32_t h) {
  return h == 0 ? SublinearParams::log_time(n)
                : SublinearParams::constant_h(n, h);
}

// One ScenarioSpec per (H, n, init, until) cell: h = 0 selects the
// registered H = Theta(log n) entry, h >= 1 the constant-H entry with the
// param.h override; the registry owns the horizon/tail formulas that the
// hand-rolled loops here used to duplicate.
ScenarioSpec sublinear_spec(const BenchScale& scale, std::uint32_t h,
                            std::uint32_t n, const char* init,
                            const char* until, std::uint32_t trials,
                            std::uint64_t seed) {
  ScenarioSpec spec;
  spec.protocol = h == 0 ? "sublinear-hlog" : "sublinear-h1";
  if (h >= 2) spec.params.push_back({"h", std::to_string(h)});
  spec.init = init;
  spec.until = until;
  spec.n = n;
  spec.trials = trials;
  spec.seed = seed;
  spec.threads = scale.threads;
  return spec;
}

// Count-form cell: the same (init, until) semantics as sublinear_spec, but
// on the sublinear-*-count quotient protocols riding the batch engine.
// Records emitted through report_scenario carry the abstracted=true honesty
// stamp from the ScenarioResult.
ScenarioSpec sublinear_count_spec(const BenchScale& scale, std::uint32_t h,
                                  std::uint32_t n, const char* init,
                                  const char* until, std::uint32_t trials,
                                  std::uint64_t seed) {
  ScenarioSpec spec;
  spec.protocol = h == 0 ? "sublinear-hlog-count" : "sublinear-h1-count";
  spec.engine = "batch";
  spec.init = init;
  spec.until = until;
  spec.n = n;
  spec.trials = trials;
  spec.seed = seed;
  spec.threads = scale.threads;
  return spec;
}

void experiment_count_abstraction(const BenchScale& scale,
                                  BenchReport& report) {
  std::cout << "\n== count-form abstraction: Table 1 rows 3-4 on the batch "
               "engine ==\n";
  // Detection latency on the quotient protocols. The n = 10^6 cell for
  // H = Theta(log n) runs in every mode (appended even under --smoke):
  // reaching it is the abstraction's purpose — the agent-array form would
  // need 10^6 heap-allocated history trees, the count form a polynomial
  // count vector.
  struct Row {
    std::uint32_t h;
    std::vector<std::uint32_t> sizes;
  };
  std::vector<Row> rows = {
      {0u, scale.sizes({4096, 65536, 1000000})},
      {1u, scale.sizes({1024, 16384, 262144})},
  };
  for (Row& row : rows) {
    if (row.h == 0 && row.sizes.back() != 1000000u)
      row.sizes.push_back(1000000u);
    Sweep sweep;
    for (std::uint32_t n : row.sizes) {
      const ScenarioSpec spec = sublinear_count_spec(
          scale, row.h, n, "duplicate-names", "detected",
          scale.trials(n <= 65536 ? 6 : 3), 11000 + 3ull * n + row.h);
      const ScenarioResult r = run_scenario(spec);
      report_scenario(report,
                      row.h == 0 ? "count_detection_latency_hlog"
                                 : "count_detection_latency_h1",
                      r);
      sweep.points.push_back({static_cast<double>(n), r.summary});
    }
    print_sweep("count-form detection latency, H = " + h_label(row.h), sweep,
                "detect time");
    std::cout << "note: direction-2 witness detection is dropped by the "
                 "quotient, so these latencies sit a small constant above "
                 "the agent-array entry (records are stamped abstracted)\n";
  }

  // Array-vs-count head-to-head: the identical (init, until, n, seed,
  // trials) cell on both forms, wall-clock ratio recorded as the measured
  // speedup the abstraction buys at the largest n the agent-array form
  // still runs comfortably.
  {
    const std::uint32_t n = 4096;
    const std::uint32_t trials = scale.trials(3);
    const ScenarioResult ra = run_scenario(sublinear_spec(
        scale, 0, n, "duplicate-names", "detected", trials, 12000));
    const ScenarioResult rc = run_scenario(sublinear_count_spec(
        scale, 0, n, "duplicate-names", "detected", trials, 12000));
    report_scenario(report, "count_vs_array_hlog", ra);
    report_scenario(report, "count_vs_array_hlog", rc);
    const double speedup =
        rc.wall_seconds > 0 ? ra.wall_seconds / rc.wall_seconds : 0.0;
    report.add()
        .set("experiment", "count_vs_array_hlog_speedup")
        .set("backend", "paired")
        .set("n", static_cast<std::uint64_t>(n))
        .set("trials", static_cast<std::uint64_t>(trials))
        .set("array_wall_seconds", ra.wall_seconds)
        .set("count_wall_seconds", rc.wall_seconds)
        .set("wall_speedup", speedup);
    std::cout << "\narray wall " << fmt(ra.wall_seconds, 3) << " s vs count "
              << fmt(rc.wall_seconds, 3) << " s at n = " << n << ": "
              << fmt(speedup, 1) << "x\n";
  }
}

void experiment_detection_latency(const BenchScale& scale, BenchReport& report) {
  std::cout << "\n== L5.6: collision-detection latency (indirect only) ==\n";
  // direct_check off: only the indirect (tree-path) mechanism of
  // Protocol 7 is measured.
  for (std::uint32_t h : {1u, 2u, 3u}) {
    Sweep sweep;
    std::vector<std::uint32_t> sizes =
        h == 1 ? scale.sizes({64, 128, 256, 512, 1024})
               : scale.sizes({64, 128, 256, 512});
    for (std::uint32_t n : sizes) {
      ScenarioSpec spec =
          sublinear_spec(scale, h, n, "duplicate-names", "detected",
                         scale.trials(n <= 256 ? 12 : 6), 6000 + n * 7 + h);
      spec.params.push_back({"direct_check", "0"});
      spec.max_interactions = 1ull << 34;
      sweep.points.push_back(
          {static_cast<double>(n), run_scenario(spec).summary});
    }
    print_sweep("detection latency, H = " + h_label(h), sweep,
                "detect time");
    report_sweep(report, "detection_latency_h" + std::to_string(h), "array",
                 sweep, "detect_time");
    const double expect = 1.0 / (h + 1);
    std::cout << "paper: O(H n^{1/(H+1)}) -> exponent ~" << fmt(expect, 3)
              << "\n";
  }
  // H = Theta(log n): latency should grow like log n, i.e. exponent -> 0.
  {
    Sweep sweep;
    Table t({"n", "mean detect time", "p95", "ln n", "mean/ln(n)"});
    for (std::uint32_t n : scale.sizes({16, 32, 64, 128})) {
      ScenarioSpec spec =
          sublinear_spec(scale, 0, n, "duplicate-names", "detected",
                         scale.trials(n <= 64 ? 10 : 6), 7000 + n);
      spec.params.push_back({"direct_check", "0"});
      spec.max_interactions = 1ull << 34;
      const Summary s = run_scenario(spec).summary;
      sweep.points.push_back({static_cast<double>(n), s});
      t.add_row({std::to_string(n), fmt(s.mean, 2), fmt(s.p95, 2),
                 fmt(std::log(n), 2), fmt(s.mean / std::log(n), 3)});
    }
    std::cout << "\n== detection latency, H = Theta(log n) ==\n";
    t.print();
    report_sweep(report, "detection_latency_hlog", "array", sweep,
                 "detect_time");
    if (sweep.points.size() >= 2) {
      const LinearFit f = sweep.fit();
      std::cout << "log-log fit: time ~ n^" << fmt(f.slope, 3)
                << "  (paper: O(log n), exponent -> 0; mean/ln(n) ~ const)\n";
    }
  }
}

void experiment_stabilization(const BenchScale& scale, BenchReport& report) {
  std::cout << "\n== T5.7: full stabilization from adversarial starts ==\n";
  struct Config {
    std::uint32_t h;
    std::vector<std::uint32_t> sizes;
  };
  // H = 1 runs cheaply at large n (depth-1 grafts keep only the partner's
  // name); H >= 2 grafts share the partner's whole history snapshot, so
  // memory grows with the run and sizes stay moderate (collision_tree.h's
  // header comment describes the representation).
  const std::vector<Config> configs = {
      {1u, scale.sizes({32, 64, 128, 256, 512})},
      {2u, scale.sizes({32, 64, 128})},
      // H = Theta(log n): per-interaction detection walks the
      // quasi-exponential live tree, so end-to-end runs stay tiny; the
      // detection-latency sweep above covers larger n for this row.
      {0u, scale.sizes({8, 16})},
  };
  for (const auto& cfg : configs) {
    for (const char* kind : {"duplicate-names", "uniform-random"}) {
      Sweep sweep;
      for (std::uint32_t n : cfg.sizes) {
        const ScenarioSpec spec = sublinear_spec(
            scale, cfg.h, n, kind, "ranked",
            scale.trials(n <= 128 ? 4 : 3), 8000 + n * 13 + cfg.h);
        sweep.points.push_back(
            {static_cast<double>(n), run_scenario(spec).summary});
      }
      print_sweep("stabilization, H = " + h_label(cfg.h) + ", start = " +
                      std::string(kind),
                  sweep);
      report_sweep(report,
                   "stabilization_h" + std::to_string(cfg.h) + "_" + kind,
                   "array", sweep);
      if (cfg.h != 0) {
        std::cout << "paper: Theta(H n^{1/(H+1)}) -> exponent ~"
                  << fmt(1.0 / (cfg.h + 1), 3) << "\n";
      } else {
        std::cout << "paper: Theta(log n) -> additive growth per doubling\n";
      }
      std::cout << "note: totals include the reset pipeline's ~Dmax/2 + "
                   "Theta(log n) additive overhead, which dominates at "
                   "laptop n; the H-dependent component is isolated in the "
                   "detection-latency tables above\n";
    }
  }
}

void experiment_state_growth(const BenchScale& scale) {
  std::cout << "\n== T5.7 state proxy: history-tree sizes at steady state "
               "==\n";
  Table t({"H", "n", "mean live nodes", "max live", "mean logical nodes",
           "DFS nodes/call", "worst DFS call"});
  struct Probe {
    std::uint32_t h;
    std::uint32_t n;
  };
  const std::vector<Probe> probes =
      scale.smoke ? std::vector<Probe>{{1, 64}, {0, 16}}
                  : std::vector<Probe>{{1, 64}, {1, 256}, {1, 1024}, {2, 64},
                                       {2, 128}, {3, 64}, {0, 16}};
  for (const auto& probe : probes) {
    const auto p = params_for(probe.n, probe.h);
    SublinearTimeSSR proto(p);
    auto init = sublinear_config(p, SlAdversary::kCorrectRanked, 9000);
    Simulation<SublinearTimeSSR> sim(proto, std::move(init), 9001);
    std::uint64_t warmup = std::min<std::uint64_t>(
        400000, static_cast<std::uint64_t>(probe.n) * (4ull * p.th + 50));
    if (scale.smoke) warmup /= 10;
    sim.run(warmup);
    double live_sum = 0, logical_sum = 0;
    std::uint64_t live_max = 0;
    // Counting caps: the live/logical portion of an H = Theta(log n) tree is
    // the quasi-exponential object itself — enumerate only to bounded depth.
    const std::uint32_t live_cap = std::min(p.depth_h, 8u);
    for (const auto& s : sim.states()) {
      const auto live = live_node_count(s.tree, live_cap);
      live_sum += static_cast<double>(live);
      live_max = std::max(live_max, live);
      logical_sum += static_cast<double>(
          logical_node_count(s.tree, std::min(p.depth_h, 4u)));
    }
    const auto& ds = sim.counters().detector;
      t.add_row({h_label(probe.h), std::to_string(probe.n),
               fmt(live_sum / probe.n, 1), std::to_string(live_max),
               fmt(logical_sum / probe.n, 1),
               fmt(static_cast<double>(ds.nodes_visited) /
                       std::max<std::uint64_t>(1, ds.calls),
                   1),
               std::to_string(ds.max_nodes_one_call)});
  }
  t.print();
  std::cout << "paper: the tree field needs exp(O(n^H) log n) states; live "
               "sizes grow with H and n (logical counts capped at depth 6)\n";
}

void experiment_safety(const BenchScale& scale) {
  std::cout << "\n== L5.4/5.5 safety: false-collision rate after a correct "
               "configuration ==\n";
  Table t({"H", "n", "interactions", "collision triggers", "ghost triggers",
           "resets"});
  for (std::uint32_t h : {1u, 2u, 0u}) {
    const std::uint32_t n = h == 1 ? 64 : (h == 2 ? 32 : 16);
    const auto p = params_for(n, h);
    SublinearTimeSSR proto(p);
    auto init = sublinear_config(p, SlAdversary::kCorrectRanked, 10000 + h);
    Simulation<SublinearTimeSSR> sim(proto, std::move(init), 10001 + h);
    const std::uint64_t horizon = h == 1 ? 400000ull * scale.trials(1)
                                         : (h == 2 ? 150000ull : 20000ull);
    sim.run(scale.smoke ? horizon / 10 : horizon);
    const auto& c = sim.counters();
    t.add_row({h_label(h), std::to_string(n),
               std::to_string(sim.interactions()),
               std::to_string(c.collision_triggers),
               std::to_string(c.ghost_triggers),
               std::to_string(c.resets_executed)});
  }
  t.print();
  std::cout << "paper: a uniquely-named configuration reached after a clean "
               "reset never produces a false collision (all zeros)\n";
}

void BM_SublinearInteractionSteadyState(benchmark::State& state) {
  const auto h = static_cast<std::uint32_t>(state.range(0));
  const auto n = static_cast<std::uint32_t>(state.range(1));
  const auto p = params_for(n, h);
  SublinearTimeSSR proto(p);
  auto states = sublinear_config(p, SlAdversary::kCorrectRanked, 42);
  Simulation<SublinearTimeSSR> sim(proto, std::move(states), 43);
  sim.run(20000);  // reach tree steady state
  for (auto _ : state) sim.step();
  state.counters["dfs_nodes_per_call"] =
      static_cast<double>(sim.counters().detector.nodes_visited) /
      std::max<std::uint64_t>(1, sim.counters().detector.calls);
}
BENCHMARK(BM_SublinearInteractionSteadyState)
    ->Args({1, 256})
    ->Args({2, 256})
    ->Args({0, 16});

}  // namespace
}  // namespace ppsim

int main(int argc, char** argv) {
  const auto scale = ppsim::BenchScale::from_args(argc, argv);
  std::cout << "=== bench_sublinear: Protocols 5-8 / Theorem 5.7 "
               "(Table 1 rows 3-4) ===\n";
  ppsim::BenchReport report("sublinear");
  ppsim::experiment_detection_latency(scale, report);
  ppsim::experiment_count_abstraction(scale, report);
  ppsim::experiment_stabilization(scale, report);
  ppsim::experiment_state_growth(scale);
  ppsim::experiment_safety(scale);
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
