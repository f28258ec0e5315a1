// Fault-injection bench: protocol behavior under an unreliable network
// (core/faults.h), measured through the Scenario API so every cell is a
// declarative ScenarioSpec and every record carries the `faulted` honesty
// stamp with its knobs (bench_compare keys on them; seeded faults stay
// bit-deterministic, so --strict applies to these records in full).
//
//   * convergence vs drop rate: Optimal-Silent-SSR ranked-stabilization
//     time across drop in {0, 0.1, 0.25, 0.5} — message loss is uniform
//     pair thinning, so time scales like 1/(1-drop) with the conditional
//     interaction law unchanged;
//   * the same law at n = 10^6 on the count path: detection latency of a
//     duplicated rank (optimal-silent, until=detected) and rank thinning
//     (silent-nstate, until=thinned) from duplicate-rank starts — the
//     geometric skip jumps straight to the meeting, so each trial costs
//     O(1) effective steps even at a million agents, and the drop curve is
//     the cleanest possible readout of the thinned pair probability;
//   * one-way delivery at n = 10^6: same cells with oneway=0.5 — replies
//     are lost, so only initiator-side transitions land and the meeting
//     must repeat until a two-way delivery resolves it;
//   * holding time vs churn at n = 10^6: from a correct (silent) ranking,
//     until=held measures the parallel time until a crash-reset breaks
//     correctness. While correct the configuration is silent, so the count
//     engines fast-forward between crashes and a million-agent trial costs
//     O(crashes) work. Expected holding time ~ 1/churn.
//
// --fault.drop/--fault.oneway/--fault.churn (common/cli.h) add one custom
// convergence cell with exactly those knobs on top of the fixed curves.
#include <cstdint>
#include <iostream>
#include <string>

#include "analysis/bench_report.h"
#include "analysis/scenarios.h"
#include "common/cli.h"
#include "core/table.h"

namespace ppsim {
namespace {

ScenarioSpec fault_spec(const BenchScale& scale, const char* protocol,
                        const char* init, const char* until, std::uint32_t n,
                        std::uint64_t seed, std::uint32_t trials) {
  ScenarioSpec spec;
  spec.protocol = protocol;
  spec.init = init;
  spec.until = until;
  spec.engine = "batch";
  spec.strategy = scale.strategy_name.empty() ? "auto" : scale.strategy_name;
  spec.n = n;
  spec.trials = trials;
  spec.seed = seed;
  spec.threads = scale.threads;
  return spec;
}

void report_cell(BenchReport& report, const char* experiment,
                 const ScenarioResult& r) {
  report_scenario(report, experiment, r);
}

// Optimal-Silent-SSR ranked stabilization vs drop rate: the
// convergence-vs-loss curve at sizes where full stabilization is cheap.
void experiment_drop_curve(const BenchScale& scale, BenchReport& report) {
  std::cout << "\n== convergence vs drop rate (optimal-silent, ranked) ==\n";
  Table t({"n", "drop", "mean time", "ci95", "x vs drop=0", "1/(1-drop)"});
  for (std::uint32_t n : scale.sizes({256, 1024, 4096})) {
    const std::uint32_t trials = scale.trials(20);
    double base_mean = 0.0;
    for (double drop : {0.0, 0.1, 0.25, 0.5}) {
      ScenarioSpec spec = fault_spec(scale, "optimal-silent",
                                     "uniform-random", "ranked", n,
                                     1000 + n + static_cast<std::uint64_t>(
                                                    drop * 100.0),
                                     trials);
      spec.faults.drop = drop;
      const ScenarioResult r = run_scenario(spec);
      if (drop == 0.0) base_mean = r.summary.mean;
      t.add_row({std::to_string(n), fmt(drop, 2), fmt(r.summary.mean, 1),
                 fmt(r.summary.ci95, 1),
                 base_mean > 0 ? fmt(r.summary.mean / base_mean, 2) : "-",
                 fmt(1.0 / (1.0 - drop), 2)});
      report_cell(report, "drop_curve_ranked", r);
    }
  }
  t.print();
  std::cout << "drop is uniform pair thinning: time scales ~1/(1-drop)\n";
}

// The n = 10^6 count-path drop/one-way curves: meeting-time quantities
// from duplicate-rank starts, where the geometric skip makes each trial
// O(1) effective steps whatever the drop rate.
void experiment_million_loss(const BenchScale& scale, BenchReport& report) {
  std::cout << "\n== n = 10^6 count path: meeting times under message loss "
               "==\n";
  const std::uint32_t n = 1'000'000;
  const std::uint32_t trials = scale.trials(10);
  Table t({"protocol", "until", "drop", "oneway", "mean time", "ci95"});
  struct Cell {
    const char* protocol;
    const char* until;
    double drop, oneway;
  };
  const Cell cells[] = {
      {"optimal-silent", "detected", 0.25, 0.0},
      {"optimal-silent", "detected", 0.5, 0.0},
      {"optimal-silent", "detected", 0.0, 0.5},
      {"silent-nstate", "thinned", 0.25, 0.0},
      {"silent-nstate", "thinned", 0.5, 0.0},
      {"silent-nstate", "thinned", 0.0, 0.5},
  };
  std::uint64_t seed = 2000;
  for (const Cell& c : cells) {
    ScenarioSpec spec = fault_spec(scale, c.protocol, "duplicate-rank",
                                   c.until, n, ++seed, trials);
    spec.strategy = "geometric_skip";  // the O(1)-per-meeting path
    spec.faults.drop = c.drop;
    spec.faults.oneway = c.oneway;
    const ScenarioResult r = run_scenario(spec);
    t.add_row({c.protocol, c.until, fmt(c.drop, 2), fmt(c.oneway, 2),
               fmt(r.summary.mean, 0), fmt(r.summary.ci95, 0)});
    report_cell(report, "million_loss", r);
  }
  t.print();
}

// Holding time vs churn at n = 10^6: start correct (silent), measure the
// parallel time until a crash-reset breaks the ranking. The count engine
// fast-forwards through the silent stretches, so cost is O(crashes).
void experiment_holding_vs_churn(const BenchScale& scale,
                                 BenchReport& report) {
  std::cout << "\n== n = 10^6 holding time vs churn (until=held, correct "
               "start) ==\n";
  const std::uint32_t n = 1'000'000;
  const std::uint32_t trials = scale.trials(10);
  Table t({"protocol", "churn", "mean holding time", "ci95", "1/churn"});
  for (const char* protocol : {"optimal-silent", "silent-nstate"}) {
    for (double churn : {0.25, 1.0, 4.0}) {
      ScenarioSpec spec = fault_spec(scale, protocol, "correct-ranking",
                                     "held", n,
                                     3000 + static_cast<std::uint64_t>(
                                                churn * 100.0),
                                     trials);
      spec.strategy = "geometric_skip";
      spec.faults.churn = churn;
      const ScenarioResult r = run_scenario(spec);
      t.add_row({protocol, fmt(churn, 2), fmt(r.summary.mean, 2),
                 fmt(r.summary.ci95, 2), fmt(1.0 / churn, 2)});
      report_cell(report, "holding_vs_churn", r);
    }
  }
  t.print();
  std::cout << "a correct silent ranking holds ~1/churn parallel time: any "
               "crash of a ranked agent breaks it\n";
}

// --fault.* on the command line: one extra convergence cell with exactly
// those knobs (e.g. a drop+churn combination the fixed curves don't cover).
void experiment_custom(const BenchScale& scale, BenchReport& report) {
  if (!scale.faults.active()) return;
  std::cout << "\n== custom fault cell (--fault.* flags) ==\n";
  const std::uint32_t n = scale.smoke ? 256 : 1024;
  ScenarioSpec spec = fault_spec(scale, "optimal-silent", "uniform-random",
                                 "ranked", n, 4000, scale.trials(10));
  spec.faults = scale.faults;
  const ScenarioResult r = run_scenario(spec);
  std::cout << "drop=" << scale.faults.drop
            << " oneway=" << scale.faults.oneway
            << " churn=" << scale.faults.churn << " n=" << n << ": mean "
            << fmt(r.summary.mean, 2) << " +/- " << fmt(r.summary.ci95, 2)
            << " (" << r.failed << " failed)\n";
  report_cell(report, "custom", r);
}

}  // namespace
}  // namespace ppsim

int main(int argc, char** argv) {
  const auto scale = ppsim::BenchScale::from_args(argc, argv);
  std::cout << "=== bench_faults: unreliable networks (drop / one-way / "
               "churn) ===\n";
  ppsim::BenchReport report("faults");
  ppsim::experiment_drop_curve(scale, report);
  ppsim::experiment_million_loss(scale, report);
  ppsim::experiment_holding_vs_churn(scale, report);
  ppsim::experiment_custom(scale, report);
  const std::string path = report.write();
  if (!path.empty())
    std::cout << "\nmachine-readable results: " << path << "\n";
  return 0;
}
