// Interaction-graph bench: convergence across topologies (core/topology.h)
// and the active-edge ring count engine's headroom, measured through
// the Scenario API so every cell is a declarative ScenarioSpec and every
// non-complete record carries its topology in the identity.
//
//   * diameter-dependent convergence: one-way epidemic completion time on
//     the clique vs ring vs line vs torus at the same n. On the complete
//     graph the epidemic finishes in Theta(log n) parallel time (coupon
//     collection from an ever-growing frontier); on a constant-degree
//     graph the frontier is O(1) edges, so each hop costs Theta(n)
//     parallel time and completion takes Theta(n * diameter-ish) — the
//     curve against the recorded diameter is the whole point of the
//     experiment;
//   * ring-ssle election time vs n on the ring count engine: the
//     protocol's duel phase keeps O(1) bullets in flight, so the ring
//     engine pays effective steps only, whatever n;
//   * the acceptance leg: agent array vs ring count engine at n = 10^6
//     (until=ptime, the converged coherent start, O(1) active edges) —
//     the recorded speedup must clear 10x, and in practice clears it by
//     orders of magnitude because the array pays every one of the
//     budget's n * T slots while the ring engine geometric-skips the ~T
//     effective ones.
#include <cstdint>
#include <iostream>
#include <string>

#include "analysis/bench_report.h"
#include "analysis/scenarios.h"
#include "common/cli.h"
#include "core/table.h"
#include "core/topology.h"

namespace ppsim {
namespace {

ScenarioSpec topo_spec(const BenchScale& scale, const char* protocol,
                       const std::string& topology, std::uint32_t n,
                       std::uint64_t seed, std::uint32_t trials) {
  ScenarioSpec spec;
  spec.protocol = protocol;
  spec.topology = topology;
  spec.n = n;
  spec.trials = trials;
  spec.seed = seed;
  spec.threads = scale.threads;
  spec.faults = scale.faults;
  return spec;
}

// Epidemic completion time across graphs of very different diameter at
// the same population size.
void experiment_diameter_curve(const BenchScale& scale, BenchReport& report) {
  std::cout << "\n== one-way epidemic: completion time vs topology ==\n";
  Table t({"n", "topology", "diameter", "backend", "mean time", "ci95"});
  for (std::uint32_t n : scale.sizes({256, 1024, 4096})) {
    const std::uint32_t side = n == 256 ? 16 : n == 1024 ? 32 : 64;
    const std::string torus =
        "torus:" + std::to_string(side) + "x" + std::to_string(side);
    for (const std::string& topology :
         {std::string("complete"), std::string("ring"), std::string("line"),
          torus}) {
      const ScenarioSpec spec = topo_spec(scale, "one-way-epidemic", topology,
                                          n, 100 + n, scale.trials(20));
      const ScenarioResult r = run_scenario(spec);
      const std::uint32_t diameter = Topology::parse(topology, n).diameter();
      t.add_row({std::to_string(n), topology, std::to_string(diameter),
                 r.backend + (r.strategy.empty() ? "" : "/" + r.strategy),
                 fmt(r.summary.mean, 1), fmt(r.summary.ci95, 1)});
      report_scenario(report, "epidemic_diameter_curve", r)
          .set("diameter", static_cast<std::uint64_t>(diameter));
    }
  }
  t.print();
  std::cout << "constant-degree graphs pay ~n parallel time per frontier "
               "hop; the clique finishes in ~2 ln n\n";
}

// ring-ssle election time vs n on the ring count engine, from the
// fully adversarial start.
void experiment_election_curve(const BenchScale& scale, BenchReport& report) {
  std::cout << "\n== ring-ssle: election time vs n (ring count engine) "
               "==\n";
  Table t({"n", "backend", "mean time", "ci95", "failed"});
  for (std::uint32_t n : scale.sizes({64, 256, 1024})) {
    const ScenarioSpec spec = topo_spec(scale, "ring-ssle", "ring", n,
                                        200 + n, scale.trials(10));
    const ScenarioResult r = run_scenario(spec);
    t.add_row({std::to_string(n), r.backend + "/" + r.strategy,
               fmt(r.summary.mean, 1), fmt(r.summary.ci95, 1),
               std::to_string(r.failed)});
    report_scenario(report, "ring_ssle_election_curve", r);
  }
  t.print();
}

// The acceptance leg: same fixed parallel-time budget on the agent array
// and the ring count engine at n = 10^6, from the converged coherent
// start (O(1) active edges — the ring engine's home regime). Metric is
// per-trial run wall seconds; the speedup record must clear 10x.
void experiment_million_compression(const BenchScale& scale,
                                    BenchReport& report) {
  std::cout << "\n== ring-ssle n = 10^6: agent array vs ring count engine "
               "(fixed ptime budget) ==\n";
  const std::uint32_t n = scale.smoke ? 100'000 : 1'000'000;
  const double budget_ptime = 20.0;
  const std::uint32_t trials = scale.smoke ? 1 : scale.trials(5);
  ScenarioSpec spec = topo_spec(scale, "ring-ssle", "ring", n, 300, trials);
  spec.init = "coherent";
  spec.until = "ptime";
  spec.horizon_ptime = budget_ptime;
  spec.threads = 1;  // wall-clock metric: never co-schedule trials
  ScenarioSpec array = spec;
  array.engine = "array";
  const ScenarioResult rle = run_scenario(spec);
  const ScenarioResult arr = run_scenario(array);
  const double speedup = rle.summary.mean > 0.0
                             ? arr.summary.mean / rle.summary.mean
                             : 0.0;
  Table t({"engine", "wall s / trial", "ci95"});
  t.add_row({arr.backend, fmt(arr.summary.mean, 4), fmt(arr.summary.ci95, 4)});
  t.add_row({rle.backend + "/" + rle.strategy, fmt(rle.summary.mean, 6),
             fmt(rle.summary.ci95, 6)});
  t.print();
  std::cout << "n = " << n << ", budget " << fmt(budget_ptime, 0)
            << " ptime: ring count engine is " << fmt(speedup, 1)
            << "x the agent array (acceptance floor: 10x)\n";
  report_scenario(report, "million_compression", arr);
  report_scenario(report, "million_compression", rle);
  report.add()
      .set("experiment", "million_compression_speedup")
      .set("n", static_cast<std::uint64_t>(n))
      .set("budget_ptime", budget_ptime)
      .set("speedup_rle_over_array", speedup);
}

}  // namespace
}  // namespace ppsim

int main(int argc, char** argv) {
  const auto scale = ppsim::BenchScale::from_args(argc, argv);
  std::cout << "=== bench_topology: interaction graphs (diameter curves + "
               "ring compression) ===\n";
  ppsim::BenchReport report("topology");
  ppsim::experiment_diameter_curve(scale, report);
  ppsim::experiment_election_curve(scale, report);
  ppsim::experiment_million_compression(scale, report);
  const std::string path = report.write();
  if (!path.empty())
    std::cout << "\nmachine-readable results: " << path << "\n";
  return 0;
}
