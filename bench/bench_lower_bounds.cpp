// Experiment group O2.6 (Observation 2.6 of the paper) + the Omega(log n)
// SSLE bound:
// empirical witnesses of the paper's lower bounds.
//
//   * Observation 2.6: a silent protocol must take Omega(n) expected time,
//     because duplicating the leader of a silent configuration forces the
//     two leaders to meet directly — a Geometric(2/n(n-1)) wait with mean
//     (n-1)/2 parallel time. Measured on both silent protocols.
//   * Omega(log n): from the all-leaders configuration, n-1 agents must
//     interact at least once (coupon collector) — Omega(log n) time. This
//     uses the self-stabilizing assumption that all-leaders is a valid
//     start.
#include <benchmark/benchmark.h>

#include <cmath>
#include <iostream>

#include "analysis/bench_report.h"
#include "analysis/experiments.h"
#include "analysis/scenarios.h"
#include "core/simulation.h"

namespace ppsim {
namespace {

// Observation 2.6 as two ScenarioSpec cells per n. Silent-n-state: the
// `duplicate-rank` start is silent except for the duplicated pair, so
// until=thinned (rank 0 back to one holder) IS the direct-meeting time —
// and the batched geometric-skip engine samples it in one jump. On
// Optimal-Silent the collision trigger (until=detected) fires only when
// the two rank-1 copies meet.
ScenarioResult obs26_cell(const BenchScale& scale, const char* protocol,
                          const char* init, const char* until,
                          std::uint32_t n, std::uint32_t trials,
                          std::uint64_t seed) {
  ScenarioSpec spec;
  spec.protocol = protocol;
  spec.init = init;
  spec.until = until;
  spec.n = n;
  spec.trials = trials;
  spec.seed = seed;
  spec.threads = scale.threads;
  return run_scenario(spec);
}

void experiment_obs26(const BenchScale& scale, BenchReport& report) {
  std::cout << "\n== O2.6: duplicated-leader recovery needs a direct meeting "
               "==\n";
  Table t({"protocol", "n", "mean time", "(n-1)/2", "ratio", "frac >= n/3"});
  for (std::uint32_t n : scale.sizes({64, 256, 1024})) {
    const auto trials = scale.trials(60);
    const ScenarioResult a = obs26_cell(scale, "silent-nstate",
                                        "duplicate-rank", "thinned", n,
                                        trials, 10 + n);
    const ScenarioResult b = obs26_cell(scale, "optimal-silent",
                                        "duplicate-rank", "detected", n,
                                        trials, 20 + n);
    const double expect = (n - 1) / 2.0;
    auto tail_frac = [&](const ScenarioResult& r) {
      std::uint32_t tail = 0;
      for (double x : r.values)
        if (x >= n / 3.0) ++tail;
      return static_cast<double>(tail) / static_cast<double>(trials);
    };
    t.add_row({"Silent-n-state", std::to_string(n), fmt(a.summary.mean, 1),
               fmt(expect, 1), fmt(a.summary.mean / expect, 3),
               fmt(tail_frac(a), 2)});
    t.add_row({"Optimal-Silent", std::to_string(n), fmt(b.summary.mean, 1),
               fmt(expect, 1), fmt(b.summary.mean / expect, 3),
               fmt(tail_frac(b), 2)});
    report_scenario(report, "obs26_duplicate_meeting", b)
        .set("analytic_parallel_time", expect);
    report_scenario(report, "obs26_duplicate_meeting_nstate", a)
        .set("analytic_parallel_time", expect);
  }
  t.print();
  std::cout << "paper: expected time >= n/3 and P[time >= n lnn /3] >= "
               "n^{-1}/2; the mean matches the exact (n-1)/2 meeting time, "
               "certifying the Omega(n) silent lower bound\n";
}

void experiment_log_lower_bound(const BenchScale& scale, BenchReport& report) {
  std::cout << "\n== Omega(log n): from all-leaders, n-1 agents must "
               "interact ==\n";
  Table t({"n", "mean time to <= 1 untouched", "ln(n)/2", "ratio"});
  for (std::uint32_t n : scale.sizes({64, 256, 1024, 4096})) {
    const auto trials = scale.trials(100);
    std::vector<double> xs;
    for (std::uint32_t i = 0; i < trials; ++i) {
      // Count interactions until at most one agent has never interacted:
      // a lower bound on any protocol's convergence from all-leaders.
      Rng rng(derive_seed(30 + n, i));
      UniformScheduler sched(n);
      std::vector<char> touched(n, 0);
      std::uint32_t untouched = n;
      std::uint64_t steps = 0;
      while (untouched > 1) {
        const AgentPair p = sched.next(rng);
        ++steps;
        if (!touched[p.initiator]) {
          touched[p.initiator] = 1;
          --untouched;
        }
        if (!touched[p.responder]) {
          touched[p.responder] = 1;
          --untouched;
        }
      }
      xs.push_back(static_cast<double>(steps) / n);
    }
    const double expect = std::log(n) / 2.0;
    t.add_row({std::to_string(n), fmt(summarize(xs).mean, 2),
               fmt(expect, 2), fmt(summarize(xs).mean / expect, 3)});
    report.add()
        .set("experiment", "log_lower_bound")
        .set("backend", "scheduler")
        .set("n", static_cast<std::uint64_t>(n))
        .set("trials", static_cast<std::uint64_t>(trials))
        .set("parallel_time", summarize(xs).mean);
  }
  t.print();
  std::cout << "paper: any SSLE protocol needs Omega(log n) time from the "
               "all-leaders configuration (coupon collector)\n";

  // And the matching protocol-level fact: Silent-n-state from all-equal
  // ranks takes at least that long to reach one agent per rank
  // (until=thinned from the all-same start, one ScenarioSpec per n).
  std::cout << "\n== all-leaders start, Silent-n-state: time until the "
               "original rank has one holder ==\n";
  Table t2({"n", "mean time", "ln n", "mean/ln(n)"});
  for (std::uint32_t n : scale.sizes({64, 256, 1024})) {
    const ScenarioResult r = obs26_cell(scale, "silent-nstate", "all-same",
                                        "thinned", n, scale.trials(40),
                                        40 + n);
    t2.add_row({std::to_string(n), fmt(r.summary.mean, 2),
                fmt(std::log(n), 2),
                fmt(r.summary.mean / std::log(n), 3)});
  }
  t2.print();
  std::cout << "in Protocol 1 the thinning needs equal-rank meetings, so it "
               "actually costs Theta(n) — well above the Omega(log n) floor "
               "that the coupon-collector argument guarantees for any "
               "protocol\n";
}

void BM_PairCoupon(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  Rng rng(1);
  UniformScheduler sched(n);
  for (auto _ : state) benchmark::DoNotOptimize(sched.next(rng));
}
BENCHMARK(BM_PairCoupon)->Arg(1024);

}  // namespace
}  // namespace ppsim

int main(int argc, char** argv) {
  const auto scale = ppsim::BenchScale::from_args(argc, argv);
  std::cout << "=== bench_lower_bounds: Observation 2.6 and the Omega(log n) "
               "bound ===\n";
  ppsim::BenchReport report("lower_bounds");
  ppsim::experiment_obs26(scale, report);
  ppsim::experiment_log_lower_bound(scale, report);
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
