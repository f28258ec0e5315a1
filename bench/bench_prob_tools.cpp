// Experiment group L2.7 / C2.8 / L2.9 / L2.10 / L2.11 (Lemmas 2.7 and
// 2.9-2.11 and Corollary 2.8 of the paper):
// empirical validation of the probabilistic tools of Section 2.1 —
//
//   * two-way epidemic:  E[T_n] = (n-1) H_{n-1} ~ n ln n, tail bound
//   * roll call:         E[R_n] ~ 1.5 n ln n
//   * bounded epidemic:  E[tau_k] <= k n^{1/k};  tau_{3 log2 n} <= 3 ln n
//   * epidemic trees:    height ~ e ln n (uniform random recursive trees)
//
// plus google-benchmark microbenchmarks of the process kernels.
//
// Deliberately NOT on the Scenario API: these are raw Section 2.1
// processes (two-way epidemic, roll call, bounded epidemic, recursive
// trees), not registered protocols — the registry's one-way-epidemic entry
// measures a different process, so no scenario covers these cells.
#include <benchmark/benchmark.h>

#include <cmath>
#include <iostream>

#include "analysis/bench_report.h"
#include "analysis/experiments.h"
#include "core/stats.h"
#include "core/table.h"
#include "processes/bounded_epidemic.h"
#include "processes/coupon.h"
#include "processes/epidemic.h"
#include "processes/recursive_tree.h"
#include "processes/roll_call.h"

namespace ppsim {
namespace {

void experiment_epidemic(const BenchScale& scale, BenchReport& report) {
  std::cout << "\n== L2.7/C2.8: two-way epidemic completion time ==\n";
  Table t({"n", "mean T_n (inter.)", "(n-1)H_{n-1}", "ratio", "p99/nln(n)",
           "max/3nln(n)", "frac > 3n ln n"});
  for (std::uint32_t n : scale.sizes({64, 128, 256, 512, 1024, 2048})) {
    const auto trials = scale.trials(n <= 256 ? 400 : 150);
    const auto xs = run_trials(trials, 1000 + n, [&](std::uint64_t seed) {
      return static_cast<double>(run_epidemic(n, seed).interactions);
    });
    const Summary s = summarize(xs);
    const double exact = epidemic_expected_interactions(n);
    const double nlogn = n * std::log(n);
    int exceed = 0;
    for (double x : xs)
      if (x > 3 * nlogn) ++exceed;
    t.add_row({std::to_string(n), fmt(s.mean, 0), fmt(exact, 0),
               fmt(s.mean / exact, 3), fmt(s.p99 / nlogn, 2),
               fmt(s.max / (3 * nlogn), 2),
               fmt(static_cast<double>(exceed) / xs.size(), 4)});
    report.add()
        .set("experiment", "epidemic")
        .set("backend", "process")
        .set("n", static_cast<std::uint64_t>(n))
        .set("trials", static_cast<std::uint64_t>(trials))
        .set("interactions", s.mean)
        .set("expected_interactions", exact);
  }
  t.print();
  std::cout << "paper: E[T_n] = (n-1)H_{n-1} (ratio -> 1); "
               "P[T_n > 3n ln n] < 1/n^2 (last column ~ 0)\n";
}

void experiment_roll_call(const BenchScale& scale) {
  std::cout << "\n== L2.9: roll call completion time ==\n";
  Table t({"n", "mean R_n (inter.)", "R_n / T_n(exact)", "R_n / (1.5 n ln n)",
           "frac > 3n ln n"});
  for (std::uint32_t n : scale.sizes({64, 128, 256, 512, 1024})) {
    const auto trials = scale.trials(n <= 256 ? 200 : 60);
    const auto xs = run_trials(trials, 2000 + n, [&](std::uint64_t seed) {
      return static_cast<double>(run_roll_call(n, seed).interactions);
    });
    const Summary s = summarize(xs);
    const double epi = epidemic_expected_interactions(n);
    const double bound = 1.5 * n * std::log(n);
    int exceed = 0;
    for (double x : xs)
      if (x > 2 * bound) ++exceed;
    t.add_row({std::to_string(n), fmt(s.mean, 0), fmt(s.mean / epi, 3),
               fmt(s.mean / bound, 3),
               fmt(static_cast<double>(exceed) / xs.size(), 4)});
  }
  t.print();
  std::cout << "paper: E[R_n] ~ 1.5 n ln n, i.e. 1.5x the epidemic "
               "(middle columns -> 1.5 and 1.0)\n";
}

void experiment_bounded_epidemic(const BenchScale& scale) {
  std::cout << "\n== L2.10: bounded epidemic tau_k vs k * n^{1/k} ==\n";
  Table t({"n", "k", "mean tau_k (time)", "k n^{1/k}", "ratio"});
  for (std::uint32_t n : scale.sizes({256, 1024, 4096})) {
    for (std::uint32_t k : {1u, 2u, 3u, 4u}) {
      if (k == 1 && n > 1024) continue;  // tau_1 ~ n/2: too slow at 4096
      const auto trials = scale.trials(k == 1 ? 40 : 80);
      const auto xs = run_trials(trials, 3000 + n * 7 + k,
                                 [&](std::uint64_t seed) {
                                   return run_bounded_epidemic(n, k, k, seed)
                                       .tau_by_level[k];
                                 });
      const Summary s = summarize(xs);
      const double bound =
          k * std::pow(static_cast<double>(n), 1.0 / k);
      t.add_row({std::to_string(n), std::to_string(k), fmt(s.mean, 2),
                 fmt(bound, 1), fmt(s.mean / bound, 3)});
    }
  }
  t.print();
  std::cout << "paper: E[tau_k] <= k n^{1/k} (ratio <= ~1)\n";

  std::cout << "\n== L2.11: tau_k for k = 3 log2 n vs 3 ln n ==\n";
  Table t2({"n", "k=3log2(n)", "mean tau_k", "p95", "3 ln n", "mean/3ln(n)"});
  for (std::uint32_t n : scale.sizes({256, 1024, 4096})) {
    std::uint32_t lg = 0;
    while ((1u << lg) < n) ++lg;
    const std::uint32_t k = 3 * lg;
    const auto trials = scale.trials(60);
    const auto xs =
        run_trials(trials, 4000 + n, [&](std::uint64_t seed) {
          return run_bounded_epidemic(n, k, k, seed).tau_by_level[k];
        });
    const Summary s = summarize(xs);
    const double bound = 3 * std::log(n);
    t2.add_row({std::to_string(n), std::to_string(k), fmt(s.mean, 2),
                fmt(s.p95, 2), fmt(bound, 2), fmt(s.mean / bound, 3)});
  }
  t2.print();
  std::cout << "paper: tau_{3 log2 n} <= 3 ln n whp (ratio <= ~1)\n";
}

void experiment_recursive_tree(const BenchScale& scale) {
  std::cout << "\n== L2.11 substrate: epidemic infection-tree height ==\n";
  Table t({"n", "mean height", "e ln n", "ratio", "mean last-agent depth"});
  for (std::uint32_t n : scale.sizes({256, 1024, 4096, 16384})) {
    const auto trials = scale.trials(n <= 4096 ? 60 : 20);
    std::vector<double> hs, ds;
    for (std::uint32_t i = 0; i < trials; ++i) {
      const auto r = run_epidemic_tree(n, derive_seed(5000 + n, i));
      hs.push_back(r.height);
      ds.push_back(r.last_agent_depth);
    }
    const Summary sh = summarize(hs);
    const Summary sd = summarize(ds);
    const double expected = std::exp(1.0) * std::log(n);
    t.add_row({std::to_string(n), fmt(sh.mean, 2), fmt(expected, 2),
               fmt(sh.mean / expected, 3), fmt(sd.mean, 2)});
  }
  t.print();
  std::cout << "paper ([32,33]): height of the uniform random recursive tree "
               "is ~ e ln n (ratio -> 1)\n";

  std::cout << "\n== coupon collector over scheduled pairs ==\n";
  Table t2({"n", "mean interactions", "0.5 n ln n", "ratio"});
  for (std::uint32_t n : scale.sizes({256, 1024, 4096})) {
    const auto trials = scale.trials(100);
    const auto xs = run_trials(trials, 6000 + n, [&](std::uint64_t seed) {
      return static_cast<double>(
          run_pair_coupon_collector(n, seed).interactions);
    });
    const Summary s = summarize(xs);
    const double expected = 0.5 * n * std::log(n);
    t2.add_row({std::to_string(n), fmt(s.mean, 0), fmt(expected, 0),
                fmt(s.mean / expected, 3)});
  }
  t2.print();
}

// --- google-benchmark microbenchmarks of the kernels. ---

void BM_Epidemic(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_epidemic(n, seed++));
  }
}
BENCHMARK(BM_Epidemic)->Arg(256)->Arg(1024)->Arg(4096);

void BM_RollCall(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_roll_call(n, seed++));
  }
}
BENCHMARK(BM_RollCall)->Arg(256)->Arg(1024);

void BM_BoundedEpidemicTau3(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_bounded_epidemic(n, 3, 3, seed++));
  }
}
BENCHMARK(BM_BoundedEpidemicTau3)->Arg(1024)->Arg(4096);

}  // namespace
}  // namespace ppsim

int main(int argc, char** argv) {
  const auto scale = ppsim::BenchScale::from_args(argc, argv);
  std::cout << "=== bench_prob_tools: Section 2.1 probabilistic tools "
               "(Lemmas 2.7-2.11) ===\n";
  ppsim::BenchReport report("prob_tools");
  ppsim::experiment_epidemic(scale, report);
  ppsim::experiment_roll_call(scale);
  ppsim::experiment_bounded_epidemic(scale);
  ppsim::experiment_recursive_tree(scale);
  const std::string path = report.write();
  if (!path.empty())
    std::cout << "\nmachine-readable results: " << path << "\n";

  // Microbenchmarks only when explicitly requested (keeps default runs fast).
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
