// Kernel microbenchmarks (google-benchmark): the per-interaction costs that
// determine how large an n each protocol can be simulated at. Not a paper
// experiment — an engineering dashboard for the simulator itself.
//
// Two sections:
//   * pure kernel microbenches (RNG, scheduler, name/roster ops) stay on
//     google-benchmark — they have no scenario-level equivalent;
//   * protocol-stepping costs run through the Scenario API (until=ptime):
//     each cell is a ScenarioSpec, so the measured loop is byte-for-byte
//     the loop every harness runs (engine resolution, strategy controller,
//     seeding included) instead of a hand-rolled step() driver, and
//     ns/interaction falls out of run wall seconds / interactions.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/bench_report.h"
#include "analysis/scenarios.h"
#include "common/name.h"
#include "common/roster.h"
#include "core/rng.h"
#include "core/scheduler.h"
#include "core/table.h"

namespace ppsim {
namespace {

void BM_RngNext(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng());
}
BENCHMARK(BM_RngNext);

void BM_RngBelow(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.below(1000));
}
BENCHMARK(BM_RngBelow);

void BM_SchedulerNext(benchmark::State& state) {
  Rng rng(1);
  UniformScheduler sched(static_cast<std::uint32_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(sched.next(rng));
}
BENCHMARK(BM_SchedulerNext)->Arg(1024)->Arg(1 << 20);

void BM_NameCompare(benchmark::State& state) {
  Rng rng(1);
  const Name a = Name::from_bits(rng(), 30);
  const Name b = Name::from_bits(rng(), 30);
  for (auto _ : state) benchmark::DoNotOptimize(a < b);
}
BENCHMARK(BM_NameCompare);

// Roster::unite on each of its three paths. Every iteration unites fresh
// copies of the two rosters (two reference-count increments each), so the
// inputs stay as built.
void BM_RosterUnionDisjoint(benchmark::State& state) {
  // A strict two-sided union: one walk and one allocating merge.
  const auto size = static_cast<std::uint32_t>(state.range(0));
  Roster a, b;
  for (std::uint32_t i = 0; i < size; ++i) {
    a.insert(Name::from_bits(2 * i, 40));
    b.insert(Name::from_bits(2 * i + 1, 40));
  }
  for (auto _ : state) {
    Roster x = a, y = b;
    benchmark::DoNotOptimize(Roster::unite(x, y, 2 * size));
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_RosterUnionDisjoint)->Arg(64)->Arg(1024);

void BM_RosterUnionSuperset(benchmark::State& state) {
  // a holds every name of b: one walk, then b adopts a's storage.
  const auto size = static_cast<std::uint32_t>(state.range(0));
  Roster a, b;
  for (std::uint32_t i = 0; i < size; ++i) {
    a.insert(Name::from_bits(i, 40));
    if (i % 2 == 0) b.insert(Name::from_bits(i, 40));
  }
  for (auto _ : state) {
    Roster x = a, y = b;
    benchmark::DoNotOptimize(Roster::unite(x, y, size));
    benchmark::DoNotOptimize(y);
  }
}
BENCHMARK(BM_RosterUnionSuperset)->Arg(64)->Arg(1024);

void BM_RosterUnionShared(benchmark::State& state) {
  // The steady-state fast path: both rosters share storage.
  Roster a;
  for (std::uint32_t i = 0; i < 1024; ++i) a.insert(Name::from_bits(i, 40));
  Roster b = a;
  for (auto _ : state) benchmark::DoNotOptimize(Roster::unite(a, b, 1024));
}
BENCHMARK(BM_RosterUnionShared);

// Protocol-stepping dashboard on the Scenario API. engine=array pins the
// agent-array ground truth; engine=batch pins the count engine with the
// per-step strategy controller live (strategy=auto), which is what `auto`
// actually runs in the non-dense regimes. The H = Theta(log n) sublinear
// configuration is excluded as before: a single steady-state step can cost
// seconds (the quasi-exponential live tree), which starves a wall-clock
// measurement; bench_sublinear's state-growth table covers it.
void protocol_stepping(bool smoke, BenchReport& report) {
  struct Cell {
    const char* protocol;
    std::uint32_t n;
    const char* init;
    const char* engine;
    double ptime;  // parallel-time budget; interactions = ptime * n
  };
  const std::vector<Cell> cells = {
      {"silent-nstate", 1024, "uniform-random", "array", 1000.0},
      {"silent-nstate", 1 << 16, "uniform-random", "array", 16.0},
      {"silent-nstate", 1024, "uniform-random", "batch", 1000.0},
      {"silent-nstate", 1 << 16, "uniform-random", "batch", 16.0},
      {"optimal-silent", 1024, "uniform-random", "array", 1000.0},
      {"optimal-silent", 1 << 16, "uniform-random", "array", 16.0},
      {"optimal-silent", 1024, "uniform-random", "batch", 1000.0},
      {"optimal-silent", 1 << 16, "uniform-random", "batch", 16.0},
      {"sublinear-h1", 1024, "correct-ranked", "array", 40.0},
  };
  std::cout << "\n== protocol stepping (Scenario API, until=ptime) ==\n";
  Table t({"protocol", "n", "engine", "ns/interaction", "interactions"});
  for (const Cell& c : cells) {
    ScenarioSpec spec;
    spec.protocol = c.protocol;
    spec.n = c.n;
    spec.init = c.init;
    spec.engine = c.engine;
    spec.until = "ptime";
    spec.horizon_ptime = smoke ? std::max(1.0, c.ptime / 8) : c.ptime;
    spec.trials = smoke ? 1 : 3;
    spec.seed = 42;
    const ScenarioResult r = run_scenario(spec);
    const double per_interaction_ns =
        r.summary.mean / std::max(1.0, r.interactions_mean) * 1e9;
    const std::string engine_desc =
        r.backend == "batch" ? r.backend + "/" + r.strategy : r.backend;
    t.add_row({c.protocol, std::to_string(r.n), engine_desc,
               fmt(per_interaction_ns, 1), fmt(r.interactions_mean, 0)});
    report_scenario(report,
                    std::string("step_") + c.protocol + "_" + c.engine, r)
        .set("ns_per_interaction", per_interaction_ns);
  }
  t.print();
}

// Tees every benchmark result into BENCH_micro.json next to the console
// output, so the per-interaction cost trajectory is tracked across PRs.
class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonTeeReporter(BenchReport* report) : report_(report) {}
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      report_->add()
          .set("experiment", run.benchmark_name())
          .set("backend", "micro")
          .set("time_per_op", run.GetAdjustedRealTime())
          .set("iterations", static_cast<std::uint64_t>(run.iterations));
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  BenchReport* report_;
};

}  // namespace
}  // namespace ppsim

int main(int argc, char** argv) {
  // Accept the repo-wide bench flags (--smoke/--quick/--full/--threads=N)
  // before handing the rest to google-benchmark; --smoke caps the measuring
  // time so CI exercises every kernel in seconds.
  std::vector<char*> passthrough;
  std::string min_time = "--benchmark_min_time=0.01";
  bool smoke = false;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke") {
      smoke = true;
      continue;
    }
    if (a == "--quick" || a == "--full" || a.rfind("--threads=", 0) == 0)
      continue;
    passthrough.push_back(argv[i]);
  }
  if (smoke) passthrough.push_back(min_time.data());
  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  ppsim::BenchReport report("micro");
  ppsim::protocol_stepping(smoke, report);
  ppsim::JsonTeeReporter reporter(&report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  const std::string path = report.write();
  if (!path.empty())
    std::printf("machine-readable results: %s\n", path.c_str());
  return 0;
}
