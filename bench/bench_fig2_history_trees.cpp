// Experiment F2: Figure 2 — how interaction-history trees
// are built and checked.
//
// Replays both executions from the paper's Figure 2 (four agents a, b, c, d;
// left: a-b, b-c, c-d; right: a-b, b-c, a-b again, c-d), renders every
// agent's tree after each interaction, and walks through the
// Check-Path-Consistency call that the figure's caption narrates. Also
// microbenchmarks the tree kernels (graft, detection DFS) under load.
//
// Deliberately NOT on the Scenario API: both measurements are
// single-execution replays of a fixed four-agent interaction sequence and
// per-call kernel micros, not population-scale experiment cells — no
// registered (protocol, init, until) triple covers them.
#include <benchmark/benchmark.h>

#include <iostream>
#include <string>
#include <vector>

#include "analysis/bench_report.h"
#include "common/cli.h"
#include "common/name.h"
#include "core/rng.h"
#include "core/scheduler.h"
#include "protocols/collision_tree.h"

namespace ppsim {
namespace {

// Human-readable agent names (rendered as letters like the figure).
Name agent_name(char c) {
  return Name::from_bits(static_cast<std::uint64_t>(c - 'a' + 1), 6);
}

char letter_of(const Name& n) {
  for (char c = 'a'; c <= 'z'; ++c)
    if (agent_name(c) == n) return c;
  return '?';
}

void render(const HistoryNode& node, const std::string& indent,
            std::vector<Name>& path, std::int64_t sigma, std::int64_t ops,
            std::uint32_t depth_left) {
  std::cout << indent << letter_of(node.name) << "\n";
  if (depth_left == 0) return;
  path.push_back(node.name);
  for (const auto& e : node.children) {
    bool repeated = false;
    for (const auto& anc : path)
      if (anc == e.child->name) repeated = true;
    if (repeated) continue;
    const std::int64_t timer = std::max<std::int64_t>(
        0, e.expiry + sigma - ops);
    std::cout << indent << "|-- sync=" << e.sync << " timer=" << timer
              << " --> ";
    std::vector<Name> sub_path = path;
    render(*e.child, indent + "    ", sub_path, sigma + e.shift, ops,
           depth_left - 1);
  }
  path.pop_back();
}

void render_tree(const char* label, const HistoryTree& t, std::uint32_t h) {
  std::cout << label << "'s tree:\n";
  std::vector<Name> path;
  render(*t.root(), "  ", path, 0, static_cast<std::int64_t>(t.ops()), h);
}

std::uint64_t interact(const CollisionDetector& det, HistoryTree& x,
                       HistoryTree& y, std::uint64_t step) {
  CollisionDetectorStats det_stats;
  Rng rng(1000 + step * 7919);
  const bool collision = det.detect_and_update(x, y, rng, det_stats);
  if (collision) std::cout << "  !! collision declared\n";
  return x.root()->children.back().sync;
}

void figure2(bool right_variant, BenchReport& report) {
  std::cout << "\n== F2: Figure 2, " << (right_variant ? "right" : "left")
            << " execution ==\n";
  CollisionDetectorParams p;
  p.depth_h = 3;
  p.smax = 9;  // single-digit sync values, like the figure
  p.th = 1000;
  p.direct_check = true;
  CollisionDetector det(p);
  CollisionDetectorStats det_stats;

  HistoryTree a, b, c, d;
  a.reset(agent_name('a'));
  b.reset(agent_name('b'));
  c.reset(agent_name('c'));
  d.reset(agent_name('d'));

  std::uint64_t step = right_variant ? 50 : 0;
  std::cout << "\na-b interact; generate sync value "
            << interact(det, a, b, ++step) << ":\n";
  render_tree("a", a, 3);
  render_tree("b", b, 3);

  std::cout << "\nb-c interact; generate sync value "
            << interact(det, b, c, ++step) << ":\n";
  render_tree("b", b, 3);
  render_tree("c", c, 3);

  if (right_variant) {
    std::cout << "\na-b interact again; generate sync value "
              << interact(det, a, b, ++step) << ":\n";
    render_tree("a", a, 3);
    render_tree("b", b, 3);
  }

  std::cout << "\nc-d interact; generate sync value "
            << interact(det, c, d, ++step) << ":\n";
  render_tree("c", c, 3);
  render_tree("d", d, 3);

  // The caption's check: d holds the path d -> c -> b -> a; when d meets a,
  // Check-Path-Consistency(a, P) must return True (no false collision).
  std::cout << "\nd-a interact (the caption's consistency check):\n";
  Rng rng(4242);
  const bool collision = det.detect_and_update(d, a, rng, det_stats);
  std::cout << "  Detect-Name-Collision returned "
            << (collision ? "True (collision!)" : "False (consistent)")
            << "\n";
  report.add()
      .set("experiment",
           right_variant ? "figure2_right" : "figure2_left")
      .set("backend", "tree")
      .set("false_collision", collision)
      .set("paths_checked", det_stats.paths_checked)
      .set("nodes_visited", det_stats.nodes_visited);
  if (right_variant) {
    std::cout << "  (the first reverse edge a->b carries the regenerated "
                 "sync and does not match; the second edge b->c does — "
                 "exactly the figure's narrative)\n";
  } else {
    std::cout << "  (a's reverse suffix a->b matches the path's final sync "
                 "at the first edge)\n";
  }
}

// --- microbenchmarks of the tree kernels. ---

void BM_Graft(benchmark::State& state) {
  CollisionDetectorParams p;
  p.depth_h = static_cast<std::uint32_t>(state.range(0));
  p.smax = 1 << 20;
  p.th = 64;
  p.prune_window = 10 * p.th;
  CollisionDetector det(p);
  CollisionDetectorStats det_stats;
  constexpr std::uint32_t kAgents = 64;
  std::vector<HistoryTree> trees(kAgents);
  for (std::uint32_t i = 0; i < kAgents; ++i)
    trees[i].reset(Name::from_bits(i + 1, 18));
  Rng rng(7);
  UniformScheduler sched(kAgents);
  for (auto _ : state) {
    const AgentPair pr = sched.next(rng);
    benchmark::DoNotOptimize(det.detect_and_update(
        trees[pr.initiator], trees[pr.responder], rng, det_stats));
  }
  state.counters["dfs_nodes_per_call"] =
      static_cast<double>(det_stats.nodes_visited) /
      std::max<std::uint64_t>(1, det_stats.calls);
}
// Fixed iteration count: the trees grow as the benchmark runs (that growth
// IS the measured phenomenon), so letting google-benchmark auto-scale the
// iteration count makes deep-H runs quadratically slower with no extra
// information.
BENCHMARK(BM_Graft)->Arg(1)->Arg(2)->Iterations(2000);
BENCHMARK(BM_Graft)->Arg(4)->Iterations(400);  // tree growth is super-linear
BENCHMARK(BM_Graft)->Arg(8)->Iterations(100);  // ... and worse with depth

void BM_LiveNodeCount(benchmark::State& state) {
  CollisionDetectorParams p;
  p.depth_h = 4;
  p.smax = 1 << 20;
  p.th = 64;
  p.prune_window = 10 * p.th;  // bounded trees: the deployed configuration
  CollisionDetector det(p);
  CollisionDetectorStats det_stats;
  constexpr std::uint32_t kAgents = 32;
  std::vector<HistoryTree> trees(kAgents);
  for (std::uint32_t i = 0; i < kAgents; ++i)
    trees[i].reset(Name::from_bits(i + 1, 18));
  Rng rng(7);
  UniformScheduler sched(kAgents);
  for (int i = 0; i < 3000; ++i) {
    const AgentPair pr = sched.next(rng);
    det.detect_and_update(trees[pr.initiator], trees[pr.responder], rng,
                          det_stats);
  }
  for (auto _ : state)
    benchmark::DoNotOptimize(live_node_count(trees[0], 4));
}
BENCHMARK(BM_LiveNodeCount);

}  // namespace
}  // namespace ppsim

int main(int argc, char** argv) {
  const auto scale = ppsim::BenchScale::from_args(argc, argv);
  std::cout << "=== bench_fig2_history_trees: Figure 2 / Protocols 7-8 ===\n";
  ppsim::BenchReport report("fig2_history_trees");
  ppsim::figure2(/*right_variant=*/false, report);
  ppsim::figure2(/*right_variant=*/true, report);
  const std::string path = report.write();
  if (!path.empty())
    std::cout << "\nmachine-readable results: " << path << "\n";
  if (scale.micro) {
    int bench_argc = 1;
    benchmark::Initialize(&bench_argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
  }
  // Default run includes a short micro section so the figure binary also
  // reports kernel costs; --smoke (and --quick) cap the measuring time so
  // the CI gate finishes in seconds (BM_Graft's deepest trees cost ~25 ms
  // per iteration).
  char arg0[] = "bench_fig2";
  char arg1[] = "--benchmark_min_time=0.01";
  std::vector<char*> bench_argv = {arg0};
  if (scale.quick) bench_argv.push_back(arg1);
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
