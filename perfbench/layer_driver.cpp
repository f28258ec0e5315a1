// layer_driver: the traced replay behind `perfbench/run.py --trace 1`.
//
// Replays one benchmark workload cell by calling each layer's public
// functions directly, in the order analysis/scenarios.h drive() calls them,
// and records a timed span around every call:
//
//   process
//     scenario                      the part an untraced ppsle_run also does
//       scenarios.resolve           registry lookup, topology parse and the
//         scenarios.probe           engine=auto probe (count protocols only)
//           init.materialize
//       scenarios.fanout            scenario_detail::for_each_trial
//         trial                     one per trial, on its worker thread
//           init.materialize        InitialConditionSet::counts / agents
//           engine_build            engine constructor
//           engine.run              run_engine_until_ranked / run
//           engine.stats            strategy_trace() / stats()
//           driver.check_counts     the driver's own sum(counts) == n check
//       report                      report_scenario + BenchReport::write
//     convergence                   trial 0 again, serially:
//       convergence.stop_run          with its stop condition
//       convergence.plain_run         plain run() of the same interactions
//     kernel                        micro-timings sized from the workload
//       kernel.<name>
//
// Spans are kept in memory and written as JSON at exit together with
// layer counters (steps, interactions, bytes, kernel op counts). run.py
// turns them into the per-layer metrics and prints self times.
//
// Usage: layer_driver key=val... --spans=<file.json>
// The replayed scenario's record goes to BENCH_trace.json in the working
// directory.
// Keys (same spelling as ppsle_run --scenario): protocol, n, init, until,
// ptime, trials, threads, seed, topology. Supported protocols are the ones
// the benchmark's workloads use: optimal-silent, sublinear-h1, ring-ssle.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/bench_report.h"
#include "analysis/convergence.h"
#include "analysis/scenarios.h"
#include "core/batch_kernels.h"
#include "core/batch_simulation.h"
#include "core/discrete_samplers.h"
#include "core/ring_simulation.h"
#include "core/simulation.h"
#include "core/topology.h"

namespace ppsim {
namespace {

using Clock = std::chrono::steady_clock;

class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = ~std::uint32_t{0};

  std::uint32_t begin(const char* name, std::uint32_t parent,
                      std::uint32_t thread) {
    const double now = seconds();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{name, parent, thread, now, -1.0});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }
  void end(std::uint32_t id) {
    const double now = seconds();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[id].end = now;
  }
  void count(const std::string& key, double value) {
    std::lock_guard<std::mutex> lock(mutex_);
    counters_[key] += value;
  }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"spans\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %zu, \"parent\": %lld, \"name\": \"%s\", "
                   "\"thread\": %u, \"start_s\": %.9f, \"end_s\": %.9f}%s\n",
                   i,
                   s.parent == kNoParent ? -1LL
                                         : static_cast<long long>(s.parent),
                   s.name, s.thread, s.start, s.end,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "], \"counters\": {");
    bool first = true;
    for (const auto& [key, value] : counters_) {
      std::fprintf(f, "%s\"%s\": %.17g", first ? "" : ", ", key.c_str(),
                   value);
      first = false;
    }
    std::fprintf(f, "}}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    std::uint32_t parent;
    std::uint32_t thread;
    double start;
    double end;
  };

  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - t0_).count();
  }

  const Clock::time_point t0_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::string, double> counters_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name,
             std::uint32_t parent = Tracer::kNoParent, std::uint32_t thread = 0)
      : tracer_(tracer), id_(tracer.begin(name, parent, thread)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::uint32_t id_;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "layer_driver: " << message << "\n"
            << "usage: layer_driver key=val... --spans=<file.json>\n";
  std::exit(2);
}

// The subset of ScenarioSpec the workloads use, parsed from key=val.
struct Cell {
  ScenarioSpec spec;
  std::string spans_path;
};

Cell parse_cell(int argc, char** argv) {
  Cell cell;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--spans=", 0) == 0) {
      cell.spans_path = a.substr(8);
      continue;
    }
    const auto eq = a.find('=');
    if (eq == std::string::npos) usage_error("unknown argument '" + a + "'");
    const std::string key = a.substr(0, eq);
    const std::string value = a.substr(eq + 1);
    try {
      if (key == "protocol") {
        cell.spec.protocol = value;
      } else if (key == "n") {
        cell.spec.n = static_cast<std::uint32_t>(std::stoul(value));
      } else if (key == "init") {
        cell.spec.init = value;
      } else if (key == "until") {
        cell.spec.until = value;
      } else if (key == "ptime") {
        cell.spec.horizon_ptime = std::stod(value);
      } else if (key == "trials") {
        cell.spec.trials = static_cast<std::uint32_t>(std::stoul(value));
      } else if (key == "threads") {
        cell.spec.threads = static_cast<std::uint32_t>(std::stoul(value));
      } else if (key == "seed") {
        cell.spec.seed = std::stoull(value);
      } else if (key == "topology") {
        cell.spec.topology = value;
      } else {
        usage_error("unsupported key '" + key + "'");
      }
    } catch (const std::logic_error&) {
      usage_error("bad value for '" + key + "': '" + value + "'");
    }
  }
  if (cell.spec.protocol.empty() || cell.spec.n == 0 ||
      cell.spec.until.empty() || cell.spans_path.empty())
    usage_error("protocol=, n=, until= and --spans= are required");
  if (cell.spec.trials == 0) cell.spec.trials = 1;
  return cell;
}

// Per-trial outputs of one replayed trial.
struct TrialOut {
  double value = -1.0;
  bool fired = false;
  std::uint64_t interactions = 0;
  StrategyTrace trace;
};

// Which engine drive() would pick for this cell (the branches the
// workloads reach: auto routing on the complete graph, and the compressed
// ring engine for ring-compressible protocols on topology=ring).
enum class EngineKind { kArray, kBatch, kRing };

const char* to_string(EngineKind k) {
  switch (k) {
    case EngineKind::kArray: return "array";
    case EngineKind::kBatch: return "batch";
    case EngineKind::kRing: return "ring";
  }
  return "?";
}

template <class P>
std::vector<std::uint64_t> counts_from_agents(
    const P& proto, const std::vector<typename P::State>& agents) {
  std::vector<std::uint64_t> counts(proto.num_states(), 0);
  for (const auto& s : agents) ++counts[proto.encode(s)];
  return counts;
}

// Replays one workload cell. `run_one(sim)` is the stop condition, exactly
// as the registry entry passes it to drive(): returns {value, fired}.
template <class P, class RunOne>
void replay(Tracer& tr, const Cell& cell, const P& proto,
           const InitialConditionSet<P>& inits, const char* metric,
           RunOne run_one) {
  const ScenarioSpec& spec = cell.spec;
  const std::uint32_t n = proto.population_size();
  const std::uint32_t trials = spec.trials;
  const std::string init_name =
      spec.init.empty() ? inits.default_name() : spec.init;

  ScopedSpan process(tr, "process");
  EngineKind kind = EngineKind::kArray;
  std::string engine_arm;
  std::vector<TrialOut> outs(trials);
  std::uint32_t threads_used = 0;
  // Trial 0's start as sparse (code, count) pairs: the kernels are sized
  // from it after the scenario, without holding a second dense |Q| vector
  // while the engines run.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> start_counts;
  auto keep_start = [&](const std::vector<std::uint64_t>& counts) {
    for (std::uint32_t q = 0; q < counts.size(); ++q)
      if (counts[q] != 0) start_counts.emplace_back(q, counts[q]);
  };

  // Materializes trial t's start and builds its engine under the given
  // parent span, then hands the engine to `use`.
  auto with_engine = [&](std::uint32_t t, std::uint32_t parent,
                         std::uint32_t thread, auto&& use) {
    const std::uint64_t trial_seed = derive_seed(spec.seed, t);
    const std::uint64_t init_seed = derive_seed(trial_seed, 1);
    const std::uint64_t engine_seed = derive_seed(trial_seed, 2);
    if (kind == EngineKind::kBatch) {
      if constexpr (EnumerableProtocol<P>) {
        std::vector<std::uint64_t> counts;
        {
          ScopedSpan s(tr, "init.materialize", parent, thread);
          counts = inits.counts(proto, init_name, init_seed);
        }
        if (t == 0 && start_counts.empty()) keep_start(counts);
        std::uint32_t build = tr.begin("engine_build", parent, thread);
        BatchSimulation<P> sim(proto, std::move(counts), engine_seed,
                               BatchStrategy::kAuto);
        tr.end(build);
        use(sim);
      }
    } else {
      std::vector<typename P::State> agents;
      {
        ScopedSpan s(tr, "init.materialize", parent, thread);
        agents = inits.agents(proto, init_name, init_seed);
      }
      if constexpr (EnumerableProtocol<P>) {
        if (t == 0 && start_counts.empty())
          keep_start(counts_from_agents(proto, agents));
      }
      if (kind == EngineKind::kRing) {
        if constexpr (RingCompressibleProtocol<P>) {
          std::uint32_t build = tr.begin("engine_build", parent, thread);
          RingSimulation<P> sim(proto, std::move(agents), engine_seed,
                                spec.faults);
          tr.end(build);
          use(sim);
        }
      } else {
        Topology topology = Topology::parse(
            spec.topology.empty() ? "complete" : spec.topology, n);
        std::uint32_t build = tr.begin("engine_build", parent, thread);
        Simulation<P> sim(proto, std::move(agents), engine_seed,
                          std::move(topology));
        tr.end(build);
        use(sim);
      }
    }
  };

  {
    ScopedSpan scenario(tr, "scenario", process.id());
    {
      ScopedSpan resolve(tr, "scenarios.resolve", scenario.id());
      const ProtocolEntry& entry = default_registry().at(spec.protocol);
      if (inits.find(init_name) == nullptr)
        throw std::invalid_argument("unknown init '" + init_name + "'");
      const Topology topology = Topology::parse(
          spec.topology.empty() ? "complete" : spec.topology, n);
      if (topology.kind() == TopologyKind::kRing) {
        if constexpr (RingCompressibleProtocol<P>) kind = EngineKind::kRing;
      } else if (!topology.is_complete()) {
        throw std::invalid_argument("only complete and ring are replayed");
      } else if (entry.batch_capable) {
        if constexpr (EnumerableProtocol<P>) {
          ScopedSpan probe(tr, "scenarios.probe", resolve.id());
          std::vector<std::uint64_t> counts;
          {
            ScopedSpan s(tr, "init.materialize", probe.id());
            counts = inits.counts(proto, init_name,
                                  derive_seed(derive_seed(spec.seed, 0), 1));
          }
          std::uint64_t occupancy = 0;
          for (std::uint64_t c : counts)
            if (c != 0) ++occupancy;
          const StrategyArm arm = StrategyController::engine_arm(n, occupancy);
          engine_arm = to_string(arm);
          kind = arm == StrategyArm::kArray ? EngineKind::kArray
                                            : EngineKind::kBatch;
        }
      }
    }

    const WallTimer total;
    {
      ScopedSpan fanout(tr, "scenarios.fanout", scenario.id());
      threads_used = std::min(resolve_thread_count(spec.threads), trials);
      std::mutex thread_ids_mutex;
      std::map<std::thread::id, std::uint32_t> thread_ids;
      scenario_detail::for_each_trial(trials, spec.threads,
                                      [&](std::uint32_t t) {
        std::uint32_t thread;
        {
          std::lock_guard<std::mutex> lock(thread_ids_mutex);
          thread = thread_ids
                       .try_emplace(std::this_thread::get_id(),
                                    static_cast<std::uint32_t>(
                                        thread_ids.size()))
                       .first->second;
        }
        ScopedSpan trial(tr, "trial", fanout.id(), thread);
        with_engine(t, trial.id(), thread, [&](auto& sim) {
          using E = std::decay_t<decltype(sim)>;
          TrialOut& o = outs[t];
          {
            ScopedSpan run(tr, "engine.run", trial.id(), thread);
            const std::pair<double, bool> r = run_one(sim);
            o.value = r.first;
            o.fired = r.second;
          }
          {
            ScopedSpan stats(tr, "engine.stats", trial.id(), thread);
            o.interactions = sim.interactions();
            if constexpr (requires { sim.strategy_trace(); }) {
              o.trace = sim.strategy_trace();
            } else {
              o.trace.note(StrategyArm::kArray, sim.interactions());
            }
            if constexpr (requires { sim.stats(); }) {
              const BatchStepStats& st = sim.stats();
              tr.count("batch.effective", static_cast<double>(st.effective));
              tr.count("batch.batched", static_cast<double>(st.batched));
              tr.count("batch.multinomial_batches",
                       static_cast<double>(st.multinomial_batches));
            }
          }
          if constexpr (CountEngine<E>) {
            // The driver's own check, kept out of the layer spans.
            ScopedSpan check(tr, "driver.check_counts", trial.id(), thread);
            std::uint64_t sum = 0;
            for (std::uint64_t c : sim.state_counts()) sum += c;
            if (sum != n)
              throw std::logic_error("count engine lost agents: sum != n");
          }
        });
      });
    }

    {
      ScopedSpan report_span(tr, "report", scenario.id());
      ScenarioResult out;
      out.metric = metric;
      for (const TrialOut& o : outs) out.values.push_back(o.value);
      out.summary = summarize(out.values);
      out.backend = kind == EngineKind::kArray ? "array" : "batch";
      out.strategy = kind == EngineKind::kRing
                         ? "ring_rle"
                         : (kind == EngineKind::kBatch ? "auto" : "");
      out.engine_arm = engine_arm;
      out.topology = spec.topology.empty() ? "complete" : spec.topology;
      double inter_sum = 0;
      for (const TrialOut& o : outs) {
        out.trace.merge(o.trace);
        if (!o.fired) ++out.failed;
        inter_sum += static_cast<double>(o.interactions);
      }
      out.init = init_name;
      out.until = spec.until;
      out.n = n;
      out.trials = trials;
      out.interactions_mean = inter_sum / static_cast<double>(trials);
      out.wall_seconds = total.seconds();
      BenchReport report("trace");
      report_scenario(report, "perfbench_trace", out);
      const std::string path = report.write();
      if (path.empty()) throw std::runtime_error("cannot write BENCH record");
      std::FILE* f = std::fopen(path.c_str(), "rb");
      if (f != nullptr) {
        std::fseek(f, 0, SEEK_END);
        tr.count("report.bytes", static_cast<double>(std::ftell(f)));
        std::fclose(f);
      }
    }
  }

  // Layer counters of the replayed scenario.
  StrategyTrace merged;
  std::uint64_t interactions = 0;
  for (std::uint32_t t = 0; t < trials; ++t) {
    merged.merge(outs[t].trace);
    interactions += outs[t].interactions;
  }
  tr.count("engine.interactions", static_cast<double>(interactions));
  // The agent array has no step trace: each of its steps is one
  // interaction.
  tr.count("engine.steps", kind == EngineKind::kArray
                               ? static_cast<double>(interactions)
                               : static_cast<double>(merged.total_steps()));
  tr.count("scenarios.threads_used", threads_used);
  tr.count("scenarios.failed",
           static_cast<double>(std::count_if(
               outs.begin(), outs.end(),
               [](const TrialOut& o) { return !o.fired; })));
  if (kind == EngineKind::kBatch) {
    for (StrategyArm arm :
         {StrategyArm::kGeometricSkip, StrategyArm::kMultinomial}) {
      const auto i = static_cast<std::size_t>(arm);
      tr.count(std::string("batch.steps.") + to_string(arm),
               static_cast<double>(merged.steps[i]));
      tr.count(std::string("batch.interactions.") + to_string(arm),
               static_cast<double>(merged.interactions[i]));
    }
  }
  if (kind == EngineKind::kRing)
    tr.count("ring.steps", static_cast<double>(merged.total_steps()));
  tr.count(std::string("engine.kind.") + to_string(kind), 1);

  // convergence: trial 0 again, serially — once with the stop condition,
  // once as a plain run() of the same interaction count. Same seeds, same
  // engine, so both walk the same trajectory; the difference is the cost
  // of checking the stop condition.
  {
    ScopedSpan conv(tr, "convergence", process.id());
    std::uint64_t stop_interactions = 0;
    with_engine(0, conv.id(), 0, [&](auto& sim) {
      ScopedSpan s(tr, "convergence.stop_run", conv.id());
      run_one(sim);
      stop_interactions = sim.interactions();
    });
    std::uint64_t plain_interactions = 0;
    with_engine(0, conv.id(), 0, [&](auto& sim) {
      ScopedSpan s(tr, "convergence.plain_run", conv.id());
      sim.run(stop_interactions);
      plain_interactions = sim.interactions();
    });
    if (plain_interactions != stop_interactions ||
        stop_interactions != outs[0].interactions)
      throw std::logic_error(
          "convergence replay diverged from trial 0's trajectory");
    tr.count("convergence.interactions",
             static_cast<double>(stop_interactions));
  }

  // kernel: public sampler and index calls, sized from the workload (n,
  // and trial 0's start as the count vector; protocols without a state
  // coding use n singleton states).
  {
    ScopedSpan kernel(tr, "kernel", process.id());
    std::vector<std::uint64_t> kernel_counts;
    if constexpr (EnumerableProtocol<P>) {
      kernel_counts.assign(proto.num_states(), 0);
      for (const auto& [code, count] : start_counts)
        kernel_counts[code] = count;
    } else {
      kernel_counts.assign(n, 1);
    }
    tr.count("init.occupied_states",
             static_cast<double>(EnumerableProtocol<P> ? start_counts.size()
                                                       : 0));
    tr.count("kernel.states", static_cast<double>(kernel_counts.size()));
    Rng rng(derive_seed(spec.seed, 99));
    std::uint64_t sink = 0;
    constexpr std::uint64_t kOps = 1u << 18;
    auto timed = [&](const char* name, const char* ops_key, auto&& body) {
      ScopedSpan s(tr, name, kernel.id());
      body();
      tr.count(ops_key, static_cast<double>(kOps));
    };
    timed("kernel.rng_below", "kernel.rng_below.ops", [&] {
      for (std::uint64_t i = 0; i < kOps; ++i) sink += rng.below(n);
    });
    timed("kernel.binomial", "kernel.binomial.ops", [&] {
      for (std::uint64_t i = 0; i < kOps; ++i)
        sink += sample_binomial(rng, n, 0.5);
    });
    const auto batch = static_cast<std::uint64_t>(
        std::ceil(std::sqrt(static_cast<double>(n))));
    timed("kernel.hypergeometric", "kernel.hypergeometric.ops", [&] {
      for (std::uint64_t i = 0; i < kOps; ++i)
        sink += sample_hypergeometric(rng, n / 2, n - n / 2, batch);
    });
    {
      WeightedSampler fenwick;
      fenwick.build(kernel_counts);
      const std::uint64_t total = fenwick.total();
      timed("kernel.fenwick_find", "kernel.fenwick_find.ops", [&] {
        for (std::uint64_t i = 0; i < kOps; ++i)
          sink += fenwick.find(rng.below(total));
      });
    }
    {
      SegmentedPool pool;
      pool.build(kernel_counts);
      const std::uint64_t draws = std::min<std::uint64_t>(batch, n - 1);
      timed("kernel.segmented_pool_draw", "kernel.segmented_pool_draw.ops",
            [&] {
              for (std::uint64_t i = 0; i < kOps;) {
                for (std::uint64_t k = 0; k < draws && i < kOps; ++k, ++i)
                  sink += pool.draw_remove(rng);
                pool.restore_removed();
              }
            });
    }
    tr.count("kernel.checksum", static_cast<double>(sink & 0xffff));
  }
}

// Protocol constants and horizons mirror the registry entries in
// analysis/scenarios.h. run.py compares the replay's BENCH record with
// ppsle_run's record of the same seed, so any drift between the two shows
// up as an incorrect traced run.
int run(const Cell& cell) {
  Tracer tr;
  const ScenarioSpec& spec = cell.spec;
  const std::uint32_t n = spec.n;
  if (spec.protocol == "optimal-silent") {
    const OptimalSilentSSR proto(OptimalSilentParams::standard(n));
    const auto& inits = optimal_silent_inits();
    tr.count("init.dense_bytes_computed",
             static_cast<double>(proto.num_states()) * 8.0);
    if (spec.until == "ranked") {
      RunOptions opts;
      opts.max_interactions =
          static_cast<std::uint64_t>(n) * n * 2000 + (1ull << 24);
      replay(tr, cell, proto, inits, "parallel_time", [&](auto& sim) {
        const RunResult r = run_engine_until_ranked(sim, opts);
        return std::pair<double, bool>(
            r.stabilized ? r.stabilization_ptime : -1.0, r.stabilized);
      });
    } else {
      usage_error("optimal-silent replays until=ranked");
    }
  } else if (spec.protocol == "sublinear-h1") {
    const SublinearParams p = SublinearParams::constant_h(n, 1);
    const SublinearTimeSSR proto(p);
    tr.count("init.dense_bytes_computed",
             static_cast<double>(n) * sizeof(SublinearTimeSSR::State));
    if (spec.until != "ranked") usage_error("sublinear-h1 replays until=ranked");
    const std::uint64_t per_epoch =
        static_cast<std::uint64_t>(p.n) * (6ull * p.th + 6ull * p.dmax + 400);
    RunOptions opts;
    opts.max_interactions = 120ull * per_epoch + (1ull << 22);
    opts.tail_ptime = 0.75 * p.th + 10;
    replay(tr, cell, proto, sublinear_inits(), "parallel_time",
                [&](auto& sim) {
                  const RunResult r = run_engine_until_ranked(sim, opts);
                  return std::pair<double, bool>(
                      r.stabilized ? r.stabilization_ptime : -1.0,
                      r.stabilized);
                });
  } else if (spec.protocol == "ring-ssle") {
    const RingSSLE proto(n, 0);
    tr.count("init.dense_bytes_computed",
             static_cast<double>(proto.num_states()) * 8.0);
    if (spec.until != "ptime") usage_error("ring-ssle replays until=ptime");
    const auto budget = static_cast<std::uint64_t>(
        spec.horizon_ptime * static_cast<double>(n));
    replay(tr, cell, proto, ring_ssle_inits(), "wall_seconds",
                [&](auto& sim) {
                  const WallTimer run_wall;
                  sim.run(budget);
                  return std::pair<double, bool>(run_wall.seconds(), true);
                });
  } else {
    usage_error("unsupported protocol '" + spec.protocol + "'");
  }
  if (!tr.write(cell.spans_path)) {
    std::cerr << "layer_driver: cannot write " << cell.spans_path << "\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace ppsim

int main(int argc, char** argv) {
  const ppsim::Cell cell = ppsim::parse_cell(argc, argv);
  try {
    return ppsim::run(cell);
  } catch (const std::exception& e) {
    std::cerr << "layer_driver: " << e.what() << "\n";
    return 1;
  }
}
