// Concrete protocol registrations for the Scenario API (core/registry.h).
//
// Every protocol in src/protocols/ and src/reset/ is registered here with
// its name, state-space metadata, named adversarial initial conditions
// (src/init/), supported stop conditions, and a type-erased runner that
// executes a ScenarioSpec end to end:
//
//   protocol         inits (default first)            stop conditions
//   silent-nstate    worst-case, uniform-random, ...  ranked | thinned |
//                                                      held | ptime
//   optimal-silent   uniform-random, duplicate-rank,  ranked | detected |
//                    dormant-mix, single-leader, ...    silent | held | ptime
//   sublinear-h1     uniform-random, ghost-names, ... ranked | detected |
//   sublinear-hlog   (same; H = 3 log2 n params)        drained | ptime
//   sublinear-h1-count   duplicate-names, mid-reset,  detected | drained |
//   sublinear-hlog-count   correct-ranked, post-wave    ptime
//   reset-process    trigger-one, mid-reset-mix, ...  drained | ptime
//   one-way-epidemic single-infected, residual-16     complete | ptime
//   obs25            all-leaders, uniform-random      silent | ptime
//   ring-ssle        uniform-random, coherent, ...    elected | ptime
//                    (directed ring only; topology defaults to ring)
//
// Stop conditions — every one but ptime is a stop description (a per-agent
// key or none, an O(1) test, the stop rule) run through run_until's
// census loop (analysis/convergence.h), exact to the interaction on the
// agent array and to the configuration change on count engines:
//   ranked    run until the ranking is stably correct (the paper's
//             stabilization time); metric = stabilization parallel time
//   held      run until the first correct ranking breaks; metric =
//             holding time
//   elected   exactly one leader, held for the tail window
//   detected / drained / complete / thinned / silent
//             protocol-specific events; metric = parallel time at the
//             first interaction where the event holds (optimal-silent
//             silent: the complete graph or the ring count engine only)
//   ptime     fixed parallel-time budget (spec.horizon_ptime); metric =
//             per-trial *run* wall seconds (engine construction excluded;
//             ScenarioResult.wall_seconds covers the whole scenario
//             including construction) — the perf-measurement mode
//
// Engine resolution happens once, in resolve() (core/registry.h):
// engine=array runs the agent array; engine=batch a count engine
// (BatchSimulation on the complete graph, RingSimulation on topology=ring)
// and is a hard error where none can run; engine=auto is
// batch where batch can run and the agent array elsewhere (other graphs
// demote to it), except that with strategy=auto on the complete graph
// drive()'s occupancy probe decides: StrategyController::engine_arm reads
// trial 0's start and routes dense ones to the agent array (stamped
// engine_arm).
// Trial t always runs the RNG streams derived from derive_seed(spec.seed, t)
// (init and engine streams split one level deeper) on the shared trial
// fan-out (for_each_trial in analysis/experiments.h), so results are
// bit-identical for any thread count.
//
// ABSTRACTED protocols: the sublinear-*-count entries run the truncated
// count-form quotient of Sublinear-Time-SSR (protocols/sublinear_count.h)
// rather than the concrete protocol, so every record they produce is
// stamped ScenarioResult.abstracted = true regardless of engine —
// bench_compare exempts abstracted records from strict drift checks
// against exact baselines. The trunc.depth param (0 | 1, default 1)
// selects the history-tree truncation depth.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "analysis/bench_report.h"
#include "analysis/convergence.h"
#include "analysis/experiments.h"
#include "core/batch_simulation.h"
#include "core/registry.h"
#include "core/ring_simulation.h"
#include "core/simulation.h"
#include "core/topology.h"
#include "init/epidemic_init.h"
#include "init/obs25_init.h"
#include "init/optimal_silent_init.h"
#include "init/reset_init.h"
#include "init/ring_ssle_init.h"
#include "init/silent_nstate_init.h"
#include "init/sublinear_count_init.h"
#include "init/sublinear_init.h"
#include "processes/epidemic.h"
#include "protocols/obs25.h"
#include "protocols/optimal_silent.h"
#include "protocols/ring_ssle.h"
#include "protocols/silent_nstate.h"
#include "protocols/sublinear.h"
#include "protocols/sublinear_count.h"
#include "reset/reset_process.h"

namespace ppsim {

namespace scenario_detail {

// A Theta-constant override "param.<name>=<factor>": the constant is
// make(factor), computed in double precision. The factor must be > 0 and
// the constant must land in [1, UINT32_MAX]; both are checked before the
// cast, since converting an out-of-range double to an integer is undefined.
template <class Make>
std::uint32_t factor_constant(ParamReader& params, const std::string& name,
                              double fallback, Make make) {
  const double factor = params.number(name, fallback);
  if (!(factor > 0.0))
    throw std::invalid_argument("param '" + name + "' must be > 0");
  const double constant = make(factor);
  if (!(constant >= 1.0 && constant <= static_cast<double>(UINT32_MAX)))
    throw std::invalid_argument("param '" + name +
                                "' gives a constant outside [1, " +
                                std::to_string(UINT32_MAX) + "]");
  return static_cast<std::uint32_t>(constant);
}

// A registry entry whose engine capabilities come from the protocol type:
// resolve() picks engines from these flags and drive() compiles the same
// engines from the same concepts, so the two cannot disagree.
template <class P>
ProtocolEntry entry_for() {
  ProtocolEntry e;
  e.batch_capable = EnumerableProtocol<P>;
  e.ring_capable = RingCompressibleProtocol<P>;
  return e;
}

// The trial fan-out lives in analysis/experiments.h; re-exported here so
// scenario-level callers keep naming it scenario_detail::for_each_trial.
using ppsim::for_each_trial;

// Shared trial driver: settles the plan's engine (the occupancy probe),
// materializes the plan's initial condition for it, runs
// `run_one(sim) -> {value, fired}` per trial, and assembles the
// ScenarioResult. Every spec decision was taken by resolve().
template <class P, class RunOne>
ScenarioResult drive(const ScenarioPlan& plan, const P& proto,
                     const InitialConditionSet<P>& inits, const char* metric,
                     RunOne run_one) {
  using Engine = ScenarioPlan::Engine;
  // Whole-run arm choice: when engine=auto AND strategy=auto leave the
  // decision open, the strategy controller inspects trial 0's initial
  // occupancy (regenerated bit-identically from the derived init seed — no
  // randomness is consumed from any trial stream) and routes dense starts
  // to the agent array, which no count engine can beat there (see
  // core/engine.h StrategyController). For a protocol with declared null
  // structure a dense start must also be dense in effective pairs: its
  // exact active weight W is summed in the same pass over the occupied
  // codes. Pinning either field disables the override, so head-to-head
  // strategy measurements stay pure.
  Engine engine = plan.engine;
  std::string engine_arm;
  if constexpr (EnumerableProtocol<P>) {
    if (engine == Engine::kProbe) {
      const std::vector<std::uint64_t> probe = inits.counts(
          proto, plan.init, derive_seed(derive_seed(plan.seed, 0), 1));
      const OccupancyProfile profile = occupancy_profile(proto, probe);
      StrategyArm arm;
      if constexpr (StructuredProtocol<P>)
        arm = StrategyController::engine_arm(plan.n, profile.occupied,
                                             profile.active_weight);
      else
        arm = StrategyController::engine_arm(plan.n, profile.occupied);
      engine = arm == StrategyArm::kArray ? Engine::kArray : Engine::kBatch;
      engine_arm = ScenarioPlan::backend(engine);
    }
  }
  const bool faulted = plan.faults.active();
  const std::uint32_t trials = plan.trials;
  std::vector<double> values(trials, -1.0);
  std::vector<std::uint64_t> interactions(trials, 0);
  std::vector<char> fired(trials, 0);
  std::vector<StrategyTrace> traces(trials);

  const WallTimer total;
  for_each_trial(trials, plan.threads, [&](std::uint32_t t) {
    const std::uint64_t trial_seed = derive_seed(plan.seed, t);
    const std::uint64_t init_seed = derive_seed(trial_seed, 1);
    const std::uint64_t engine_seed = derive_seed(trial_seed, 2);
    auto record = [&](auto& sim) {
      const std::pair<double, bool> r = run_one(sim);
      values[t] = r.first;
      fired[t] = r.second;
      interactions[t] = sim.interactions();
      if constexpr (requires { sim.strategy_trace(); }) {
        traces[t] = sim.strategy_trace();
      } else {
        traces[t].note(StrategyArm::kArray, sim.interactions());
      }
    };
    if (engine == Engine::kRing) {
      if constexpr (RingCompressibleProtocol<P>) {
        // Position-ordered agents: the same catalog array the agent-array
        // engine consumes, so both ring engines start from the identical
        // configuration per seed. The full fault law composes (drop thins
        // the skip rate, oneway/churn are drawn per slot).
        RingSimulation<P> sim(proto, inits.agents(proto, plan.init, init_seed),
                              engine_seed, plan.faults);
        record(sim);
      }
    } else if (engine == Engine::kBatch) {
      if constexpr (EnumerableProtocol<P>) {
        BatchSimulation<P> sim(proto,
                               inits.counts(proto, plan.init, init_seed),
                               engine_seed, plan.strategy);
        if (faulted) sim.set_faults(plan.faults);
        record(sim);
      }
    } else {
      Simulation<P> sim(proto, inits.agents(proto, plan.init, init_seed),
                        engine_seed, plan.topology);
      if (faulted) sim.set_faults(plan.faults);
      record(sim);
    }
  });

  ScenarioResult out;
  out.metric = metric;
  out.values = values;
  out.summary = summarize(out.values);
  out.backend = ScenarioPlan::backend(engine);
  out.strategy = plan.strategy_name(engine);
  out.engine_arm = engine_arm;
  out.topology = plan.topology.spec();
  for (const StrategyTrace& tr : traces) out.trace.merge(tr);
  out.init = plan.init;
  out.until = plan.until;
  out.params = plan.params;
  out.n = plan.n;
  out.trials = trials;
  for (char f : fired)
    if (!f) ++out.failed;
  double inter_sum = 0;
  for (std::uint64_t i : interactions)
    inter_sum += static_cast<double>(i);
  out.interactions_mean = inter_sum / static_cast<double>(trials);
  out.wall_seconds = total.seconds();
  out.faulted = faulted;
  if (faulted) out.faults = plan.faults;
  return out;
}

// Every stop condition but ptime: one stop description (analysis/
// convergence.h) run through run_until's census loop on whatever engine
// drive() built. The metric is the stop clock's reading — the parallel time
// of the stop (of the last entry into correctness, for a tail window), or
// the holding time under until=held. A trial that misses its event inside
// the horizon fails.
template <class P, class StopT>
ScenarioResult execute_until(const ScenarioPlan& plan, const P& proto,
                             const InitialConditionSet<P>& inits,
                             const RunOptions& opts, const StopT& stop,
                             const char* metric = "parallel_time") {
  return drive(plan, proto, inits, metric, [&](auto& sim) {
    const RunResult r = run_until(sim, stop, opts);
    return std::pair<double, bool>(r.stabilized ? r.stabilization_ptime : -1.0,
                                   r.stabilized);
  });
}

// Rank-tracking stop conditions. until=ranked measures the stabilization
// time, demanding a `tail` window of held correctness for non-silent
// protocols (default_tail). until=held waits for the first correct ranking
// and measures the parallel time until it breaks (metric = holding_time);
// meaningful mainly under fault injection — a fault-free silent protocol
// holds forever, which reports as failed, not as a number.
template <class P>
ScenarioResult execute_ranked(const ScenarioPlan& plan, const P& proto,
                              const InitialConditionSet<P>& inits,
                              std::uint64_t default_horizon,
                              double default_tail = 0.0) {
  RunOptions opts;
  opts.max_interactions = plan.horizon(default_horizon);
  opts.tail_ptime = plan.tail(default_tail);
  if (plan.until == "held")
    return execute_until(plan, proto, inits, opts, held_stop(plan.n),
                         "holding_time");
  return execute_until(plan, proto, inits, opts, ranked_stop(plan.n));
}

// Event stop conditions (detected, drained, complete, thinned, silent):
// the first interaction at which `stop` holds, no tail window.
template <class P, class StopT>
ScenarioResult execute_event(const ScenarioPlan& plan, const P& proto,
                             const InitialConditionSet<P>& inits,
                             std::uint64_t default_horizon, const StopT& stop) {
  RunOptions opts;
  opts.max_interactions = plan.horizon(default_horizon);
  return execute_until(plan, proto, inits, opts, stop);
}

// until=detected: the collision detector has fired (a counter read).
inline auto detected_stop() {
  return engine_stop([](const auto& sim) {
    return sim.counters().collision_triggers > 0;
  });
}

// until=silent on the directed ring: no active ring edge, the ring count
// engine's O(1) read. Only plans resolved to that engine run it; the other
// engines drive() compiles never reach it.
inline auto ring_silent_stop() {
  return engine_stop([](const auto& sim) {
    if constexpr (is_ring_simulation_v<std::remove_cvref_t<decltype(sim)>>) {
      return sim.silent();
    } else {
      throw std::logic_error("ring silence read off the ring engine");
      return false;
    }
  });
}

// Fixed parallel-time budget: the perf-measurement mode. Metric = per-trial
// *run* wall seconds (engine construction excluded, so strategy
// head-to-heads measure the stepping code); ScenarioResult.wall_seconds
// still covers the whole scenario including construction. Every runner
// ends its stop-condition chain here: resolve() admits only registered
// stop conditions, and ptime is the one left.
template <class P>
ScenarioResult execute_ptime(const ScenarioPlan& plan, const P& proto,
                             const InitialConditionSet<P>& inits) {
  return drive(plan, proto, inits, "wall_seconds", [&](auto& sim) {
    const WallTimer run_wall;
    sim.run(plan.ptime_budget);
    return std::pair<double, bool>(run_wall.seconds(), true);
  });
}

}  // namespace scenario_detail

// --- Protocol registrations -------------------------------------------------

inline void register_silent_nstate(ProtocolRegistry& reg) {
  ProtocolEntry e = scenario_detail::entry_for<SilentNStateSSR>();
  e.name = "silent-nstate";
  e.description =
      "Protocol 1 (Cai-Izumi-Wada): n-state silent SSR, Theta(n^2) time";
  e.states = "n (exact)";
  e.silent = true;
  e.default_n = 64;
  e.inits = silent_nstate_inits().names();
  e.default_init = silent_nstate_inits().default_name();
  e.untils = {"ranked", "thinned", "held", "ptime"};
  e.default_until = "ranked";
  e.run = [](const ScenarioPlan& plan) {
    namespace sd = scenario_detail;
    const std::uint32_t n = plan.n;
    ParamReader(plan.params).finish();  // no overridable constants
    const SilentNStateSSR proto(n);
    const auto& inits = silent_nstate_inits();
    if (plan.until == "ranked")
      return sd::execute_ranked(plan, proto, inits, kOpenHorizon);
    if (plan.until == "held") {
      // Entry needs the Theta(n^2)-time stabilization first: ~20x the exact
      // worst-case expectation (n-1)C(n,2), saturated to the open horizon.
      const double cap =
          20.0 * silent_nstate_worst_expected_interactions(n) + 16777216.0;
      return sd::execute_ranked(
          plan, proto, inits,
          cap > 9e18 ? kOpenHorizon : static_cast<std::uint64_t>(cap));
    }
    if (plan.until == "thinned") {
      // Rank 0 holds at most one agent. From `duplicate-rank` this is the
      // Observation 2.6 meeting time (the duplicated pair must interact
      // directly); from `all-same` it is the time until the original rank
      // thins to one holder — the protocol-level companion of the
      // Omega(log n) coupon-collector bound (bench_lower_bounds).
      auto at_rank_0 = [](const SilentNStateSSR&,
                          const SilentNStateSSR::State& s) {
        return s.rank == 0;
      };
      return sd::execute_event(plan, proto, inits, kOpenHorizon,
                               holders_stop(at_rank_0, 1));
    }
    return sd::execute_ptime(plan, proto, inits);
  };
  reg.add(std::move(e));
}

inline void register_optimal_silent(ProtocolRegistry& reg) {
  ProtocolEntry e = scenario_detail::entry_for<OptimalSilentSSR>();
  e.name = "optimal-silent";
  e.description =
      "Protocols 3-4: time-optimal silent SSR, Theta(n) time, O(n) states";
  e.states = "~35n (canonical coding)";
  e.silent = true;
  e.default_n = 64;
  e.inits = optimal_silent_inits().names();
  e.default_init = optimal_silent_inits().default_name();
  e.untils = {"ranked", "detected", "silent", "held", "ptime"};
  e.default_until = "ranked";
  e.complete_or_ring_untils = {"silent"};
  e.run = [](const ScenarioPlan& plan) {
    namespace sd = scenario_detail;
    const std::uint32_t n = plan.n;
    // Timer-constant overrides: the standard() defaults are Emax = 16n,
    // Dmax = 8n, Rmax = ceil(8 ln n) + 4; the factors scale each Theta
    // constant (bench_ablations' failure-boundary sweeps drive these).
    // The constructor checks the resulting code space fits 32-bit codes.
    ParamReader params(plan.params);
    const double nd = static_cast<double>(n);
    OptimalSilentParams op;
    op.n = n;
    op.emax = sd::factor_constant(params, "emax_factor", 16.0,
                                  [&](double f) { return f * nd; });
    op.dmax = sd::factor_constant(params, "dmax_factor", 8.0,
                                  [&](double f) { return f * nd; });
    op.rmax = sd::factor_constant(params, "rmax_factor", 8.0, [&](double f) {
      return std::ceil(f * std::log(nd)) + 4.0;
    });
    params.finish();
    const OptimalSilentSSR proto(op);
    const auto& inits = optimal_silent_inits();
    const std::uint64_t horizon =
        static_cast<std::uint64_t>(n) * n * 2000 + (1ull << 24);
    if (plan.until == "ranked" || plan.until == "held")
      return sd::execute_ranked(plan, proto, inits, horizon);
    if (plan.until == "detected") {
      // Observation 2.6's quantity: time until a rank collision is seen. A
      // start with no collision to find (correct-ranking) fails at the
      // horizon.
      return sd::execute_event(plan, proto, inits, horizon,
                               sd::detected_stop());
    }
    if (plan.until == "silent") {
      // Full silence — the event the paper's silence definition names:
      // no edge of the interaction graph carries a non-null pair. On the
      // complete graph, with passive = Settled and key = rank - 1 (the
      // keyed null structure), the active weight is zero exactly when
      // every agent is Settled with a distinct rank, i.e. when the ranks
      // form a permutation. On the directed ring duplicate ranks that
      // never meet are silent too: there the ring engine reads its own
      // active-edge weight (resolve() runs no other engine off the
      // complete graph).
      if (!plan.topology.is_complete())
        return sd::execute_event(plan, proto, inits, horizon,
                                 sd::ring_silent_stop());
      return sd::execute_event(
          plan, proto, inits, horizon,
          permutation_stop(RankKey{}, n, StopRule::kFirstEntry));
    }
    return sd::execute_ptime(plan, proto, inits);
  };
  reg.add(std::move(e));
}

namespace scenario_detail {

// Default until=detected horizon of the sublinear entries: 1000·TH parallel
// time, saturated to the open horizon. Lemma 5.6 bounds detection by O(TH),
// and the largest recorded detection (bench_sublinear's
// count_detection_latency_hlog at n = 10^6, TH = 87) fires at ~10^4
// parallel time, 8.7x inside it. A start whose detector never fires fails
// at the horizon instead of running on while its history trees grow.
inline std::uint64_t detection_horizon(const SublinearParams& p) {
  const double interactions =
      1000.0 * static_cast<double>(p.th) * static_cast<double>(p.n);
  return interactions >= static_cast<double>(kOpenHorizon)
             ? kOpenHorizon
             : static_cast<std::uint64_t>(interactions);
}

// until=drained on the sublinear entries, both forms: no agent Resetting.
inline auto drained_stop() {
  return holders_stop(
      [](const auto&, const auto& s) { return s.role == SlRole::Resetting; },
      0);
}

inline void register_sublinear_entry(ProtocolRegistry& reg,
                                     const std::string& name,
                                     const std::string& description,
                                     const std::string& states,
                                     std::uint32_t default_n,
                                     std::function<SublinearParams(
                                         std::uint32_t)> make_params) {
  // Not enumerable: the state space is quasi-exponential by design.
  ProtocolEntry e = entry_for<SublinearTimeSSR>();
  e.name = name;
  e.description = description;
  e.states = states;
  e.silent = false;
  e.default_n = default_n;
  e.inits = sublinear_inits().names();
  e.default_init = sublinear_inits().default_name();
  e.untils = {"ranked", "detected", "drained", "ptime"};
  e.default_until = "ranked";
  e.run = [make_params = std::move(make_params)](const ScenarioPlan& plan) {
    const std::uint32_t n = plan.n;
    // Detector/timer overrides: h rebuilds the constant-H parameter set
    // (bench_sublinear's H sweep runs one registered entry across
    // param.h=1..3 instead of three near-identical registrations), smax
    // and th replace the derived values outright, and the flags toggle the
    // Section 6 synthetic coin and the direct-check collision detector
    // variant.
    ParamReader params(plan.params);
    const auto h_override =
        static_cast<std::uint32_t>(params.integer("h", 0, UINT32_MAX));
    SublinearParams p = h_override > 0
                            ? SublinearParams::constant_h(n, h_override)
                            : make_params(n);
    p.smax = params.integer("smax", p.smax);
    p.th = static_cast<std::uint32_t>(params.integer("th", p.th, UINT32_MAX));
    p.use_synthetic_coin =
        params.flag("synthetic_coin", p.use_synthetic_coin);
    p.direct_check = params.flag("direct_check", p.direct_check);
    params.finish();
    const SublinearTimeSSR proto(p);
    const auto& inits = sublinear_inits();
    if (plan.until == "ranked") {
      // Non-silent protocol: demand a tail window so stale adversarial
      // timers cannot fake stabilization (Lemma 5.5; see convergence.h).
      const std::uint64_t per_epoch =
          static_cast<std::uint64_t>(p.n) *
          (6ull * p.th + 6ull * p.dmax + 400);
      const std::uint64_t horizon = 120ull * per_epoch + (1ull << 22);
      return execute_ranked(plan, proto, inits, horizon, 0.75 * p.th + 10);
    }
    if (plan.until == "detected") {
      // Time until the collision detector first fires — the Section 4
      // detection-latency quantity.
      return execute_event(plan, proto, inits, detection_horizon(p),
                           detected_stop());
    }
    if (plan.until == "drained") {
      // Time until no agent is Resetting — the reset-wave drain quantity,
      // paired with the count form's drained cell for the cross-form
      // exactness tests (the reset machinery is a lossless quotient).
      return execute_event(plan, proto, inits, 1ull << 50, drained_stop());
    }
    return execute_ptime(plan, proto, inits);
  };
  reg.add(std::move(e));
}

// One count-form entry (protocols/sublinear_count.h): the truncated
// abstraction of the same parameter family, EnumerableProtocol and hence
// batch-capable. Every result is stamped abstracted = true —
// the protocol itself is a quotient, whatever the engine.
inline void register_sublinear_count_entry(
    ProtocolRegistry& reg, const std::string& name,
    const std::string& description, const std::string& states,
    std::uint32_t default_n,
    std::function<SublinearParams(std::uint32_t)> make_params) {
  ProtocolEntry e = entry_for<SublinearCountSSR>();
  e.name = name;
  e.description = description;
  e.states = states;
  // The abstraction is silent (tree churn is erased: an all-passive
  // configuration has no non-null pair), unlike the concrete protocol.
  e.silent = true;
  e.default_n = default_n;
  e.inits = sublinear_count_inits().names();
  e.default_init = sublinear_count_inits().default_name();
  e.untils = {"detected", "drained", "ptime"};
  e.default_until = "detected";
  e.run = [make_params = std::move(make_params)](const ScenarioPlan& plan) {
    const std::uint32_t n = plan.n;
    // Same overridable constants as the array entries, plus trunc.depth
    // (history-tree truncation: 0 = direct check only, 1 = witness
    // automaton). synthetic_coin is accepted as a key so the error is
    // about expressibility, not an unknown param.
    ParamReader params(plan.params);
    const auto h_override =
        static_cast<std::uint32_t>(params.integer("h", 0, UINT32_MAX));
    SublinearParams p = h_override > 0
                            ? SublinearParams::constant_h(n, h_override)
                            : make_params(n);
    p.smax = params.integer("smax", p.smax);
    p.th = static_cast<std::uint32_t>(params.integer("th", p.th, UINT32_MAX));
    p.use_synthetic_coin = params.flag("synthetic_coin", false);
    p.direct_check = params.flag("direct_check", p.direct_check);
    const auto trunc_depth = static_cast<std::uint32_t>(
        params.integer("trunc.depth", 1, UINT32_MAX));
    params.finish();
    const SublinearCountSSR proto(p, trunc_depth);
    const auto& inits = sublinear_count_inits();
    ScenarioResult out;
    if (plan.until == "detected") {
      out = execute_event(plan, proto, inits, detection_horizon(p),
                          detected_stop());
    } else if (plan.until == "drained") {
      // No agent Resetting, the quantity the array entries' drained cell
      // measures.
      out = execute_event(plan, proto, inits, 1ull << 50, drained_stop());
    } else {
      out = execute_ptime(plan, proto, inits);
    }
    out.abstracted = true;
    return out;
  };
  reg.add(std::move(e));
}
}  // namespace scenario_detail

inline void register_sublinear(ProtocolRegistry& reg) {
  scenario_detail::register_sublinear_entry(
      reg, "sublinear-h1",
      "Protocols 5-8 with H = 1: Theta(n^{1/2})-time non-silent SSR",
      "exp(O(n^H) log n)", 32,
      [](std::uint32_t n) { return SublinearParams::constant_h(n, 1); });
  // H = Theta(log n) trees make single interactions expensive to
  // *simulate* beyond small n (the quasi-exponential state is real) —
  // hence the small default.
  scenario_detail::register_sublinear_entry(
      reg, "sublinear-hlog",
      "Protocols 5-8 with H = 3 log2 n: Theta(log n)-time non-silent SSR",
      "exp(O(n^log n) log n)", 8,
      [](std::uint32_t n) { return SublinearParams::log_time(n); });
}

// Count-form truncated abstraction of the same rows (Table 1 rows 3-4 on
// the count engine). The h1 variant's TH = Theta(n^{1/2}) blows
// the witness-age axis up with n, so it stays a small-to-mid-n entry; the
// hlog variant's TH = Theta(log n) keeps the state space ~O(log^2 n * TH)
// and reaches n = 10^6 (bench_sublinear's count detection cells).
inline void register_sublinear_count(ProtocolRegistry& reg) {
  scenario_detail::register_sublinear_count_entry(
      reg, "sublinear-h1-count",
      "count-form quotient of sublinear-h1 (abstracted: trunc. trees, "
      "name classes, bucketed rosters)",
      "poly(n): ~6 log2(n) * TH codes, TH = Theta(n^{1/2})", 256,
      [](std::uint32_t n) { return SublinearParams::constant_h(n, 1); });
  scenario_detail::register_sublinear_count_entry(
      reg, "sublinear-hlog-count",
      "count-form quotient of sublinear-hlog (abstracted: trunc. trees, "
      "name classes, bucketed rosters)",
      "poly(n): ~6 log2(n) * TH codes, TH = Theta(log n)", 256,
      [](std::uint32_t n) { return SublinearParams::log_time(n); });
}

inline void register_reset_process(ProtocolRegistry& reg) {
  ProtocolEntry e = scenario_detail::entry_for<ResetProcess>();
  e.name = "reset-process";
  e.description =
      "Protocol 2 harness: Propagate-Reset in isolation (Section 3 phases)";
  e.states = "Rmax + Dmax + 2";
  e.silent = true;
  e.default_n = 64;
  e.inits = reset_process_inits().names();
  e.default_init = reset_process_inits().default_name();
  e.untils = {"drained", "ptime"};
  e.default_until = "drained";
  e.run = [](const ScenarioPlan& plan) {
    namespace sd = scenario_detail;
    const std::uint32_t n = plan.n;
    // The Section 3 experiment constants: Rmax = 8 ln n + 4, Dmax = 4 Rmax;
    // rmax_factor / dmax_factor override the two Theta constants.
    ParamReader params(plan.params);
    const std::uint32_t rmax =
        sd::factor_constant(params, "rmax_factor", 8.0, [&](double f) {
          return std::ceil(f * std::log(static_cast<double>(n))) + 4.0;
        });
    const std::uint32_t dmax =
        sd::factor_constant(params, "dmax_factor", 4.0, [&](double f) {
          return f * static_cast<double>(rmax);
        });
    params.finish();
    const ResetProcess proto(n, rmax, dmax);
    const auto& inits = reset_process_inits();
    if (plan.until == "drained") {
      auto resetting = [](const ResetProcess&, const ResetProcess::State& s) {
        return s.resetting;
      };
      return sd::execute_event(plan, proto, inits, 1ull << 50,
                               holders_stop(resetting, 0));
    }
    return sd::execute_ptime(plan, proto, inits);
  };
  reg.add(std::move(e));
}

inline void register_one_way_epidemic(ProtocolRegistry& reg) {
  ProtocolEntry e = scenario_detail::entry_for<OneWayEpidemic>();
  e.name = "one-way-epidemic";
  e.description =
      "Section 2.1 one-way epidemic (initiator infects responder)";
  e.states = "2";
  e.silent = true;
  e.default_n = 1024;
  e.inits = one_way_epidemic_inits().names();
  e.default_init = one_way_epidemic_inits().default_name();
  e.untils = {"complete", "ptime"};
  e.default_until = "complete";
  e.run = [](const ScenarioPlan& plan) {
    namespace sd = scenario_detail;
    ParamReader(plan.params).finish();  // no overridable constants
    const OneWayEpidemic proto(plan.n);
    const auto& inits = one_way_epidemic_inits();
    if (plan.until == "complete") {
      auto uninfected = [](const OneWayEpidemic&,
                           const OneWayEpidemic::State& s) {
        return !s.infected;
      };
      return sd::execute_event(plan, proto, inits, kOpenHorizon,
                               holders_stop(uninfected, 0));
    }
    return sd::execute_ptime(plan, proto, inits);
  };
  reg.add(std::move(e));
}

inline void register_obs25(ProtocolRegistry& reg) {
  ProtocolEntry e = scenario_detail::entry_for<Obs25SSLE>();
  e.name = "obs25";
  e.description =
      "Observation 2.5: silent SSLE for n = 3 with unrankable states";
  e.states = "6";
  e.silent = true;
  e.fixed_n = 3;
  e.default_n = 3;
  e.inits = obs25_inits().names();
  e.default_init = obs25_inits().default_name();
  e.untils = {"silent", "ptime"};
  e.default_until = "silent";
  e.run = [](const ScenarioPlan& plan) {
    namespace sd = scenario_detail;
    ParamReader(plan.params).finish();  // no overridable constants
    const Obs25SSLE proto(plan.n);
    const auto& inits = obs25_inits();
    if (plan.until == "silent") {
      // No non-null pair among the occupied states: an O(1) scan of the
      // six-code count snapshot (n = 3), built in a fixed buffer (the
      // agent array's state_counts() allocates a vector per call).
      auto silent = [](const auto& sim) {
        const auto& p = sim.protocol();
        std::array<std::uint64_t, Obs25SSLE::kStates> counts{};
        if constexpr (AgentArrayEngine<std::decay_t<decltype(sim)>>) {
          for (const auto& s : sim.states()) ++counts[p.encode(s)];
        } else {
          const auto& c = sim.state_counts();
          std::copy(c.begin(), c.end(), counts.begin());
        }
        for (std::uint32_t a = 0; a < counts.size(); ++a) {
          if (counts[a] == 0) continue;
          if (counts[a] > 1 && !p.is_null_pair(p.decode(a), p.decode(a)))
            return false;
          for (std::uint32_t b = a + 1; b < counts.size(); ++b)
            if (counts[b] > 0 && !p.is_null_pair(p.decode(a), p.decode(b)))
              return false;
        }
        return true;
      };
      return sd::execute_event(plan, proto, inits, 1ull << 30,
                               engine_stop(silent));
    }
    return sd::execute_ptime(plan, proto, inits);
  };
  reg.add(std::move(e));
}

inline void register_ring_ssle(ProtocolRegistry& reg) {
  ProtocolEntry e = scenario_detail::entry_for<RingSSLE>();
  e.name = "ring-ssle";
  e.description =
      "Yokota-Sudo-Masuzawa SS-LE on the directed ring (arXiv 2009.10926)";
  e.states = "8(cap+1), cap = N >= n (the paper's population bound)";
  // Not silent in general: a survivor whose own bullet circulates re-fires
  // it forever; only a survivor whose last bullet killed the last rival
  // ends silent.
  e.silent = false;
  e.default_n = 64;
  // The protocol is *defined* on the directed ring: its distance counting
  // reads "my clockwise predecessor", which no other graph provides. An
  // empty topology therefore means ring here (not complete), and anything
  // else is inexpressible.
  e.fixed_topology = "ring";
  e.inits = ring_ssle_inits().names();
  e.default_init = ring_ssle_inits().default_name();
  e.untils = {"elected", "ptime"};
  e.default_until = "elected";
  e.run = [](const ScenarioPlan& plan) {
    namespace sd = scenario_detail;
    const std::uint32_t n = plan.n;
    ParamReader params(plan.params);
    const auto cap =
        static_cast<std::uint32_t>(params.integer("cap", 0, UINT32_MAX));
    params.finish();
    const RingSSLE proto(n, cap);
    const auto& inits = ring_ssle_inits();
    if (plan.until == "elected") {
      // Unique leader, *held*: transient uniqueness is real in this
      // protocol (a stale-distance follower can still promote after the
      // count first touches 1), so the stop condition demands exactly one
      // leader for a tail window before declaring election. The default
      // window is 4n parallel time — a few full bullet circulations (one
      // circulation is ~n parallel time: n edge-firings at ~n slots each).
      // Metric = parallel time at the onset of the held uniqueness.
      RunOptions opts;
      opts.max_interactions = plan.horizon(4ull * n * n * n + (1ull << 24));
      opts.tail_ptime = plan.tail(4.0 * n);
      return sd::execute_until(plan, proto, inits, opts, elected_stop());
    }
    return sd::execute_ptime(plan, proto, inits);
  };
  reg.add(std::move(e));
}

// The registry every harness shares: all protocols of the repo, registered
// once, in a stable order.
inline const ProtocolRegistry& default_registry() {
  static const ProtocolRegistry reg = [] {
    ProtocolRegistry r;
    register_silent_nstate(r);
    register_optimal_silent(r);
    register_sublinear(r);
    register_sublinear_count(r);
    register_reset_process(r);
    register_one_way_epidemic(r);
    register_obs25(r);
    register_ring_ssle(r);
    return r;
  }();
  return reg;
}

inline ScenarioResult run_scenario(const ScenarioSpec& spec) {
  return default_registry().run(spec);
}

// BENCH_*.json record for one executed scenario (tools/ppsle_run's emission
// path). Identity fields first (bench_compare keys on experiment / backend
// / strategy / n), then the metric summary and throughput measurements.
inline BenchRecord& report_scenario(BenchReport& report,
                                    const std::string& experiment,
                                    const ScenarioResult& r) {
  BenchRecord& rec = report.add();
  rec.set("experiment", experiment).set("backend", r.backend);
  if (!r.strategy.empty()) rec.set("strategy", r.strategy);
  if (!r.engine_arm.empty()) rec.set("engine_arm", r.engine_arm);
  for (std::size_t i = 0; i < kStrategyArmCount; ++i) {
    if (r.trace.steps[i] == 0) continue;
    const std::string arm = to_string(static_cast<StrategyArm>(i));
    rec.set("arm_" + arm + "_steps", r.trace.steps[i])
        .set("arm_" + arm + "_interactions", r.trace.interactions[i]);
  }
  for (const auto& [key, value] : r.params) rec.set("param_" + key, value);
  // Interaction graph: stamped only when non-complete, so clique records
  // keep their committed baseline shape byte for byte. The topology joins
  // the record identity (a ring cell never compares against its clique
  // twin), with no strict-diff exemption — topologized runs stay exact.
  if (!r.topology.empty() && r.topology != "complete")
    rec.set("topology", r.topology);
  rec.set("n", static_cast<std::uint64_t>(r.n))
      .set("trials", r.trials)
      .set("init", r.init)
      .set("until", r.until)
      .set(r.metric + "_mean", r.summary.mean)
      .set(r.metric + "_ci95", r.summary.ci95)
      .set(r.metric + "_p99", r.summary.p99)
      .set("interactions_mean", r.interactions_mean)
      .set("wall_seconds", r.wall_seconds);
  // Abstracted-protocol honesty stamp (count-form quotients): consumers
  // (bench_compare) must never strict-diff these records' metric values
  // against exact baselines.
  if (r.abstracted) rec.set("abstracted", true);
  // Fault-injection honesty stamp: the knobs join the record identity
  // (a faulted cell never compares against its fault-free twin), but
  // UNLIKE abstracted there is no strict-diff exemption —
  // seeded faults reproduce bit for bit.
  if (r.faulted)
    rec.set("faulted", true)
        .set("fault_drop", r.faults.drop)
        .set("fault_oneway", r.faults.oneway)
        .set("fault_churn", r.faults.churn);
  if (r.failed > 0) rec.set("failed", r.failed);
  return rec;
}

}  // namespace ppsim
