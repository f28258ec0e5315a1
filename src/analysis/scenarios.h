// Concrete protocol registrations for the Scenario API (core/registry.h).
//
// Every protocol in src/protocols/ and src/reset/ is registered here with
// its name, state-space metadata, named adversarial initial conditions
// (src/init/), supported stop conditions, and a type-erased runner that
// executes a ScenarioSpec end to end:
//
//   protocol         inits (default first)            stop conditions
//   silent-nstate    worst-case, uniform-random, ...  ranked | ptime
//   optimal-silent   uniform-random, duplicate-rank,  ranked | detected |
//                    dormant-mix, single-leader, ...    ptime
//   sublinear-h1     uniform-random, ghost-names, ... ranked | ptime
//   sublinear-hlog   (same; H = 3 log2 n params)      ranked | ptime
//   sublinear-h1-count   duplicate-names, mid-reset,  detected | drained |
//   sublinear-hlog-count   correct-ranked, post-wave    ptime
//   reset-process    trigger-one, mid-reset-mix, ...  drained | ptime
//   one-way-epidemic single-infected, residual-16     complete | ptime
//   obs25            all-leaders, uniform-random      silent | ptime
//   ring-ssle        uniform-random, coherent, ...    elected | ptime
//                    (directed ring only; topology defaults to ring)
//
// Stop conditions:
//   ranked    run until the ranking is stably correct (the paper's
//             stabilization time); metric = stabilization parallel time
//   detected / drained / complete / silent
//             protocol-specific predicates; metric = parallel time at the
//             first firing
//   ptime     fixed parallel-time budget (spec.horizon_ptime); metric =
//             per-trial *run* wall seconds (engine construction excluded;
//             ScenarioResult.wall_seconds covers the whole scenario
//             including construction) — the perf-measurement mode
//
// Engine resolution happens once, in resolve() (core/registry.h):
// engine=array runs the agent array; engine=batch a count engine
// (BatchSimulation, TauLeapSimulation under strategy=tau, RingSimulation on
// topology=ring) and is a hard error where none can run; engine=auto is
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
// APPROXIMATE tier (opt-in, never auto-chosen):
//   strategy = "tau" (+ tau.eps=E) runs trials on the tau-leaping count
//   engine (core/tau_leap_simulation.h) — exact only in the small-leap
//   limit. It stamps ScenarioResult.approximate = true + the resolved
//   tau_eps; bench_compare exempts such records from strict drift checks
//   against exact baselines.
//
// ABSTRACTED protocols: the sublinear-*-count entries run the truncated
// count-form quotient of Sublinear-Time-SSR (protocols/sublinear_count.h)
// rather than the concrete protocol, so every record they produce is
// stamped ScenarioResult.abstracted = true regardless of engine —
// bench_compare exempts abstracted records from strict drift the same way
// it exempts approximate ones. The trunc.depth param (0 | 1, default 1)
// selects the history-tree truncation depth.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/bench_report.h"
#include "analysis/convergence.h"
#include "analysis/experiments.h"
#include "core/batch_simulation.h"
#include "core/registry.h"
#include "core/ring_simulation.h"
#include "core/simulation.h"
#include "core/tau_leap_simulation.h"
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

// Compile-time gate for the tau-leaping engine: deterministic transitions
// (bulk application replays the cache), passive-structured null knowledge
// (category enumeration), and — when observable — scalable counters.
template <class P>
inline constexpr bool kTauCapable =
    EnumerableProtocol<P> && DeterministicProtocol<P> &&
    (KeyedPassiveProtocol<P> || UnkeyedPassiveProtocol<P>) &&
    (!ObservableProtocol<P> || ScalableCounters<ProtocolCounters<P>>);

// A registry entry whose engine capabilities come from the protocol type:
// resolve() picks engines from these flags and drive() compiles the same
// engines from the same concepts, so the two cannot disagree.
template <class P>
ProtocolEntry entry_for() {
  ProtocolEntry e;
  e.batch_capable = EnumerableProtocol<P>;
  e.ring_capable = RingCompressibleProtocol<P>;
  e.tau_capable = kTauCapable<P>;
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
      engine_arm = to_string(arm);
      engine = arm == StrategyArm::kArray ? Engine::kArray : Engine::kBatch;
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
    } else if (engine == Engine::kTau) {
      if constexpr (kTauCapable<P>) {
        TauLeapSimulation<P> sim(proto,
                                 inits.counts(proto, plan.init, init_seed),
                                 engine_seed, plan.tau_eps);
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
    } else if (faulted) {
      FaultySimulation<P> sim(proto, inits.agents(proto, plan.init, init_seed),
                              engine_seed, plan.faults, plan.topology);
      record(sim);
    } else {
      Simulation<P> sim(proto, inits.agents(proto, plan.init, init_seed),
                        engine_seed, plan.topology);
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
  out.approximate = engine == Engine::kTau;
  out.tau_eps = plan.tau_eps;
  out.faulted = faulted;
  if (faulted) out.faults = plan.faults;
  return out;
}

// Rank-tracking stop conditions (analysis/convergence.h). until=ranked
// measures the stabilization time, demanding a `tail` window of held
// correctness for non-silent protocols (default_tail). until=held waits for
// the first correct ranking and measures the parallel time until it breaks
// (metric = holding_time); meaningful mainly under fault injection — a
// fault-free silent protocol holds forever, which reports as failed, not as
// a number. A trial that misses its event inside the horizon fails.
template <class P>
ScenarioResult execute_ranked(const ScenarioPlan& plan, const P& proto,
                              const InitialConditionSet<P>& inits,
                              std::uint64_t default_horizon,
                              double default_tail = 0.0) {
  RunOptions opts;
  opts.max_interactions = plan.horizon(default_horizon);
  opts.tail_ptime = plan.tail(default_tail);
  const bool held = plan.until == "held";
  return drive(plan, proto, inits, held ? "holding_time" : "parallel_time",
               [&](auto& sim) {
                 const RunResult r = held ? run_engine_until_held(sim, opts)
                                          : run_engine_until_ranked(sim, opts);
                 return std::pair<double, bool>(
                     r.stabilized ? r.stabilization_ptime : -1.0,
                     r.stabilized);
               });
}

// Predicate stop condition. `done` is a generic callable over either
// engine. `cheap` predicates (O(1): counter reads) are checked after every
// interaction on the agent array; expensive ones (O(n) scans) every
// max(1, n/64) interactions — an overshoot of at most 1/64 parallel time,
// amortizing the scan to O(64) per interaction. Count engines check after
// every configuration change (null stretches cannot flip a predicate).
template <class P, class Done>
ScenarioResult execute_predicate(const ScenarioPlan& plan, const P& proto,
                                 const InitialConditionSet<P>& inits,
                                 std::uint64_t default_horizon, Done done,
                                 bool cheap) {
  const std::uint64_t max_interactions = plan.horizon(default_horizon);
  return drive(
      plan, proto, inits, "parallel_time",
      [&](auto& sim) {
        using E = std::decay_t<decltype(sim)>;
        bool hit;
        if constexpr (AgentArrayEngine<E>) {
          if (cheap) {
            hit = done(sim) ||
                  sim.run_until([&](const E& s) { return done(s); },
                                max_interactions);
          } else {
            const std::uint64_t stride =
                std::max<std::uint64_t>(1, sim.population_size() / 64);
            hit = done(sim);
            while (!hit && sim.interactions() < max_interactions) {
              sim.run(std::min(stride,
                               max_interactions - sim.interactions()));
              hit = done(sim);
            }
          }
        } else {
          hit = sim.run_until([&](const E& s) { return done(s); },
                              max_interactions);
        }
        return std::pair<double, bool>(hit ? sim.parallel_time() : -1.0,
                                       hit);
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
      auto thinned = [](const auto& sim) {
        using E = std::decay_t<decltype(sim)>;
        if constexpr (AgentArrayEngine<E>) {
          std::uint32_t holders = 0;
          for (const auto& s : sim.states())
            if (s.rank == 0 && ++holders > 1) return false;
          return true;
        } else {
          return sim.state_counts()[0] <= 1;
        }
      };
      return sd::execute_predicate(plan, proto, inits, kOpenHorizon, thinned,
                                   /*cheap=*/false);
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
      // Observation 2.6's quantity: time until a rank collision is seen.
      auto detected = [](const auto& sim) {
        return sim.counters().collision_triggers > 0;
      };
      return sd::execute_predicate(plan, proto, inits, kOpenHorizon, detected,
                                   /*cheap=*/true);
    }
    if (plan.until == "silent") {
      // Full silence — the event the paper's silence definition names:
      // no ordered pair is non-null. Count engines certify it in O(1)
      // (zero active weight, Theta(n)-states keyed structure); the agent
      // array falls back to the literal pair scan.
      auto silent = [](const auto& sim) {
        using E = std::decay_t<decltype(sim)>;
        if constexpr (AgentArrayEngine<E>) {
          const auto& p = sim.protocol();
          const auto& states = sim.states();
          for (std::size_t i = 0; i < states.size(); ++i)
            for (std::size_t j = 0; j < states.size(); ++j)
              if (i != j && !p.is_null_pair(states[i], states[j]))
                return false;
          return true;
        } else {
          return sim.silent();
        }
      };
      return sd::execute_predicate(plan, proto, inits, horizon, silent,
                                   /*cheap=*/false);
    }
    return sd::execute_ptime(plan, proto, inits);
  };
  reg.add(std::move(e));
}

namespace scenario_detail {
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
      // detection-latency quantity (cheap: one counter read).
      auto detected = [](const auto& sim) {
        return sim.counters().collision_triggers > 0;
      };
      return execute_predicate(plan, proto, inits, kOpenHorizon, detected,
                               /*cheap=*/true);
    }
    if (plan.until == "drained") {
      // Time until no agent is Resetting — the reset-wave drain quantity,
      // paired with the count form's drained cell for the cross-form
      // exactness tests (the reset machinery is a lossless quotient).
      auto drained = [](const auto& sim) {
        for (const auto& s : sim.states())
          if (s.role == SlRole::Resetting) return false;
        return true;
      };
      return execute_predicate(plan, proto, inits, 1ull << 50, drained,
                               /*cheap=*/false);
    }
    return execute_ptime(plan, proto, inits);
  };
  reg.add(std::move(e));
}

// One count-form entry (protocols/sublinear_count.h): the truncated
// abstraction of the same parameter family, EnumerableProtocol and hence
// batch/tau-capable. Every result is stamped abstracted = true —
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
      auto detected = [](const auto& sim) {
        return sim.counters().collision_triggers > 0;
      };
      out = execute_predicate(plan, proto, inits, kOpenHorizon, detected,
                              /*cheap=*/true);
    } else if (plan.until == "drained") {
      // No agent Resetting. The canonical coding keeps the Resetting block
      // contiguous, so count engines scan one span of the count vector.
      auto drained = [&proto](const auto& sim) {
        using E = std::decay_t<decltype(sim)>;
        if constexpr (AgentArrayEngine<E>) {
          for (const auto& s : sim.states())
            if (s.role == SlRole::Resetting) return false;
          return true;
        } else {
          const auto& counts = sim.state_counts();
          const std::uint32_t lo = proto.first_resetting_code();
          const std::uint32_t hi = lo + proto.resetting_code_count();
          for (std::uint32_t q = lo; q < hi; ++q)
            if (counts[q] > 0) return false;
          return true;
        }
      };
      out = execute_predicate(plan, proto, inits, 1ull << 50, drained,
                              /*cheap=*/false);
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
// the batch/tau stack). The h1 variant's TH = Theta(n^{1/2}) blows
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
      auto drained = [](const auto& sim) {
        using E = std::decay_t<decltype(sim)>;
        if constexpr (AgentArrayEngine<E>) {
          for (const auto& s : sim.states())
            if (s.resetting) return false;
          return true;
        } else {
          return sim.silent();  // all-Computing iff zero active weight
        }
      };
      return sd::execute_predicate(plan, proto, inits, 1ull << 50, drained,
                                   /*cheap=*/false);
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
      auto complete = [](const auto& sim) {
        using E = std::decay_t<decltype(sim)>;
        if constexpr (AgentArrayEngine<E>) {
          for (const auto& s : sim.states())
            if (!s.infected) return false;
          return true;
        } else {
          return sim.silent();  // all infected (no infected => no spreader)
        }
      };
      return sd::execute_predicate(plan, proto, inits, kOpenHorizon, complete,
                                   /*cheap=*/false);
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
      auto silent = [](const auto& sim) {
        const auto& p = sim.protocol();
        using E = std::decay_t<decltype(sim)>;
        if constexpr (AgentArrayEngine<E>) {
          const auto& states = sim.states();
          for (std::size_t i = 0; i < states.size(); ++i)
            for (std::size_t j = 0; j < states.size(); ++j)
              if (i != j && !p.is_null_pair(states[i], states[j]))
                return false;
          return true;
        } else {
          const auto& counts = sim.state_counts();
          for (std::uint32_t a = 0; a < counts.size(); ++a) {
            if (counts[a] == 0) continue;
            if (counts[a] > 1 &&
                !p.is_null_pair(p.decode(a), p.decode(a)))
              return false;
            for (std::uint32_t b = a + 1; b < counts.size(); ++b)
              if (counts[b] > 0 &&
                  !p.is_null_pair(p.decode(a), p.decode(b)))
                return false;
          }
          return true;
        }
      };
      return sd::execute_predicate(plan, proto, inits, 1ull << 30, silent,
                                   /*cheap=*/true);
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
  e.silent = false;  // the survivor perpetually re-fires its bullet
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
      // count first touches 1), so the stop condition demands leader_count
      // == 1 for a tail window before declaring election. The default
      // window is 4n parallel time — a few full bullet circulations (one
      // circulation is ~n parallel time: n edge-firings at ~n slots each).
      // Metric = parallel time at the onset of the held uniqueness.
      const auto window = static_cast<std::uint64_t>(
          plan.tail(4.0 * n) * static_cast<double>(n));
      const std::uint64_t horizon =
          plan.horizon(4ull * n * n * n + (1ull << 24));
      return sd::drive(
          plan, proto, inits, "parallel_time",
          [&proto, window, horizon](auto& sim) {
            using E = std::decay_t<decltype(sim)>;
            // Count-engine leader census: the ring engine maintains it
            // incrementally; the clique count engines (compiled here but
            // unreachable: the fixed ring topology never resolves to them)
            // would pay a state-space scan.
            auto census = [&proto](const auto& s) {
              if constexpr (requires { s.leader_count(); }) {
                return s.leader_count();
              } else {
                const auto& counts = s.state_counts();
                std::uint64_t k = 0;
                for (std::uint32_t q = 0; q < counts.size(); ++q)
                  if (counts[q] != 0 && proto.is_leader(proto.decode(q)))
                    k += counts[q];
                return k;
              }
            };
            std::uint64_t leaders = 0;
            std::vector<char> lead;
            if constexpr (AgentArrayEngine<E>) {
              const auto& states = sim.states();
              lead.resize(states.size());
              for (std::size_t i = 0; i < states.size(); ++i) {
                lead[i] = sim.protocol().is_leader(states[i]) ? 1 : 0;
                leaders += lead[i];
              }
            } else {
              leaders = census(sim);
            }
            bool holding = leaders == 1;
            std::uint64_t hold_start = sim.interactions();
            auto elected = [&]() {
              return std::pair<double, bool>(
                  static_cast<double>(hold_start) /
                      static_cast<double>(sim.population_size()),
                  true);
            };
            while (sim.interactions() < horizon) {
              if constexpr (AgentArrayEngine<E>) {
                const AgentPair pr = sim.step();
                auto refresh = [&](std::uint32_t i) {
                  const char l =
                      sim.protocol().is_leader(sim.states()[i]) ? 1 : 0;
                  leaders += static_cast<std::uint64_t>(l) -
                             static_cast<std::uint64_t>(lead[i]);
                  lead[i] = l;
                };
                refresh(pr.initiator);
                refresh(pr.responder);
                if constexpr (ChurnReportingEngine<E>) {
                  if (sim.last_crashed() >= 0)
                    refresh(static_cast<std::uint32_t>(sim.last_crashed()));
                }
              } else {
                if (sim.step() == 0) {
                  // Provably stuck: uniqueness (if held) is permanent.
                  if (holding) return elected();
                  return std::pair<double, bool>(-1.0, false);
                }
                leaders = census(sim);
              }
              if (leaders == 1) {
                if (!holding) {
                  holding = true;
                  hold_start = sim.interactions();
                }
                if (sim.interactions() - hold_start >= window)
                  return elected();
              } else {
                holding = false;
              }
            }
            return std::pair<double, bool>(-1.0, false);
          });
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
  // Approximate-tier honesty stamp (strategy=tau): consumers
  // (bench_compare) must never strict-diff these records' metric values
  // against exact baselines.
  if (r.approximate)
    rec.set("approximate", true).set("tau_eps", r.tau_eps);
  // Abstracted-protocol honesty stamp (count-form quotients): same
  // strict-diff exemption, orthogonal to `approximate`.
  if (r.abstracted) rec.set("abstracted", true);
  // Fault-injection honesty stamp: the knobs join the record identity
  // (a faulted cell never compares against its fault-free twin), but
  // UNLIKE approximate/abstracted there is no strict-diff exemption —
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
