// Tests for the unified Engine API (core/engine.h) and for the newly
// enumerable protocols on the count-based backend:
//
//  * compile-time contract checks: both backends satisfy Engine, every
//    protocol in the repo satisfies the (const-asserting) Protocol concept,
//    Optimal-Silent-SSR is keyed-passive, Obs25 is enumerable;
//  * Optimal-Silent-SSR canonical coding: encode/decode bijection,
//    dead-field canonicalization, keyed structure == null-pair predicate;
//  * the strategy controller's verdicts and the array arm's invariants;
//  * the keyed-passive geometric skip against the analytic detection
//    latency of a duplicated rank (Observation 2.6's quantity);
//  * run_trials_parallel determinism: bit-identical per-seed measurements
//    for every thread count;
//  * array-arm bursts: the step(obs) bursts of the ranked and the held
//    harness replay a plain step() loop bit for bit (BurstBitIdentity).
//
// Cross-engine CI overlap (every engine against the agent array) lives in
// tests/equivalence_table_test.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <type_traits>
#include <vector>

#include "analysis/convergence.h"
#include "analysis/experiments.h"
#include "analysis/scenarios.h"
#include "core/batch_simulation.h"
#include "core/engine.h"
#include "core/simulation.h"
#include "core/stats.h"
#include "init/epidemic_init.h"
#include "init/optimal_silent_init.h"
#include "init/reset_init.h"
#include "init/silent_nstate_init.h"
#include "processes/epidemic.h"
#include "protocols/leader.h"
#include "protocols/obs25.h"
#include "protocols/optimal_silent.h"
#include "protocols/silent_nstate.h"
#include "protocols/sublinear.h"
#include "reset/reset_process.h"
#include "stat_harness.h"

namespace ppsim {
namespace {

// --- Compile-time contract checks ------------------------------------------

static_assert(Protocol<SilentNStateSSR>);
static_assert(Protocol<OptimalSilentSSR>);
static_assert(Protocol<Obs25SSLE>);
static_assert(Protocol<SublinearTimeSSR>);
static_assert(Protocol<ResetProcess>);

static_assert(ObservableProtocol<OptimalSilentSSR>);
static_assert(ObservableProtocol<SublinearTimeSSR>);
static_assert(ObservableProtocol<ResetProcess>);
static_assert(!ObservableProtocol<SilentNStateSSR>);

static_assert(EnumerableProtocol<SilentNStateSSR>);
static_assert(EnumerableProtocol<OptimalSilentSSR>);
static_assert(EnumerableProtocol<Obs25SSLE>);
static_assert(!EnumerableProtocol<SublinearTimeSSR>);

static_assert(DiagonalActiveProtocol<SilentNStateSSR>);
static_assert(KeyedPassiveProtocol<OptimalSilentSSR>);
static_assert(!KeyedPassiveProtocol<SilentNStateSSR>);

// ISSUE 3: ResetProcess is enumerable (Section 3 phase experiments run
// batched), both it and OneWayEpidemic expose the unkeyed passive
// structure, and the deterministic-transition flag gates the ring count
// engine's nullity probe.
static_assert(EnumerableProtocol<ResetProcess>);
static_assert(UnkeyedPassiveProtocol<ResetProcess>);
static_assert(EnumerableProtocol<OneWayEpidemic>);
static_assert(UnkeyedPassiveProtocol<OneWayEpidemic>);
static_assert(!UnkeyedPassiveProtocol<OptimalSilentSSR>);  // keyed, not unkeyed
static_assert(!KeyedPassiveProtocol<ResetProcess>);

static_assert(DeterministicProtocol<SilentNStateSSR>);
static_assert(DeterministicProtocol<OptimalSilentSSR>);
static_assert(DeterministicProtocol<ResetProcess>);
static_assert(DeterministicProtocol<OneWayEpidemic>);
static_assert(!DeterministicProtocol<Obs25SSLE>);  // interact() draws Rng

static_assert(StrategyEngine<BatchSimulation<OptimalSilentSSR>>);
static_assert(StrategyEngine<BatchSimulation<SilentNStateSSR>>);
static_assert(StrategyEngine<BatchSimulation<ResetProcess>>);
static_assert(!StrategyEngine<Simulation<OptimalSilentSSR>>);

static_assert(Engine<Simulation<SilentNStateSSR>>);
static_assert(Engine<Simulation<OptimalSilentSSR>>);
static_assert(Engine<Simulation<SublinearTimeSSR>>);
static_assert(Engine<BatchSimulation<SilentNStateSSR>>);
static_assert(Engine<BatchSimulation<OptimalSilentSSR>>);
static_assert(Engine<BatchSimulation<Obs25SSLE>>);

static_assert(AgentArrayEngine<Simulation<OptimalSilentSSR>>);
static_assert(!AgentArrayEngine<BatchSimulation<OptimalSilentSSR>>);
static_assert(CountEngine<BatchSimulation<OptimalSilentSSR>>);
static_assert(!CountEngine<Simulation<OptimalSilentSSR>>);

// --- Optimal-Silent-SSR canonical coding -----------------------------------

TEST(OptimalSilentCoding, DecodeEncodeIsIdentityOnAllCodes) {
  for (std::uint32_t n : {2u, 5u, 16u}) {
    const OptimalSilentSSR proto(OptimalSilentParams::standard(n));
    const auto p = proto.params();
    EXPECT_EQ(proto.num_states(),
              3 * n + (p.emax + 1) + 2 * p.rmax + 2 * (p.dmax + 1));
    for (std::uint32_t code = 0; code < proto.num_states(); ++code)
      EXPECT_EQ(proto.encode(proto.decode(code)), code) << "n=" << n;
  }
}

TEST(OptimalSilentCoding, CanonicalizesDeadFields) {
  const OptimalSilentSSR proto(OptimalSilentParams::standard(8));
  // Settled ignores errorcount/leader/timers.
  OptimalSilentSSR::State s;
  s.role = OsRole::Settled;
  s.rank = 3;
  s.children = 1;
  const std::uint32_t clean = proto.encode(s);
  s.errorcount = 77;
  s.leader = true;
  s.delaytimer = 5;
  s.resetcount = 9;
  EXPECT_EQ(proto.encode(s), clean);
  // Propagating Resetting ignores delaytimer (dead until dormancy, when
  // Protocol 2 line 7 rewrites it).
  OptimalSilentSSR::State r;
  r.role = OsRole::Resetting;
  r.resetcount = 4;
  r.leader = false;
  r.delaytimer = 0;
  const std::uint32_t canon = proto.encode(r);
  r.delaytimer = 123;
  EXPECT_EQ(proto.encode(r), canon);
}

TEST(OptimalSilentCoding, KeyedStructureMatchesNullPairPredicate) {
  const OptimalSilentSSR proto(OptimalSilentParams::standard(5));
  const std::uint32_t q = proto.num_states();
  // The keyed-passive contract: null iff both passive with distinct keys.
  for (std::uint32_t a = 0; a < q; ++a) {
    const auto sa = proto.decode(a);
    for (std::uint32_t b = 0; b < q; ++b) {
      const auto sb = proto.decode(b);
      const bool structured = proto.is_passive(sa) && proto.is_passive(sb) &&
                              proto.passive_key(sa) != proto.passive_key(sb);
      EXPECT_EQ(proto.is_null_pair(sa, sb), structured)
          << "codes " << a << ", " << b;
    }
  }
  // Fibers enumerate exactly the passive codes of each key.
  std::vector<std::vector<std::uint32_t>> expected(proto.num_passive_keys());
  for (std::uint32_t c = 0; c < q; ++c) {
    const auto s = proto.decode(c);
    if (proto.is_passive(s)) expected[proto.passive_key(s)].push_back(c);
  }
  for (std::uint32_t k = 0; k < proto.num_passive_keys(); ++k)
    EXPECT_EQ(proto.passive_fiber(k), expected[k]) << "key " << k;
}

// --- The strategy controller ------------------------------------------------

// The ranked-run horizon of optimal-silent at population n.
RunOptions optimal_silent_opts(std::uint32_t n) {
  RunOptions opts;
  opts.max_interactions =
      static_cast<std::uint64_t>(n) * n * 2000 + (1ull << 24);
  return opts;
}

// kAuto must be a pure function of (configuration, seed): two runs with the
// same seed are bit-identical in interactions, parallel time, counts and
// the per-arm trace. The run starts timer-heavy, so auto enters the array
// arm here.
TEST(StrategyEquivalence, AutoIsBitStableForFixedSeed) {
  const std::uint32_t n = 20'000;
  const auto params = OptimalSilentParams::standard(n);
  OptimalSilentSSR proto(params);
  const auto init = optimal_silent_dormant_counts(params);
  auto run_once = [&](BatchSimulation<OptimalSilentSSR>& sim) {
    sim.run(200'000);
  };
  BatchSimulation<OptimalSilentSSR> a(proto, init, 1234,
                                      BatchStrategy::kAuto);
  BatchSimulation<OptimalSilentSSR> b(proto, init, 1234,
                                      BatchStrategy::kAuto);
  run_once(a);
  run_once(b);
  EXPECT_EQ(a.interactions(), b.interactions());
  EXPECT_EQ(a.parallel_time(), b.parallel_time());
  EXPECT_EQ(a.counts(), b.counts());
  EXPECT_EQ(a.counters().resets_executed, b.counters().resets_executed);
  EXPECT_EQ(a.strategy_trace().steps, b.strategy_trace().steps);
  EXPECT_EQ(a.strategy_trace().interactions, b.strategy_trace().interactions);
  // The dormant countdown has active density 1: auto resolved to the
  // array arm.
  EXPECT_GT(a.strategy_trace().steps[static_cast<std::size_t>(
                StrategyArm::kArray)],
            0u);
  EXPECT_NO_THROW(a.audit());
}

// The auto rule's two verdicts, at n = 20000 and n = 256:
// silent-heavy configurations resolve to the geometric skip, timer-heavy
// (dense) ones to the array arm.
TEST(StrategyEquivalence, AutoResolvesFromDensityAndScale) {
  {
    const auto params = OptimalSilentParams::standard(20'000);
    OptimalSilentSSR proto(params);
    BatchSimulation<OptimalSilentSSR> timer_heavy(
        proto, optimal_silent_dormant_counts(params), 1,
        BatchStrategy::kAuto);
    EXPECT_EQ(timer_heavy.resolved_arm(), StrategyArm::kArray);
    BatchSimulation<OptimalSilentSSR> silent_heavy(
        proto,
        optimal_silent_config(params, OsAdversary::kDuplicateRank, 1), 1,
        BatchStrategy::kAuto);
    EXPECT_EQ(silent_heavy.resolved_arm(), StrategyArm::kGeometricSkip);
    EXPECT_EQ(silent_heavy.strategy(), BatchStrategy::kAuto);
  }
  {
    const auto params = OptimalSilentParams::standard(256);
    OptimalSilentSSR proto(params);
    BatchSimulation<OptimalSilentSSR> small(
        proto, optimal_silent_dormant_counts(params), 1,
        BatchStrategy::kAuto);
    EXPECT_EQ(small.resolved_arm(), StrategyArm::kArray);
    // Pinned strategies never leave their own arm.
    BatchSimulation<OptimalSilentSSR> pinned(
        proto, optimal_silent_dormant_counts(params), 1,
        BatchStrategy::kGeometricSkip);
    EXPECT_EQ(pinned.resolved_arm(), StrategyArm::kGeometricSkip);
  }
}

// The whole-run probe (engine=auto, strategy=auto): from n = 4096 on, a
// start goes to the agent array only when it is dense in occupied codes
// (occ * 8 >= n) and, for a structured protocol, in effective pairs too.
// A start dense in pairs but occupying few codes stays on the count
// engine: sublinear-*-count duplicate-names thins within a few rounds into
// a detection wait that only the geometric skip jumps. Below n = 4096 every
// start stays on the count engine.
TEST(StrategyEquivalence, ProbeRoutesOnlyDenseOccupancyToTheArray) {
  using SC = StrategyController;
  const std::uint64_t n = SC::kDenseArrayMinPopulation;
  const std::uint64_t dense = SC::dense_weight(n);
  EXPECT_EQ(SC::engine_arm(n, 2, n * (n - 1)), StrategyArm::kGeometricSkip);
  EXPECT_EQ(SC::engine_arm(n, n, dense - 1), StrategyArm::kGeometricSkip);
  EXPECT_EQ(SC::engine_arm(n, n / 8 - 1, dense), StrategyArm::kGeometricSkip);
  EXPECT_EQ(SC::engine_arm(n, n / 8, dense), StrategyArm::kArray);
  EXPECT_EQ(SC::engine_arm(n, n / 8), StrategyArm::kArray);
  EXPECT_EQ(SC::engine_arm(n - 1, n - 1, (n - 1) * (n - 2)),
            StrategyArm::kGeometricSkip);
  auto backend = [n](const char* protocol, const char* init) {
    ScenarioSpec spec;
    spec.protocol = protocol;
    spec.init = init;
    spec.until = "ptime";
    spec.horizon_ptime = 1;
    spec.n = static_cast<std::uint32_t>(n);
    spec.seed = 5;
    const ScenarioResult r = run_scenario(spec);
    EXPECT_EQ(r.engine_arm, r.backend) << protocol << " " << init;
    return r.backend;
  };
  EXPECT_EQ(backend("optimal-silent", "uniform-random"), "array");
  EXPECT_EQ(backend("optimal-silent", "dormant-mix"), "batch");
  EXPECT_EQ(backend("optimal-silent", "duplicate-rank"), "batch");
  EXPECT_EQ(backend("reset-process", "mid-reset-mix"), "batch");
  EXPECT_EQ(backend("silent-nstate", "all-same"), "batch");
  EXPECT_EQ(backend("silent-nstate", "uniform-random"), "batch");
  for (const char* protocol : {"sublinear-hlog-count", "sublinear-h1-count"})
    for (const char* init : {"duplicate-names", "mid-reset"})
      EXPECT_EQ(backend(protocol, init), "batch") << protocol << " " << init;
}

// The controller's integer threshold gives the floating-point rule's
// verdict (density W / n(n-1) < 1/16) at and around the threshold, for
// populations whose n(n-1) is and is not a multiple of 16.
TEST(StrategyEquivalence, IntegerThresholdsMatchFloatingPointRule) {
  auto float_rule = [](std::uint64_t n, std::uint64_t w) {
    const double density = static_cast<double>(w) /
                           (static_cast<double>(n) * static_cast<double>(n - 1));
    return density < 1.0 / 16.0 ? StrategyArm::kGeometricSkip
                                : StrategyArm::kArray;
  };
  std::vector<std::uint64_t> sizes = {2, 3, 16, 17, 1000, 4095, 4096, 4097,
                                      1u << 20, 1'000'000, 10'000'019};
  for (std::uint64_t r = 60; r < 70; ++r)
    for (std::uint64_t n : {r * r - 1, r * r, r * r + 1}) sizes.push_back(n);
  for (std::uint64_t n : sizes) {
    const std::uint64_t dense = StrategyController::dense_weight(n);
    for (std::uint64_t w : {dense - 1, dense, dense + 1, n * (n - 1)}) {
      if (w == dense - 1 && dense == 0) continue;
      EXPECT_EQ(StrategyController::step_strategy(dense, w), float_rule(n, w))
          << "n=" << n << " W=" << w;
    }
  }
}

// Deterministic routing under engine=auto / strategy=auto: optimal-silent
// from a uniform-random start runs its dense reset and timer rounds on the
// array arm; silent-nstate from the same kind of
// start is sparse (density ~ 1/n) and never enters it; a pinned strategy
// never leaves its own arm.
TEST(StrategyEquivalence, AutoRoutesDenseRoundsToTheArrayArm) {
  auto array_steps = [](const std::string& protocol,
                        const std::string& strategy) {
    ScenarioSpec spec;
    spec.protocol = protocol;
    spec.init = "uniform-random";
    spec.until = "ptime";
    spec.horizon_ptime = 20;
    spec.n = 512;
    spec.engine = strategy == "auto" ? "auto" : "batch";
    spec.strategy = strategy;
    spec.trials = 1;
    spec.seed = 17;
    const ScenarioResult r = run_scenario(spec);
    EXPECT_EQ(r.backend, "batch") << protocol << " " << strategy;
    EXPECT_GT(r.trace.total_steps(), 0u) << protocol << " " << strategy;
    return r.trace.steps[static_cast<std::size_t>(StrategyArm::kArray)];
  };
  EXPECT_GT(array_steps("optimal-silent", "auto"), 0u);
  EXPECT_EQ(array_steps("silent-nstate", "auto"), 0u);
  EXPECT_EQ(array_steps("optimal-silent", "geometric_skip"), 0u);
}

// Runs `sim` step by step, auditing every step, until `steps` steps have
// run or the configuration is silent. Every `pin_every` steps (0 = never)
// the strategy alternates auto -> geometric_skip, which forces the engine
// out of the array arm and back in. Returns how many times the resolved
// arm switched into or out of the array arm.
template <class P>
int audit_each_step(BatchSimulation<P>& sim, int steps, int pin_every) {
  constexpr BatchStrategy kCycle[] = {BatchStrategy::kAuto,
                                      BatchStrategy::kGeometricSkip};
  int switches = 0;
  bool was_array = sim.resolved_arm() == StrategyArm::kArray;
  for (int k = 0; k < steps; ++k) {
    if (pin_every > 0 && k % pin_every == 0)
      sim.set_strategy(kCycle[(k / pin_every) % 2]);
    const bool is_array = sim.resolved_arm() == StrategyArm::kArray;
    if (is_array != was_array) ++switches;
    was_array = is_array;
    if (sim.step() == 0) break;
    EXPECT_NO_THROW(sim.audit()) << "step " << k;
  }
  return switches;
}

// The array arm keeps the count-engine contract while it drives: after
// every step the counts sum to n, the agent array's histogram equals the
// counts, and the active-weight scalars equal a fresh build; off the arm
// the Fenwick trees (rebuilt on leaving it) do too. One engine per
// structure kernel: keyed, unkeyed and diagonal.
TEST(ArrayArm, InvariantsHoldAcrossArmSwitches) {
  {
    // Dense from the start; pinning forces eight exits and re-entries.
    const auto params = OptimalSilentParams::standard(512);
    const OptimalSilentSSR proto(params);
    std::vector<std::uint64_t> counts(proto.num_states(), 0);
    for (const auto& s : optimal_silent_config(
             params, OsAdversary::kUniformRandom, 3))
      ++counts[proto.encode(s)];
    BatchSimulation<OptimalSilentSSR> sim(proto, counts, 5,
                                          BatchStrategy::kAuto);
    EXPECT_GE(audit_each_step(sim, 4000, 250), 8);
  }
  {
    // n = 4096: the Resetting debris drains on the array arm, and the
    // pinning cycle forces exits and re-entries, so the repair on leaving
    // the arm and the re-entry scan are exercised at scale too (left to
    // the controller alone the first exit comes ~10^5 steps in).
    const ResetProcess proto(4096, 12, 40);
    const auto& inits = reset_process_inits();
    BatchSimulation<ResetProcess> sim(
        proto, inits.counts(proto, "mid-reset-mix", 9), 9,
        BatchStrategy::kAuto);
    EXPECT_GE(audit_each_step(sim, 12500, 250), 4);
    for (StrategyArm arm : {StrategyArm::kArray, StrategyArm::kGeometricSkip})
      EXPECT_GT(sim.strategy_trace().steps[static_cast<std::size_t>(arm)], 0u)
          << to_string(arm);
  }
  {
    // The diagonal kernel: Silent-n-state-SSR with every agent at one rank
    // (dense, so auto takes the array arm) runs to silence through the
    // pinning cycle, so array rounds move the kernel lazily and leaving
    // the arm rebuilds its tree.
    constexpr std::uint32_t kN = 128;
    std::vector<std::uint64_t> counts(kN, 0);
    counts[0] = kN;
    BatchSimulation<SilentNStateSSR> sim(SilentNStateSSR(kN), counts, 21,
                                         BatchStrategy::kAuto);
    EXPECT_GE(audit_each_step(sim, 20000, 40), 2);
    EXPECT_TRUE(sim.silent());
    for (StrategyArm arm : {StrategyArm::kGeometricSkip, StrategyArm::kArray})
      EXPECT_GT(sim.strategy_trace().steps[static_cast<std::size_t>(arm)], 0u)
          << to_string(arm);
  }
}

// --- Array-arm bursts replay plain steps bit for bit ------------------------
//
// run_engine_until_ranked drives the count engine with step(obs), so the
// array arm runs many changes per step. The reference below is the ranked
// harness as a plain step() loop: one change per step, the tracker
// following last_deltas(). Both must agree on every result field, on the
// per-arm interaction totals, and on the final configuration.

constexpr std::size_t kArrayArm = static_cast<std::size_t>(StrategyArm::kArray);

template <class P>
RunResult ranked_by_plain_steps(BatchSimulation<P>& sim,
                                std::uint64_t max_interactions) {
  const auto& protocol = sim.protocol();
  RankTracker tracker(sim.population_size());
  const auto& counts = sim.state_counts();
  for (std::uint32_t q = 0; q < counts.size(); ++q)
    if (counts[q] > 0)
      tracker.apply_delta(protocol.rank_of(protocol.decode(q)),
                          static_cast<std::int64_t>(counts[q]));
  RunOptions opts;
  opts.max_interactions = max_interactions;
  RunResult out;
  detail::StabilizationClock clock(opts, sim.population_size(), out);
  clock.init(tracker.is_permutation());
  bool stuck = false;
  while (sim.interactions() < max_interactions) {
    if (sim.step() == 0) {
      stuck = true;
      break;
    }
    for (const CountDelta& d : sim.last_deltas())
      tracker.apply_delta(protocol.rank_of(protocol.decode(d.code)), d.delta);
    if (clock.on_state(tracker.is_permutation(), sim.interactions())) {
      out.stabilized = true;
      break;
    }
  }
  if (stuck && clock.was_correct()) out.stabilized = true;
  out.interactions = sim.interactions();
  if (out.stabilized) out.stabilization_ptime = clock.last_entry();
  return out;
}

// The held harness as a plain step() loop, written out without the shared
// clock: wait for the first entry into correctness, stop at the first
// break after it; the metric is the parallel time between the two.
template <class P>
RunResult held_by_plain_steps(BatchSimulation<P>& sim,
                              std::uint64_t max_interactions) {
  const auto& protocol = sim.protocol();
  RankTracker tracker(sim.population_size());
  const auto& counts = sim.state_counts();
  for (std::uint32_t q = 0; q < counts.size(); ++q)
    if (counts[q] > 0)
      tracker.apply_delta(protocol.rank_of(protocol.decode(q)),
                          static_cast<std::int64_t>(counts[q]));
  RunResult out;
  bool entered = tracker.is_permutation();
  double entry_ptime = 0.0;
  if (entered) out.first_correct_ptime = 0.0;
  while (sim.interactions() < max_interactions) {
    if (sim.step() == 0) break;
    for (const CountDelta& d : sim.last_deltas())
      tracker.apply_delta(protocol.rank_of(protocol.decode(d.code)), d.delta);
    const bool correct = tracker.is_permutation();
    if (!entered) {
      if (correct) {
        entered = true;
        entry_ptime = sim.parallel_time();
        out.first_correct_ptime = entry_ptime;
      }
    } else if (!correct) {
      out.correctness_breaks = 1;
      out.stabilized = true;
      out.stabilization_ptime = sim.parallel_time() - entry_ptime;
      break;
    }
  }
  out.interactions = sim.interactions();
  return out;
}

enum class Harness { kRanked, kHeld };

// Runs the harness and its plain-step reference on twin auto engines and
// compares them; returns the burst engine's trace for cell-specific
// checks. `bursts` demands that the array arm ran, in fewer (burst) steps
// than changes.
template <class P>
StrategyTrace expect_bursts_replay_plain_steps(
    const P& proto, const std::vector<std::uint64_t>& counts,
    std::uint64_t seed, const FaultSpec& faults,
    std::uint64_t max_interactions, const std::string& what,
    Harness harness = Harness::kRanked, bool bursts = true) {
  BatchSimulation<P> burst(proto, counts, seed, BatchStrategy::kAuto);
  BatchSimulation<P> plain(proto, counts, seed, BatchStrategy::kAuto);
  if (faults.active()) {
    burst.set_faults(faults);
    plain.set_faults(faults);
  }
  RunOptions opts;
  opts.max_interactions = max_interactions;
  const bool held = harness == Harness::kHeld;
  const RunResult b = held ? run_engine_until_held(burst, opts)
                           : run_engine_until_ranked(burst, opts);
  const RunResult p = held ? held_by_plain_steps(plain, max_interactions)
                           : ranked_by_plain_steps(plain, max_interactions);
  EXPECT_EQ(b.stabilized, p.stabilized) << what;
  EXPECT_EQ(b.stabilization_ptime, p.stabilization_ptime) << what;
  EXPECT_EQ(b.first_correct_ptime, p.first_correct_ptime) << what;
  EXPECT_EQ(b.correctness_breaks, p.correctness_breaks) << what;
  EXPECT_EQ(b.interactions, p.interactions) << what;
  EXPECT_EQ(burst.strategy_trace().interactions,
            plain.strategy_trace().interactions)
      << what;
  EXPECT_EQ(burst.state_counts(), plain.state_counts()) << what;
  EXPECT_EQ(burst.stats().effective, plain.stats().effective) << what;
  EXPECT_EQ(burst.stats().batched, plain.stats().batched) << what;
  if constexpr (std::is_same_v<P, OptimalSilentSSR>) {
    EXPECT_EQ(burst.counters().resets_executed,
              plain.counters().resets_executed)
        << what;
  }
  if (bursts) {
    EXPECT_GT(burst.strategy_trace().steps[kArrayArm], 0u) << what;
    EXPECT_LT(burst.strategy_trace().steps[kArrayArm],
              plain.strategy_trace().steps[kArrayArm])
        << what;
  }
  EXPECT_NO_THROW(burst.audit()) << what;
  return burst.strategy_trace();
}

std::string burst_cell_name(const char* protocol, const char* init,
                            std::uint32_t n) {
  return std::string(protocol) + " " + init + " n=" + std::to_string(n);
}

// Optimal-Silent-SSR from its two dense starts. n = 512 and 1000 run to
// stabilization. n = 4096 runs to a fixed horizon (a full run is tens of
// seconds), which also covers the horizon stop.
TEST(BurstBitIdentity, OptimalSilentMatchesPlainSteps) {
  const auto& inits = optimal_silent_inits();
  for (const char* init : {"uniform-random", "dormant-mix"}) {
    for (std::uint32_t n : {512u, 1000u, 4096u}) {
      const OptimalSilentSSR proto(OptimalSilentParams::standard(n));
      const std::string what = burst_cell_name("optimal-silent", init, n);
      const std::uint64_t horizon =
          n < 4096 ? optimal_silent_opts(n).max_interactions
                   : 400ull * n;
      expect_bursts_replay_plain_steps(proto, inits.counts(proto, init, 40 + n),
                                       50 + n, FaultSpec{}, horizon, what);
    }
  }
}

// Silent-n-state-SSR (diagonal structure): an all-same start is dense and
// runs on the array arm until the density test sends it to the geometric
// skip.
TEST(BurstBitIdentity, SilentNStateMatchesPlainSteps) {
  const std::uint32_t n = 512;
  const SilentNStateSSR proto(n);
  const StrategyTrace trace = expect_bursts_replay_plain_steps(
      proto, silent_nstate_inits().counts(proto, "all-same", 3), 4,
      FaultSpec{}, 1ull << 34, burst_cell_name("silent-nstate", "all-same", n));
  EXPECT_GT(trace.steps[static_cast<std::size_t>(StrategyArm::kGeometricSkip)],
            0u);
}

// One faulted cell per knob. The churn cell starts correct (and silent):
// the first crash breaks the ranking, the reset waves it ends in run on
// the array arm, and the harness stops when a burst re-enters the
// ranking.
TEST(BurstBitIdentity, FaultedCellsMatchPlainSteps) {
  const std::uint32_t n = 512;
  const OptimalSilentSSR proto(OptimalSilentParams::standard(n));
  const auto& inits = optimal_silent_inits();
  FaultSpec drop;
  drop.drop = 0.5;
  FaultSpec oneway;
  oneway.oneway = 1.0 / n;
  FaultSpec churn;
  churn.churn = 0.5 / n;
  const std::uint64_t horizon = optimal_silent_opts(n).max_interactions;
  expect_bursts_replay_plain_steps(
      proto, inits.counts(proto, "uniform-random", 61), 62, drop, horizon,
      "optimal-silent uniform-random fault.drop");
  expect_bursts_replay_plain_steps(
      proto, inits.counts(proto, "uniform-random", 63), 64, oneway, horizon,
      "optimal-silent uniform-random fault.oneway");
  BatchSimulation<OptimalSilentSSR> probe(
      proto, inits.counts(proto, "correct-ranking", 65), 66,
      BatchStrategy::kAuto);
  probe.set_faults(churn);
  RunOptions opts;
  opts.max_interactions = horizon;
  EXPECT_EQ(run_engine_until_ranked(probe, opts).correctness_breaks, 1u);
  expect_bursts_replay_plain_steps(
      proto, inits.counts(proto, "correct-ranking", 65), 66, churn, horizon,
      "optimal-silent correct-ranking fault.churn");
}

// run_engine_until_held runs the same bursts, ending them at the entry and
// at the break. On the fault.churn cell above (a correct start) the first
// crash is the break, before any dense round; from a uniform-random start
// the convergence runs on the array arm first.
TEST(BurstBitIdentity, HeldMatchesPlainSteps) {
  const std::uint32_t n = 512;
  const OptimalSilentSSR proto(OptimalSilentParams::standard(n));
  const auto& inits = optimal_silent_inits();
  FaultSpec churn;
  churn.churn = 0.5 / n;
  const std::uint64_t horizon = optimal_silent_opts(n).max_interactions;
  expect_bursts_replay_plain_steps(
      proto, inits.counts(proto, "correct-ranking", 65), 66, churn, horizon,
      "held optimal-silent correct-ranking fault.churn", Harness::kHeld,
      /*bursts=*/false);
  BatchSimulation<OptimalSilentSSR> probe(
      proto, inits.counts(proto, "uniform-random", 67), 68,
      BatchStrategy::kAuto);
  probe.set_faults(churn);
  RunOptions opts;
  opts.max_interactions = horizon;
  const RunResult r = run_engine_until_held(probe, opts);
  EXPECT_TRUE(r.stabilized);
  EXPECT_GT(r.first_correct_ptime, 0.0);
  expect_bursts_replay_plain_steps(
      proto, inits.counts(proto, "uniform-random", 67), 68, churn, horizon,
      "held optimal-silent uniform-random fault.churn", Harness::kHeld);
}

// Bursts cut short by an observer keep every engine invariant: audit()
// after each burst (agent state cache included), through arm switches.
TEST(BurstBitIdentity, AuditHoldsAfterEveryBurst) {
  const std::uint32_t n = 512;
  const OptimalSilentSSR proto(OptimalSilentParams::standard(n));
  BatchSimulation<OptimalSilentSSR> sim(
      proto, optimal_silent_inits().counts(proto, "uniform-random", 7), 8,
      BatchStrategy::kAuto);
  int changes = 0;
  auto every_100th = [&](const OptimalSilentSSR::State&,
                         const OptimalSilentSSR::State&) {
    return ++changes % 100 == 0;
  };
  for (int k = 0; k < 3000; ++k) {
    if (sim.step(every_100th) == 0) break;
    ASSERT_NO_THROW(sim.audit()) << "burst " << k;
  }
  // Bursts spanned many changes each.
  EXPECT_GT(sim.strategy_trace().steps[kArrayArm], 0u);
  EXPECT_GT(static_cast<std::uint64_t>(changes),
            2 * sim.strategy_trace().steps[kArrayArm]);
}

// --- One stop loop: every until= is exact on both engine families ----------
//
// Every stop condition runs through run_until()'s census loop. The
// references below rebuild trial 0 of a scenario from drive()'s seeds and
// step it plainly, evaluating the full predicate after every step.

struct Trial0Seeds {
  std::uint64_t init;
  std::uint64_t engine;
};

Trial0Seeds trial0_seeds(std::uint64_t seed) {
  const std::uint64_t trial = derive_seed(seed, 0);
  return {derive_seed(trial, 1), derive_seed(trial, 2)};
}

ScenarioSpec stop_spec(const char* protocol, std::uint32_t n,
                       const char* init, const char* until) {
  ScenarioSpec spec;
  spec.protocol = protocol;
  spec.n = n;
  spec.init = init;
  spec.until = until;
  spec.seed = 3;
  spec.threads = 1;
  return spec;
}

// Agent array: the predicate after every interaction. Each cell runs at an
// n where a check every max(1, n/64) interactions could overshoot.
template <class P, class Done>
void expect_array_stop_is_exact(ScenarioSpec spec, const P& proto,
                                const InitialConditionSet<P>& inits,
                                Done done, Topology topology = Topology()) {
  spec.engine = "array";
  const std::string what = spec.protocol + " " + spec.init + " " + spec.until;
  ASSERT_GE(spec.n / 64, 2u) << what;
  const ScenarioResult r = run_scenario(spec);
  const Trial0Seeds seeds = trial0_seeds(spec.seed);
  Simulation<P> sim(proto, inits.agents(proto, spec.init, seeds.init),
                    seeds.engine, std::move(topology));
  while (!done(sim.protocol(), sim.states()) &&
         sim.interactions() < (1ull << 36))
    sim.step();
  ASSERT_TRUE(done(sim.protocol(), sim.states())) << what;
  ASSERT_EQ(r.failed, 0u) << what;
  EXPECT_EQ(r.interactions_mean, static_cast<double>(sim.interactions()))
      << what;
  EXPECT_EQ(r.values[0], sim.parallel_time()) << what;
}

TEST(ExactStop, ArrayStopsAtTheExactInteraction) {
  {
    const std::uint32_t n = 256;
    const auto rmax = static_cast<std::uint32_t>(
                          std::ceil(8.0 * std::log(static_cast<double>(n)))) +
                      4;
    expect_array_stop_is_exact(
        stop_spec("reset-process", n, "trigger-one", "drained"),
        ResetProcess(n, rmax, 4 * rmax), reset_process_inits(),
        [](const ResetProcess&, const auto& states) {
          for (const auto& s : states)
            if (s.resetting) return false;
          return true;
        });
  }
  {
    const std::uint32_t n = 256;
    ScenarioSpec spec =
        stop_spec("one-way-epidemic", n, "single-infected", "complete");
    spec.topology = "line";
    expect_array_stop_is_exact(
        spec, OneWayEpidemic(n), one_way_epidemic_inits(),
        [](const OneWayEpidemic&, const auto& states) {
          for (const auto& s : states)
            if (!s.infected) return false;
          return true;
        },
        Topology::parse("line", n));
  }
  {
    const std::uint32_t n = 256;
    expect_array_stop_is_exact(
        stop_spec("silent-nstate", n, "duplicate-rank", "thinned"),
        SilentNStateSSR(n), silent_nstate_inits(),
        [](const SilentNStateSSR&, const auto& states) {
          std::uint32_t holders = 0;
          for (const auto& s : states) holders += s.rank == 0 ? 1 : 0;
          return holders <= 1;
        });
  }
  {
    // Silence as the paper defines it: no ordered pair is non-null.
    const std::uint32_t n = 128;
    expect_array_stop_is_exact(
        stop_spec("optimal-silent", n, "uniform-random", "silent"),
        OptimalSilentSSR(OptimalSilentParams::standard(n)),
        optimal_silent_inits(),
        [](const OptimalSilentSSR& p, const auto& states) {
          for (std::size_t i = 0; i < states.size(); ++i)
            for (std::size_t j = 0; j < states.size(); ++j)
              if (i != j && !p.is_null_pair(states[i], states[j]))
                return false;
          return true;
        });
  }
}

// Count engine under auto: the scenario's burst loop against plain step()
// calls with the predicate after every step (for until=ptime, a plain
// run()). Every result field and per-arm total but the array arm's step
// count must agree, and the array arm must have run in bursts.
template <class P, class Done>
void expect_scenario_bursts_replay_plain_steps(
    ScenarioSpec spec, const P& proto, const InitialConditionSet<P>& inits,
    Done done) {
  spec.engine = "batch";
  spec.strategy = "auto";
  const std::string what = spec.protocol + " " + spec.init + " " + spec.until;
  const ScenarioResult r = run_scenario(spec);
  const Trial0Seeds seeds = trial0_seeds(spec.seed);
  BatchSimulation<P> sim(proto, inits.counts(proto, spec.init, seeds.init),
                         seeds.engine, BatchStrategy::kAuto);
  const bool ptime = spec.until == "ptime";
  const std::uint64_t target =
      ptime ? static_cast<std::uint64_t>(spec.horizon_ptime * spec.n)
            : (1ull << 36);
  bool fired = ptime || done(sim);
  while (!fired && sim.interactions() < target) {
    if (sim.step() == 0) break;
    fired = done(sim);
  }
  if (ptime)
    while (sim.interactions() < target && sim.step() != 0) {
    }
  ASSERT_TRUE(fired) << what;
  ASSERT_EQ(r.failed, 0u) << what;
  EXPECT_EQ(r.interactions_mean, static_cast<double>(sim.interactions()))
      << what;
  if (!ptime) {
    EXPECT_EQ(r.values[0], sim.parallel_time()) << what;
  }
  const StrategyTrace& plain = sim.strategy_trace();
  EXPECT_EQ(r.trace.interactions, plain.interactions) << what;
  for (std::size_t i = 0; i < kStrategyArmCount; ++i)
    if (i != kArrayArm) {
      EXPECT_EQ(r.trace.steps[i], plain.steps[i]) << what;
    }
  EXPECT_GT(r.trace.steps[kArrayArm], 0u) << what;
  EXPECT_LT(r.trace.steps[kArrayArm], plain.steps[kArrayArm]) << what;
}

TEST(BurstBitIdentity, EventStopsAndRunMatchPlainSteps) {
  const std::uint32_t n = 512;
  const OptimalSilentSSR os(OptimalSilentParams::standard(n));
  expect_scenario_bursts_replay_plain_steps(
      stop_spec("optimal-silent", n, "all-dormant", "detected"), os,
      optimal_silent_inits(), [](const auto& sim) {
        return sim.counters().collision_triggers > 0;
      });
  expect_scenario_bursts_replay_plain_steps(
      stop_spec("optimal-silent", n, "uniform-random", "silent"), os,
      optimal_silent_inits(),
      [](const auto& sim) { return sim.silent(); });
  ScenarioSpec run = stop_spec("optimal-silent", n, "uniform-random", "ptime");
  run.horizon_ptime = 4.0;
  expect_scenario_bursts_replay_plain_steps(
      run, os, optimal_silent_inits(), [](const auto&) { return false; });
  const auto rmax = static_cast<std::uint32_t>(
                        std::ceil(8.0 * std::log(static_cast<double>(n)))) +
                    4;
  expect_scenario_bursts_replay_plain_steps(
      stop_spec("reset-process", n, "mid-reset-mix", "drained"),
      ResetProcess(n, rmax, 4 * rmax), reset_process_inits(),
      [](const auto& sim) {
        const auto& counts = sim.state_counts();
        for (std::uint32_t q = 0; q < counts.size(); ++q)
          if (counts[q] > 0 && sim.protocol().decode(q).resetting)
            return false;
        return true;
      });
}

// stat_harness sanity: the widening factor is the right normal quantile.
TEST(StatHarness, FamilyWidenMatchesNormalQuantiles) {
  EXPECT_DOUBLE_EQ(stat_harness::family_widen(1), 1.0);
  EXPECT_NEAR(stat_harness::inverse_normal_cdf(0.975), 1.959964, 1e-5);
  EXPECT_NEAR(stat_harness::inverse_normal_cdf(0.5), 0.0, 1e-9);
  EXPECT_NEAR(stat_harness::family_widen(5) * 1.959964, 2.575829, 1e-4);
  EXPECT_GT(stat_harness::family_widen(60), 1.6);
  EXPECT_LT(stat_harness::family_widen(60), 1.8);
}

TEST(ResetProcessCoding, DecodeEncodeIsIdentityOnAllCodes) {
  const ResetProcess proto(16, 12, 48);
  EXPECT_EQ(proto.num_states(), 1u + 12 + 48 + 1);
  for (std::uint32_t code = 0; code < proto.num_states(); ++code)
    EXPECT_EQ(proto.encode(proto.decode(code)), code);
  // Instrumentation and dead fields are normalized away.
  ResetProcess::State s;
  s.resets_executed = 7;
  EXPECT_EQ(proto.encode(s), 0u);
  s.resetting = true;
  s.resetcount = 3;
  const std::uint32_t canon = proto.encode(s);
  s.delaytimer = 40;  // dead while propagating (Protocol 2 line 7 rewrites)
  EXPECT_EQ(proto.encode(s), canon);
  // The unkeyed structure is an exact characterization for this protocol.
  for (std::uint32_t a = 0; a < proto.num_states(); ++a)
    for (std::uint32_t b = 0; b < proto.num_states(); ++b)
      EXPECT_EQ(proto.is_null_pair(proto.decode(a), proto.decode(b)),
                proto.is_passive(proto.decode(a)) &&
                    proto.is_passive(proto.decode(b)));
}

// --- One-way epidemic: the unkeyed skip ------------------------------------

// The unkeyed skip crushes the endgame: with one susceptible agent left,
// the expected wait is ~n/2 parallel time but only O(1) candidate pairs
// are simulated.
TEST(OneWayEpidemicEquivalence, EndgameSkipsPassivePairs) {
  const std::uint32_t n = 4096;
  OneWayEpidemic proto(n);
  BatchSimulation<OneWayEpidemic> sim(proto,
                                      one_way_epidemic_counts(n, n - 1), 3);
  EXPECT_TRUE(
      run_until(sim, [](const auto& s) { return s.silent(); }, 1ull << 40));
  // The wait is ~n interactions (the last susceptible is infected with
  // probability 1/n per interaction) but only ~2 candidate pairs get
  // simulated: everything between them is one geometric jump.
  EXPECT_GT(sim.interactions(), static_cast<std::uint64_t>(n) / 8);
  EXPECT_LE(sim.stats().effective, 16u);
  EXPECT_GT(sim.stats().batched, 8 * sim.stats().effective);
}

// --- Optimal-Silent-SSR on the keyed skip ----------------------------------

// Observation 2.6's detection latency: from the duplicate-rank start the
// error is detectable only when the two duplicates meet directly, an
// expected n(n-1)/2 interactions = (n-1)/2 parallel time. The keyed path
// simulates the whole wait as one geometric jump; its mean must match both
// the analytic value and the agent-array engine.
TEST(OptimalSilentBackendEquivalence, DetectionLatencyMatchesAnalytic) {
  const std::uint32_t n = 64;
  const std::uint32_t seeds = 400;
  const auto params = OptimalSilentParams::standard(n);
  OptimalSilentSSR proto(params);
  const auto init =
      optimal_silent_config(params, OsAdversary::kDuplicateRank, 1);
  auto detect_batch = [&](std::uint64_t seed) {
    BatchSimulation<OptimalSilentSSR> sim(proto, init, seed);
    EXPECT_TRUE(run_until(sim,
        [](const auto& s) { return s.counters().collision_triggers > 0; },
        1ull << 40));
    return sim.parallel_time();
  };
  auto detect_array = [&](std::uint64_t seed) {
    Simulation<OptimalSilentSSR> sim(proto, init, seed);
    EXPECT_TRUE(run_until(sim,
        [](const auto& s) { return s.counters().collision_triggers > 0; },
        1ull << 40));
    return sim.parallel_time();
  };
  const Summary batch =
      summarize(run_trials(seeds, 901, detect_batch));
  const Summary array =
      summarize(run_trials(seeds / 4, 902, detect_array));
  const double analytic = (n - 1) / 2.0;
  EXPECT_NEAR(batch.mean, analytic, 3 * batch.ci95 + 1e-9);
  stat_harness::expect_overlapping_ci(batch, array, "detection latency");
  // The silent stretch before the collision costs O(1) effective steps.
  BatchSimulation<OptimalSilentSSR> sim(proto, init, 99);
  run_until(sim,
      [](const auto& s) { return s.counters().collision_triggers > 0; },
      1ull << 40);
  EXPECT_LE(sim.stats().effective, 2u);
  EXPECT_GT(sim.interactions(), static_cast<std::uint64_t>(n));
}

// A correct ranking is silent under the keyed path: zero active weight.
TEST(OptimalSilentBackendEquivalence, CorrectRankingIsKeyedSilent) {
  const std::uint32_t n = 32;
  const auto params = OptimalSilentParams::standard(n);
  OptimalSilentSSR proto(params);
  const auto init =
      optimal_silent_config(params, OsAdversary::kCorrectRanking, 1);
  BatchSimulation<OptimalSilentSSR> sim(proto, init, 3);
  EXPECT_TRUE(sim.silent());
  EXPECT_EQ(sim.step(), 0u);
  EXPECT_EQ(sim.interactions(), 0u);
  RunOptions opts;
  opts.max_interactions = 1ull << 30;
  opts.verify_silent = true;
  BatchSimulation<OptimalSilentSSR> sim2(proto, init, 4);
  const RunResult r = run_engine_until_ranked(sim2, opts);
  EXPECT_TRUE(r.stabilized);
  EXPECT_EQ(r.stabilization_ptime, 0.0);
}

// --- run_trials_parallel ----------------------------------------------------

TEST(RunTrialsParallel, BitIdenticalAcrossThreadCounts) {
  auto one = [](std::uint64_t seed) {
    BatchSimulation<SilentNStateSSR> sim(
        SilentNStateSSR(64), silent_nstate_worst_config(64), seed);
    run_until(sim, [](const auto& s) { return s.silent(); }, 1ull << 40);
    return sim.parallel_time();
  };
  const auto serial = run_trials(12, 42, one);
  for (std::uint32_t threads : {1u, 2u, 3u, 8u}) {
    const auto parallel = run_trials_parallel(12, 42, one, threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
      EXPECT_EQ(parallel[i], serial[i])  // bitwise: same seed, same stream
          << "trial " << i << " with " << threads << " threads";
  }
}

TEST(RunTrialsParallel, PropagatesExceptions) {
  auto boom = [](std::uint64_t seed) -> double {
    if (seed % 2 == 0 || true) throw std::runtime_error("trial failed");
    return 0.0;
  };
  EXPECT_THROW(run_trials_parallel(8, 7, boom, 4), std::runtime_error);
}

}  // namespace
}  // namespace ppsim
