// Tests for the fault-injection scheduler layer (core/faults.h) and its
// native compilations on the count engines:
//
//  * contract checks: the ChurnableProtocol concept, and the agent array
//    reports no crash (last_crashed() == -1) without churn;
//  * bit-transparency: an all-zero FaultSpec (fault.drop=0) reproduces the
//    undecorated engine bit for bit on array, geometric_skip and
//    multinomial — the fault layer consumes zero extra randomness;
//  * degenerate knobs: fault.drop=1 makes zero state changes on every
//    engine; churn conserves the population size exactly;
//  * hard errors: out-of-range knobs, churn > n, churn without a
//    churn_state(), count-engine faults on an unstructured protocol,
//    faults on the approximate tier (tau);
//  * scenario plumbing: faulted runs are stamped `faulted` with the knobs
//    echoed, fault-free runs are not;
//  * the `held` stop condition: holding time is measured under churn on
//    both engine families, and a fault-free silent run reports failed
//    (holds forever) instead of inventing a number;
//  * the count engine's array arm under faults: strategy=auto reaches the
//    arm and finishes under drop, oneway and churn. Cross-engine CI overlap
//    under faults (array vs geometric_skip, multinomial and auto) is in
//    tests/equivalence_table_test.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/scenarios.h"
#include "core/batch_simulation.h"
#include "core/faults.h"
#include "core/simulation.h"
#include "init/obs25_init.h"
#include "init/optimal_silent_init.h"
#include "protocols/obs25.h"
#include "protocols/optimal_silent.h"
#include "protocols/silent_nstate.h"

namespace ppsim {
namespace {

// --- Contract checks --------------------------------------------------------

static_assert(ChurnableProtocol<SilentNStateSSR>);
static_assert(ChurnableProtocol<OptimalSilentSSR>);
static_assert(!ChurnableProtocol<Obs25SSLE>);  // no boot state declared

// --- Helpers ----------------------------------------------------------------

template <class P>
std::vector<std::uint64_t> counts_of(const P& proto,
                                     const std::vector<typename P::State>&
                                         agents) {
  std::vector<std::uint64_t> counts(proto.num_states(), 0);
  for (const auto& s : agents) ++counts[proto.encode(s)];
  return counts;
}

std::uint64_t total_count(const std::vector<std::uint64_t>& counts) {
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  return total;
}

// Only churn touches an agent outside the scheduled pair: without it the
// agent array never reports a crash, faults or not.
TEST(FaultContract, NoCrashReportedWithoutChurn) {
  const std::uint32_t n = 32;
  const SilentNStateSSR proto(n);
  const auto init = silent_nstate_worst_config(n);
  FaultSpec lossy;
  lossy.drop = 0.5;
  lossy.oneway = 0.5;
  for (const FaultSpec& spec : {FaultSpec{}, lossy}) {
    Simulation<SilentNStateSSR> sim(proto, init, 17);
    sim.set_faults(spec);
    EXPECT_EQ(sim.last_crashed(), -1);
    for (int k = 0; k < 5000; ++k) {
      sim.step();
      ASSERT_EQ(sim.last_crashed(), -1) << "step " << k;
    }
  }
}

// --- Bit-transparency: fault.drop=0 == no faults ----------------------------

// The agent array with an all-zero spec set must replay the plain
// Simulation<P> stream bit for bit: same scheduler draws, same protocol
// rng, no extra draws.
TEST(FaultTransparency, ZeroSpecFaultyArrayMatchesPlainArrayBitForBit) {
  const std::uint32_t n = 64;
  const SilentNStateSSR proto(n);
  const auto init = silent_nstate_worst_config(n);
  Simulation<SilentNStateSSR> plain(proto, init, 4242);
  Simulation<SilentNStateSSR> faulty(proto, init, 4242);
  faulty.set_faults(FaultSpec{});
  for (int k = 0; k < 20000; ++k) {
    const AgentPair a = plain.step();
    const AgentPair b = faulty.step();
    ASSERT_EQ(a.initiator, b.initiator) << "step " << k;
    ASSERT_EQ(a.responder, b.responder) << "step " << k;
  }
  EXPECT_EQ(plain.interactions(), faulty.interactions());
  for (std::uint32_t i = 0; i < n; ++i)
    ASSERT_EQ(proto.encode(plain.states()[i]), proto.encode(faulty.states()[i]))
        << "agent " << i;
}

// Same check on a protocol whose interact() itself draws randomness (the
// fault layer must not interleave extra draws into the shared stream).
TEST(FaultTransparency, ZeroSpecFaultyArrayMatchesOnRngDrawingProtocol) {
  const Obs25SSLE proto(3);
  const auto& inits = obs25_inits();
  const auto init = inits.agents(proto, inits.default_name(), 7);
  Simulation<Obs25SSLE> plain(proto, init, 99);
  Simulation<Obs25SSLE> faulty(proto, init, 99);
  faulty.set_faults(FaultSpec{});
  plain.run(5000);
  faulty.run(5000);
  EXPECT_EQ(counts_of(proto, plain.states()),
            counts_of(proto, faulty.states()));
}

// set_faults with an all-zero spec must be a no-op on the count engines:
// the fault-free randomness stream is reproduced exactly, per strategy.
TEST(FaultTransparency, ZeroSpecBatchMatchesPlainBatchBitForBit) {
  const std::uint32_t n = 64;
  const OptimalSilentSSR proto(OptimalSilentParams::standard(n));
  const auto agents =
      optimal_silent_config(proto.params(), OsAdversary::kUniformRandom, 5);
  const auto counts = counts_of(proto, agents);
  for (BatchStrategy strategy :
       {BatchStrategy::kGeometricSkip, BatchStrategy::kMultinomial,
        BatchStrategy::kAuto}) {
    BatchSimulation<OptimalSilentSSR> plain(proto, counts, 777, strategy);
    BatchSimulation<OptimalSilentSSR> faulty(proto, counts, 777, strategy);
    faulty.set_faults(FaultSpec{});
    for (int k = 0; k < 2000; ++k) {
      const std::uint64_t a = plain.step();
      const std::uint64_t b = faulty.step();
      ASSERT_EQ(a, b) << "strategy " << to_string(strategy) << " step " << k;
      if (a == 0) break;  // silent
    }
    EXPECT_EQ(plain.interactions(), faulty.interactions())
        << to_string(strategy);
    EXPECT_EQ(plain.state_counts(), faulty.state_counts())
        << to_string(strategy);
  }
}

// The array arm draws its fault Bernoullis only for knobs that are on, so
// an all-zero spec replays the fault-free arm bit for bit.
TEST(FaultTransparency, ZeroSpecArrayArmMatchesFaultFreeArmBitForBit) {
  const std::uint32_t n = 512;
  const OptimalSilentSSR proto(OptimalSilentParams::standard(n));
  const auto counts = counts_of(
      proto,
      optimal_silent_config(proto.params(), OsAdversary::kUniformRandom, 8));
  BatchSimulation<OptimalSilentSSR> plain(proto, counts, 31,
                                          BatchStrategy::kAuto);
  BatchSimulation<OptimalSilentSSR> faulty(proto, counts, 31,
                                           BatchStrategy::kAuto);
  faulty.set_faults(FaultSpec{});
  for (int k = 0; k < 20000; ++k) {
    const std::uint64_t a = plain.step();
    ASSERT_EQ(a, faulty.step()) << "step " << k;
    if (a == 0) break;
  }
  EXPECT_GT(plain.strategy_trace().steps[static_cast<std::size_t>(
                StrategyArm::kArray)],
            0u);
  EXPECT_EQ(plain.interactions(), faulty.interactions());
  EXPECT_EQ(plain.state_counts(), faulty.state_counts());
  EXPECT_EQ(plain.counters().resets_executed,
            faulty.counters().resets_executed);
}

// --- Degenerate knobs -------------------------------------------------------

// drop=1 loses every interaction: the configuration never changes, but the
// array engine still accounts the scheduled (null) slots.
TEST(FaultDegenerate, DropOneFreezesArrayConfiguration) {
  const std::uint32_t n = 32;
  const SilentNStateSSR proto(n);
  const auto init = silent_nstate_worst_config(n);
  FaultSpec spec;
  spec.drop = 1.0;
  Simulation<SilentNStateSSR> sim(proto, init, 11);
  sim.set_faults(spec);
  sim.run(5000);
  EXPECT_EQ(sim.interactions(), 5000u);
  for (std::uint32_t i = 0; i < n; ++i)
    ASSERT_EQ(proto.encode(sim.states()[i]), proto.encode(init[i]));
}

// On the count engines drop=1 zeroes the effective interaction rate: with
// churn off nothing can ever change, which the structured paths prove and
// report as silence (step() == 0).
TEST(FaultDegenerate, DropOneIsProvableSilenceOnBatch) {
  const std::uint32_t n = 32;
  FaultSpec spec;
  spec.drop = 1.0;
  {
    const SilentNStateSSR proto(n);  // diagonal / geometric path
    const auto counts = counts_of(proto, silent_nstate_worst_config(n));
    BatchSimulation<SilentNStateSSR> sim(proto, counts, 3,
                                         BatchStrategy::kGeometricSkip);
    sim.set_faults(spec);
    EXPECT_EQ(sim.step(), 0u);
    EXPECT_EQ(sim.state_counts(), counts);
  }
  {
    const OptimalSilentSSR proto(OptimalSilentParams::standard(n));
    const auto counts = counts_of(
        proto,
        optimal_silent_config(proto.params(), OsAdversary::kUniformRandom, 9));
    for (BatchStrategy strategy :
         {BatchStrategy::kGeometricSkip, BatchStrategy::kMultinomial}) {
      BatchSimulation<OptimalSilentSSR> sim(proto, counts, 3, strategy);
      sim.set_faults(spec);
      EXPECT_EQ(sim.step(), 0u) << to_string(strategy);
      EXPECT_EQ(sim.state_counts(), counts) << to_string(strategy);
    }
  }
}

// Churn is crash-reset under the fixed-n population model: whatever the
// engine, the counts always sum to exactly n.
TEST(FaultDegenerate, ChurnConservesPopulationOnEveryEngine) {
  const std::uint32_t n = 64;
  const OptimalSilentSSR proto(OptimalSilentParams::standard(n));
  const auto agents =
      optimal_silent_config(proto.params(), OsAdversary::kUniformRandom, 21);
  const auto counts = counts_of(proto, agents);
  FaultSpec spec;
  spec.churn = 4.0;  // one crash every ~16 slots at n=64: plenty of churn
  {
    Simulation<OptimalSilentSSR> sim(proto, agents, 51);
    sim.set_faults(spec);
    bool crashed = false;
    for (int k = 0; k < 20000; ++k) {
      sim.step();
      crashed = crashed || sim.last_crashed() >= 0;
    }
    EXPECT_TRUE(crashed);
    EXPECT_EQ(total_count(counts_of(proto, sim.states())), n);
  }
  for (BatchStrategy strategy :
       {BatchStrategy::kGeometricSkip, BatchStrategy::kMultinomial}) {
    BatchSimulation<OptimalSilentSSR> sim(proto, counts, 52, strategy);
    sim.set_faults(spec);
    sim.run(20000);
    EXPECT_EQ(total_count(sim.state_counts()), n) << to_string(strategy);
  }
}

// With churn active a silent configuration is not an absorbing state, so
// the count engines must keep making progress (crash fast-forward) instead
// of reporting step() == 0 forever.
TEST(FaultDegenerate, ChurnKeepsSteppingThroughSilence) {
  const std::uint32_t n = 32;
  const SilentNStateSSR proto(n);
  std::vector<std::uint64_t> correct(proto.num_states(), 0);
  for (std::uint32_t r = 0; r < n; ++r) correct[r] = 1;  // silent: all ranks
  FaultSpec spec;
  spec.churn = 1.0;
  BatchSimulation<SilentNStateSSR> sim(proto, correct, 5, BatchStrategy::kAuto);
  sim.set_faults(spec);
  const std::uint64_t consumed = sim.step();
  EXPECT_GT(consumed, 0u);  // fast-forwarded to the first crash
  EXPECT_EQ(total_count(sim.state_counts()), n);
}

// --- Hard errors ------------------------------------------------------------

TEST(FaultErrors, SpecValidationRejectsOutOfRangeKnobs) {
  FaultSpec spec;
  spec.drop = 1.5;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = FaultSpec{};
  spec.oneway = -0.1;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = FaultSpec{};
  spec.churn = -1.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = FaultSpec{};
  spec.drop = 1.0;
  spec.oneway = 1.0;
  EXPECT_NO_THROW(spec.validate());
}

TEST(FaultErrors, ChurnAboveNIsRejectedByTheEngines) {
  const std::uint32_t n = 8;
  const SilentNStateSSR proto(n);
  const auto init = silent_nstate_worst_config(n);
  FaultSpec spec;
  spec.churn = 20.0;  // q = churn / n > 1: more than one crash per slot
  Simulation<SilentNStateSSR> array(proto, init, 1);
  EXPECT_THROW(array.set_faults(spec), std::invalid_argument);
  BatchSimulation<SilentNStateSSR> sim(proto, counts_of(proto, init), 1);
  EXPECT_THROW(sim.set_faults(spec), std::invalid_argument);
}

TEST(FaultErrors, ChurnNeedsAChurnState) {
  const Obs25SSLE proto(3);
  const auto& inits = obs25_inits();
  FaultSpec spec;
  spec.churn = 0.5;
  Simulation<Obs25SSLE> sim(proto,
                            inits.agents(proto, inits.default_name(), 1), 1);
  EXPECT_THROW(sim.set_faults(spec), std::invalid_argument);
}

// The count-engine compilations need the protocol's declared null
// structure; on an unstructured (general-step) protocol faults are a hard
// error pointing at the array engine instead of silently running unfaulted.
TEST(FaultErrors, CountEngineFaultsNeedStructuredProtocol) {
  const Obs25SSLE proto(3);
  const auto& inits = obs25_inits();
  const auto counts = inits.counts(proto, inits.default_name(), 1);
  BatchSimulation<Obs25SSLE> sim(proto, counts, 1);
  FaultSpec spec;
  spec.drop = 0.1;
  EXPECT_THROW(sim.set_faults(spec), std::invalid_argument);
  sim.set_faults(FaultSpec{});  // all-zero stays a no-op, not an error
}

TEST(FaultErrors, ApproximateTierRejectsFaults) {
  ScenarioSpec spec;
  spec.protocol = "optimal-silent";
  spec.n = 64;
  spec.engine = "batch";
  spec.strategy = "tau";
  spec.trials = 1;
  spec.faults.drop = 0.1;
  EXPECT_THROW(run_scenario(spec), std::invalid_argument);
}

TEST(FaultErrors, ScenarioValidatesKnobRanges) {
  ScenarioSpec spec;
  spec.protocol = "silent-nstate";
  spec.n = 8;
  spec.trials = 1;
  spec.faults.drop = 1.5;
  EXPECT_THROW(run_scenario(spec), std::invalid_argument);
}

// --- Scenario plumbing: the faulted stamp -----------------------------------

TEST(FaultScenario, FaultedRunsAreStampedWithTheirKnobs) {
  ScenarioSpec spec;
  spec.protocol = "optimal-silent";
  spec.init = "uniform-random";
  spec.n = 32;
  spec.trials = 3;
  spec.seed = 71;
  spec.faults.drop = 0.2;
  spec.faults.oneway = 0.1;

  spec.engine = "array";
  const ScenarioResult array_r = run_scenario(spec);
  EXPECT_EQ(array_r.backend, "array");
  EXPECT_TRUE(array_r.faulted);
  EXPECT_DOUBLE_EQ(array_r.faults.drop, 0.2);
  EXPECT_DOUBLE_EQ(array_r.faults.oneway, 0.1);
  EXPECT_EQ(array_r.failed, 0u);

  spec.engine = "batch";
  spec.strategy = "multinomial";
  const ScenarioResult batch_r = run_scenario(spec);
  EXPECT_EQ(batch_r.backend, "batch");
  EXPECT_TRUE(batch_r.faulted);
  EXPECT_DOUBLE_EQ(batch_r.faults.drop, 0.2);
  EXPECT_EQ(batch_r.failed, 0u);
}

TEST(FaultScenario, FaultFreeRunsAreNotStamped) {
  ScenarioSpec spec;
  spec.protocol = "silent-nstate";
  spec.n = 16;
  spec.trials = 2;
  spec.seed = 5;
  const ScenarioResult r = run_scenario(spec);
  EXPECT_FALSE(r.faulted);
  EXPECT_FALSE(r.faults.active());
}

// --- until=held: the holding-time metric ------------------------------------

// Under churn a correct configuration is eventually disrupted: every trial
// must observe the full enter-then-break cycle and report a non-negative
// holding time, on the array decorator and the count engine alike.
TEST(FaultHeld, HoldingTimeUnderChurnOnBothEngineFamilies) {
  ScenarioSpec spec;
  spec.protocol = "optimal-silent";
  spec.init = "uniform-random";
  spec.until = "held";
  spec.n = 64;
  spec.trials = 4;
  spec.seed = 81;
  spec.faults.churn = 0.01;  // ~100 ptime between crashes >> convergence

  spec.engine = "array";
  const ScenarioResult array_r = run_scenario(spec);
  EXPECT_EQ(array_r.metric, "holding_time");
  EXPECT_TRUE(array_r.faulted);
  EXPECT_EQ(array_r.failed, 0u);
  for (double v : array_r.values) EXPECT_GE(v, 0.0);

  spec.engine = "batch";
  spec.strategy = "geometric_skip";
  spec.seed = 82;
  const ScenarioResult batch_r = run_scenario(spec);
  EXPECT_EQ(batch_r.metric, "holding_time");
  EXPECT_EQ(batch_r.failed, 0u);
  for (double v : batch_r.values) EXPECT_GE(v, 0.0);
}

// From an already-correct configuration the holding time is just the wait
// for the first disruptive crash — mean 1 / churn parallel time scaled by
// the chance the victim actually breaks the ranking ((n-1)/n here).
TEST(FaultHeld, HoldingTimeFromCorrectStartIsTheFirstCrash) {
  ScenarioSpec spec;
  spec.protocol = "silent-nstate";
  spec.init = "correct-ranking";
  spec.until = "held";
  spec.engine = "batch";
  spec.n = 64;
  spec.trials = 10;
  spec.seed = 91;
  spec.faults.churn = 0.05;
  const ScenarioResult r = run_scenario(spec);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_GT(r.summary.mean, 0.0);
}

// Without faults a silent protocol holds forever: the trial must report
// failed (no holding time) rather than a made-up number. The count engine
// proves silence and exits immediately instead of burning the horizon.
TEST(FaultHeld, FaultFreeSilentRunHoldsForeverAndFails) {
  ScenarioSpec spec;
  spec.protocol = "silent-nstate";
  spec.init = "correct-ranking";
  spec.until = "held";
  spec.engine = "batch";
  spec.n = 64;
  spec.trials = 2;
  spec.seed = 95;
  const ScenarioResult r = run_scenario(spec);
  EXPECT_EQ(r.failed, r.trials);
  for (double v : r.values) EXPECT_EQ(v, -1.0);
}

// --- The count engine's array arm under faults ------------------------------
//
// Below the pool floor, strategy=auto runs optimal-silent's dense reset and
// timer rounds on the count engine's agent-code array, which draws the
// fault law per slot: under each knob one ranked run from a uniform-random
// start must reach the arm and finish, at each size. That its law matches
// the agent array's is a row of tests/equivalence_table_test.cpp per knob
// and size (optimal_silent_uniform_random_ranked_n*_{drop,oneway,churn}*).
// One-way and churn rates scale as 1/n, as in those rows.
class FaultArrayArm : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(FaultArrayArm, AutoMatchesArrayUnderEachKnob) {
  const std::uint32_t n = GetParam();
  FaultSpec drop;
  drop.drop = 0.5;
  FaultSpec oneway;
  oneway.oneway = 1.0 / static_cast<double>(n);
  FaultSpec churn;
  churn.churn = 0.5 / static_cast<double>(n);
  const std::pair<const char*, FaultSpec> knobs[] = {
      {"drop", drop}, {"oneway", oneway}, {"churn", churn}};
  for (const auto& [name, faults] : knobs) {
    const std::string what =
        std::string("optimal-silent ") + name + " n=" + std::to_string(n);
    ScenarioSpec spec;
    spec.protocol = "optimal-silent";
    spec.init = "uniform-random";
    spec.until = "ranked";
    spec.n = n;
    spec.engine = "batch";
    spec.strategy = "auto";
    spec.seed = 81 + n;
    spec.faults = faults;
    const ScenarioResult r = run_scenario(spec);
    EXPECT_EQ(r.failed, 0u) << what;
    EXPECT_TRUE(r.faulted) << what;
    EXPECT_GT(r.trace.steps[static_cast<std::size_t>(StrategyArm::kArray)],
              0u)
        << what;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FaultArrayArm,
                         ::testing::Values(8u, 64u, 512u));

}  // namespace
}  // namespace ppsim
