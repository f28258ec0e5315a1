// The interaction-graph scheduler layer (core/topology.h) and the
// active-edge ring engine (core/ring_simulation.h), held to the
// repo's full statistical test bar:
//
//   * exact uniform-edge sampling on every built-in topology, chi-square
//     GOF at the stat_harness significance, including the degenerate
//     cells (line endpoints, the star hub's share, 1xK meshes, wrap
//     suppression on 2-wide tori, the n = 2 ring);
//   * the transparency contract: topology=complete is bit-identical to
//     the untopologized engines — draw for draw against
//     UniformScheduler, and metric for metric through the Scenario API
//     on every batched strategy (mirroring tests/faults_test.cpp's
//     zero-fault-spec contract for the fault layer);
//   * RingSimulation's active-edge set against brute force: state
//     counts and active-edge weight recomputed from scratch, and the
//     engine's own audit(), after every step, fault-free and under each
//     fault knob;
//   * ring-ssle end to end: every adversarial initial condition elects,
//     and the ring engine's silence is real silence. The ring engine
//     against the agent array (ring-ssle, also under fault.drop, and the
//     one-way epidemic), with the `faulted`, topology and `ring_rle`
//     stamps, is in tests/equivalence_table_test.cpp;
//   * strict spec parsing: unknown graphs, malformed mesh dims, bad
//     custom-graph files and inexpressible engine/topology combinations
//     are hard errors, not silent fallbacks.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "analysis/scenarios.h"
#include "core/engine.h"
#include "core/faults.h"
#include "core/ring_simulation.h"
#include "core/rng.h"
#include "core/scheduler.h"
#include "core/simulation.h"
#include "core/topology.h"
#include "init/ring_ssle_init.h"
#include "processes/epidemic.h"
#include "protocols/ring_ssle.h"
#include "stat_harness.h"

namespace ppsim {
namespace {

using stat_harness::chi2_critical;
using stat_harness::expect_matches_pmf;

// --- concept coverage -------------------------------------------------------

static_assert(RingCompressibleProtocol<RingSSLE>);
static_assert(RingCompressibleProtocol<OneWayEpidemic>);
static_assert(CountEngine<RingSimulation<RingSSLE>>);
static_assert(CountEngine<RingSimulation<OneWayEpidemic>>);
// The ring engine has exactly one strategy; it must stay invisible to the
// strategy controller.
static_assert(!StrategyEngine<RingSimulation<RingSSLE>>);
// Ring silence is read off the ring engine only, never off a clique count
// engine's own silent().
static_assert(is_ring_simulation_v<RingSimulation<RingSSLE>>);
static_assert(!is_ring_simulation_v<BatchSimulation<RingSSLE>>);

// --- shape ------------------------------------------------------------------

TEST(Topology, ShapesAndDiameters) {
  EXPECT_EQ(Topology().population_size(), 0u);  // unset placeholder

  const Topology complete = Topology::complete(8);
  EXPECT_EQ(complete.edge_count(), 56u);
  EXPECT_EQ(complete.diameter(), 1u);
  EXPECT_TRUE(complete.is_complete());

  EXPECT_EQ(Topology::ring(16).edge_count(), 16u);
  EXPECT_EQ(Topology::ring(16).diameter(), 8u);
  EXPECT_EQ(Topology::ring(2).edge_count(), 2u);  // (0,1) and (1,0)
  EXPECT_EQ(Topology::line(9).edge_count(), 16u);
  EXPECT_EQ(Topology::line(9).diameter(), 8u);
  EXPECT_EQ(Topology::star(9).edge_count(), 16u);
  EXPECT_EQ(Topology::star(9).diameter(), 2u);
  EXPECT_EQ(Topology::star(2).diameter(), 1u);

  EXPECT_EQ(Topology::mesh(4, 4).edge_count(), 48u);
  EXPECT_EQ(Topology::mesh(4, 4).diameter(), 6u);
  EXPECT_EQ(Topology::mesh(1, 6).edge_count(), 10u);  // a 1xK mesh is a line
  EXPECT_EQ(Topology::mesh(1, 6).diameter(), 5u);
  EXPECT_EQ(Topology::torus(3, 5).edge_count(), 60u);
  EXPECT_EQ(Topology::torus(3, 5).diameter(), 3u);
  // A 2-wide torus dimension must NOT wrap (the wrap edge would duplicate
  // the existing mesh edge): 2x4 has 2*4 horizontal (wrapped) + 4*1
  // vertical undirected edges.
  EXPECT_EQ(Topology::torus(2, 4).edge_count(), 24u);

  for (const auto& t :
       {Topology::complete(8), Topology::ring(16), Topology::ring(2),
        Topology::line(9), Topology::star(9), Topology::mesh(4, 4),
        Topology::mesh(1, 6), Topology::torus(3, 5), Topology::torus(2, 4)}) {
    const auto edges = t.edges();
    EXPECT_EQ(edges.size(), t.edge_count()) << t.spec();
    std::map<std::pair<std::uint32_t, std::uint32_t>, int> seen;
    for (const AgentPair& e : edges) {
      EXPECT_NE(e.initiator, e.responder) << t.spec() << ": self-loop";
      EXPECT_LT(e.initiator, t.population_size()) << t.spec();
      EXPECT_LT(e.responder, t.population_size()) << t.spec();
      EXPECT_EQ((++seen[{e.initiator, e.responder}]), 1)
          << t.spec() << ": duplicate edge (" << e.initiator << ", "
          << e.responder << ")";
    }
  }
}

// --- uniform-edge sampling (chi-square GOF) ---------------------------------

// Chi-square the sampler against the uniform law over the topology's
// directed edges. Every drawn pair must be a listed edge (hard failure
// otherwise); with E >= 3 edges the shared merged-bin GOF helper applies,
// and the 2-edge degenerate (the n = 2 ring) gets a direct chi-square at
// the same significance.
void expect_uniform_edges(const Topology& t, std::uint64_t seed) {
  const auto edges = t.edges();
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> index;
  for (std::size_t k = 0; k < edges.size(); ++k)
    index[{edges[k].initiator, edges[k].responder}] = k;
  const std::uint64_t slots = 2000 * edges.size() < 100000
                                  ? 100000
                                  : 2000 * edges.size();
  Rng rng(seed);
  std::vector<std::uint64_t> samples;
  samples.reserve(slots);
  for (std::uint64_t s = 0; s < slots; ++s) {
    const AgentPair p = t.sample(rng);
    const auto it = index.find({p.initiator, p.responder});
    ASSERT_NE(it, index.end())
        << t.spec() << ": sampled (" << p.initiator << ", " << p.responder
        << "), which is not an edge";
    samples.push_back(it->second);
  }
  const double e = static_cast<double>(edges.size());
  if (edges.size() >= 3) {
    expect_matches_pmf(samples, edges.size() - 1,
                       [e](std::uint64_t) { return 1.0 / e; },
                       t.spec().c_str());
  } else {
    std::vector<double> obs(edges.size(), 0.0);
    for (std::uint64_t s : samples) obs[s] += 1.0;
    const double expected = static_cast<double>(slots) / e;
    double chi2 = 0.0;
    for (double o : obs) chi2 += (o - expected) * (o - expected) / expected;
    EXPECT_LE(chi2, chi2_critical(e - 1.0)) << t.spec();
  }
}

TEST(TopologySampling, UniformOverEdges) {
  expect_uniform_edges(Topology::complete(8), 11);
  expect_uniform_edges(Topology::ring(16), 12);
  expect_uniform_edges(Topology::line(9), 13);   // endpoints have degree 1
  expect_uniform_edges(Topology::star(9), 14);   // the hub is on every edge
  expect_uniform_edges(Topology::mesh(4, 4), 15);
  expect_uniform_edges(Topology::torus(3, 5), 16);
  expect_uniform_edges(Topology::torus(2, 4), 17);  // suppressed wrap
}

TEST(TopologySampling, DegenerateCells) {
  expect_uniform_edges(Topology::ring(2), 21);    // 2 directed edges
  expect_uniform_edges(Topology::mesh(1, 7), 22); // 1xK mesh = a line
  expect_uniform_edges(Topology::star(2), 23);
  expect_uniform_edges(Topology::line(2), 24);
}

TEST(TopologySampling, CustomGraphUniform) {
  // Directed 4-cycle plus one chord, as an explicit edge list.
  const std::vector<AgentPair> edges = {
      {0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}};
  const Topology t = Topology::custom(4, edges);
  EXPECT_EQ(t.edge_count(), 5u);
  expect_uniform_edges(t, 25);
}

// --- the transparency contract ----------------------------------------------

// topology=complete must reproduce UniformScheduler::next draw for draw:
// same rng consumption, same pairs, zero extra randomness.
TEST(CompleteTransparency, SamplerMatchesUniformScheduler) {
  const std::uint32_t n = 97;
  const Topology t = Topology::complete(n);
  Rng a(42), b(42);
  UniformScheduler sched(n);
  for (int k = 0; k < 20000; ++k) {
    const AgentPair x = t.sample(a);
    const AgentPair y = sched.next(b);
    ASSERT_EQ(x.initiator, y.initiator) << "draw " << k;
    ASSERT_EQ(x.responder, y.responder) << "draw " << k;
  }
}

// An engine built with an explicit complete topology is bit-identical to
// the 3-arg (untopologized) engine: same pair stream, same states.
TEST(CompleteTransparency, PairedStepOnAgentArray) {
  const std::uint32_t n = 64;
  const OneWayEpidemic proto(n);
  std::vector<OneWayEpidemic::State> init(n);
  init[0].infected = true;
  Simulation<OneWayEpidemic> plain(proto, init, 7);
  Simulation<OneWayEpidemic> topo(proto, init, 7, Topology::complete(n));
  for (int k = 0; k < 5000; ++k) {
    const AgentPair x = plain.step();
    const AgentPair y = topo.step();
    ASSERT_EQ(x.initiator, y.initiator) << "step " << k;
    ASSERT_EQ(x.responder, y.responder) << "step " << k;
  }
  for (std::uint32_t i = 0; i < n; ++i)
    EXPECT_EQ(plain.states()[i].infected, topo.states()[i].infected);
}

TEST(CompleteTransparency, PairedStepUnderFaults) {
  const std::uint32_t n = 64;
  FaultSpec faults;
  faults.drop = 0.3;
  faults.oneway = 0.25;
  const OneWayEpidemic proto(n);
  std::vector<OneWayEpidemic::State> init(n);
  init[0].infected = true;
  Simulation<OneWayEpidemic> plain(proto, init, 9);
  Simulation<OneWayEpidemic> topo(proto, init, 9, Topology::complete(n));
  plain.set_faults(faults);
  topo.set_faults(faults);
  for (int k = 0; k < 5000; ++k) {
    const AgentPair x = plain.step();
    const AgentPair y = topo.step();
    ASSERT_EQ(x.initiator, y.initiator) << "step " << k;
    ASSERT_EQ(x.responder, y.responder) << "step " << k;
  }
  for (std::uint32_t i = 0; i < n; ++i)
    EXPECT_EQ(plain.states()[i].infected, topo.states()[i].infected);
}

// Through the Scenario API: naming topology=complete must not change a
// single measured value on any engine/strategy, and the resolved record
// keeps the baseline shape (topology resolved to "complete").
TEST(CompleteTransparency, ScenarioMetricsBitIdentical) {
  for (const char* strategy : {"auto", "geometric_skip"}) {
    ScenarioSpec spec;
    spec.protocol = "one-way-epidemic";
    spec.n = 256;
    spec.strategy = strategy;
    spec.trials = 3;
    spec.seed = 77;
    spec.threads = 1;
    ScenarioSpec with = spec;
    with.topology = "complete";
    const ScenarioResult a = run_scenario(spec);
    const ScenarioResult b = run_scenario(with);
    ASSERT_EQ(a.values.size(), b.values.size()) << strategy;
    for (std::size_t i = 0; i < a.values.size(); ++i)
      EXPECT_EQ(a.values[i], b.values[i])
          << "strategy " << strategy << ", trial " << i;
    EXPECT_EQ(a.backend, b.backend) << strategy;
    EXPECT_EQ(a.strategy, b.strategy) << strategy;
    EXPECT_EQ(b.topology, "complete") << strategy;
  }
  // Same contract on the array engine and under fault injection.
  ScenarioSpec spec;
  spec.protocol = "one-way-epidemic";
  spec.n = 128;
  spec.engine = "array";
  spec.faults.drop = 0.2;
  spec.trials = 3;
  spec.seed = 78;
  spec.threads = 1;
  ScenarioSpec with = spec;
  with.topology = "complete";
  const ScenarioResult a = run_scenario(spec);
  const ScenarioResult b = run_scenario(with);
  for (std::size_t i = 0; i < a.values.size(); ++i)
    EXPECT_EQ(a.values[i], b.values[i]) << "faulted array, trial " << i;
  EXPECT_TRUE(b.faulted);
}

// --- RingSimulation vs brute force ------------------------------------------

TEST(RingEngine, IncrementalBookkeepingMatchesBruteForce) {
  // Every n runs fault-free and under each fault knob. On n = 2 and 3 the
  // edges re-probed around a change cover the whole ring.
  struct Cell {
    const char* name;
    FaultSpec faults;
  };
  const Cell cells[] = {{"clean", {}},
                        {"drop", {.drop = 0.25}},
                        {"oneway", {.oneway = 0.3}},
                        {"churn", {.churn = 0.5}}};
  for (const Cell& cell : cells) {
    for (std::uint32_t n : {2u, 3u, 4u, 17u, 64u}) {
      const RingSSLE p(n);
      for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const auto init = ring_ssle_inits().agents(p, "uniform-random", seed);
        RingSimulation<RingSSLE> sim(p, init, derive_seed(seed, 99),
                                     cell.faults);
        ASSERT_NO_THROW(sim.audit()) << cell.name << " n=" << n;
        for (int step = 0; step < 800; ++step) {
          if (sim.step() == 0) break;
          const std::string where = std::string(cell.name) +
                                    " n=" + std::to_string(n) +
                                    " seed=" + std::to_string(seed) +
                                    " step=" + std::to_string(step);
          ASSERT_NO_THROW(sim.audit()) << where;
          std::vector<RingSSLE::State> s(n);
          for (std::uint32_t i = 0; i < n; ++i) s[i] = sim.state_at(i);
          std::vector<std::uint64_t> counts(p.num_states(), 0);
          std::uint64_t w = 0;
          for (std::uint32_t i = 0; i < n; ++i) {
            ++counts[p.encode(s[i])];
            if (!p.is_null_pair(s[i], s[(i + 1) % n])) ++w;
          }
          const auto& ec = sim.state_counts();
          ASSERT_EQ(ec.size(), counts.size());
          for (std::uint32_t q = 0; q < p.num_states(); ++q)
            ASSERT_EQ(ec[q], counts[q]) << where << " state " << q;
          ASSERT_EQ(sim.active_weight(), w) << where;
        }
      }
    }
  }
}

// A one-way epidemic on the ring has exactly one active edge (the
// frontier) from the first infection to the last: the ring engine
// must report W = 1 throughout, complete in exactly n - 1 effective
// interactions, and then prove silence.
TEST(RingEngine, EpidemicFrontierHasUnitWeight) {
  const std::uint32_t n = 64;
  const OneWayEpidemic proto(n);
  std::vector<OneWayEpidemic::State> init(n);
  init[0].infected = true;
  RingSimulation<OneWayEpidemic> sim(proto, init, 5);
  for (std::uint32_t k = 1; k < n; ++k) {
    EXPECT_EQ(sim.active_weight(), 1u) << "before infection " << k;
    ASSERT_GT(sim.step(), 0u);
    EXPECT_EQ(sim.state_counts()[1], k + 1);
  }
  EXPECT_TRUE(sim.silent());
  EXPECT_EQ(sim.active_weight(), 0u);
  EXPECT_EQ(sim.step(), 0u);  // provably stuck, no churn to revive it
}

// --- ring-ssle end to end ---------------------------------------------------

TEST(RingSSLEProtocol, CapMustEqualPopulation) {
  EXPECT_NO_THROW(RingSSLE(8));
  EXPECT_NO_THROW(RingSSLE(8, 8));
  EXPECT_THROW(RingSSLE(8, 9), std::invalid_argument);
  EXPECT_THROW(RingSSLE(8, 7), std::invalid_argument);
  EXPECT_THROW(RingSSLE(1), std::invalid_argument);
}

TEST(RingSSLEScenario, EveryAdversarialInitElects) {
  for (const std::string& init : ring_ssle_inits().names()) {
    ScenarioSpec spec;
    spec.protocol = "ring-ssle";
    spec.n = 64;
    spec.init = init;
    spec.trials = 5;
    spec.seed = 1234;
    spec.threads = 1;
    const ScenarioResult r = run_scenario(spec);
    EXPECT_EQ(r.failed, 0u) << init;
    EXPECT_EQ(r.backend, "batch") << init;
    EXPECT_EQ(r.strategy, "ring_rle") << init;
    EXPECT_EQ(r.topology, "ring") << init;
    for (double v : r.values) EXPECT_GE(v, 0.0) << init;
  }
}

// The ring engine's step() == 0 on ring-ssle is real silence, not an
// artefact of its bookkeeping. Some uniform-random starts end with the
// survivor's only bullet spent on the last rival: one shielded leader
// remains and no bullet is in flight. Every ring edge is then null, and
// the agent array, started from that configuration, changes nothing.
TEST(RingSSLEScenario, CompressedSilenceIsRealSilence) {
  const std::uint32_t n = 64;
  const RingSSLE p(n);
  std::uint32_t silent = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    RingSimulation<RingSSLE> sim(
        p, ring_ssle_inits().agents(p, "uniform-random", seed),
        derive_seed(seed, 2));
    bool stuck = false;
    while (!stuck && sim.interactions() < 2000ull * n)
      stuck = sim.step() == 0;
    if (!stuck) continue;
    ++silent;
    std::vector<RingSSLE::State> s(n);
    std::uint32_t leaders = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      s[i] = sim.state_at(i);
      if (p.is_leader(s[i])) ++leaders;
    }
    EXPECT_EQ(leaders, 1u) << "seed " << seed;
    for (std::uint32_t i = 0; i < n; ++i)
      EXPECT_TRUE(p.is_null_pair(s[i], s[(i + 1) % n]))
          << "seed " << seed << " edge " << i;
    Simulation<RingSSLE> array(p, s, derive_seed(seed, 3), Topology::ring(n));
    array.run(200000);
    EXPECT_EQ(array.states(), s) << "seed " << seed;
  }
  EXPECT_GT(silent, 0u);
}

// --- strict parsing and inexpressible specs ---------------------------------

TEST(TopologyErrors, ParseRejectsMalformedSpecs) {
  EXPECT_THROW(Topology::parse("blah", 8), std::invalid_argument);
  EXPECT_THROW(Topology::parse("mesh:3x3", 8), std::invalid_argument);
  EXPECT_THROW(Topology::parse("mesh:0x5", 8), std::invalid_argument);
  EXPECT_THROW(Topology::parse("mesh:4", 8), std::invalid_argument);
  EXPECT_THROW(Topology::parse("torus:ax3", 12), std::invalid_argument);
  EXPECT_THROW(Topology::parse("custom:/nonexistent/edges", 4),
               std::invalid_argument);
  EXPECT_THROW(Topology::parse("ring", 1), std::invalid_argument);
  EXPECT_NO_THROW(Topology::validate_spec("ring"));      // n-free check
  EXPECT_NO_THROW(Topology::validate_spec("mesh:3x3"));  // n unknown yet
  EXPECT_THROW(Topology::validate_spec("mesh:2x"), std::invalid_argument);
  EXPECT_THROW(Topology::validate_spec("grid:2x2"), std::invalid_argument);
}

TEST(TopologyErrors, CustomGraphValidation) {
  using E = std::vector<AgentPair>;
  EXPECT_THROW(Topology::custom(4, E{}), std::invalid_argument);
  EXPECT_THROW(Topology::custom(4, E{{0, 0}}), std::invalid_argument);
  EXPECT_THROW(Topology::custom(4, E{{0, 1}, {0, 1}, {1, 2}, {2, 3}}),
               std::invalid_argument);  // duplicate edge skews sampling
  EXPECT_THROW(Topology::custom(4, E{{0, 5}}), std::invalid_argument);
  EXPECT_THROW(Topology::custom(4, E{{0, 1}, {1, 2}}),
               std::invalid_argument);  // agent 3 isolated
  EXPECT_THROW(Topology::custom(4, E{{0, 1}, {1, 0}, {2, 3}, {3, 2}}),
               std::invalid_argument);  // disconnected support
  EXPECT_NO_THROW(Topology::custom(4, E{{0, 1}, {1, 2}, {2, 3}, {3, 0}}));
}

TEST(TopologyErrors, CustomGraphFile) {
  const std::string good = testing::TempDir() + "topology_test_ring4.edges";
  {
    std::ofstream out(good);
    out << "# a directed 4-cycle\n0 1\n1 2\n2 3\n3 0\n";
  }
  const Topology t = Topology::parse("custom:" + good, 4);
  EXPECT_EQ(t.edge_count(), 4u);
  EXPECT_EQ(t.spec(), "custom:" + good);
  EXPECT_THROW(Topology::parse("custom:" + good, 5),
               std::invalid_argument);  // agent 4 isolated

  const std::string bad = testing::TempDir() + "topology_test_bad.edges";
  {
    std::ofstream out(bad);
    out << "0 1 2\n";  // three tokens on an edge line
  }
  EXPECT_THROW(Topology::parse("custom:" + bad, 4), std::invalid_argument);
}

// Only whitespace (after the # comment is cut) is a blank line; any other
// line that is not one edge is an error naming its line, not skipped.
TEST(TopologyErrors, CustomGraphFileRejectsNonEdgeLines) {
  const std::string path = testing::TempDir() + "topology_test_hostile.edges";
  for (const char* extra : {"bogus line here", "x 1", "1", "1 y", "-"}) {
    {
      std::ofstream out(path);
      out << "  \t\n# header\n0 1\n1 2\n2 3\n3 0   # closes the cycle\n"
          << extra << "\n";
    }
    try {
      Topology::parse("custom:" + path, 4);
      ADD_FAILURE() << "accepted a trailing '" << extra << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(" line 7:"), std::string::npos)
          << e.what();
    }
  }
}

TEST(TopologyErrors, InexpressibleScenarioSpecs) {
  // ring-ssle is defined on the directed ring only.
  ScenarioSpec spec;
  spec.protocol = "ring-ssle";
  spec.n = 8;
  spec.trials = 1;
  spec.topology = "line";
  EXPECT_THROW(run_scenario(spec), std::invalid_argument);

  // engine=batch pinned on a non-ring topology is inexpressible (the
  // count kernels compile the complete graph's pair law).
  ScenarioSpec batch_line;
  batch_line.protocol = "one-way-epidemic";
  batch_line.n = 32;
  batch_line.engine = "batch";
  batch_line.topology = "line";
  batch_line.trials = 1;
  EXPECT_THROW(run_scenario(batch_line), std::invalid_argument);

  // The removed tau-leaping strategy is an unknown name on the ring too,
  // not a silent fallback to the ring count path.
  ScenarioSpec ring_tau;
  ring_tau.protocol = "one-way-epidemic";
  ring_tau.n = 32;
  ring_tau.topology = "ring";
  ring_tau.strategy = "tau";
  ring_tau.trials = 1;
  EXPECT_THROW(run_scenario(ring_tau), std::invalid_argument);
}

// A non-ring topology on a batch-capable protocol demotes engine=auto to
// the agent array and stamps the resolved graph into the record.
TEST(TopologyRouting, AutoDemotesToArrayOffTheRing) {
  ScenarioSpec spec;
  spec.protocol = "one-way-epidemic";
  spec.n = 36;
  spec.topology = "torus:6x6";
  spec.trials = 2;
  spec.seed = 3;
  spec.threads = 1;
  const ScenarioResult r = run_scenario(spec);
  EXPECT_EQ(r.backend, "array");
  EXPECT_TRUE(r.strategy.empty());
  EXPECT_EQ(r.topology, "torus:6x6");
  EXPECT_EQ(r.failed, 0u);
}

// optimal-silent until=silent on the directed ring stops at the ring
// engine's own silence (no active ring edge), where duplicate ranks on
// agents that never meet are already silent; the rank permutation, the
// complete graph's silence, may never come. Pinned to the active-edge
// engine's records; its stopping times overlapped the former run-length
// engine's at 200 trials per init (CHANGES.md).
TEST(TopologyRouting, RingOptimalSilentStopsAtRingSilence) {
  struct Pin {
    const char* init;
    std::uint64_t interactions;  // summed over the three trials
    double ptime_mean;
  };
  for (const Pin& pin : {Pin{"duplicate-rank", 733397, 7639.552083333333},
                         Pin{"uniform-random", 719748, 7497.375}}) {
    ScenarioSpec spec;
    spec.protocol = "optimal-silent";
    spec.n = 32;
    spec.init = pin.init;
    spec.until = "silent";
    spec.topology = "ring";
    spec.trials = 3;
    spec.seed = 11;
    spec.threads = 1;
    const ScenarioResult r = run_scenario(spec);
    EXPECT_EQ(r.strategy, "ring_rle") << pin.init;
    EXPECT_EQ(r.failed, 0u) << pin.init;
    EXPECT_DOUBLE_EQ(r.interactions_mean * 3.0,
                     static_cast<double>(pin.interactions))
        << pin.init;
    EXPECT_DOUBLE_EQ(r.summary.mean, pin.ptime_mean) << pin.init;
  }
}

}  // namespace
}  // namespace ppsim
