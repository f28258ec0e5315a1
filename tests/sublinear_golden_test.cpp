// Golden records: every cell of a fixture under tests/golden/ is run
// in-process through the registry and its deterministic fields —
// <metric>_mean/_ci95/_p99, interactions_mean, failed and the per-arm
// step and interaction totals arm_<arm>_steps / _interactions — must
// equal the recorded values bit for bit.
//
// sublinear_golden.json covers the concrete Sublinear-Time-SSR entries
// (sublinear-h1, sublinear-hlog): the adversarial starts (uniform-random,
// poisoned-trees, duplicate-names, ghost-names, mid-reset), the ranked,
// detected and drained stops, n = 8..128, direct_check = 0, small edge
// timers (param.th) whose prune window is crossed many times, and H = 2, 3
// through param.h. The collision detector draws no randomness, so any
// change to its verdicts changes a trajectory and shows up here.
//
// count_engine_golden.json covers BatchSimulation: each structure kernel
// (diagonal, keyed passive, unkeyed passive), the geometric skip alone,
// and auto cells that enter and leave the array arm, with drop, one-way
// and churn faults. A change to the count engine's draw order shows up
// here.
//
// Re-record with tests/golden/regen_sublinear_golden.py only for a
// deliberate change of behaviour, and review the fixture's diff.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/scenarios.h"
#include "common/json.h"

namespace ppsim {
namespace {

struct GoldenCell {
  ScenarioSpec spec;
  std::string label;
  JsonValue expect;
};

JsonValue fixture(const std::string& name) {
  const std::string path =
      std::string(PPSIM_TEST_DATA_DIR) + "/golden/" + name;
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  JsonValue v;
  if (!in || !JsonParser(text.str()).parse(v))
    throw std::runtime_error("cannot read " + path);
  return v;
}

// A spec value as ppsle_run's key=value syntax spells it.
std::string spell(const JsonValue& value) {
  if (value.is_string()) return value.str;
  if (value.num == std::floor(value.num))
    return std::to_string(static_cast<std::uint64_t>(value.num));
  std::ostringstream out;
  out << value.num;
  return out.str();
}

std::vector<GoldenCell> cells(const std::string& name) {
  const JsonValue root = fixture(name);
  std::vector<GoldenCell> out;
  for (const JsonValue& cell : root.get("cells")->items) {
    GoldenCell g;
    for (const auto& [key, value] : cell.get("spec")->fields) {
      const auto number = static_cast<std::uint64_t>(value.num);
      if (key == "params") {
        for (const auto& [pk, pv] : value.fields) {
          g.spec.params.emplace_back(pk, pv.str);
          g.label += " param." + pk + "=" + pv.str;
        }
        continue;
      }
      if (key == "protocol") g.spec.protocol = value.str;
      else if (key == "n") g.spec.n = static_cast<std::uint32_t>(number);
      else if (key == "init") g.spec.init = value.str;
      else if (key == "until") g.spec.until = value.str;
      else if (key == "trials")
        g.spec.trials = static_cast<std::uint32_t>(number);
      else if (key == "seed") g.spec.seed = number;
      else if (key == "max_interactions") g.spec.max_interactions = number;
      else if (key == "engine") g.spec.engine = value.str;
      else if (key == "strategy") g.spec.strategy = value.str;
      else if (key == "fault.drop") g.spec.faults.drop = value.num;
      else if (key == "fault.oneway") g.spec.faults.oneway = value.num;
      else if (key == "fault.churn") g.spec.faults.churn = value.num;
      else throw std::runtime_error("unknown golden spec key " + key);
      g.label += " " + key + "=" + spell(value);
    }
    g.spec.threads = 1;
    g.expect = *cell.get("expect");
    out.push_back(std::move(g));
  }
  return out;
}

// Runs every cell and compares its deterministic fields bit for bit.
void expect_records_match(const std::string& name) {
  for (const auto& g : cells(name)) {
    SCOPED_TRACE(g.label);
    const ScenarioResult r = run_scenario(g.spec);
    std::size_t arms = 0;
    for (std::size_t i = 0; i < kStrategyArmCount; ++i)
      if (r.trace.steps[i] != 0) ++arms;
    std::size_t checked = 0;
    for (const auto& [field, value] : g.expect.fields) {
      ASSERT_TRUE(value.is_number()) << field;
      double got = 0.0;
      bool known = true;
      if (field == r.metric + "_mean") got = r.summary.mean;
      else if (field == r.metric + "_ci95") got = r.summary.ci95;
      else if (field == r.metric + "_p99") got = r.summary.p99;
      else if (field == "interactions_mean") got = r.interactions_mean;
      else if (field == "failed") got = static_cast<double>(r.failed);
      else known = false;
      for (std::size_t i = 0; !known && i < kStrategyArmCount; ++i) {
        const std::string arm =
            std::string("arm_") + to_string(static_cast<StrategyArm>(i));
        if (field == arm + "_steps") {
          got = static_cast<double>(r.trace.steps[i]);
          known = true;
        } else if (field == arm + "_interactions") {
          got = static_cast<double>(r.trace.interactions[i]);
          known = true;
        }
      }
      if (!known) FAIL() << "unexpected golden field " << field;
      // Exact equality: %.17g round-trips every double.
      EXPECT_EQ(got, value.num) << field;
      ++checked;
    }
    EXPECT_EQ(checked, 5u + 2u * arms);
  }
}

TEST(SublinearGolden, FixtureCoversTheIssueMatrix) {
  const auto all = cells("sublinear_golden.json");
  ASSERT_GE(all.size(), 30u);
  std::set<std::string> protocols, inits, untils;
  bool no_direct = false, small_th = false;
  for (const auto& g : all) {
    protocols.insert(g.spec.protocol);
    inits.insert(g.spec.init);
    untils.insert(g.spec.until);
    for (const auto& [k, v] : g.spec.params) {
      if (k == "direct_check" && v == "0") no_direct = true;
      if (k == "th") small_th = true;
    }
  }
  EXPECT_EQ(protocols,
            (std::set<std::string>{"sublinear-h1", "sublinear-hlog"}));
  for (const char* init : {"uniform-random", "poisoned-trees",
                           "duplicate-names", "ghost-names", "mid-reset"})
    EXPECT_TRUE(inits.count(init)) << init;
  EXPECT_EQ(untils,
            (std::set<std::string>{"ranked", "detected", "drained"}));
  EXPECT_TRUE(no_direct);
  EXPECT_TRUE(small_th);
}

TEST(SublinearGolden, RecordsMatchBitForBit) {
  expect_records_match("sublinear_golden.json");
}

// Every structure kernel, the geometric skip alone, auto cells whose
// trials enter and leave the array arm (optimal-silent uniform-random
// until=ranked at n = 256 and 1024 among them), and churn under auto.
TEST(CountEngineGolden, FixtureCoversEveryKernelAndArm) {
  const auto all = cells("count_engine_golden.json");
  ASSERT_GE(all.size(), 10u);
  std::set<std::string> protocols, strategies;
  std::set<std::uint32_t> ranked_sizes;
  bool churn_auto = false;
  for (const auto& g : all) {
    EXPECT_EQ(g.spec.engine, "batch") << g.label;
    protocols.insert(g.spec.protocol);
    strategies.insert(g.spec.strategy);
    const bool crosses = g.expect.get("arm_array_steps") != nullptr &&
                         g.expect.get("arm_geometric_skip_steps") != nullptr;
    if (g.spec.strategy == "auto") {
      EXPECT_TRUE(crosses) << g.label;
    }
    if (g.spec.protocol == "optimal-silent" &&
        g.spec.init == "uniform-random" && g.spec.until == "ranked" &&
        g.spec.strategy == "auto" && !g.spec.faults.active() && crosses)
      ranked_sizes.insert(g.spec.n);
    if (g.spec.faults.churn > 0.0 && g.spec.strategy == "auto")
      churn_auto = true;
  }
  for (const char* p : {"silent-nstate", "optimal-silent", "reset-process",
                        "sublinear-hlog-count"})
    EXPECT_TRUE(protocols.count(p)) << p;
  EXPECT_EQ(strategies,
            (std::set<std::string>{"geometric_skip", "auto"}));
  EXPECT_TRUE(ranked_sizes.count(256) && ranked_sizes.count(1024));
  EXPECT_TRUE(churn_auto);
}

TEST(CountEngineGolden, RecordsMatchBitForBit) {
  expect_records_match("count_engine_golden.json");
}

}  // namespace
}  // namespace ppsim
