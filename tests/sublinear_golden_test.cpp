// Golden records for the concrete Sublinear-Time-SSR entries
// (sublinear-h1, sublinear-hlog): every cell of
// tests/golden/sublinear_golden.json is run in-process through the
// registry and its deterministic fields — <metric>_mean/_ci95/_p99,
// interactions_mean and failed — must equal the recorded values bit for
// bit. The cells cover the adversarial starts (uniform-random,
// poisoned-trees, duplicate-names, ghost-names, mid-reset), the ranked,
// detected and drained stops, n = 8..128, direct_check = 0, small edge
// timers (param.th) whose prune window is crossed many times, and H = 2, 3
// through param.h.
//
// The collision detector draws no randomness, so any change to its
// verdicts changes a trajectory and shows up here. Re-record with
// tests/golden/regen_sublinear_golden.py only for a deliberate change of
// behaviour, and review the fixture's diff.
#include <gtest/gtest.h>

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
  const JsonValue* expect = nullptr;
};

const JsonValue& fixture() {
  static const JsonValue root = [] {
    const std::string path =
        std::string(PPSIM_TEST_DATA_DIR) + "/golden/sublinear_golden.json";
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    JsonValue v;
    if (!in || !JsonParser(text.str()).parse(v))
      throw std::runtime_error("cannot read " + path);
    return v;
  }();
  return root;
}

std::vector<GoldenCell> cells() {
  std::vector<GoldenCell> out;
  for (const JsonValue& cell : fixture().get("cells")->items) {
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
      else throw std::runtime_error("unknown golden spec key " + key);
      g.label += " " + key + "=" +
                 (value.is_string() ? value.str : std::to_string(number));
    }
    g.spec.threads = 1;
    g.expect = cell.get("expect");
    out.push_back(std::move(g));
  }
  return out;
}

TEST(SublinearGolden, FixtureCoversTheIssueMatrix) {
  const auto all = cells();
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
  for (const auto& g : cells()) {
    SCOPED_TRACE(g.label);
    const ScenarioResult r = run_scenario(g.spec);
    std::size_t checked = 0;
    for (const auto& [field, value] : g.expect->fields) {
      ASSERT_TRUE(value.is_number()) << field;
      double got = 0.0;
      if (field == r.metric + "_mean") got = r.summary.mean;
      else if (field == r.metric + "_ci95") got = r.summary.ci95;
      else if (field == r.metric + "_p99") got = r.summary.p99;
      else if (field == "interactions_mean") got = r.interactions_mean;
      else if (field == "failed") got = static_cast<double>(r.failed);
      else FAIL() << "unexpected golden field " << field;
      // Exact equality: %.17g round-trips every double.
      EXPECT_EQ(got, value.num) << field;
      ++checked;
    }
    EXPECT_EQ(checked, 5u);
  }
}

}  // namespace
}  // namespace ppsim
