// The equivalence table: every engine that measures the paper's times is
// checked against the agent array, which runs the uniform random scheduler
// literally, in one place and under one family bound.
//
// Each row names a cell (protocol, init, until, n, trials, faults,
// topology) and one candidate: a count-engine strategy (geometric skip,
// multinomial, auto), the tau-leaping tier, the active-edge ring engine or
// a count-form protocol. The reference is the agent array running the
// row's protocol; for a count form (sublinear-*-count) it is the agent
// array running the exact protocol the count form abstracts. Both sides go
// through run_scenario with seeds derived from the row id, on the
// scenario's trial threads, so each row's values are bit-identical at any
// thread count. Each row asserts:
//   * no failed trial on either side;
//   * the stamps its candidate must carry (backend, strategy, approximate
//     with its resolved tau_eps, abstracted) and the faults and topology
//     both sides echo;
//   * overlapping 95% CIs, widened once for the whole table:
//     family_widen(std::size(kRows)).
// Two controls keep the table honest: every candidate resolves to a
// different engine or protocol than its reference, and a wrong law (the
// candidate under fault.drop=0.5, the reference fault-free) is flagged at
// the table's widening.
#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <ostream>
#include <string>

#include "analysis/scenarios.h"
#include "core/faults.h"
#include "stat_harness.h"

namespace ppsim {
namespace {

// One candidate side: the strategy it asks of engine=batch, and the stamps
// its record must carry.
struct Candidate {
  const char* label;     // row-id suffix
  const char* strategy;  // spec strategy (engine=batch)
  const char* stamp;     // resolved strategy the record echoes
  bool approximate;      // tau-leaping
  bool count_form;       // runs <protocol>-count: stamped abstracted
};

constexpr Candidate kSkip{"skip", "geometric_skip", "geometric_skip", false,
                          false};
constexpr Candidate kMultinomial{"multinomial", "multinomial", "multinomial",
                                 false, false};
constexpr Candidate kAuto{"auto", "auto", "auto", false, false};
constexpr Candidate kTau{"tau", "tau", "tau", true, false};
constexpr Candidate kRingRle{"ring_rle", "auto", "ring_rle", false, false};
constexpr Candidate kCountForm{"count_form", "auto", "auto", false, true};

struct Row {
  const char* protocol;
  const char* init;
  const char* until;
  std::uint32_t n;
  std::uint32_t trials;
  Candidate candidate;
  FaultSpec faults{};
  const char* topology = "";  // "" = complete
};

const Row kRows[] = {
    // optimal-silent, Table 1 row 2: every init to ranked.
    {"optimal-silent", "uniform-random", "ranked", 8, 30, kSkip},
    {"optimal-silent", "uniform-random", "ranked", 8, 30, kMultinomial},
    {"optimal-silent", "uniform-random", "ranked", 8, 30, kAuto},
    {"optimal-silent", "uniform-random", "ranked", 64, 30, kSkip},
    {"optimal-silent", "uniform-random", "ranked", 64, 30, kMultinomial},
    {"optimal-silent", "uniform-random", "ranked", 64, 30, kAuto},
    {"optimal-silent", "uniform-random", "ranked", 512, 30, kSkip},
    {"optimal-silent", "uniform-random", "ranked", 512, 30, kMultinomial},
    {"optimal-silent", "uniform-random", "ranked", 512, 30, kAuto},
    {"optimal-silent", "all-leaders", "ranked", 8, 16, kAuto},
    {"optimal-silent", "all-leaders", "ranked", 64, 16, kAuto},
    {"optimal-silent", "all-leaders", "ranked", 512, 8, kAuto},
    {"optimal-silent", "all-unsettled-0", "ranked", 8, 16, kAuto},
    {"optimal-silent", "all-unsettled-0", "ranked", 64, 16, kAuto},
    {"optimal-silent", "all-unsettled-0", "ranked", 512, 8, kAuto},
    {"optimal-silent", "duplicate-rank", "ranked", 8, 16, kAuto},
    {"optimal-silent", "duplicate-rank", "ranked", 64, 30, kAuto},
    {"optimal-silent", "duplicate-rank", "ranked", 512, 8, kAuto},
    {"optimal-silent", "all-propagating", "ranked", 8, 16, kAuto},
    {"optimal-silent", "all-propagating", "ranked", 64, 16, kAuto},
    {"optimal-silent", "all-propagating", "ranked", 512, 8, kAuto},
    {"optimal-silent", "all-dormant", "ranked", 8, 16, kAuto},
    {"optimal-silent", "all-dormant", "ranked", 64, 16, kAuto},
    {"optimal-silent", "all-dormant", "ranked", 512, 8, kAuto},
    {"optimal-silent", "correct-ranking", "ranked", 8, 16, kAuto},
    {"optimal-silent", "correct-ranking", "ranked", 64, 16, kAuto},
    {"optimal-silent", "correct-ranking", "ranked", 512, 8, kAuto},
    {"optimal-silent", "dormant-mix", "ranked", 8, 16, kAuto},
    {"optimal-silent", "dormant-mix", "ranked", 64, 16, kAuto},
    {"optimal-silent", "dormant-mix", "ranked", 512, 8, kAuto},
    {"optimal-silent", "single-leader", "ranked", 8, 16, kAuto},
    {"optimal-silent", "single-leader", "ranked", 64, 16, kAuto},
    {"optimal-silent", "single-leader", "ranked", 512, 8, kAuto},
    // The approximate tier on its two protocols.
    {"optimal-silent", "dormant-mix", "silent", 8, 30, kTau},
    {"optimal-silent", "dormant-mix", "silent", 64, 30, kTau},
    {"optimal-silent", "dormant-mix", "silent", 512, 30, kTau},
    // Faults: message loss on the batched strategies (at n = 512 the
    // duplicate-rank detection latency, a bare meeting time that carries
    // the same 1/(1 - drop) dilation) ...
    {"optimal-silent", "uniform-random", "ranked", 8, 30, kSkip, {.drop = 0.1}},
    {"optimal-silent", "uniform-random", "ranked", 8, 30, kMultinomial,
     {.drop = 0.1}},
    {"optimal-silent", "uniform-random", "ranked", 8, 30, kSkip, {.drop = 0.5}},
    {"optimal-silent", "uniform-random", "ranked", 8, 30, kMultinomial,
     {.drop = 0.5}},
    {"optimal-silent", "uniform-random", "ranked", 64, 30, kSkip,
     {.drop = 0.1}},
    {"optimal-silent", "uniform-random", "ranked", 64, 30, kMultinomial,
     {.drop = 0.1}},
    {"optimal-silent", "uniform-random", "ranked", 64, 30, kSkip,
     {.drop = 0.5}},
    {"optimal-silent", "uniform-random", "ranked", 64, 30, kMultinomial,
     {.drop = 0.5}},
    {"optimal-silent", "duplicate-rank", "detected", 512, 30, kSkip,
     {.drop = 0.1}},
    {"optimal-silent", "duplicate-rank", "detected", 512, 30, kMultinomial,
     {.drop = 0.1}},
    {"optimal-silent", "duplicate-rank", "detected", 512, 30, kSkip,
     {.drop = 0.5}},
    {"optimal-silent", "duplicate-rank", "detected", 512, 30, kMultinomial,
     {.drop = 0.5}},
    // ... and each knob on auto, whose dense rounds run on the count
    // engine's array arm. One-way and churn rates scale as 1/n so runs
    // still stabilize while the faults visibly slow them.
    {"optimal-silent", "uniform-random", "ranked", 8, 30, kAuto, {.drop = 0.5}},
    {"optimal-silent", "uniform-random", "ranked", 8, 30, kAuto,
     {.oneway = 1.0 / 8}},
    {"optimal-silent", "uniform-random", "ranked", 8, 30, kAuto,
     {.churn = 0.5 / 8}},
    {"optimal-silent", "uniform-random", "ranked", 64, 30, kAuto,
     {.drop = 0.5}},
    {"optimal-silent", "uniform-random", "ranked", 64, 30, kAuto,
     {.oneway = 1.0 / 64}},
    {"optimal-silent", "uniform-random", "ranked", 64, 30, kAuto,
     {.churn = 0.5 / 64}},
    {"optimal-silent", "uniform-random", "ranked", 512, 30, kAuto,
     {.drop = 0.5}},
    {"optimal-silent", "uniform-random", "ranked", 512, 30, kAuto,
     {.oneway = 1.0 / 512}},
    {"optimal-silent", "uniform-random", "ranked", 512, 30, kAuto,
     {.churn = 0.5 / 512}},

    // silent-nstate, Table 1 row 1 (Theta(n^2): few trials at n = 512
    // except on the worst case).
    {"silent-nstate", "worst-case", "ranked", 8, 30, kAuto},
    {"silent-nstate", "worst-case", "ranked", 64, 30, kAuto},
    {"silent-nstate", "worst-case", "ranked", 128, 30, kAuto},
    {"silent-nstate", "worst-case", "ranked", 512, 30, kAuto},
    {"silent-nstate", "uniform-random", "ranked", 8, 16, kAuto},
    {"silent-nstate", "uniform-random", "ranked", 64, 16, kAuto},
    {"silent-nstate", "uniform-random", "ranked", 512, 5, kAuto},
    {"silent-nstate", "all-same", "ranked", 8, 16, kAuto},
    {"silent-nstate", "all-same", "ranked", 64, 16, kAuto},
    {"silent-nstate", "all-same", "ranked", 512, 5, kAuto},
    {"silent-nstate", "duplicate-rank", "ranked", 8, 16, kAuto},
    {"silent-nstate", "duplicate-rank", "ranked", 64, 16, kAuto},
    {"silent-nstate", "duplicate-rank", "ranked", 512, 5, kAuto},
    {"silent-nstate", "correct-ranking", "ranked", 8, 16, kAuto},
    {"silent-nstate", "correct-ranking", "ranked", 64, 16, kAuto},
    {"silent-nstate", "correct-ranking", "ranked", 512, 5, kAuto},
    {"silent-nstate", "duplicate-rank", "thinned", 8, 30, kSkip,
     {.oneway = 0.4}},
    {"silent-nstate", "duplicate-rank", "thinned", 8, 30, kMultinomial,
     {.oneway = 0.4}},
    {"silent-nstate", "duplicate-rank", "thinned", 64, 30, kSkip,
     {.oneway = 0.4}},
    {"silent-nstate", "duplicate-rank", "thinned", 64, 30, kMultinomial,
     {.oneway = 0.4}},
    {"silent-nstate", "duplicate-rank", "thinned", 512, 30, kSkip,
     {.oneway = 0.4}},
    {"silent-nstate", "duplicate-rank", "thinned", 512, 30, kMultinomial,
     {.oneway = 0.4}},

    // reset-process, the Section 3 harness.
    {"reset-process", "trigger-one", "drained", 8, 30, kSkip},
    {"reset-process", "trigger-one", "drained", 8, 30, kMultinomial},
    {"reset-process", "trigger-one", "drained", 8, 30, kAuto},
    {"reset-process", "trigger-one", "drained", 8, 30, kTau},
    {"reset-process", "trigger-one", "drained", 64, 30, kSkip},
    {"reset-process", "trigger-one", "drained", 64, 30, kMultinomial},
    {"reset-process", "trigger-one", "drained", 64, 30, kAuto},
    {"reset-process", "trigger-one", "drained", 64, 30, kTau},
    {"reset-process", "trigger-one", "drained", 512, 30, kSkip},
    {"reset-process", "trigger-one", "drained", 512, 30, kMultinomial},
    {"reset-process", "trigger-one", "drained", 512, 30, kAuto},
    {"reset-process", "trigger-one", "drained", 512, 30, kTau},
    {"reset-process", "mid-reset-mix", "drained", 8, 16, kAuto},
    {"reset-process", "mid-reset-mix", "drained", 64, 16, kAuto},
    {"reset-process", "mid-reset-mix", "drained", 512, 16, kAuto},
    {"reset-process", "all-computing", "drained", 8, 16, kAuto},
    {"reset-process", "all-computing", "drained", 64, 16, kAuto},
    {"reset-process", "all-computing", "drained", 512, 16, kAuto},

    // one-way-epidemic (Section 2.1), on the clique and on the ring.
    {"one-way-epidemic", "single-infected", "complete", 8, 20, kAuto},
    {"one-way-epidemic", "single-infected", "complete", 64, 20, kAuto},
    {"one-way-epidemic", "single-infected", "complete", 128, 40, kSkip},
    {"one-way-epidemic", "single-infected", "complete", 128, 40,
     kMultinomial},
    {"one-way-epidemic", "single-infected", "complete", 512, 20, kAuto},
    {"one-way-epidemic", "residual-16", "complete", 8, 20, kAuto},
    {"one-way-epidemic", "residual-16", "complete", 64, 20, kAuto},
    {"one-way-epidemic", "residual-16", "complete", 512, 20, kAuto},
    {"one-way-epidemic", "single-infected", "complete", 256, 30, kRingRle,
     {}, "ring"},

    // obs25, defined for n = 3 only; its randomized interact() is the one
    // the multinomial kernel must replay repetition by repetition.
    {"obs25", "all-leaders", "silent", 3, 60, kAuto},
    {"obs25", "all-leaders", "silent", 3, 60, kMultinomial},
    {"obs25", "uniform-random", "silent", 3, 40, kAuto},

    // ring-ssle on the directed ring: the active-edge ring engine.
    {"ring-ssle", "uniform-random", "elected", 8, 30, kRingRle, {}, "ring"},
    {"ring-ssle", "uniform-random", "elected", 64, 30, kRingRle, {}, "ring"},
    {"ring-ssle", "uniform-random", "elected", 512, 30, kRingRle, {}, "ring"},
    {"ring-ssle", "uniform-random", "elected", 64, 20, kRingRle,
     {.drop = 0.25}, "ring"},

    // Count forms against the exact protocol they abstract, in the regime
    // claimed lossless (the reset machinery).
    {"sublinear-h1", "mid-reset", "drained", 8, 30, kCountForm},
    {"sublinear-h1", "mid-reset", "drained", 64, 30, kCountForm},
    {"sublinear-h1", "mid-reset", "drained", 512, 30, kCountForm},
    {"sublinear-h1", "post-wave", "drained", 64, 30, kCountForm},
    {"sublinear-hlog", "mid-reset", "drained", 8, 30, kCountForm},
    {"sublinear-hlog", "mid-reset", "drained", 64, 30, kCountForm},
    {"sublinear-hlog", "mid-reset", "drained", 512, 30, kCountForm},
    {"sublinear-hlog", "post-wave", "drained", 64, 30, kCountForm},
};

// Bonferroni over every row of the table.
const double kWiden = stat_harness::family_widen(std::size(kRows));

// protocol_init_until_n<N>[_<knob><value>...][_<topology>]_<candidate>,
// in gtest's [A-Za-z0-9_] alphabet ('.' reads 'p').
std::string row_id(const Row& row) {
  std::string id = std::string(row.protocol) + "_" + row.init + "_" +
                   row.until + "_n" + std::to_string(row.n);
  auto knob = [&](const char* name, double value) {
    if (value == 0.0) return;
    char buf[40];
    std::snprintf(buf, sizeof buf, "_%s%g", name, value);
    id += buf;
  };
  knob("drop", row.faults.drop);
  knob("oneway", row.faults.oneway);
  knob("churn", row.faults.churn);
  if (*row.topology != '\0') id += std::string("_") + row.topology;
  id += std::string("_") + row.candidate.label;
  for (char& c : id) {
    if (c == '-') c = '_';
    if (c == '.') c = 'p';
  }
  return id;
}

// ctest names carry the printed parameter: print the id, not the bytes.
void PrintTo(const Row& row, std::ostream* os) { *os << row_id(row); }

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ull;
  return h;
}

// The spec of one side of a row: the reference is the agent array on the
// row's protocol, the candidate engine=batch with its strategy (on the
// count form for kCountForm). The two sides draw independent seeds, both
// derived from the row id.
ScenarioSpec side_spec(const Row& row, bool candidate) {
  ScenarioSpec spec;
  spec.protocol = row.protocol;
  spec.init = row.init;
  spec.until = row.until;
  spec.n = row.n;
  spec.trials = row.trials;
  spec.faults = row.faults;
  spec.topology = row.topology;
  spec.seed = derive_seed(fnv1a(row_id(row)), candidate ? 2 : 1);
  if (candidate) {
    spec.engine = "batch";
    spec.strategy = row.candidate.strategy;
    if (row.candidate.count_form) spec.protocol += "-count";
  } else {
    spec.engine = "array";
  }
  return spec;
}

ScenarioResult run_side(const Row& row, bool candidate) {
  return run_scenario(side_spec(row, candidate));
}

class EquivalenceTable : public ::testing::TestWithParam<Row> {};

TEST_P(EquivalenceTable, CandidateMatchesReference) {
  const Row& row = GetParam();
  const std::string id = row_id(row);
  const ScenarioResult ref = run_side(row, false);
  const ScenarioResult cand = run_side(row, true);
  ASSERT_EQ(ref.failed, 0u) << id;
  ASSERT_EQ(cand.failed, 0u) << id;

  EXPECT_EQ(ref.backend, "array");
  EXPECT_EQ(ref.strategy, "");
  EXPECT_FALSE(ref.approximate);
  EXPECT_EQ(ref.tau_eps, 0.0);
  EXPECT_FALSE(ref.abstracted);
  EXPECT_EQ(cand.backend, "batch");
  EXPECT_EQ(cand.strategy, row.candidate.stamp);
  EXPECT_EQ(cand.approximate, row.candidate.approximate);
  EXPECT_EQ(cand.tau_eps, row.candidate.approximate ? kDefaultTauEps : 0.0);
  EXPECT_EQ(cand.abstracted, row.candidate.count_form);
  const std::string topology = *row.topology ? row.topology : "complete";
  for (const ScenarioResult* r : {&ref, &cand}) {
    EXPECT_EQ(r->faulted, row.faults.active());
    EXPECT_EQ(r->faults.drop, row.faults.drop);
    EXPECT_EQ(r->faults.oneway, row.faults.oneway);
    EXPECT_EQ(r->faults.churn, row.faults.churn);
    EXPECT_EQ(r->topology, topology);
  }
  stat_harness::expect_overlapping_ci(ref.summary, cand.summary, id, kWiden);
}

INSTANTIATE_TEST_SUITE_P(Rows, EquivalenceTable, ::testing::ValuesIn(kRows),
                         [](const ::testing::TestParamInfo<Row>& info) {
                           return row_id(info.param);
                         });

// A row whose candidate resolved to its reference would compare the agent
// array with itself and pass whatever the engines do.
TEST(EquivalenceTableControls, EveryCandidateResolvesAwayFromItsReference) {
  using Engine = ScenarioPlan::Engine;
  for (const Row& row : kRows) {
    const ScenarioPlan ref = default_registry().plan(side_spec(row, false));
    const ScenarioPlan cand = default_registry().plan(side_spec(row, true));
    EXPECT_EQ(ref.engine, Engine::kArray) << row_id(row);
    EXPECT_NE(cand.engine, Engine::kProbe) << row_id(row);
    EXPECT_TRUE(cand.engine != Engine::kArray || cand.protocol != ref.protocol)
        << row_id(row);
  }
}

// The table's widening still flags a wrong law: the candidate run under
// fault.drop=0.5 (twice the stabilization time) against the fault-free
// reference.
TEST(EquivalenceTableControls, WrongLawIsFlaggedAtTheTableWidening) {
  const Row clean{"optimal-silent", "uniform-random", "ranked", 64, 30, kAuto};
  Row dropped = clean;
  dropped.faults.drop = 0.5;
  const ScenarioResult ref = run_side(clean, false);
  const ScenarioResult cand = run_side(dropped, true);
  ASSERT_EQ(ref.failed, 0u);
  ASSERT_EQ(cand.failed, 0u);
  EXPECT_NONFATAL_FAILURE(
      stat_harness::expect_overlapping_ci(ref.summary, cand.summary,
                                          "drop=0.5 against fault-free",
                                          kWiden),
      "CIs disjoint");
}

}  // namespace
}  // namespace ppsim
