// Unit tests for the bench_compare core (analysis/bench_records.h):
// record identity, loading, wall-clock gating, and — the part that guards
// the honesty stamps — the rule that records stamped "abstracted": true
// are wall-time gated like everything else but NEVER strict-diffed, and
// never silently matched against concrete records of the same shape.
#include "analysis/bench_records.h"

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "gtest/gtest.h"

namespace ppsim::benchcmp {
namespace {

namespace fs = std::filesystem;

// Writes one BENCH_<bench>.json holding `records` (raw JSON objects).
void write_bench(const fs::path& dir, const std::string& bench,
                 const std::vector<std::string>& records) {
  fs::create_directories(dir);
  std::ofstream out(dir / ("BENCH_" + bench + ".json"));
  out << "{\"bench\": \"" << bench << "\", \"records\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i)
    out << "  " << records[i] << (i + 1 < records.size() ? "," : "") << "\n";
  out << "]}\n";
}

std::map<std::string, Record> load(const fs::path& dir) {
  std::map<std::string, Record> out;
  std::ostringstream log, err;
  EXPECT_TRUE(load_dir(dir.string(), out, false, log, err)) << err.str();
  return out;
}

fs::path fresh_dir(const std::string& leaf) {
  const fs::path dir = fs::path(testing::TempDir()) / "benchcmp" / leaf;
  fs::remove_all(dir);
  return dir;
}

// Regressions need BOTH the relative threshold and the absolute
// min_seconds floor; improvements mirror the same band.
TEST(BenchRecords, WallGateNeedsRelativeAndAbsoluteGrowth) {
  const fs::path base = fresh_dir("floor/base");
  const fs::path cand = fresh_dir("floor/cand");
  const std::string shape =
      "\"experiment\": \"smoke\", \"backend\": \"array\", \"n\": 64";
  // 3x growth but only 20ms absolute: under the 50ms floor, stays quiet.
  write_bench(base, "t", {"{" + shape + ", \"wall_seconds\": 0.01}"});
  write_bench(cand, "t", {"{" + shape + ", \"wall_seconds\": 0.03}"});

  std::ostringstream out;
  const CompareStats stats =
      compare(load(base), load(cand), CompareOptions{}, out);
  EXPECT_EQ(stats.compared, 1);
  EXPECT_EQ(stats.regressions, 0);
  EXPECT_FALSE(stats.failed());
}

// Abstracted records (count-form protocol quotients, stamped
// "abstracted": true by the scenario API) are a separate identity class
// from concrete records of the same shape, exempt from --strict drift,
// still wall-time gated.
TEST(BenchRecords, AbstractedIsASeparateIdentityClass) {
  const fs::path base = fresh_dir("abs-identity/base");
  const fs::path cand = fresh_dir("abs-identity/cand");
  const std::string shape =
      "\"experiment\": \"detection_latency_hlog\", \"backend\": \"batch\", "
      "\"strategy\": \"geometric_skip\", \"n\": 512";
  write_bench(base, "t",
              {"{" + shape + ", \"wall_seconds\": 1.0, "
               "\"parallel_time\": 12.5}"});
  write_bench(cand, "t",
              {"{" + shape + ", \"abstracted\": true, "
               "\"wall_seconds\": 0.1, \"parallel_time\": 14.0}"});

  const auto b = load(base), c = load(cand);
  ASSERT_EQ(b.size(), 1u);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_NE(b.begin()->first, c.begin()->first);
  EXPECT_FALSE(b.begin()->second.abstracted());
  EXPECT_TRUE(c.begin()->second.abstracted());

  CompareOptions opts;
  opts.strict = true;
  std::ostringstream out;
  const CompareStats stats = compare(b, c, opts, out);
  EXPECT_EQ(stats.compared, 0);  // no shared key -> no wall comparison
  EXPECT_EQ(stats.drift, 0);
  EXPECT_EQ(stats.missing, 1);
  EXPECT_EQ(stats.added, 1);
  EXPECT_FALSE(stats.failed());
}

// Same key (both abstracted): value drift is allowed — the quotient may be
// re-tuned between commits — but the wall-clock regression gate still
// applies.
TEST(BenchRecords, StrictDriftExemptsAbstractedRecordsButWallGates) {
  const fs::path base = fresh_dir("abs-strict/base");
  const fs::path cand = fresh_dir("abs-strict/cand");
  const std::string shape =
      "\"experiment\": \"detection_latency_hlog\", \"backend\": \"batch\", "
      "\"strategy\": \"multinomial\", \"n\": 1000000, \"abstracted\": true";
  write_bench(base, "t",
              {"{" + shape + ", \"wall_seconds\": 1.0, "
               "\"interactions\": 1000, \"parallel_time\": 2.0}"});
  write_bench(cand, "t",
              {"{" + shape + ", \"wall_seconds\": 3.0, "
               "\"interactions\": 1234, \"parallel_time\": 7.7}"});

  CompareOptions opts;
  opts.strict = true;
  std::ostringstream out;
  const CompareStats stats = compare(load(base), load(cand), opts, out);
  EXPECT_EQ(stats.compared, 1);
  EXPECT_EQ(stats.drift, 0);
  EXPECT_EQ(stats.abstracted_exempt, 1);
  EXPECT_EQ(stats.regressions, 1);  // 3x wall growth still fails the gate
  EXPECT_TRUE(stats.failed());
}

// A faulted record (fault injection, stamped "faulted": true + knobs) is a
// separate identity class from its fault-free twin and from a different
// knob setting: a bench cell gaining a drop rate must never silently diff
// against the reliable-scheduler history.
TEST(BenchRecords, FaultedIsASeparateIdentityClass) {
  const fs::path base = fresh_dir("fault-identity/base");
  const fs::path cand = fresh_dir("fault-identity/cand");
  const std::string shape =
      "\"experiment\": \"drop_curve\", \"backend\": \"batch\", "
      "\"strategy\": \"multinomial\", \"n\": 1024";
  write_bench(base, "t",
              {"{" + shape + ", \"wall_seconds\": 1.0, "
               "\"parallel_time\": 12.0}",
               "{" + shape + ", \"faulted\": true, \"fault_drop\": 0.1, "
               "\"fault_oneway\": 0, \"fault_churn\": 0, "
               "\"wall_seconds\": 1.1, \"parallel_time\": 13.3}"});
  write_bench(cand, "t",
              {"{" + shape + ", \"faulted\": true, \"fault_drop\": 0.5, "
               "\"fault_oneway\": 0, \"fault_churn\": 0, "
               "\"wall_seconds\": 1.9, \"parallel_time\": 24.0}"});

  const auto b = load(base), c = load(cand);
  ASSERT_EQ(b.size(), 2u);
  ASSERT_EQ(c.size(), 1u);
  // drop=0.5 matches neither the fault-free record nor the drop=0.1 one.
  EXPECT_EQ(b.find(c.begin()->first), b.end());

  std::ostringstream out;
  const CompareStats stats = compare(b, c, CompareOptions{}, out);
  EXPECT_EQ(stats.compared, 0);
  EXPECT_EQ(stats.missing, 2);
  EXPECT_EQ(stats.added, 1);
  EXPECT_FALSE(stats.failed());
}

// Faulted records get NO strict exemption: seeded faults come from the
// engines' deterministic streams, so same code + same seeds reproduce a
// faulted run bit for bit — drift there fails --strict like any exact
// record.
TEST(BenchRecords, StrictDriftStillAppliesToFaultedRecords) {
  const fs::path base = fresh_dir("fault-strict/base");
  const fs::path cand = fresh_dir("fault-strict/cand");
  const std::string shape =
      "\"experiment\": \"drop_curve\", \"backend\": \"batch\", "
      "\"strategy\": \"multinomial\", \"n\": 4096, \"faulted\": true, "
      "\"fault_drop\": 0.5, \"fault_oneway\": 0, \"fault_churn\": 0";
  write_bench(base, "t",
              {"{" + shape + ", \"wall_seconds\": 1.0, "
               "\"interactions\": 1000, \"parallel_time\": 2.0}"});
  write_bench(cand, "t",
              {"{" + shape + ", \"wall_seconds\": 1.0, "
               "\"interactions\": 1001, \"parallel_time\": 2.1}"});

  CompareOptions opts;
  opts.strict = true;
  std::ostringstream out;
  const CompareStats stats = compare(load(base), load(cand), opts, out);
  EXPECT_EQ(stats.compared, 1);
  EXPECT_EQ(stats.drift, 2);  // interactions + parallel_time both moved
  EXPECT_EQ(stats.abstracted_exempt, 0);
  EXPECT_TRUE(stats.failed());
}

// Scenario records (report_scenario) carry interactions_mean, failed and
// <metric>_{mean,ci95,p99} instead of the bench binaries' interactions /
// parallel_time: --strict must diff those too, except the wall-clock
// metric of an until=ptime record, which is a timing, not a draw.
TEST(BenchRecords, StrictDriftCoversScenarioRecords) {
  const fs::path base = fresh_dir("scenario-strict/base");
  const fs::path cand = fresh_dir("scenario-strict/cand");
  const std::string ranked =
      "\"experiment\": \"scenario_ranked\", \"backend\": \"batch\", "
      "\"strategy\": \"geometric_skip\", \"n\": 64, \"trials\": 2, "
      "\"wall_seconds\": 0.01, \"interactions_mean\": 9000, "
      "\"parallel_time_ci95\": 3.5, \"parallel_time_p99\": 150";
  const std::string ptime =
      "\"experiment\": \"scenario_ptime\", \"backend\": \"batch\", "
      "\"strategy\": \"multinomial\", \"n\": 64, \"trials\": 2, "
      "\"wall_seconds\": 0.01, \"interactions_mean\": 6400, "
      "\"wall_seconds_ci95\": 0.001, \"wall_seconds_p99\": 0.002";
  write_bench(base, "scenario",
              {"{" + ranked + ", \"parallel_time_mean\": 140.5}",
               "{" + ptime + ", \"wall_seconds_mean\": 0.004}"});
  write_bench(cand, "scenario",
              {"{" + ranked + ", \"parallel_time_mean\": 281}",
               "{" + ptime + ", \"wall_seconds_mean\": 0.009}"});

  CompareOptions opts;
  opts.strict = true;
  std::ostringstream out;
  CompareStats stats = compare(load(base), load(cand), opts, out);
  EXPECT_EQ(stats.compared, 2);
  EXPECT_EQ(stats.drift, 1) << out.str();  // the doubled parallel_time_mean
  EXPECT_NE(out.str().find("parallel_time_mean"), std::string::npos);
  EXPECT_EQ(out.str().find("wall_seconds_mean"), std::string::npos);

  // A newly failed trial drifts too, though the baseline omits `failed`
  // (report_scenario writes it only when nonzero).
  write_bench(cand, "scenario",
              {"{" + ranked + ", \"parallel_time_mean\": 140.5, "
               "\"failed\": 1}",
               "{" + ptime + ", \"wall_seconds_mean\": 0.004}"});
  std::ostringstream out2;
  stats = compare(load(base), load(cand), opts, out2);
  EXPECT_EQ(stats.drift, 1) << out2.str();
  EXPECT_NE(out2.str().find("failed"), std::string::npos);
}

// Records differing only in topology are matched by topology, not by
// occurrence index: a candidate that emits two topology-only twins in the
// other order has no drift under --strict.
TEST(BenchRecords, TopologyJoinsTheIdentity) {
  const fs::path base = fresh_dir("topology/base");
  const fs::path cand = fresh_dir("topology/cand");
  const std::string shape =
      "\"experiment\": \"epidemic_diameter_curve\", \"backend\": \"array\", "
      "\"n\": 256";
  const std::string line = "{" + shape +
                           ", \"topology\": \"line\", \"wall_seconds\": 0.1, "
                           "\"interactions\": 90000, \"parallel_time\": 351}";
  const std::string torus = "{" + shape +
                            ", \"topology\": \"torus\", \"wall_seconds\": 0.1, "
                            "\"interactions\": 7000, \"parallel_time\": 27}";
  write_bench(base, "t", {line, torus});
  write_bench(cand, "t", {torus, line});

  CompareOptions opts;
  opts.strict = true;
  std::ostringstream out;
  const CompareStats stats = compare(load(base), load(cand), opts, out);
  EXPECT_EQ(stats.compared, 2);
  EXPECT_EQ(stats.drift, 0);
  EXPECT_EQ(stats.missing, 0);
  EXPECT_EQ(stats.added, 0);
  EXPECT_FALSE(stats.failed()) << out.str();
}

// Booleans load as 0/1 metrics and repeated identical identities get
// distinct occurrence indices (regression guard for the loader).
TEST(BenchRecords, LoaderKeepsBoolsAndOccurrenceIndices) {
  const fs::path dir = fresh_dir("loader");
  const std::string shape =
      "\"experiment\": \"rep\", \"backend\": \"batch\", "
      "\"strategy\": \"auto\", \"n\": 8, \"abstracted\": true, "
      "\"fault_drop\": 0.01";
  write_bench(dir, "t",
              {"{" + shape + ", \"wall_seconds\": 0.5}",
               "{" + shape + ", \"wall_seconds\": 0.6}"});
  const auto recs = load(dir);
  ASSERT_EQ(recs.size(), 2u);
  for (const auto& [key, rec] : recs) {
    EXPECT_TRUE(rec.abstracted());
    EXPECT_EQ(rec.metrics.at("abstracted"), 1.0);
    EXPECT_EQ(rec.metrics.at("fault_drop"), 0.01);
    EXPECT_NE(key.find("|#"), std::string::npos);
  }
}

// --- Hostile JSON (common/json.h, also ppsle_run's matrix reader) -----------

bool parses(const std::string& text) {
  JsonValue root;
  return JsonParser(text).parse(root);
}

// Nesting past kMaxDepth is a parse failure, not a stack overflow; the cap
// itself still parses.
TEST(JsonParser, DeepNestingFailsInsteadOfCrashing) {
  const int cap = JsonParser::kMaxDepth;
  EXPECT_TRUE(parses(std::string(cap, '[') + std::string(cap, ']')));
  EXPECT_FALSE(parses(std::string(cap + 1, '[') + std::string(cap + 1, ']')));
  EXPECT_FALSE(parses(std::string(300'000, '[')));
  std::string objects;
  for (int i = 0; i <= cap; ++i) objects += "{\"a\":";
  EXPECT_FALSE(parses(objects + "1" + std::string(cap + 1, '}')));
}

// A number converts as one whole token or not at all: "n": [8-1] must not
// run as n = 8.
TEST(JsonParser, NumbersMustConvertWhole) {
  for (const char* bad : {"8-1", "1.2.3", "1e", "--1", "1e+", "-"})
    EXPECT_FALSE(parses(std::string("{\"n\": [") + bad + "]}")) << bad;
  JsonValue root;
  ASSERT_TRUE(JsonParser("{\"n\": [8, -1.5e3, 2E-2]}").parse(root));
  const JsonValue* n = root.get("n");
  ASSERT_NE(n, nullptr);
  ASSERT_EQ(n->items.size(), 3u);
  EXPECT_EQ(n->items[0].num, 8.0);
  EXPECT_EQ(n->items[1].num, -1500.0);
  EXPECT_EQ(n->items[2].num, 0.02);
}

}  // namespace
}  // namespace ppsim::benchcmp
