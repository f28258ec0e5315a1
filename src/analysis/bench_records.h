// The bench_compare core: loading BENCH_*.json directories into keyed
// records and diffing two record sets, shared between the tools/
// bench_compare CLI and the unit tests that pin its semantics.
//
// Records are matched by identity key (bench, experiment, backend,
// strategy, n, mode, abstracted — plus an occurrence index for repeated
// keys); everything else is measurement. The `abstracted` field is part of
// the *identity*, not the measurement: a record produced by an abstracted
// protocol (a count-form quotient, stamped "abstracted": true by the
// scenario API) is a different experiment class from a concrete record of
// the same shape, so the two never silently compare against each other.
//
// Abstracted records are additionally exempt from --strict drift checks:
// strictness asserts that same code + same seeds reproduce the
// deterministic fields bit-for-bit (see strict_field()). The quotient
// (bucket boundaries, witness truncation) may legitimately be re-tuned
// between commits, so abstracted cells are gated on wall time only, and
// drift in their sampled values is never a CI failure.
//
// Faulted records (fault injection: "faulted": true + the fault_drop /
// fault_oneway / fault_churn knobs) join the identity the same way — a
// faulted cell never silently compares against its fault-free twin or a
// different knob setting — but get NO strict exemption: seeded faults are
// drawn from the engines' own deterministic streams, so same code + same
// seeds reproduce faulted interactions/parallel_time bit for bit, and
// drift there is as much a red flag as in any exact record.
//
// The interaction graph (`topology`, stamped only when non-complete) joins
// the identity too, with no strict exemption: a line and a torus record of
// one shape are different cells, whatever order a bench emits them in.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"

namespace ppsim::benchcmp {

struct Record {
  // Identity: bench|experiment|backend|strategy|n|mode|abstracted|faulted|
  //           fault_drop|fault_oneway|fault_churn|topology|#i
  std::string key;
  std::map<std::string, double> metrics;  // numeric + boolean fields (0/1)

  bool abstracted() const {
    const auto it = metrics.find("abstracted");
    return it != metrics.end() && it->second != 0.0;
  }
};

inline std::string identity_field(const JsonValue& rec, const char* name) {
  const JsonValue* v = rec.get(name);
  if (v == nullptr) return "";
  if (v->kind == JsonValue::Kind::kString) return v->str;
  if (v->kind == JsonValue::Kind::kNumber) {
    std::ostringstream os;
    os << v->num;
    return os.str();
  }
  if (v->kind == JsonValue::Kind::kBool) return v->b ? "true" : "false";
  return "";
}

// Loads every BENCH_*.json record in `dir` under its identity key.
inline bool load_dir(const std::string& dir,
                     std::map<std::string, Record>& out, bool verbose,
                     std::ostream& log = std::cout,
                     std::ostream& err = std::cerr) {
  namespace fs = std::filesystem;
  if (!fs::is_directory(dir)) {
    err << "bench_compare: not a directory: " << dir << "\n";
    return false;
  }
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) == 0 && name.size() > 5 &&
        name.substr(name.size() - 5) == ".json")
      files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  std::map<std::string, int> occurrence;
  for (const auto& path : files) {
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    JsonValue root;
    if (!JsonParser(text).parse(root) ||
        root.kind != JsonValue::Kind::kObject) {
      err << "bench_compare: cannot parse " << path << "\n";
      return false;
    }
    const JsonValue* bench = root.get("bench");
    const JsonValue* records = root.get("records");
    if (bench == nullptr || records == nullptr ||
        records->kind != JsonValue::Kind::kArray) {
      err << "bench_compare: unexpected schema in " << path << "\n";
      return false;
    }
    for (const JsonValue& r : records->items) {
      if (r.kind != JsonValue::Kind::kObject) continue;
      std::string key = bench->str;
      for (const char* field : {"experiment", "backend", "strategy", "n",
                                "mode", "abstracted", "faulted",
                                "fault_drop", "fault_oneway", "fault_churn",
                                "topology"}) {
        key.push_back('|');
        key.append(identity_field(r, field));
      }
      const int index = occurrence[key]++;
      key.append("|#");
      key.append(std::to_string(index));
      Record rec;
      rec.key = key;
      for (const auto& [k, v] : r.fields) {
        if (v.kind == JsonValue::Kind::kNumber) rec.metrics[k] = v.num;
        if (v.kind == JsonValue::Kind::kBool) rec.metrics[k] = v.b ? 1 : 0;
      }
      out.emplace(key, std::move(rec));
    }
  }
  if (verbose)
    log << "loaded " << out.size() << " records from " << files.size()
        << " files in " << dir << "\n";
  return true;
}

// The deterministic fields --strict compares: the bench binaries'
// `interactions` and `parallel_time`, and what report_scenario
// (analysis/scenarios.h) writes: `failed` and every <metric>_{mean,ci95,p99}
// (interactions_mean included) except the wall-clock metric's.
inline bool strict_field(const std::string& field) {
  if (field == "interactions" || field == "parallel_time") return true;
  const std::size_t cut = field.rfind('_');
  if (cut == std::string::npos) return false;
  const std::string stat = field.substr(cut + 1);
  return (stat == "mean" || stat == "ci95" || stat == "p99") &&
         field.compare(0, cut, "wall_seconds") != 0;
}

struct CompareOptions {
  double threshold = 0.20;    // relative wall_seconds growth = regression
  double min_seconds = 0.05;  // absolute growth a regression must exceed
  bool strict = false;        // flag drift in deterministic fields
};

struct CompareStats {
  int compared = 0;
  int regressions = 0;
  int improvements = 0;
  int drift = 0;
  int abstracted_exempt = 0;  // abstracted records --strict skipped over
  int missing = 0;            // baseline-only records
  int added = 0;          // candidate-only records
  bool failed() const { return regressions > 0 || drift > 0; }
};

// Diffs candidate against baseline: wall-clock gating for every matched
// pair, strict drift for exact records only (see the header comment for
// why abstracted records are exempt). Findings are printed to `out`.
inline CompareStats compare(const std::map<std::string, Record>& base,
                            const std::map<std::string, Record>& cand,
                            const CompareOptions& opts,
                            std::ostream& out = std::cout) {
  CompareStats stats;
  char line[256];
  for (const auto& [key, b] : base) {
    const auto it = cand.find(key);
    if (it == cand.end()) {
      ++stats.missing;
      continue;
    }
    const Record& c = it->second;
    const auto bw = b.metrics.find("wall_seconds");
    const auto cw = c.metrics.find("wall_seconds");
    if (bw != b.metrics.end() && cw != c.metrics.end()) {
      // A regression must exceed the relative threshold AND an absolute
      // min_seconds of growth: the absolute floor keeps sub-noise records
      // (smoke runs) quiet without masking a large blowup from a tiny
      // baseline.
      ++stats.compared;
      const double ratio = cw->second / std::max(bw->second, 1e-12);
      if (cw->second >
          bw->second * (1.0 + opts.threshold) + opts.min_seconds) {
        ++stats.regressions;
        std::snprintf(line, sizeof line,
                      "REGRESSION  %-70s %8.3fs -> %8.3fs  (%.0f%%)\n",
                      key.c_str(), bw->second, cw->second,
                      (ratio - 1.0) * 100.0);
        out << line;
      } else if (cw->second <
                 bw->second * (1.0 - opts.threshold) - opts.min_seconds) {
        ++stats.improvements;
        std::snprintf(line, sizeof line,
                      "improved    %-70s %8.3fs -> %8.3fs  (%.0f%%)\n",
                      key.c_str(), bw->second, cw->second,
                      (ratio - 1.0) * 100.0);
        out << line;
      }
    }
    if (opts.strict) {
      if (b.abstracted() || c.abstracted()) {
        ++stats.abstracted_exempt;
        continue;
      }
      // report_scenario writes `failed` only when some trial failed, so an
      // absent one counts as 0.
      std::set<std::string> fields = {"failed"};
      for (const Record* r : {&b, &c})
        for (const auto& kv : r->metrics)
          if (strict_field(kv.first)) fields.insert(kv.first);
      for (const std::string& field : fields) {
        const auto bf = b.metrics.find(field), cf = c.metrics.find(field);
        const bool b_has = bf != b.metrics.end(), c_has = cf != c.metrics.end();
        if (field != "failed" && !(b_has && c_has)) continue;
        const double bv = b_has ? bf->second : 0.0;
        const double cv = c_has ? cf->second : 0.0;
        const double denom = std::max(1.0, std::fabs(bv));
        if (std::fabs(bv - cv) / denom > 1e-9) {
          ++stats.drift;
          std::snprintf(line, sizeof line,
                        "DRIFT       %-70s %s %.17g -> %.17g\n", key.c_str(),
                        field.c_str(), bv, cv);
          out << line;
        }
      }
    }
  }
  for (const auto& [key, c] : cand) {
    (void)c;
    if (base.find(key) == base.end()) ++stats.added;
  }
  return stats;
}

}  // namespace ppsim::benchcmp
