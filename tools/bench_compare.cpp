// bench_compare: the perf-trend gate over BENCH_*.json artifacts.
//
// Every bench binary emits a BENCH_<name>.json (analysis/bench_report.h);
// this tool diffs two directories of them — a committed baseline (see
// bench/baseline/) against a fresh run — and fails on wall-clock
// regressions, closing the perf-tracking loop in CI:
//
//   bench_compare <baseline_dir> <candidate_dir>
//       [--threshold=0.2]    relative wall_seconds growth that counts as a
//                            regression (default 20%)
//       [--min-seconds=0.05] absolute wall-clock growth a regression must
//                            also exceed (keeps smoke-sized runs quiet)
//       [--strict]           also flag drift in the deterministic fields
//                            (interactions, parallel_time): same code +
//                            same seeds must reproduce them bit-for-bit,
//                            so any change means the simulated process
//                            changed and the baseline needs a deliberate
//                            refresh. Records stamped "abstracted": true
//                            (count-form protocol quotients, e.g.
//                            sublinear-*-count) are a separate class:
//                            wall-time gated like everything else, but
//                            never strict-diffed — the abstraction itself
//                            may be re-tuned between commits.
//       [--host-gate]        key the baseline by this machine's fingerprint
//                            (CPU model + core count, common/host.h): if
//                            <baseline_dir>/<fingerprint-slug>/ exists, use
//                            it with the tight --tight threshold; otherwise
//                            fall back to <baseline_dir> with the loose
//                            --loose threshold. This is how CI applies the
//                            tight 20% gate on a runner that matches the
//                            committed baseline host while staying quiet on
//                            unknown hardware.
//       [--tight=0.2]        threshold when the host baseline matched
//       [--loose=1.5]        threshold when it did not
//
// Record identity, loading, and the comparison itself live in
// analysis/bench_records.h (shared with the unit tests); records present
// only on one side are reported but are not failures (benches evolve).
// Exit status: 0 clean, 1 regressions (or --strict drift), 2 usage/IO
// error.
//
// Without --host-gate the default 20% threshold is meant for same-machine
// A/B runs while optimizing; pass an explicit generous --threshold for
// cross-machine comparisons.
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>

#include "analysis/bench_records.h"
#include "common/host.h"

namespace {

bool dir_has_bench_json(const std::string& dir) {
  namespace fs = std::filesystem;
  if (!fs::is_directory(dir)) return false;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) == 0 &&
        name.size() > 5 && name.substr(name.size() - 5) == ".json")
      return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  std::string base_dir, cand_dir;
  ppsim::benchcmp::CompareOptions opts;
  bool threshold_explicit = false;
  bool host_gate = false;
  double tight = 0.20;
  double loose = 1.50;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--threshold=", 0) == 0) {
      opts.threshold = std::stod(a.substr(12));
      threshold_explicit = true;
    } else if (a.rfind("--min-seconds=", 0) == 0) {
      opts.min_seconds = std::stod(a.substr(14));
    } else if (a == "--strict") {
      opts.strict = true;
    } else if (a == "--host-gate") {
      host_gate = true;
    } else if (a.rfind("--tight=", 0) == 0) {
      tight = std::stod(a.substr(8));
    } else if (a.rfind("--loose=", 0) == 0) {
      loose = std::stod(a.substr(8));
    } else if (base_dir.empty()) {
      base_dir = a;
    } else if (cand_dir.empty()) {
      cand_dir = a;
    } else {
      std::cerr << "bench_compare: unexpected argument " << a << "\n";
      return 2;
    }
  }
  if (base_dir.empty() || cand_dir.empty()) {
    std::cerr << "usage: bench_compare <baseline_dir> <candidate_dir> "
                 "[--threshold=0.2] [--min-seconds=0.05] [--strict] "
                 "[--host-gate] [--tight=0.2] [--loose=1.5]\n";
    return 2;
  }

  if (host_gate) {
    // An explicit --threshold wins over the gate's tight/loose pair; the
    // gate then only selects the per-host baseline directory.
    const std::string host_dir =
        base_dir + "/" + ppsim::host_fingerprint_slug();
    if (dir_has_bench_json(host_dir)) {
      base_dir = host_dir;
      if (!threshold_explicit) opts.threshold = tight;
      std::cout << "host-gate: matched baseline for '"
                << ppsim::host_fingerprint() << "' (" << host_dir
                << "); threshold " << opts.threshold * 100 << "%\n";
    } else {
      if (!threshold_explicit) opts.threshold = loose;
      std::cout << "host-gate: no baseline for '" << ppsim::host_fingerprint()
                << "' (looked for " << host_dir
                << "); cross-machine threshold " << opts.threshold * 100
                << "%\n";
    }
  }

  std::map<std::string, ppsim::benchcmp::Record> base, cand;
  if (!ppsim::benchcmp::load_dir(base_dir, base, true) ||
      !ppsim::benchcmp::load_dir(cand_dir, cand, true))
    return 2;

  const ppsim::benchcmp::CompareStats stats =
      ppsim::benchcmp::compare(base, cand, opts);

  std::printf(
      "\nbench_compare: %d wall-clock comparisons, %d regressions "
      "(> %.0f%% and > %.2fs growth), %d improvements, %d drifted "
      "(%d abstracted records exempt), %d baseline-only, %d new\n",
      stats.compared, stats.regressions, opts.threshold * 100.0,
      opts.min_seconds, stats.improvements, stats.drift,
      stats.abstracted_exempt, stats.missing, stats.added);
  return stats.failed() ? 1 : 0;
}
