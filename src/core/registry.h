// The protocol registry and the declarative Scenario API.
//
// A ScenarioSpec is a complete, declarative description of one experiment
// cell: which protocol, at which population size, from which named
// adversarial initial condition, on which engine and batching strategy,
// run until which stop condition, for how many seeded trials. The registry
// maps protocol names to type-erased entries that know how to execute a
// spec end to end and return a ScenarioResult (per-trial measurements +
// summary + resolved configuration), so harnesses — tools/ppsle_run, the
// bench binaries, the tests — compose experiments as data instead of
// hand-writing a .cpp per (protocol x n x adversary x horizon) cell.
//
// This header is protocol-agnostic on purpose: it defines only the spec,
// result, entry and registry types (type-erased behind std::function).
// The concrete protocols are registered in analysis/scenarios.h, which is
// where the template machinery that builds an entry's run() lives.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/faults.h"
#include "core/stats.h"

namespace ppsim {

// One experiment cell, fully declarative. Empty/zero fields mean "the
// protocol's registered default".
struct ScenarioSpec {
  std::string protocol;        // registry name (required)
  std::uint32_t n = 0;         // population size (0 = entry default_n)
  std::string init;            // initial-condition name ("" = entry default)
  std::string engine = "auto";    // array | batch | auto (batch if able)
  std::string strategy = "auto";  // geometric_skip | multinomial | auto |
                                  // tau (APPROXIMATE tau-leaping)
  std::string until;           // stop condition name ("" = entry default)
  std::uint64_t max_interactions = 0;  // hard horizon (0 = entry default)
  double horizon_ptime = 0.0;  // until=ptime: the fixed parallel-time budget
  double tail_ptime = -1.0;    // ranked runs: extra correct window (<0 =
                               // entry default)
  std::uint32_t trials = 1;
  std::uint64_t seed = 1;      // base seed; trial t runs derive_seed(seed, t)
  std::uint32_t threads = 0;   // trial fan-out (0 = env/hardware)
  double tau_eps = 0.0;        // strategy=tau: leap-size knob ("tau.eps=",
                               // 0 = kDefaultTauEps). Approximate results
                               // are pure functions of (seed, tau_eps) and
                               // stamped as such.
  FaultSpec faults;            // fault.drop= / fault.oneway= / fault.churn=
                               // (core/faults.h). Exact on array, batch and
                               // ring; rejected on the approximate tier
                               // (tau), whose error bounds assume the
                               // fault-free transition rates. Any non-zero
                               // knob stamps the result `faulted`.
  std::string topology;        // interaction graph (core/topology.h):
                               // "" | complete | ring | line | star |
                               // mesh:RxC | torus:RxC | custom:<path>.
                               // "" = complete (the classical scheduler,
                               // bit-identical). Non-complete graphs run on
                               // the agent array; the ring additionally has
                               // the run-length-compressed count engine.
                               // Joins the record identity when non-complete.

  // Protocol-constant overrides ("param.<name>=<value>" on the CLI / in
  // matrix files): each entry is interpreted by the protocol's registered
  // runner through a ParamReader. Unknown names are hard errors, exactly
  // like unknown spec keys.
  std::vector<std::pair<std::string, std::string>> params;
};

// Typed view over ScenarioSpec::params for a protocol runner: each lookup
// marks its key consumed, and finish() rejects leftovers so a typo'd or
// misplaced override fails loudly instead of silently running defaults.
class ParamReader {
 public:
  explicit ParamReader(const ScenarioSpec& spec)
      : params_(spec.params), used_(spec.params.size(), false) {}

  // Finite values only: a nan or inf override would reach the runner's
  // double -> integer conversions, which are undefined out of range.
  double number(const std::string& name, double fallback) {
    const std::string* v = find(name);
    if (v == nullptr) return fallback;
    double d = 0.0;
    try {
      std::size_t pos = 0;
      d = std::stod(*v, &pos);
      if (pos != v->size()) throw std::invalid_argument(*v);
    } catch (...) {
      throw std::invalid_argument("param '" + name + "' is not a number: '" +
                                  *v + "'");
    }
    if (!std::isfinite(d))
      throw std::invalid_argument("param '" + name + "' is not finite: '" +
                                  *v + "'");
    return d;
  }

  // `max` is the largest value the target field holds (UINT32_MAX for a
  // 32-bit constant): a larger override is a hard error, never a silent
  // truncation to its low bits. A leading '-' is rejected rather than
  // wrapped the way std::stoull would.
  std::uint64_t integer(const std::string& name, std::uint64_t fallback,
                        std::uint64_t max = UINT64_MAX) {
    const std::string* v = find(name);
    if (v == nullptr) return fallback;
    std::uint64_t u = 0;
    try {
      std::size_t pos = 0;
      if (v->find('-') != std::string::npos) throw std::invalid_argument(*v);
      u = std::stoull(*v, &pos);
      if (pos != v->size()) throw std::invalid_argument(*v);
    } catch (...) {
      throw std::invalid_argument("param '" + name +
                                  "' is not an integer: '" + *v + "'");
    }
    if (u > max)
      throw std::invalid_argument("param '" + name + "' exceeds " +
                                  std::to_string(max) + ": '" + *v + "'");
    return u;
  }

  bool flag(const std::string& name, bool fallback) {
    const std::string* v = find(name);
    if (v == nullptr) return fallback;
    if (*v == "1" || *v == "true") return true;
    if (*v == "0" || *v == "false") return false;
    throw std::invalid_argument("param '" + name +
                                "' is not a flag (0|1|true|false): '" + *v +
                                "'");
  }

  // Call after the last lookup; throws listing every unconsumed key.
  void finish() const {
    std::string unknown;
    for (std::size_t i = 0; i < params_.size(); ++i) {
      if (used_[i]) continue;
      if (!unknown.empty()) unknown += ", ";
      unknown += params_[i].first;
    }
    if (!unknown.empty())
      throw std::invalid_argument(
          "unknown param(s) for this protocol: " + unknown);
  }

 private:
  // Last occurrence wins (CLI-override semantics); every occurrence is
  // marked consumed.
  const std::string* find(const std::string& name) {
    const std::string* out = nullptr;
    for (std::size_t i = 0; i < params_.size(); ++i) {
      if (params_[i].first != name) continue;
      used_[i] = true;
      out = &params_[i].second;
    }
    return out;
  }

  const std::vector<std::pair<std::string, std::string>>& params_;
  std::vector<char> used_;
};

// What one executed spec measured. `values` holds the per-trial metric —
// stabilization/stop parallel time for predicate-style stop conditions,
// per-trial wall seconds for fixed-budget (until=ptime) runs; failed trials
// (horizon hit before the stop condition) contribute -1, mirroring the
// bench convention.
struct ScenarioResult {
  std::string metric = "parallel_time";
  Summary summary;             // over `values`
  std::vector<double> values;  // per-trial, trial index = vector index
  std::string backend;         // resolved: "array" | "batch"
  std::string strategy;        // resolved; empty on the array engine
  std::string engine_arm;      // strategy controller's whole-run pick when
                               // engine=auto + strategy=auto left it the
                               // choice ("" when the spec pinned it)
  StrategyTrace trace;         // per-arm steps/interactions, merged over
                               // all trials (the controller decision trace)
  std::string init;            // resolved initial-condition name
  std::string until;           // resolved stop-condition name
  std::string topology;        // resolved interaction graph ("complete"
                               // unless the spec named another; joins the
                               // record identity when non-complete)
  std::vector<std::pair<std::string, std::string>> params;  // echoed spec
  std::uint32_t n = 0;
  std::uint64_t trials = 0;
  std::uint64_t failed = 0;            // trials that hit the horizon
  double wall_seconds = 0.0;           // whole scenario (all trials)
  double interactions_mean = 0.0;      // per trial

  // Honesty stamp for the approximate tier (strategy=tau):
  // true means the values are NOT exact-in-distribution and must never be
  // strict-diffed against exact baselines (bench_compare exempts them).
  bool approximate = false;
  double tau_eps = 0.0;  // resolved knob behind an approximate result

  // Honesty stamp for state-abstracted protocols (e.g. the count-form
  // Sublinear-Time-SSR quotient): the *protocol itself* is a truncated
  // abstraction of the one named in the experiment, so values can diverge
  // from the concrete dynamics even under an exact engine. Orthogonal to
  // `approximate` (an abstracted protocol run under tau carries both).
  // bench_compare exempts abstracted records from --strict drift the same
  // way it exempts approximate ones.
  bool abstracted = false;

  // Honesty stamp for fault injection: true means the scheduler layer was
  // unreliable (some fault knob non-zero), so values measure behaviour
  // under the FaultSpec's law, not the paper's fault-free model. UNLIKE
  // approximate/abstracted, faulted results keep the full bit-determinism
  // contract — seeded faults reproduce exactly, so bench_compare --strict
  // still applies. The knobs are part of the record identity.
  bool faulted = false;
  FaultSpec faults;  // echoed spec (all-zero when faulted == false)
};

// A registered protocol: metadata for --list plus the type-erased runner.
struct ProtocolEntry {
  std::string name;         // registry key, e.g. "optimal-silent"
  std::string description;  // one line for --list
  std::string states;       // state-space size, human form, e.g. "~35n"
  bool silent = false;      // does the protocol stabilize to silence?
  bool batch_capable = false;  // EnumerableProtocol => count engine works
  std::uint32_t fixed_n = 0;   // nonzero: protocol is defined only at this n
  std::uint32_t default_n = 64;

  std::vector<std::string> inits;   // registered generator names
  std::string default_init;         // an *adversarial* default
  std::vector<std::string> untils;  // registered stop-condition names
  std::string default_until;

  // Executes the spec (protocol field already matched). Throws
  // std::invalid_argument on an inexpressible spec (unknown init/until,
  // batch engine on a non-enumerable protocol, n mismatch, ...).
  std::function<ScenarioResult(const ScenarioSpec&)> run;
};

class ProtocolRegistry {
 public:
  ProtocolRegistry& add(ProtocolEntry entry) {
    if (find(entry.name) != nullptr)
      throw std::logic_error("duplicate protocol entry '" + entry.name + "'");
    entries_.push_back(std::move(entry));
    return *this;
  }

  const ProtocolEntry* find(const std::string& name) const {
    for (const auto& e : entries_)
      if (e.name == name) return &e;
    return nullptr;
  }

  const ProtocolEntry& at(const std::string& name) const {
    const ProtocolEntry* e = find(name);
    if (e == nullptr)
      throw std::invalid_argument("unknown protocol '" + name +
                                  "' (see --list)");
    return *e;
  }

  const std::vector<ProtocolEntry>& all() const { return entries_; }

  // Front door: resolve the spec's protocol and execute it.
  ScenarioResult run(const ScenarioSpec& spec) const {
    return at(spec.protocol).run(spec);
  }

 private:
  std::vector<ProtocolEntry> entries_;
};

}  // namespace ppsim
