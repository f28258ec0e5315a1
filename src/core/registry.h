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
// This header is protocol-agnostic on purpose: it defines the spec, the
// resolved plan, the result, entry and registry types (type-erased behind
// std::function), and resolve(), the one place a spec's defaults are
// filled in and its fields checked. The concrete protocols are registered
// in analysis/scenarios.h, which is where the template machinery that
// builds an entry's run() lives.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/faults.h"
#include "core/stats.h"
#include "core/topology.h"

namespace ppsim {

// One experiment cell, fully declarative. Empty/zero fields mean "the
// protocol's registered default".
struct ScenarioSpec {
  std::string protocol;        // registry name (required)
  std::uint32_t n = 0;         // population size (0 = entry default_n)
  std::string init;            // initial-condition name ("" = entry default)
  std::string engine = "auto";    // array | batch | auto ("" = auto: see
                                  // resolve(), and the occupancy probe in
                                  // analysis/scenarios.h)
  std::string strategy = "auto";  // geometric_skip | auto
  std::string until;           // stop condition name ("" = entry default)
  std::uint64_t max_interactions = 0;  // hard horizon (0 = entry default)
  double horizon_ptime = 0.0;  // until=ptime: the fixed parallel-time budget
  std::optional<double> tail_ptime;  // ranked/elected runs: extra correct
                                     // window (unset = entry default)
  std::uint32_t trials = 1;
  std::uint64_t seed = 1;      // base seed; trial t runs derive_seed(seed, t)
  std::uint32_t threads = 0;   // trial fan-out (0 = env/hardware)
  FaultSpec faults;            // fault.drop= / fault.oneway= / fault.churn=
                               // (core/faults.h). Exact on array, batch and
                               // ring. Any non-zero knob stamps the result
                               // `faulted`.
  std::string topology;        // interaction graph (core/topology.h):
                               // "" | complete | ring | line | star |
                               // mesh:RxC | torus:RxC | custom:<path>.
                               // "" = the protocol's fixed topology if it
                               // has one (ring-ssle: ring), else complete
                               // (the classical scheduler, bit-identical).
                               // Non-complete graphs run on
                               // the agent array; the ring additionally has
                               // the active-edge ring count engine.
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
  explicit ParamReader(
      const std::vector<std::pair<std::string, std::string>>& params)
      : params_(params), used_(params.size(), false) {}

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

// The longest run a spec can ask for, in interactions: the stop
// conditions' open horizon, and the bound every parallel-time window
// (ptime * n, tail * n) must fit before it is converted to a count.
inline constexpr std::uint64_t kOpenHorizon = 1ull << 62;

// A spec with every default filled in and every field checked: what
// resolve() returns, what the registered runners execute, and what
// ppsle_run --matrix deduplicates on.
struct ScenarioPlan {
  // The engine the trials run on. kProbe is engine=auto with strategy=auto
  // on the complete graph of an enumerable protocol: drive()
  // (analysis/scenarios.h) settles it to kArray or kBatch from trial 0's
  // initial occupancy, so no spec field decides it.
  enum class Engine { kArray, kBatch, kRing, kProbe };

  std::string protocol;
  std::uint32_t n = 0;
  std::string init;
  std::string until;
  std::uint32_t trials = 1;
  Engine engine = Engine::kArray;
  BatchStrategy strategy = BatchStrategy::kAuto;
  Topology topology = Topology::complete(2);
  FaultSpec faults;
  std::uint64_t seed = 1;
  std::uint32_t threads = 0;
  std::uint64_t max_interactions = 0;  // 0 = the stop condition's horizon
  std::uint64_t ptime_budget = 0;      // until=ptime: ptime * n, else 0
  std::optional<double> tail_ptime;    // unset = the stop condition's window
  std::vector<std::pair<std::string, std::string>> params;

  std::uint64_t horizon(std::uint64_t fallback) const {
    return max_interactions != 0 ? max_interactions : fallback;
  }
  double tail(double fallback) const { return tail_ptime.value_or(fallback); }

  // The names a result echoes for a settled engine (never kProbe).
  static const char* backend(Engine e) {
    return e == Engine::kArray ? "array" : "batch";
  }
  std::string strategy_name(Engine e) const {
    if (e == Engine::kArray) return "";
    if (e == Engine::kRing) return "ring_rle";
    return to_string(strategy);
  }

  // Two specs with one identity run the same trials and produce the same
  // record: aliases ("" / auto, geometric / geometric_skip, "" / the
  // protocol's fixed topology) and fields the engine ignores (the strategy
  // on the agent array, ptime off until=ptime) are resolved away.
  std::string identity() const {
    auto num = [](double v) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", v);
      return std::string(buf);
    };
    std::string id =
        protocol + "|n=" + std::to_string(n) + "|" + init + "|" + until +
        "|engine=" + std::to_string(static_cast<int>(engine)) + "/" +
        strategy_name(engine) + "|" + topology.spec() +
        "|faults=" + num(faults.drop) + "/" + num(faults.oneway) + "/" +
        num(faults.churn) + "|seed=" + std::to_string(seed) + "|trials=" +
        std::to_string(trials) + "|threads=" + std::to_string(threads) +
        "|max=" + std::to_string(max_interactions) + "|ptime=" +
        std::to_string(ptime_budget) + "|tail=" +
        (tail_ptime ? num(*tail_ptime) : "");
    for (const auto& [name, value] : params)
      id += "|param." + name + "=" + value;
    return id;
  }
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
  std::string engine_arm;      // the occupancy probe's engine, "array" or
                               // "batch", when engine=auto + strategy=auto
                               // left it the choice ("" when the spec
                               // pinned it)
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

  // Honesty stamp for state-abstracted protocols (e.g. the count-form
  // Sublinear-Time-SSR quotient): the *protocol itself* is a truncated
  // abstraction of the one named in the experiment, so values can diverge
  // from the concrete dynamics even under an exact engine, so
  // bench_compare exempts abstracted records from --strict drift.
  bool abstracted = false;

  // Honesty stamp for fault injection: true means the scheduler layer was
  // unreliable (some fault knob non-zero), so values measure behaviour
  // under the FaultSpec's law, not the paper's fault-free model. UNLIKE
  // abstracted, faulted results keep the full bit-determinism contract —
  // seeded faults reproduce exactly, so bench_compare --strict still
  // applies. The knobs are part of the record identity.
  bool faulted = false;
  FaultSpec faults;  // echoed spec (all-zero when faulted == false)
};

// A registered protocol: metadata for --list plus the type-erased runner.
struct ProtocolEntry {
  std::string name;         // registry key, e.g. "optimal-silent"
  std::string description;  // one line for --list
  std::string states;       // state-space size, human form, e.g. "~35n"
  bool silent = false;      // does the protocol stabilize to silence?
  // Engine capabilities, derived from the protocol type at registration
  // (analysis/scenarios.h entry_for<P>), never written by hand:
  bool batch_capable = false;  // enumerable: the count engines run it
  bool ring_capable = false;   // ... and the ring count engine too
  std::uint32_t fixed_n = 0;   // nonzero: protocol is defined only at this n
  std::uint32_t default_n = 64;
  std::string fixed_topology;  // nonempty: the only graph the protocol is
                               // defined on, and the default topology

  std::vector<std::string> inits;   // registered generator names
  std::string default_init;         // an *adversarial* default
  std::vector<std::string> untils;  // registered stop-condition names
  std::string default_until;
  // Stop conditions the runner tests in O(1) only on the complete graph
  // and on the ring count engine (optimal-silent's silent: the rank
  // permutation, or the ring engine's active-edge weight). resolve()
  // rejects them on any other graph or engine.
  std::vector<std::string> complete_or_ring_untils;

  // Executes a plan resolve() made from this entry. Throws
  // std::invalid_argument only on a bad param.<name> override, which the
  // protocol's runner interprets.
  std::function<ScenarioResult(const ScenarioPlan&)> run;
};

// Fills in the entry's defaults and checks every field of the spec: the
// one place an inexpressible spec is rejected (std::invalid_argument),
// except param.<name> overrides, which the protocol's runner reads.
inline ScenarioPlan resolve(const ProtocolEntry& entry,
                            const ScenarioSpec& spec) {
  using Engine = ScenarioPlan::Engine;
  auto fail = [](const std::string& message) {
    throw std::invalid_argument(message);
  };
  auto listed = [](const std::vector<std::string>& names,
                   const std::string& name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  const std::string& who = entry.name;
  ScenarioPlan plan;
  plan.protocol = who;
  if (entry.fixed_n != 0 && spec.n != 0 && spec.n != entry.fixed_n)
    fail("protocol '" + who + "' is defined only for n = " +
         std::to_string(entry.fixed_n));
  plan.n = entry.fixed_n != 0 ? entry.fixed_n
                              : (spec.n != 0 ? spec.n : entry.default_n);
  plan.init = spec.init.empty() ? entry.default_init : spec.init;
  if (!listed(entry.inits, plan.init))
    fail("unknown initial condition '" + plan.init + "' for protocol '" +
         who + "'");
  plan.until = spec.until.empty() ? entry.default_until : spec.until;
  if (!listed(entry.untils, plan.until))
    fail("unknown stop condition '" + plan.until + "' for protocol '" + who +
         "'");
  plan.trials = spec.trials != 0 ? spec.trials : 1;
  plan.seed = spec.seed;
  plan.threads = spec.threads;
  plan.params = spec.params;

  const std::string engine = spec.engine.empty() ? "auto" : spec.engine;
  if (engine != "array" && engine != "batch" && engine != "auto")
    fail("unknown engine '" + engine + "' (array | batch | auto)");
  // The strategy name is checked even where the engine ignores it (the
  // agent array), so an unknown name never runs silently.
  const std::string strategy = spec.strategy.empty() ? "auto" : spec.strategy;
  if (!parse_strategy(strategy, plan.strategy))
    fail("unknown strategy '" + strategy +
         "' (geometric_skip | auto)");

  // Interaction graph (core/topology.h). "" = the protocol's fixed graph
  // if it has one, else complete = the classical scheduler, bit for bit.
  std::string graph = spec.topology;
  if (!entry.fixed_topology.empty()) {
    if (graph.empty()) graph = entry.fixed_topology;
    if (graph != entry.fixed_topology)
      fail("protocol '" + who + "' is defined only on topology '" +
           entry.fixed_topology + "', not '" + graph +
           "' (name it or leave topology empty)");
  }
  plan.topology = Topology::parse(graph.empty() ? "complete" : graph, plan.n);

  spec.faults.validate();
  plan.faults = spec.faults;

  // Parallel-time windows become interaction counts (ptime * n), so each
  // must be finite, non-negative and fit the open horizon: a nan, inf or
  // oversized double -> integer conversion is undefined.
  const double n = static_cast<double>(plan.n);
  auto check_window = [&](const char* key, double ptime) {
    if (!std::isfinite(ptime) || ptime < 0.0)
      fail(std::string(key) + " must be finite and >= 0");
    if (ptime * n > static_cast<double>(kOpenHorizon))
      fail(std::string(key) + " * n exceeds the open horizon of 2^62 "
           "interactions");
  };
  check_window("ptime", spec.horizon_ptime);
  if (plan.until == "ptime") {
    if (!(spec.horizon_ptime > 0.0))
      fail("until=ptime needs a positive ptime=<parallel-time budget>");
    plan.ptime_budget = static_cast<std::uint64_t>(spec.horizon_ptime * n);
  }
  if (spec.tail_ptime) check_window("tail", *spec.tail_ptime);
  plan.tail_ptime = spec.tail_ptime;
  plan.max_interactions = spec.max_interactions;

  // Engine choice. The clique count engines compile the complete graph's
  // pair law, so a non-complete topology leaves engine=auto on the agent
  // array, except the directed ring, which has its own active-edge count
  // engine (core/ring_simulation.h) for protocols with enumerable,
  // deterministic transitions.
  if (engine != "array" && entry.batch_capable) {
    if (plan.topology.is_complete())
      plan.engine = engine == "auto" &&
                            plan.strategy == BatchStrategy::kAuto
                        ? Engine::kProbe
                        : Engine::kBatch;
    else if (plan.topology.kind() == TopologyKind::kRing &&
             entry.ring_capable)
      plan.engine = Engine::kRing;
  }
  if (engine == "batch" && plan.engine == Engine::kArray)
    fail(entry.batch_capable
             ? "engine=batch compiles the complete graph's pair law (plus "
               "the ring count engine for deterministic protocols); "
               "topology '" + plan.topology.spec() + "' runs on engine=array"
             : "protocol '" + who +
                   "' is not enumerable: the batched engine cannot run it");
  if (!plan.topology.is_complete() && plan.engine != Engine::kRing &&
      listed(entry.complete_or_ring_untils, plan.until))
    fail("until=" + plan.until + " of protocol '" + who +
         "' is tested only on the complete graph or on the ring count "
         "engine (topology=ring, engine auto or batch); the agent array "
         "has no O(1) test for it on topology '" + plan.topology.spec() +
         "'");
  return plan;
}

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

  ScenarioPlan plan(const ScenarioSpec& spec) const {
    return resolve(at(spec.protocol), spec);
  }

  // Front door: resolve the spec once and execute the plan.
  ScenarioResult run(const ScenarioSpec& spec) const { return run(plan(spec)); }
  ScenarioResult run(const ScenarioPlan& plan) const {
    return at(plan.protocol).run(plan);
  }

 private:
  std::vector<ProtocolEntry> entries_;
};

}  // namespace ppsim
