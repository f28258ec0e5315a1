// Fault injection: the unreliable-network scheduler layer.
//
// The paper's self-stabilization guarantee covers arbitrary initial
// *states* under the uniform random scheduler; whether a protocol also
// survives an unreliable *network* — lost messages, one-way radio links,
// agents crashing and rebooting — is an empirical question (ROADMAP item
// 2). This header defines the fault model once, as three composable knobs
// on the interaction slot, so every engine implements the same law and
// cross-engine equivalence stays checkable:
//
//   drop    - each interaction is lost with probability `drop`,
//             independently: neither agent changes state, no counters are
//             recorded, the protocol's transition never runs. A dropped
//             pair is indistinguishable from a null pair.
//   oneway  - each non-dropped interaction is delivered one-way with
//             probability `oneway`: the full transition is computed, the
//             initiator applies its new state, the responder's reply is
//             lost in transit and it keeps its old state. Counters are
//             recorded in full (the *initiator* observed the interaction
//             happen; what failed is the reply delivery) — this is the
//             documented convention, chosen so observable detection
//             statistics stay comparable across fault rates.
//   churn   - agents crash at rate `churn` per unit of parallel time:
//             at the END of each interaction slot, independently with
//             probability q = churn / n, one uniformly random agent is
//             reset to the protocol's churn_state() (a freshly booted
//             agent). Under the anonymous fixed-n population model a
//             crash-reset is identical to crash-remove + join of a fresh
//             node, so the population size is always conserved exactly.
//
// All fault draws come from the engine's own seeded Rng stream — results
// stay a pure function of (seed, FaultSpec), and an all-zero FaultSpec
// consumes zero extra randomness, so the undecorated engine is reproduced
// bit for bit.
//
// Per-slot law (identical on every engine; the count engines compile it
// exactly — see core/batch_simulation.h and core/ring_simulation.h):
//   1. an ordered pair is scheduled uniformly;
//   2. with prob `drop` the interaction is lost, else with prob `oneway`
//      it is delivered one-way, else it is delivered in full;
//   3. with prob q = churn / n one uniformly random agent crashes.
// The crash times are materialized as a geometric countdown over slots
// (memoryless, so truncating a count-engine batch at the countdown and
// redrawing is exact).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/protocol.h"
#include "core/rng.h"
#include "core/scheduler.h"
#include "core/topology.h"

namespace ppsim {

// Protocols that can absorb churn: churn_state() is the state of a freshly
// booted (crashed-and-rejoined) agent. Kept separate from the Protocol
// concept so churn on a protocol without a boot state is a hard error
// instead of a silent guess.
template <class P>
concept ChurnableProtocol = Protocol<P> && requires(const P p) {
  { p.churn_state() } -> std::same_as<typename P::State>;
};

// The three fault knobs. Plumbed through ScenarioSpec as
// fault.drop= / fault.oneway= / fault.churn=; every ScenarioResult whose
// spec had any knob non-zero is stamped `faulted: true` in the BENCH
// envelope (the approximate/abstracted honesty pattern — but unlike those
// tiers, faulted records keep the full bit-determinism contract: seeded
// faults reproduce exactly, so they stay under bench_compare --strict).
struct FaultSpec {
  double drop = 0.0;    // P(interaction lost), in [0, 1]
  double oneway = 0.0;  // P(non-dropped interaction is one-way), in [0, 1]
  double churn = 0.0;   // crashes per unit parallel time, in [0, n]

  bool active() const { return drop > 0.0 || oneway > 0.0 || churn > 0.0; }

  // Range checks that do not need n (the churn <= n upper bound is
  // checked by the engines, which know the population).
  void validate() const {
    if (!(drop >= 0.0 && drop <= 1.0))
      throw std::invalid_argument("fault.drop must be in [0, 1]");
    if (!(oneway >= 0.0 && oneway <= 1.0))
      throw std::invalid_argument("fault.oneway must be in [0, 1]");
    if (!(churn >= 0.0))
      throw std::invalid_argument("fault.churn must be >= 0");
  }

  // Per-slot crash probability for a population of n agents.
  double crash_probability(std::uint32_t n) const {
    validate();
    const double q = churn / static_cast<double>(n);
    if (q > 1.0)
      throw std::invalid_argument(
          "fault.churn exceeds n (more than one crash per slot)");
    return q;
  }
};

// Agent-array engine with the fault layer woven into the pair step: the
// ground truth the count-engine fault compilations are validated against.
// Satisfies AgentArrayEngine; on top of the Simulation<P> contract it
// exposes last_crashed() so rank trackers can follow churn (a crash
// touches an agent outside the returned pair).
template <Protocol P>
class FaultySimulation {
 public:
  using State = typename P::State;
  using Counters = ProtocolCounters<P>;

  FaultySimulation(P protocol, std::vector<State> initial, std::uint64_t seed,
                   const FaultSpec& faults)
      : FaultySimulation(std::move(protocol), std::move(initial), seed,
                         faults, Topology()) {}

  // Interaction-graph variant: pairs come from the topology's uniform-edge
  // sampler (core/topology.h). The fault law composes unchanged — drop /
  // oneway / churn act on the scheduled slot whatever graph produced it.
  FaultySimulation(P protocol, std::vector<State> initial, std::uint64_t seed,
                   const FaultSpec& faults, Topology topology)
      : protocol_(std::move(protocol)),
        states_(std::move(initial)),
        topology_(topology.population_size() == 0
                      ? Topology::complete(protocol_.population_size())
                      : std::move(topology)),
        rng_(seed),
        spec_(faults) {
    if (states_.size() != protocol_.population_size())
      throw std::invalid_argument(
          "initial configuration size != population size");
    if (topology_.population_size() != protocol_.population_size())
      throw std::invalid_argument(
          "topology population size != protocol population size");
    const double q = spec_.crash_probability(protocol_.population_size());
    if (spec_.churn > 0.0) {
      if constexpr (!ChurnableProtocol<P>)
        throw std::invalid_argument(
            "fault.churn needs a protocol with a churn_state()");
      crash_q_ = q;
      crash_countdown_ = sample_geometric(rng_, crash_q_);
    }
  }

  std::uint32_t population_size() const {
    return protocol_.population_size();
  }
  const std::vector<State>& states() const { return states_; }
  P& protocol() { return protocol_; }
  const P& protocol() const { return protocol_; }
  const Counters& counters() const { return counters_; }
  const FaultSpec& faults() const { return spec_; }
  const Topology& topology() const { return topology_; }

  std::uint64_t interactions() const { return interactions_; }
  double parallel_time() const {
    return static_cast<double>(interactions_) /
           static_cast<double>(population_size());
  }

  // Agent crashed by the last step's end-of-slot churn draw, or -1. At
  // most one agent can crash per slot (the countdown fires once).
  std::int64_t last_crashed() const { return last_crashed_; }

  std::vector<std::uint64_t> state_counts() const
    requires EnumerableProtocol<P>
  {
    std::vector<std::uint64_t> counts(protocol_.num_states(), 0);
    for (const State& s : states_) ++counts[protocol_.encode(s)];
    return counts;
  }

  // One slot of the per-slot law. Every fault draw is guarded by its knob,
  // so an all-zero FaultSpec replays the undecorated Simulation<P> stream
  // bit for bit.
  AgentPair step() {
    const AgentPair pair = topology_.sample(rng_);
    const bool dropped = spec_.drop > 0.0 && rng_.unit() < spec_.drop;
    if (!dropped) {
      if (spec_.oneway > 0.0 && rng_.unit() < spec_.oneway) {
        State a = states_[pair.initiator];
        State b = states_[pair.responder];
        invoke_interact(protocol_, a, b, rng_, counters_);
        states_[pair.initiator] = a;  // the responder's reply is lost
      } else {
        invoke_interact(protocol_, states_[pair.initiator],
                        states_[pair.responder], rng_, counters_);
      }
    }
    ++interactions_;
    last_crashed_ = -1;
    if (crash_countdown_ > 0 && --crash_countdown_ == 0) {
      const auto victim =
          static_cast<std::uint32_t>(rng_.below(population_size()));
      if constexpr (ChurnableProtocol<P>)
        states_[victim] = protocol_.churn_state();
      last_crashed_ = victim;
      crash_countdown_ = sample_geometric(rng_, crash_q_);
    }
    return pair;
  }

  void run(std::uint64_t count) {
    for (std::uint64_t k = 0; k < count; ++k) step();
  }

  template <class Done>
  bool run_until(Done&& done, std::uint64_t max_interactions) {
    while (interactions_ < max_interactions) {
      step();
      if (done(*this)) return true;
    }
    return false;
  }

 private:
  P protocol_;
  std::vector<State> states_;
  Topology topology_;
  Rng rng_;
  FaultSpec spec_;
  double crash_q_ = 0.0;
  std::uint64_t crash_countdown_ = 0;  // slots until the next crash; 0 = never
  std::int64_t last_crashed_ = -1;
  std::uint64_t interactions_ = 0;
  [[no_unique_address]] Counters counters_{};
};

// Engines that inject churn outside the scheduled pair (FaultySimulation):
// trackers following an agent-array engine must also re-read the crashed
// agent after each step.
template <class E>
concept ChurnReportingEngine = requires(const E e) {
  { e.last_crashed() } -> std::convertible_to<std::int64_t>;
};

}  // namespace ppsim
