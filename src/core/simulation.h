// Generic agent-array simulation engine.
//
// A Protocol supplies a State type and a const interact(initiator,
// responder, rng[, counters]) transition; the engine owns the agent array,
// the scheduler, the RNG and the protocol's event counters, and accounts
// parallel time = interactions / n exactly as the paper defines it.
//
// Simulation<P> satisfies the Engine concept of core/engine.h (and
// AgentArrayEngine); it works for every protocol and is the ground truth
// the count-based backend is validated against, fault-free and under the
// fault law of core/faults.h (set_faults).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/faults.h"
#include "core/protocol.h"
#include "core/rng.h"
#include "core/scheduler.h"
#include "core/topology.h"

namespace ppsim {

template <Protocol P>
class Simulation {
 public:
  using State = typename P::State;
  using Counters = ProtocolCounters<P>;

  Simulation(P protocol, std::vector<State> initial, std::uint64_t seed)
      : Simulation(std::move(protocol), std::move(initial), seed,
                   Topology()) {}

  // Interaction-graph variant (core/topology.h): pairs are scheduled
  // uniformly over the topology's directed edges. The default (and an
  // explicit complete topology) replays UniformScheduler's draws bit for
  // bit, so the classical engine is the special case, not a sibling.
  Simulation(P protocol, std::vector<State> initial, std::uint64_t seed,
             Topology topology)
      : protocol_(std::move(protocol)),
        states_(std::move(initial)),
        topology_(topology.population_size() == 0
                      ? Topology::complete(protocol_.population_size())
                      : std::move(topology)),
        rng_(seed) {
    if (states_.size() != protocol_.population_size())
      throw std::invalid_argument(
          "initial configuration size != population size");
    if (topology_.population_size() != protocol_.population_size())
      throw std::invalid_argument(
          "topology population size != protocol population size");
  }

  std::uint32_t population_size() const {
    return protocol_.population_size();
  }
  const std::vector<State>& states() const { return states_; }
  std::vector<State>& mutable_states() { return states_; }
  P& protocol() { return protocol_; }
  const P& protocol() const { return protocol_; }
  const Topology& topology() const { return topology_; }
  Rng& rng() { return rng_; }

  // Fault injection (core/faults.h): the per-slot law, exact per agent.
  // Call before the first step; the crash countdown is drawn here, right
  // after seeding. An all-zero spec is a no-op: no fault draw is ever made,
  // so the fault-free stream is replayed bit for bit.
  void set_faults(const FaultSpec& faults) {
    const double q = faults.crash_probability(population_size());
    faults_ = faults;
    faults_active_ = faults.active();
    crash_q_ = 0.0;
    crash_countdown_ = 0;
    if (faults.churn > 0.0) {
      if constexpr (!ChurnableProtocol<P>)
        throw std::invalid_argument(
            "fault.churn needs a protocol with a churn_state()");
      crash_q_ = q;
      crash_countdown_ = sample_geometric(rng_, crash_q_);
    }
  }

  // Agent crashed by the last step's end-of-slot churn draw, or -1 (always
  // -1 without churn). A crash touches an agent outside the returned pair,
  // so trackers that follow the pair re-read this one too.
  std::int64_t last_crashed() const { return last_crashed_; }

  // Engine-side observer: per-interaction events reported by observable
  // protocols (empty for plain protocols).
  const Counters& counters() const { return counters_; }

  std::uint64_t interactions() const { return interactions_; }
  double parallel_time() const {
    return static_cast<double>(interactions_) /
           static_cast<double>(population_size());
  }

  // State-count snapshot in the enumerable protocol's coding — the bridge
  // to the count-based backend (O(n) scan; BatchSimulation keeps this
  // vector as its configuration).
  std::vector<std::uint64_t> state_counts() const
    requires EnumerableProtocol<P>
  {
    std::vector<std::uint64_t> counts(protocol_.num_states(), 0);
    for (const State& s : states_) ++counts[protocol_.encode(s)];
    return counts;
  }

  // Executes one interaction slot and returns the scheduled pair.
  AgentPair step() {
    const AgentPair pair = topology_.sample(rng_);
    if (faults_active_) return faulted_slot(pair);
    invoke_interact(protocol_, states_[pair.initiator],
                    states_[pair.responder], rng_, counters_);
    ++interactions_;
    return pair;
  }

  // Runs `count` interactions.
  void run(std::uint64_t count) {
    for (std::uint64_t k = 0; k < count; ++k) step();
  }

 private:
  // The rest of a slot under the fault law (core/faults.h): the pair is
  // lost with prob drop, else delivered one-way with prob oneway, else in
  // full; then one uniform agent crashes with prob churn / n, drawn as a
  // geometric countdown over slots. Each draw is guarded by its knob. Kept
  // out of line so that the fault-free step() stays as small as it was.
  [[gnu::noinline]] AgentPair faulted_slot(const AgentPair& pair) {
    const bool dropped = faults_.drop > 0.0 && rng_.unit() < faults_.drop;
    if (!dropped) {
      if (faults_.oneway > 0.0 && rng_.unit() < faults_.oneway) {
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

  P protocol_;
  std::vector<State> states_;
  Topology topology_;
  Rng rng_;
  FaultSpec faults_{};  // all-zero (and bit-transparent) unless set_faults()
  bool faults_active_ = false;
  double crash_q_ = 0.0;
  std::uint64_t crash_countdown_ = 0;  // slots until the next crash; 0 = never
  std::int64_t last_crashed_ = -1;
  std::uint64_t interactions_ = 0;
  [[no_unique_address]] Counters counters_{};
};

}  // namespace ppsim
