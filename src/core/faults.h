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
// Per-slot law (identical on every engine). The agent array runs it slot
// by slot and is the ground truth (Simulation::set_faults,
// core/simulation.h); the count engines compile it exactly (see
// core/batch_simulation.h and core/ring_simulation.h):
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

#include "core/protocol.h"

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
// envelope (the abstracted honesty pattern — but unlike abstracted
// records, faulted records keep the full bit-determinism contract: seeded
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

}  // namespace ppsim
