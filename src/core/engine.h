// The backend-agnostic Engine contract.
//
// Both simulation backends — the agent-array Simulation<P> and the
// count-based BatchSimulation<P> — satisfy the same structural concept:
// run / interactions / parallel_time / state_counts snapshot / counters.
// Every stop condition runs through one loop per engine family,
// run_until in analysis/convergence.h, written against these concepts, so
// every harness, bench and example can pick a backend per protocol and per
// population size instead of being hard-wired to one engine.
//
// The refinements capture what each backend can do *beyond* the shared
// contract:
//   AgentArrayEngine - exposes the explicit agent array and per-step
//                      (initiator, responder) pairs; works for every
//                      protocol and is the ground truth.
//   CountEngine      - the configuration IS the state-count vector; exposes
//                      the per-step count deltas so trackers can stay
//                      incremental, and step() returns the number of
//                      interactions consumed (0 = provably stuck/silent).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/protocol.h"
#include "core/scheduler.h"

namespace ppsim {

// How a count engine advances time between configuration changes:
//   kGeometricSkip - jump over provably-null stretches with one geometric
//                    draw, then simulate the next candidate interaction
//                    individually (optimal when effective interactions are
//                    rare: silent-heavy regimes, detection waits)
//   kAuto          - pick per step from the measured effective-interaction
//                    density (the active-weight fraction W / n(n-1) when the
//                    protocol exposes an exact active weight): geometric
//                    skip for sparse rounds, and for dense rounds an
//                    agent-code array held inside the count engine (see
//                    StrategyController::step_strategy)
//
// Both strategies are exact in distribution.
enum class BatchStrategy : std::uint8_t {
  kGeometricSkip,
  kAuto,
};

inline const char* to_string(BatchStrategy s) {
  switch (s) {
    case BatchStrategy::kGeometricSkip: return "geometric_skip";
    case BatchStrategy::kAuto: return "auto";
  }
  return "?";
}

// Parses the --strategy= spelling used by the bench binaries.
inline bool parse_strategy(const std::string& name, BatchStrategy& out) {
  if (name == "geometric_skip" || name == "geometric") {
    out = BatchStrategy::kGeometricSkip;
  } else if (name == "auto") {
    out = BatchStrategy::kAuto;
  } else {
    return false;
  }
  return true;
}

// One executable arm of the occupancy-adaptive strategy controller: the
// full space of ways a scenario step can be driven. kArray is the agent
// array: a whole-run engine choice (engine_arm), and under kAuto also a
// per-step arm of the count engine, which then simulates dense rounds on
// an internal agent-code array (BatchStrategy cannot pin it: it is never
// the faster arm outside the rounds the controller routes to it). There a
// step is one burst of interaction slots, which ends at the step's
// observer, at a verdict change, or after n slots without a change.
enum class StrategyArm : std::uint8_t {
  kArray = 0,
  kGeometricSkip = 1,
  kMultinomial = 2,  // never produced; kept until perfbench drops its column
};

inline constexpr std::size_t kStrategyArmCount = 3;

inline const char* to_string(StrategyArm a) {
  switch (a) {
    case StrategyArm::kArray: return "array";
    case StrategyArm::kGeometricSkip: return "geometric_skip";
    case StrategyArm::kMultinomial: return "multinomial";
  }
  return "?";
}

// Per-run record of which arm drove each step and how many interactions it
// consumed — the controller's decision trace, surfaced through
// ScenarioResult so benches can report what `auto` actually ran. A step on
// the count engine's array arm may be a burst (BatchSimulation::step(obs)):
// it counts once in steps[kArray], however many changes it made, and its
// interactions are counted in full.
struct StrategyTrace {
  std::array<std::uint64_t, kStrategyArmCount> steps{};
  std::array<std::uint64_t, kStrategyArmCount> interactions{};

  void note(StrategyArm arm, std::uint64_t consumed) {
    const auto i = static_cast<std::size_t>(arm);
    ++steps[i];
    interactions[i] += consumed;
  }

  void merge(const StrategyTrace& other) {
    for (std::size_t i = 0; i < kStrategyArmCount; ++i) {
      steps[i] += other.steps[i];
      interactions[i] += other.interactions[i];
    }
  }

  std::uint64_t total_steps() const {
    std::uint64_t s = 0;
    for (std::uint64_t v : steps) s += v;
    return s;
  }
};

// The measured strategy controller behind `auto`: maps the configuration's
// occupancy profile — population, occupied-code count and the exact
// active weight when the protocol declares structure — onto the
// arm that the measurements in README.md ("Occupancy regimes and strategy
// selection") show is fastest there. Every input is derived from the
// deterministic simulation state (never wall-clock), so decisions are a
// pure function of the seed and all bit-determinism contracts survive.
struct StrategyController {
  // Whole-run arm choice (engine_arm): dense starts — occupancy at least
  // n / kDenseOccupancyDivisor — defeat every count engine, because with
  // ~n occupied states each interaction pays hash/Fenwick traffic that the
  // agent array's two random array reads do not. Measured on the
  // uniform-random n = 10^6 worst case: array ~80 ns/interaction vs ~2 us
  // for the count engines. Below kDenseArrayMinPopulation the count
  // engine runs and step_strategy() routes its dense rounds, whatever the
  // occupancy.
  static constexpr std::uint64_t kDenseArrayMinPopulation = 4096;
  static constexpr std::uint64_t kDenseOccupancyDivisor = 8;

  // Count-engine effective-interaction density 1 / kSkipDensityDivisor
  // below which geometric skip beats simulating interactions one by one
  // (most interactions are null: jump them).
  static constexpr std::uint64_t kSkipDensityDivisor = 16;

  // step_strategy's threshold for one population, as an exact integer
  // (computed once per engine, then compared against the live active
  // weight with no floating point):
  //   dense <=> kSkipDensityDivisor * W >= n (n - 1)
  //         <=> W >= ceil(n (n - 1) / kSkipDensityDivisor).
  static std::uint64_t dense_weight(std::uint64_t n) {
    const std::uint64_t pairs = n < 2 ? 0 : n * (n - 1);
    return pairs / kSkipDensityDivisor +
           (pairs % kSkipDensityDivisor != 0 ? 1 : 0);
  }

  // Whole-run decision from the initial configuration, taken before an
  // engine is constructed: dense starts go to the agent array, everything
  // else to a count engine refined per step by step_strategy() (reported
  // as its sparse arm, kGeometricSkip).
  static StrategyArm engine_arm(std::uint64_t n, std::uint64_t occupancy) {
    if (n >= kDenseArrayMinPopulation &&
        occupancy * kDenseOccupancyDivisor >= n)
      return StrategyArm::kArray;
    return StrategyArm::kGeometricSkip;
  }

  // The same decision for a protocol with an exact structured active
  // weight W at the start: a start with many occupied codes but few
  // effective pairs (density below 1 / kSkipDensityDivisor, e.g.
  // Silent-n-state-SSR from uniform-random states) spends its run in null
  // stretches that only the count engine's geometric skip can jump, so it
  // stays on the count engine. A start dense in pairs but not in codes
  // stays there too: it may thin into long null stretches within a few
  // rounds (sublinear-*-count duplicate-names, whose detection wait the
  // skip jumps and the agent array would walk slot by slot), and where it
  // stays dense the count engine's array arm runs it.
  static StrategyArm engine_arm(std::uint64_t n, std::uint64_t occupancy,
                                std::uint64_t active_weight) {
    if (engine_arm(n, occupancy) == StrategyArm::kArray &&
        active_weight >= dense_weight(n))
      return StrategyArm::kArray;
    return StrategyArm::kGeometricSkip;
  }

  // Per-step count-engine choice for protocols with an exact structured
  // active weight W (effective-interaction density W / n(n-1)), against
  // `dense`, the population's dense_weight(): below it kGeometricSkip jumps
  // the null stretches; at or above it kArray, the count engine's internal
  // agent-code array, draws uniform agent pairs, one per interaction slot.
  static StrategyArm step_strategy(std::uint64_t dense,
                                   std::uint64_t active_weight) {
    return active_weight < dense ? StrategyArm::kGeometricSkip
                                 : StrategyArm::kArray;
  }
};

template <class E>
concept Engine = requires(E e, const E ce, std::uint64_t k) {
  typename E::State;
  { ce.population_size() } -> std::convertible_to<std::uint32_t>;
  { ce.interactions() } -> std::convertible_to<std::uint64_t>;
  { ce.parallel_time() } -> std::convertible_to<double>;
  { ce.protocol() };
  { ce.counters() };
  { e.run(k) };
};

// Engines whose configuration snapshot is the state-count vector and that
// report which counts the last effective step changed.
template <class E>
concept CountEngine = Engine<E> && requires(E e, const E ce) {
  { ce.state_counts() } -> std::convertible_to<const std::vector<std::uint64_t>&>;
  { ce.last_deltas() };
  { e.step() } -> std::convertible_to<std::uint64_t>;
};

// Engines that own an explicit agent array and schedule one ordered agent
// pair per step.
template <class E>
concept AgentArrayEngine = Engine<E> && requires(E e, const E ce) {
  { ce.states() };
  { e.step() } -> std::same_as<AgentPair>;
};

// Count engines with a runtime-selectable batching strategy. strategy() is
// the requested strategy; resolved_arm() is the arm the next step will
// actually run (under kAuto the StrategyController picks it from the
// measured effective-interaction density; a pinned strategy resolves to
// its own arm).
template <class E>
concept StrategyEngine = CountEngine<E> && requires(E e, const E ce,
                                                    BatchStrategy s) {
  { ce.strategy() } -> std::same_as<BatchStrategy>;
  { ce.resolved_arm() } -> std::same_as<StrategyArm>;
  { e.set_strategy(s) };
};

}  // namespace ppsim
