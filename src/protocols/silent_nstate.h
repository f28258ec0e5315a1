// Silent-n-state-SSR (Protocol 1) — the Cai–Izumi–Wada baseline.
//
// Each agent holds rank in {0..n-1}; when the initiator and responder agree,
// the responder moves up one rank mod n. This solves self-stabilizing ranking
// with exactly n states (optimal, Theorem 2.1) but needs Theta(n^2) parallel
// time (Theorem 2.4): progress requires the two colliding agents to meet
// directly, a Theta(n) wait, n-1 times in the worst case.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/rng.h"

namespace ppsim {

class SilentNStateSSR {
 public:
  struct State {
    std::uint32_t rank = 0;  // {0..n-1}, the paper's Protocol 1 convention
  };

  // All progress happens on the diagonal: interact() only changes state
  // when initiator.rank == responder.rank, so the batched backend may
  // geometric-skip every unequal-rank draw (core/batch_simulation.h).
  static constexpr bool kActiveRequiresEqualStates = true;

  // interact() never reads the Rng: transitions are cacheable per ordered
  // state-code pair.
  static constexpr bool kDeterministicInteract = true;

  explicit SilentNStateSSR(std::uint32_t n) : n_(n) {
    if (n < 2) throw std::invalid_argument("population size must be >= 2");
  }

  std::uint32_t population_size() const { return n_; }

  // EnumerableProtocol: Q = {0..n-1}, coded by the rank itself.
  std::uint32_t num_states() const { return n_; }
  std::uint32_t encode(const State& s) const { return s.rank; }
  State decode(std::uint32_t code) const { return State{code}; }

  void interact(State& initiator, State& responder, Rng&) const {
    if (initiator.rank == responder.rank)
      responder.rank = (responder.rank + 1) % n_;
  }

  // Ranking output in the paper's formal {1..n} convention.
  std::uint32_t rank_of(const State& s) const { return s.rank + 1; }

  // ChurnableProtocol: a freshly booted agent starts at rank 0. With n
  // states there is no "unranked" value — a crash lands on whatever rank 0
  // holds, and self-stabilization resolves the duplicate from there.
  State churn_state() const { return State{0}; }

  // A pair is null iff the ranks differ; a configuration in which every pair
  // is null is silent, and the silent configurations are exactly the
  // permutations.
  bool is_null_pair(const State& a, const State& b) const {
    return a.rank != b.rank;
  }

 private:
  std::uint32_t n_;
};

// The worst-case initial configuration from Theorem 2.4's lower bound:
// two agents at rank 0, one agent at each rank 1..n-2, none at rank n-1.
// From here stabilization requires n-1 consecutive bottleneck meetings and
// E[interactions] = (n-1) * C(n,2) exactly.
inline std::vector<SilentNStateSSR::State> silent_nstate_worst_config(
    std::uint32_t n) {
  if (n < 2) throw std::invalid_argument("population size must be >= 2");
  std::vector<SilentNStateSSR::State> states(n);
  states[0].rank = 0;
  states[1].rank = 0;
  for (std::uint32_t i = 2; i < n; ++i) states[i].rank = i - 1;
  return states;
}

// Rank-count vector of the worst-case configuration (counts[r] = agents
// at rank r).
inline std::vector<std::uint32_t> silent_nstate_worst_counts(
    std::uint32_t n) {
  std::vector<std::uint32_t> counts(n, 1);
  counts[0] = 2;
  counts[n - 1] = 0;
  return counts;
}

// Exact expectation of the stabilization interaction count from the
// worst-case configuration (Theorem 2.4): (n-1) * n(n-1)/2.
inline double silent_nstate_worst_expected_interactions(std::uint32_t n) {
  const double c2 = static_cast<double>(n) * (n - 1) / 2.0;
  return static_cast<double>(n - 1) * c2;
}

}  // namespace ppsim
