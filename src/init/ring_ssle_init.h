// Adversarial initial conditions for the directed-ring SS-LE protocol.
//
// Self-stabilization on the ring quantifies over every assignment of
// (leader, dist, bullet, shield) to every position — and on a ring,
// *position* is part of the configuration, so the agent-array form is the
// primary one (the count form, used by clique engines and the round-trip
// tests, is its encoding and deliberately forgets placement).
#pragma once

#include <cstdint>
#include <vector>

#include "core/rng.h"
#include "init/initial_condition.h"
#include "protocols/ring_ssle.h"

namespace ppsim {

inline const InitialConditionSet<RingSSLE>& ring_ssle_inits() {
  using P = RingSSLE;
  // Every generator is agents-first; the count form encodes the same
  // configuration (same Rng draws by construction: it is the same call).
  auto counts_of = [](const P& p,
                      std::vector<P::State> agents) {
    std::vector<std::uint64_t> counts(p.num_states(), 0);
    for (const P::State& s : agents) ++counts[p.encode(s)];
    return counts;
  };
  static const InitialConditionSet<P> set = [counts_of] {
    InitialConditionSet<P> s;
    auto uniform_random = [](const P& p, std::uint64_t seed) {
      Rng rng(seed);
      const std::uint32_t n = p.population_size();
      std::vector<P::State> init(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        init[i].leader = rng.below(2) != 0;
        init[i].dist = static_cast<std::uint32_t>(rng.below(p.cap() + 1));
        init[i].bullet = rng.below(2) != 0;
        init[i].shield = rng.below(2) != 0;
      }
      return init;
    };
    s.add({"uniform-random",
           "every field of every agent uniformly random (junk leaders, "
           "bullets, shields, distances)",
           uniform_random,
           [counts_of, uniform_random](const P& p, std::uint64_t seed) {
             return counts_of(p, uniform_random(p, seed));
           }});
    // One unshielded leader at position 0, followers carrying their true
    // distances: the converged configuration mid-cycle (the survivor is
    // about to re-fire). Exactly one active edge at the start and O(1)
    // forever — the ring count engine's showcase regime.
    auto coherent = [](const P& p, std::uint64_t) {
      const std::uint32_t n = p.population_size();
      std::vector<P::State> init(n);
      init[0].leader = true;
      for (std::uint32_t i = 1; i < n; ++i) init[i].dist = i;
      return init;
    };
    s.add({"coherent",
           "one unshielded leader at position 0, followers at their true "
           "distances, no bullets",
           coherent,
           [counts_of, coherent](const P& p, std::uint64_t seed) {
             return counts_of(p, coherent(p, seed));
           }});
    auto many_leaders = [](const P& p, std::uint64_t) {
      std::vector<P::State> init(p.population_size());
      for (auto& a : init) a.leader = true;
      return init;
    };
    s.add({"many-leaders", "every agent an unshielded leader",
           many_leaders,
           [counts_of, many_leaders](const P& p, std::uint64_t seed) {
             return counts_of(p, many_leaders(p, seed));
           }});
    // No leader anywhere, every agent carrying a stale bullet and a junk
    // shield: exercises both recovery mechanisms at once (bullet
    // depletion + distance-timeout promotion).
    auto stale_bullets = [](const P& p, std::uint64_t) {
      const std::uint32_t n = p.population_size();
      std::vector<P::State> init(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        init[i].dist = i % (p.cap() + 1);
        init[i].bullet = true;
        init[i].shield = true;
      }
      return init;
    };
    s.add({"stale-bullets",
           "no leaders, every agent holding a stale bullet and shield",
           stale_bullets,
           [counts_of, stale_bullets](const P& p, std::uint64_t seed) {
             return counts_of(p, stale_bullets(p, seed));
           }});
    // Two coherent half-ring domains: the minimal elimination duel.
    auto two_leaders = [](const P& p, std::uint64_t) {
      const std::uint32_t n = p.population_size();
      const std::uint32_t half = n / 2;
      std::vector<P::State> init(n);
      init[0].leader = true;
      init[half].leader = true;
      for (std::uint32_t i = 1; i < half; ++i) init[i].dist = i;
      for (std::uint32_t i = half + 1; i < n; ++i) init[i].dist = i - half;
      return init;
    };
    s.add({"two-leaders",
           "unshielded leaders at positions 0 and n/2, coherent domains",
           two_leaders,
           [counts_of, two_leaders](const P& p, std::uint64_t seed) {
             return counts_of(p, two_leaders(p, seed));
           }});
    return s;
  }();
  return set;
}

}  // namespace ppsim
