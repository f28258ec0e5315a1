// Directed-ring self-stabilizing leader election (ring-ssle).
//
// The first non-clique protocol of the repo (ROADMAP item 1): SS-LE on the
// directed ring topology, after Yokota–Sudo–Masuzawa (arXiv 2009.10926),
// who give a time-optimal self-stabilizing leader-election protocol for
// directed rings. This implementation reproduces that paper's mechanism
// set — distance-counting timeout for leader creation, forward-travelling
// bullets that kill unshielded leaders, shields that make the unique
// survivor immortal — in this repo's protocol vocabulary; constants,
// tie-breaking and the rival-evidence rule below are this codebase's
// choices, validated empirically by the adversarial-start suites in
// tests/topology_test.cpp rather than transcribed line by line from the
// paper. One deliberate deviation: the paper works from any upper bound
// N >= n, while this implementation instantiates the bound tightly
// (cap = n, enforced by the constructor) because its rival detector is
// the distance channel itself, whose threshold must separate "nearest
// upstream leader at distance <= n-1" from "my own domain wrapped the
// whole ring (distance exactly n)".
//
// State per agent: (leader, dist, bullet, shield), dist in [0, cap]. For
// a follower, dist counts from the nearest upstream leader; for a leader,
// the same field is its fire countdown. On the directed edge u -> v
// (u initiates, v responds), with src = 0 if u leads else u.dist:
//
//   1. countdown firing: an unshielded leader u with dist 0 fires — a
//      fresh bullet departs toward v, the shield goes up, and the
//      countdown resets to cap. An unshielded leader with dist > 0 just
//      ticks it down; a shielded leader is parked. Firing is therefore
//      throttled to once per ~cap*n interactions, the same timescale as a
//      bullet's full circulation.
//   2. distance counting: a non-leader v learns dist = min(cap, src + 1).
//      Reaching cap is the timeout: no leader upstream within the bound,
//      so v promotes itself (dist 0, unshielded — it fires on its first
//      initiation). A leader v instead reads src + 1 < cap as evidence of
//      a rival upstream (a true solo leader's predecessor always carries
//      dist n - 1) and drops its shield.
//   3. bullets travel with the edge direction: a bullet on u (or fired by
//      u this step) arrives at v. A non-leader v carries it onward; a
//      leader v absorbs it with its shield (shield drops) or, unshielded,
//      is killed by it (demoted to a follower at dist src + 1).
//
// Why it stabilizes:
//   * no leaders: the ring's minimum dist only ever increases (every
//     update writes pred.dist + 1), so some agent times out at cap and
//     promotes — leaders are recreated.
//   * two+ leaders: some leader's gap to its upstream rival is < n, so
//     rule 2 keeps its shield down and the next arriving bullet kills it;
//     no multi-leader configuration is ever silent (an unshielded leader
//     ticking its countdown is a state change, and some leader is always
//     unshielded or some follower promotes), so bullets keep coming and
//     leaders are eliminated in O(n) expected parallel time per duel.
//   * the survivor is immortal: once distances heal, its predecessor
//     announces src + 1 = n = cap (no evidence, shield stays). If its own
//     bullet is in flight, that bullet was fired exactly when the shield
//     went up and is absorbed exactly when it returns — shield up whenever
//     a bullet arrives, deterministically. If the bullet that killed the
//     last rival was its only one, nothing lowers the shield again.
//   * stale junk: bullets are only consumed at leaders and only created
//     by firing, so adversarial bullets strictly deplete; adversarial
//     shields on followers are canonicalized away by any interaction.
//
// Stabilized configurations come in two kinds, and the protocol is not
// silent in general. If the survivor's own bullet still circulates, the
// survivor re-fires it forever, with O(1) active edges (the bullet front or
// the ticking countdown edge) — exactly what the ring count engine's
// active-edge set (core/ring_simulation.h) exploits. If its last bullet was
// spent on the last rival, one shielded leader remains with no bullet in
// flight, every ring edge is null, and the configuration is silent: the
// ring engine proves it (step() == 0) in about 5% of uniform-random n = 64
// starts (RingSSLEScenario.CompressedSilenceIsRealSilence).
#pragma once

#include <cstdint>
#include <stdexcept>

#include "core/rng.h"

namespace ppsim {

class RingSSLE {
 public:
  struct State {
    bool leader = false;
    std::uint32_t dist = 0;  // follower: distance from the nearest
                             // upstream leader; leader: fire countdown
    bool bullet = false;     // a bullet currently sits on this agent
    bool shield = false;     // leaders only (canonicalized off followers)

    bool operator==(const State&) const = default;
  };

  // interact() never reads the Rng: transitions are pure functions of the
  // ordered state pair (ring-edge nullity probing).
  static constexpr bool kDeterministicInteract = true;

  explicit RingSSLE(std::uint32_t n, std::uint32_t cap = 0)
      : n_(n), cap_(cap == 0 ? n : cap) {
    if (n < 2) throw std::invalid_argument("population size must be >= 2");
    if (cap_ != n)
      throw std::invalid_argument(
          "ring-ssle needs cap == n: this implementation instantiates the "
          "paper's bound N tightly because the distance channel doubles as "
          "the rival detector (see the header comment)");
    if (cap_ > (1u << 28))
      throw std::invalid_argument("ring-ssle cap too large (> 2^28)");
  }

  std::uint32_t population_size() const { return n_; }
  std::uint32_t cap() const { return cap_; }

  // EnumerableProtocol: code = dist * 8 + leader*4 + bullet*2 + shield.
  std::uint32_t num_states() const { return 8 * (cap_ + 1); }
  std::uint32_t encode(const State& s) const {
    return s.dist * 8 + (s.leader ? 4u : 0u) + (s.bullet ? 2u : 0u) +
           (s.shield ? 1u : 0u);
  }
  State decode(std::uint32_t code) const {
    State s;
    s.dist = code / 8;
    s.leader = (code & 4) != 0;
    s.bullet = (code & 2) != 0;
    s.shield = (code & 1) != 0;
    return s;
  }

  void interact(State& a, State& b, Rng&) const { apply(a, b); }

  // Exact nullity by trial application — interact() is deterministic, so
  // "would this ordered pair change anything" is a pure O(1) probe.
  bool is_null_pair(const State& a, const State& b) const {
    State a2 = a, b2 = b;
    apply(a2, b2);
    return a2 == a && b2 == b;
  }

  // ChurnableProtocol: a freshly booted agent is a plain follower at
  // distance 0 — self-stabilization absorbs it like any adversarial state.
  State churn_state() const { return State{}; }

  bool is_leader(const State& s) const { return s.leader; }

 private:
  void apply(State& a, State& b) const {
    const std::uint32_t src = a.leader ? 0 : a.dist;
    const bool fires = a.leader && !a.shield && a.dist == 0;
    const bool incoming = a.bullet || fires;
    const std::uint32_t d = src + 1 >= cap_ ? cap_ : src + 1;
    // Initiator, rule 1: countdown firing. The bullet (if any) departs; a
    // firing leader raises its shield and resets the countdown; a shielded
    // leader is parked; adversarial follower shields are canonicalized.
    a.bullet = false;
    if (a.leader) {
      if (!a.shield) {
        if (a.dist == 0) {
          a.shield = true;  // fires
          a.dist = cap_;
        } else {
          a.dist -= 1;  // ticking toward the next shot
        }
      }
    } else {
      a.shield = false;
    }
    // Responder, rule 2: distance counting / timeout promotion / rival
    // evidence.
    if (!b.leader) {
      if (d >= cap_) {
        b.leader = true;  // timeout: no leader within the bound upstream
        b.dist = 0;       // fires on its first initiation
        b.shield = false;
      } else {
        b.dist = d;
        b.shield = false;
      }
    } else if (d < cap_) {
      // A rival leader sits < n upstream (a true solo leader's
      // predecessor always announces src + 1 = n = cap): drop the shield
      // so the next bullet kills.
      b.shield = false;
    }
    // Responder, rule 3: bullet arrival (after the evidence rule, so a
    // bullet riding in with fresh rival evidence kills).
    if (incoming) {
      if (b.leader) {
        if (b.shield) {
          b.shield = false;  // absorbed
        } else {
          b.leader = false;  // killed
          b.shield = false;
          b.dist = d;
        }
      } else {
        b.bullet = true;  // carried onward
      }
    }
  }

  std::uint32_t n_;
  std::uint32_t cap_;
};

}  // namespace ppsim
