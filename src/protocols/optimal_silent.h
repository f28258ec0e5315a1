// Optimal-Silent-SSR (Protocols 3 and 4, Section 4).
//
// A silent self-stabilizing ranking protocol with O(n) states and O(n)
// expected parallel time — both optimal for silent protocols (Observation
// 2.6). Structure:
//
//   * Errors trigger Propagate-Reset (Protocol 2): either two Settled agents
//     collide on a rank, or an Unsettled agent waits Emax = Theta(n)
//     interactions without receiving one.
//   * The reset's dormant phase is stretched to Dmax = Theta(n), during which
//     all Resetting agents run the slow leader election L,L -> L,F (every
//     agent enters the Resetting role as L), so the population awakens with a
//     unique leader with constant probability (Lemma 4.2).
//   * Upon Reset, the leader becomes Settled with rank 1 and everyone else
//     Unsettled; Settled agents then recruit Unsettled agents into a full
//     binary tree of ranks (children of rank i are 2i and 2i+1), which
//     completes in O(n) time (Lemma 4.1, Figure 1).
//
// interact() is a pure (const) transition function; per-interaction events
// are reported into an engine-owned Counters instance (ObservableProtocol).
//
// The protocol is enumerable: the state space is coded canonically into
// 3n + (Emax+1) + 2 Rmax + 2 (Dmax+1) = 35n + O(log n) codes (with the
// standard constants), and it exposes the keyed-passive structure
// (passive = Settled, key = rank) that lets BatchSimulation geometric-skip
// the null stretches of mostly-Settled configurations — the regime that
// dominates both the stable phase and the Observation 2.6 detection-latency
// experiments.
//
// Erratum note: Protocol 3 line 9 reads "2*i.rank + i.children < n", which
// with 1-based ranks would never assign rank n (contradicting Figure 1, where
// rank 12 is assigned for n = 12). We use <= n, so the tree assigns exactly
// the ranks 1..n.
#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/protocol.h"
#include "core/rng.h"
#include "reset/propagate_reset.h"

namespace ppsim {

enum class OsRole : std::uint8_t { Settled, Unsettled, Resetting };

struct OptimalSilentParams {
  std::uint32_t n = 0;
  std::uint32_t emax = 0;  // Unsettled patience, Theta(n)
  std::uint32_t dmax = 0;  // dormant delay, Theta(n)
  std::uint32_t rmax = 0;  // reset wave height, Theta(log n)

  // Defaults validated by tests and stressed by bench/bench_ablations. The
  // paper's proof constants (Rmax = 60 ln n and unspecified Theta(n)'s) are
  // deliberately generous; these are the smallest round values at which the
  // per-epoch success probability stays high at simulable sizes.
  static OptimalSilentParams standard(std::uint32_t n) {
    if (n < 2) throw std::invalid_argument("population size must be >= 2");
    const std::uint64_t emax = 16ull * n;
    const std::uint64_t dmax = 8ull * n;
    const std::uint64_t rmax = static_cast<std::uint64_t>(
        std::ceil(8.0 * std::log(static_cast<double>(n)))) + 4;
    check_code_space(n, emax, dmax, rmax);
    OptimalSilentParams p;
    p.n = n;
    p.emax = static_cast<std::uint32_t>(emax);
    p.dmax = static_cast<std::uint32_t>(dmax);
    p.rmax = static_cast<std::uint32_t>(rmax);
    return p;
  }

  // State codes are 32-bit. The code space 3n + (Emax+1) + 2 Rmax +
  // 2 (Dmax+1) (OptimalSilentSSR::encode) is computed in 64 bits and must
  // fit, which also bounds every constant; with the standard constants it
  // stops fitting just past n = 1.227e8.
  static void check_code_space(std::uint64_t n, std::uint64_t emax,
                               std::uint64_t dmax, std::uint64_t rmax) {
    ppsim::check_code_space("optimal-silent",
                            3 * n + (emax + 1) + 2 * rmax + 2 * (dmax + 1));
  }
};

class OptimalSilentSSR {
 public:
  struct State {
    OsRole role = OsRole::Unsettled;
    // Settled fields.
    std::uint32_t rank = 0;      // {1..n}
    std::uint8_t children = 0;   // {0,1,2}
    // Unsettled fields.
    std::uint32_t errorcount = 0;  // {0..Emax}
    // Resetting fields.
    bool leader = false;           // L = true, F = false
    std::uint32_t resetcount = 0;  // {0..Rmax}
    std::uint32_t delaytimer = 0;  // {0..Dmax}, meaningful when resetcount=0
  };

  // Engine-owned per-interaction event counters (ObservableProtocol).
  struct Counters {
    std::uint64_t collision_triggers = 0;  // line 5: two Settled, same rank
    std::uint64_t timeout_triggers = 0;    // line 16: errorcount hit 0
    std::uint64_t resets_executed = 0;     // Protocol 4 invocations
    std::uint64_t recruits = 0;            // binary-tree rank assignments
  };

  // interact() never reads the Rng (Protocol 3 is a deterministic
  // transition table).
  static constexpr bool kDeterministicInteract = true;

  explicit OptimalSilentSSR(OptimalSilentParams params) : params_(params) {
    if (params.n < 2) throw std::invalid_argument("population size >= 2");
    if (params.emax == 0 || params.dmax == 0 || params.rmax == 0)
      throw std::invalid_argument("constants must be positive");
    OptimalSilentParams::check_code_space(params.n, params.emax, params.dmax,
                                          params.rmax);
  }

  std::uint32_t population_size() const { return params_.n; }
  const OptimalSilentParams& params() const { return params_; }

  // Protocol 3, for initiator a and responder b.
  void interact(State& a, State& b, Rng&, Counters& c) const {
    // Lines 1-4: resetting machinery plus the slow leader election.
    if (a.role == OsRole::Resetting || b.role == OsRole::Resetting) {
      ResetView<OptimalSilentSSR, Counters> host{*this, c};
      propagate_reset_step(host, a, b);
      if (a.role == OsRole::Resetting && b.role == OsRole::Resetting &&
          a.leader && b.leader) {
        b.leader = false;  // L,L -> L,F
      }
    }
    // Lines 5-7: rank-collision detection between Settled agents.
    if (a.role == OsRole::Settled && b.role == OsRole::Settled &&
        a.rank == b.rank) {
      ++c.collision_triggers;
      trigger_reset(a);
      trigger_reset(b);
    }
    // Lines 8-12: binary-tree rank assignment.
    assign_rank(a, b, c);
    assign_rank(b, a, c);
    // Lines 13-18: Unsettled patience countdown.
    for (State* i : {&a, &b}) {
      if (i->role != OsRole::Unsettled) continue;
      if (i->errorcount > 0) --i->errorcount;
      if (i->errorcount == 0) {
        // Lines 16-18 re-trigger both agents unconditionally (even one
        // already Resetting): a fresh error restarts the wave.
        ++c.timeout_triggers;
        trigger_reset(a);
        trigger_reset(b);
      }
    }
  }

  std::uint32_t rank_of(const State& s) const {
    return s.role == OsRole::Settled ? s.rank : 0;
  }

  // ChurnableProtocol: a freshly booted agent is Unsettled with full
  // patience — the same state Reset gives every non-leader (Protocol 4),
  // so a crashed agent rejoins exactly like a freshly reset one.
  State churn_state() const {
    State s;
    s.role = OsRole::Unsettled;
    s.errorcount = params_.emax;
    return s;
  }

  // The stable configuration (all Settled, distinct ranks) is silent: every
  // pair of distinct-rank Settled states has only the null transition.
  bool is_null_pair(const State& a, const State& b) const {
    return a.role == OsRole::Settled && b.role == OsRole::Settled &&
           a.rank != b.rank;
  }

  // --- EnumerableProtocol: canonical state coding ---------------------------
  //
  // Codes normalize away every field the state's role provably never reads
  // before rewriting it: Settled keeps (rank, children); Unsettled keeps
  // errorcount; Resetting keeps (leader, resetcount) plus delaytimer only
  // when dormant (resetcount = 0) — while the wave is propagating
  // (resetcount > 0) the timer is dead state, always reinitialized to Dmax
  // on the transition to dormancy (Protocol 2 line 7). The projected
  // dynamics are therefore exactly the agent-array dynamics (cross-validated
  // in tests/engine_equivalence_test.cpp).

  std::uint32_t num_states() const {
    return settled_codes() + unsettled_codes() + 2 * params_.rmax +
           2 * (params_.dmax + 1);
  }

  std::uint32_t encode(const State& s) const {
    switch (s.role) {
      case OsRole::Settled:
        if (s.rank < 1 || s.rank > params_.n || s.children > 2)
          throw std::invalid_argument("invalid Settled state");
        return (s.rank - 1) * 3 + s.children;
      case OsRole::Unsettled:
        if (s.errorcount > params_.emax)
          throw std::invalid_argument("invalid Unsettled state");
        return settled_codes() + s.errorcount;
      case OsRole::Resetting: {
        if (s.resetcount > params_.rmax)
          throw std::invalid_argument("invalid Resetting state");
        const std::uint32_t base = settled_codes() + unsettled_codes();
        if (s.resetcount > 0)  // propagating: delaytimer is dead state
          return base + 2 * (s.resetcount - 1) + (s.leader ? 1u : 0u);
        if (s.delaytimer > params_.dmax)
          throw std::invalid_argument("invalid dormant Resetting state");
        return base + 2 * params_.rmax + 2 * s.delaytimer +
               (s.leader ? 1u : 0u);
      }
    }
    throw std::invalid_argument("invalid role");
  }

  State decode(std::uint32_t code) const {
    State s;
    if (code < settled_codes()) {
      s.role = OsRole::Settled;
      s.rank = code / 3 + 1;
      s.children = static_cast<std::uint8_t>(code % 3);
      return s;
    }
    code -= settled_codes();
    if (code < unsettled_codes()) {
      s.role = OsRole::Unsettled;
      s.errorcount = code;
      return s;
    }
    code -= unsettled_codes();
    s.role = OsRole::Resetting;
    if (code < 2 * params_.rmax) {
      s.resetcount = code / 2 + 1;
      s.leader = (code % 2) != 0;
      s.delaytimer = 0;
    } else {
      code -= 2 * params_.rmax;
      if (code >= 2 * (params_.dmax + 1))
        throw std::invalid_argument("state code out of range");
      s.resetcount = 0;
      s.delaytimer = code / 2;
      s.leader = (code % 2) != 0;
    }
    return s;
  }

  // --- KeyedPassiveProtocol: null iff both Settled with distinct ranks. ----
  bool is_passive(const State& s) const { return s.role == OsRole::Settled; }
  std::uint32_t passive_key(const State& s) const { return s.rank - 1; }
  std::uint32_t num_passive_keys() const { return params_.n; }
  std::vector<std::uint32_t> passive_fiber(std::uint32_t key) const {
    // The three Settled states with rank key+1 (children 0, 1, 2).
    return {3 * key, 3 * key + 1, 3 * key + 2};
  }

  // --- ResetHost hooks for propagate_reset_step (Protocol 2). ---
  bool is_resetting(const State& s) const {
    return s.role == OsRole::Resetting;
  }
  std::uint32_t& reset_count(State& s) const { return s.resetcount; }
  std::uint32_t& delay_timer(State& s) const { return s.delaytimer; }
  // "All agents set themselves to L upon entering the Resetting role"
  // (Section 4), so the dormant phase runs leader election over everyone.
  void recruit(State& s) const {
    s.role = OsRole::Resetting;
    s.resetcount = 0;
    s.delaytimer = params_.dmax;
    s.leader = true;
  }
  // Protocol 4: Reset(a).
  void reset_agent(State& s, Counters& c) const {
    ++c.resets_executed;
    if (s.leader) {
      s.role = OsRole::Settled;
      s.rank = 1;
      s.children = 0;
    } else {
      s.role = OsRole::Unsettled;
      s.errorcount = params_.emax;
    }
  }
  std::uint32_t dmax() const { return params_.dmax; }

 private:
  std::uint32_t settled_codes() const { return 3 * params_.n; }
  std::uint32_t unsettled_codes() const { return params_.emax + 1; }

  // Lines 8-12 for the ordered role pair (settled recruiter i, candidate j).
  void assign_rank(State& i, State& j, Counters& c) const {
    if (i.role == OsRole::Settled && j.role == OsRole::Unsettled &&
        i.children < 2 &&
        2ull * i.rank + i.children <= params_.n) {  // erratum: <= (see above)
      j.role = OsRole::Settled;
      j.children = 0;
      j.rank = 2 * i.rank + i.children;
      ++i.children;
      ++c.recruits;
    }
  }

  void trigger_reset(State& s) const {
    s.role = OsRole::Resetting;
    s.resetcount = params_.rmax;
    s.delaytimer = 0;
    s.leader = true;
  }

  OptimalSilentParams params_;
};

}  // namespace ppsim
