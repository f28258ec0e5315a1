// Sublinear-Time-SSR (Protocols 5 and 6, Section 5).
//
// Self-stabilizing ranking in O(H * n^{1/(H+1)}) expected time for constant
// H, and O(log n) — optimal — for H = Theta(log n), at the price of a
// quasi-exponential state space. Each agent holds:
//
//   name   - a random bitstring of length 3*log2(n), regenerated bit-by-bit
//            while dormant during a reset;
//   roster - the set of all names heard of, spread by union (the roll call
//            process): when |roster| = n the agent's rank is its name's
//            lexicographic position, and |roster| > n proves a "ghost name"
//            and triggers a reset;
//   tree   - the interaction-history tree used by Detect-Name-Collision to
//            find two agents with the same name without waiting Theta(n)
//            time for them to meet (collision_tree.h).
//
// Since any sublinear-time SSLE protocol must be non-silent (Observation
// 2.6), the trees keep changing forever even after ranks stabilize; safety
// (no false collision is ever declared from a uniquely-named configuration
// reached after a clean reset) is Lemma 5.4/5.5, exercised in the tests.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "common/intlog.h"
#include "common/name.h"
#include "common/roster.h"
#include "core/rng.h"
#include "processes/synthetic_coin.h"
#include "protocols/collision_tree.h"
#include "reset/propagate_reset.h"

namespace ppsim {

enum class SlRole : std::uint8_t { Collecting, Resetting };

struct SublinearParams {
  std::uint32_t n = 0;
  std::uint32_t depth_h = 1;   // H: history-path length bound
  std::uint32_t name_len = 3;  // 3 * ceil(log2 n)
  std::uint64_t smax = 1;      // sync range, Theta(n^2)
  std::uint32_t th = 1;        // edge timer T_H = Theta(tau_{H+1})
  std::uint32_t rmax = 1;      // reset wave height, Theta(log n)
  std::uint32_t dmax = 1;      // dormant delay, Theta(log n)
  bool use_synthetic_coin = false;  // Section 6 derandomization of name bits
  bool direct_check = true;         // see CollisionDetectorParams

  // H = Theta(log n): the time-optimal O(log n) configuration
  // (Table 1 row 3; TH = Theta(log n) by Lemma 2.11).
  static SublinearParams log_time(std::uint32_t n) {
    SublinearParams p = base(n);
    p.depth_h = 3 * ceil_log2(n);
    p.th = static_cast<std::uint32_t>(std::ceil(6.0 * std::log(n))) + 4;
    return p;
  }

  // Constant H: the O(H * n^{1/(H+1)}) configuration (Table 1 row 4;
  // TH = Theta(H * n^{1/(H+1)}) by Lemma 2.10 with k = H+1).
  static SublinearParams constant_h(std::uint32_t n, std::uint32_t h) {
    if (h < 1) throw std::invalid_argument("H must be >= 1");
    SublinearParams p = base(n);
    p.depth_h = h;
    p.th = static_cast<std::uint32_t>(std::ceil(
               4.0 * (h + 1) *
               std::pow(static_cast<double>(n), 1.0 / (h + 1)))) +
           4;
    return p;
  }

  // Kept as a member so existing callers (`SublinearParams::ceil_log2`)
  // still resolve; forwards to the shared helper in common/intlog.h.
  static std::uint32_t ceil_log2(std::uint32_t n) {
    return ppsim::ceil_log2(n);
  }

 private:
  static SublinearParams base(std::uint32_t n) {
    if (n < 2) throw std::invalid_argument("population size must be >= 2");
    SublinearParams p;
    p.n = n;
    p.name_len = Name::full_length(n);
    p.smax = static_cast<std::uint64_t>(n) * n;
    const auto logn = std::log(static_cast<double>(n));
    p.rmax = static_cast<std::uint32_t>(std::ceil(8.0 * logn)) + 4;
    // Dormancy must outlast the wave (Lemma 3.3 requires Dmax =
    // Omega(log n + Rmax)) and leave room to regenerate name_len bits (one
    // per dormant interaction; the constructor adds headroom when the
    // synthetic coin is enabled, which needs ~4 interactions per bit).
    p.dmax = 2 * p.rmax + 2 * p.name_len +
             static_cast<std::uint32_t>(std::ceil(4.0 * logn)) + 8;
    return p;
  }
};

class SublinearTimeSSR {
 public:
  struct State {
    SlRole role = SlRole::Collecting;
    Name name;
    // Collecting fields.
    std::uint32_t rank = 0;  // write-only output, {1..n}
    Roster roster;
    HistoryTree tree;
    // Resetting fields.
    std::uint32_t resetcount = 0;  // {0..Rmax}
    std::uint32_t delaytimer = 0;  // {0..Dmax}
    // Synthetic-coin phase (Section 6); toggled every interaction.
    CoinPhase coin;
  };

  // Engine-owned per-interaction event counters (ObservableProtocol); the
  // collision detector's instrumentation rides along in `detector`.
  struct Counters {
    std::uint64_t collision_triggers = 0;
    std::uint64_t ghost_triggers = 0;
    std::uint64_t resets_executed = 0;
    std::uint64_t rank_updates = 0;
    std::uint64_t coin_bits = 0;
    std::uint64_t coin_waits = 0;  // interactions a bit-needing agent waited
    CollisionDetectorStats detector;
  };

  explicit SublinearTimeSSR(SublinearParams params)
      : params_(adjusted(params)), detector_(detector_params(params_)) {
    if (params.n < 2) throw std::invalid_argument("population size >= 2");
    if (params.smax < 1 || params.th < 1 || params.rmax < 1 ||
        params.dmax < 1)
      throw std::invalid_argument("constants must be positive");
  }

  std::uint32_t population_size() const { return params_.n; }
  const SublinearParams& params() const { return params_; }

  // A fully-initialized Collecting state, as produced by Reset.
  State make_collecting(const Name& name) const {
    State s;
    s.role = SlRole::Collecting;
    s.name = name;
    s.roster = Roster::singleton(name);
    s.tree.reset(name);
    return s;
  }

  // Protocol 5, for agent a interacting with agent b.
  void interact(State& a, State& b, Rng& rng, Counters& c) const {
    if (a.role == SlRole::Collecting && b.role == SlRole::Collecting) {
      assert(a.tree.initialized() && b.tree.initialized());
      // Line 2: collision detection (which also performs the tree exchange
      // when no collision is found) and the ghost-name cardinality check,
      // which one roster pass does together with the line 5 union.
      const bool collision =
          detector_.detect_and_update(a.tree, b.tree, rng, c.detector);
      if (collision) ++c.collision_triggers;
      bool ghost = false;
      if (!collision) {
        ghost = !Roster::unite(a.roster, b.roster, params_.n);
        if (ghost) ++c.ghost_triggers;
      }
      if (collision || ghost) {
        trigger_reset(a);  // line 3
        trigger_reset(b);
      } else {
        // Lines 6-8: ranks only once every name is collected.
        if (a.roster.size() == params_.n) {
          a.rank = a.roster.lexicographic_rank(a.name);
          b.rank = b.roster.lexicographic_rank(b.name);
          c.rank_updates += 2;
        }
      }
    } else {
      // Line 10: some agent is Resetting.
      ResetView<SublinearTimeSSR, Counters> host{*this, c};
      propagate_reset_step(host, a, b);
      // Lines 11-12: clear names while the reset wave is propagating.
      for (State* i : {&a, &b})
        if (i->role == SlRole::Resetting && i->resetcount > 0)
          i->name.clear();
      // Lines 13-14: dormant agents regenerate their name bit by bit.
      for (State* i : {&a, &b}) {
        if (i->role != SlRole::Resetting || i->resetcount != 0 ||
            i->name.length() >= params_.name_len)
          continue;
        if (params_.use_synthetic_coin) {
          ++c.coin_waits;  // bit arrives only on an Alg-Flip meeting
        } else {
          i->name.append_bit(rng.coin());
          ++c.coin_bits;
        }
      }
      if (params_.use_synthetic_coin) harvest_coin_bits(a, b, c);
    }
    // Section 6 time multiplexing: every agent alternates Alg/Flip on every
    // interaction, regardless of role.
    if (params_.use_synthetic_coin) {
      a.coin.flip_phase = !a.coin.flip_phase;
      b.coin.flip_phase = !b.coin.flip_phase;
    }
  }

  std::uint32_t rank_of(const State& s) const {
    return s.role == SlRole::Collecting ? s.rank : 0;
  }

  // Sublinear-Time-SSR is non-silent: a Collecting pair always refreshes
  // history trees.
  bool is_null_pair(const State&, const State&) const { return false; }

  // --- ResetHost hooks for propagate_reset_step (Protocol 2). ---
  bool is_resetting(const State& s) const {
    return s.role == SlRole::Resetting;
  }
  std::uint32_t& reset_count(State& s) const { return s.resetcount; }
  std::uint32_t& delay_timer(State& s) const { return s.delaytimer; }
  void recruit(State& s) const {
    s.role = SlRole::Resetting;
    s.resetcount = 0;
    s.delaytimer = params_.dmax;
  }
  // Protocol 6: Reset(a). The history tree restarts from the bare root —
  // required by the safety argument (Lemma 5.4 reasons from agents that
  // "start with an empty tree" after awakening).
  void reset_agent(State& s, Counters& c) const {
    ++c.resets_executed;
    s.role = SlRole::Collecting;
    s.roster = Roster::singleton(s.name);
    s.tree.reset(s.name);
  }
  std::uint32_t dmax() const { return params_.dmax; }

 private:
  // The synthetic coin yields ~1 bit per 4 interactions, so the dormant
  // phase needs proportionally more headroom to finish a name.
  static SublinearParams adjusted(SublinearParams p) {
    if (p.use_synthetic_coin) p.dmax += 6 * p.name_len;
    return p;
  }

  static CollisionDetectorParams detector_params(const SublinearParams& p) {
    CollisionDetectorParams d;
    d.depth_h = p.depth_h;
    d.smax = p.smax;
    d.th = p.th;
    d.direct_check = p.direct_check;
    // Root edges dead for more than (H+6) * TH operations can no longer be
    // needed as verification material (frame skew per hop is O(TH) whp);
    // pruning them bounds the per-agent memory. See "dead-edge pruning" in
    // collision_tree.h.
    d.prune_window = static_cast<std::uint64_t>(p.depth_h + 6) * p.th;
    return d;
  }

  void trigger_reset(State& s) const {
    s.role = SlRole::Resetting;
    s.resetcount = params_.rmax;
    s.delaytimer = 0;
  }

  // Section 6: an agent in role Alg whose partner is in role Flip harvests
  // one unbiased bit (heads iff it initiated). `a` is the initiator.
  void harvest_coin_bits(State& a, State& b, Counters& c) const {
    auto needs_bit = [&](const State& s) {
      return s.role == SlRole::Resetting && s.resetcount == 0 &&
             s.name.length() < params_.name_len;
    };
    const bool a_alg = !a.coin.flip_phase;
    const bool b_alg = !b.coin.flip_phase;
    if (a_alg && !b_alg && needs_bit(a)) {
      a.name.append_bit(true);  // Alg initiated: heads
      ++c.coin_bits;
    }
    if (b_alg && !a_alg && needs_bit(b)) {
      b.name.append_bit(false);  // Alg responded: tails
      ++c.coin_bits;
    }
  }

  SublinearParams params_;
  CollisionDetector detector_;
};

}  // namespace ppsim
