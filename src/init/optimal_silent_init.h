// Adversarial initial conditions for Optimal-Silent-SSR (Protocols 3-4).
//
// The OsAdversary enum + free functions are the historical API (moved here
// from analysis/adversary.h); optimal_silent_inits() wraps them as the
// named InitialConditionSet the Scenario API dispatches on, adding the
// count-native `dormant-mix` start (the timer-heavy workload, O(1)
// occupied states at any n) and the Lemma 4.1 `single-leader` start.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/rng.h"
#include "init/initial_condition.h"
#include "protocols/optimal_silent.h"

namespace ppsim {

enum class OsAdversary {
  kUniformRandom,      // every field uniform over its valid range
  kAllLeaders,         // everyone Settled at rank 1 ("all leaders")
  kAllUnsettledZero,   // everyone Unsettled with exhausted patience
  kDuplicateRank,      // correct ranking except one duplicated rank
  kAllPropagating,     // everyone mid-reset with resetcount > 0
  kAllDormant,         // everyone dormant with random delay timers
  kCorrectRanking,     // the unique silent configuration (stability check)
};

inline const char* to_string(OsAdversary a) {
  switch (a) {
    case OsAdversary::kUniformRandom: return "uniform-random";
    case OsAdversary::kAllLeaders: return "all-leaders";
    case OsAdversary::kAllUnsettledZero: return "all-unsettled-0";
    case OsAdversary::kDuplicateRank: return "duplicate-rank";
    case OsAdversary::kAllPropagating: return "all-propagating";
    case OsAdversary::kAllDormant: return "all-dormant";
    case OsAdversary::kCorrectRanking: return "correct-ranking";
  }
  return "?";
}

// Number of children rank r has in the full binary tree over ranks {1..n}.
inline std::uint8_t binary_tree_children(std::uint32_t rank,
                                         std::uint32_t n) {
  std::uint8_t c = 0;
  if (2ull * rank <= n) ++c;
  if (2ull * rank + 1 <= n) ++c;
  return c;
}

inline std::vector<OptimalSilentSSR::State> optimal_silent_config(
    const OptimalSilentParams& p, OsAdversary kind, std::uint64_t seed) {
  Rng rng(seed);
  const std::uint32_t n = p.n;
  std::vector<OptimalSilentSSR::State> states(n);
  auto settled = [&](std::uint32_t rank, std::uint8_t children) {
    OptimalSilentSSR::State s;
    s.role = OsRole::Settled;
    s.rank = rank;
    s.children = children;
    return s;
  };
  switch (kind) {
    case OsAdversary::kUniformRandom:
      for (auto& s : states) {
        switch (rng.below(3)) {
          case 0:
            s = settled(static_cast<std::uint32_t>(rng.range(1, n)),
                        static_cast<std::uint8_t>(rng.below(3)));
            break;
          case 1:
            s.role = OsRole::Unsettled;
            s.errorcount = static_cast<std::uint32_t>(rng.below(p.emax + 1));
            break;
          default:
            s.role = OsRole::Resetting;
            s.leader = rng.coin();
            s.resetcount =
                static_cast<std::uint32_t>(rng.below(p.rmax + 1));
            s.delaytimer =
                static_cast<std::uint32_t>(rng.below(p.dmax + 1));
            break;
        }
      }
      break;
    case OsAdversary::kAllLeaders:
      for (auto& s : states) s = settled(1, 0);
      break;
    case OsAdversary::kAllUnsettledZero:
      for (auto& s : states) {
        s.role = OsRole::Unsettled;
        s.errorcount = 0;
      }
      break;
    case OsAdversary::kDuplicateRank:
      for (std::uint32_t i = 0; i < n; ++i)
        states[i] = settled(i + 1, binary_tree_children(i + 1, n));
      states[1] = states[0];  // rank 1 duplicated, rank 2 missing
      break;
    case OsAdversary::kAllPropagating:
      for (auto& s : states) {
        s.role = OsRole::Resetting;
        s.leader = rng.coin();
        s.resetcount = static_cast<std::uint32_t>(rng.range(1, p.rmax));
        s.delaytimer = 0;
      }
      break;
    case OsAdversary::kAllDormant:
      for (auto& s : states) {
        s.role = OsRole::Resetting;
        s.leader = rng.coin();
        s.resetcount = 0;
        s.delaytimer = static_cast<std::uint32_t>(rng.range(1, p.dmax));
      }
      break;
    case OsAdversary::kCorrectRanking:
      for (std::uint32_t i = 0; i < n; ++i)
        states[i] = settled(i + 1, binary_tree_children(i + 1, n));
      break;
  }
  return states;
}

// Count-vector configuration for the batched backend: the post-wave
// configuration of a successful reset epoch — every agent dormant with a
// full delay timer (delaytimer = Dmax), `leaders` of them still holding the
// leader bit. This is the paper's timer-heavy regime: every interaction
// decrements two delay timers, so every interaction is effective and the
// geometric skip degenerates to one-by-one simulation (auto runs it on the
// count engine's array arm). O(|Q|) to build, no agent array.
inline std::vector<std::uint64_t> optimal_silent_dormant_counts(
    const OptimalSilentParams& p, std::uint32_t leaders = 1) {
  if (leaders > p.n) throw std::invalid_argument("leaders > population");
  const OptimalSilentSSR proto(p);
  std::vector<std::uint64_t> counts(proto.num_states(), 0);
  OptimalSilentSSR::State s;
  s.role = OsRole::Resetting;
  s.resetcount = 0;
  s.delaytimer = p.dmax;
  s.leader = true;
  counts[proto.encode(s)] = leaders;
  s.leader = false;
  counts[proto.encode(s)] = p.n - leaders;
  return counts;
}

// Named generator catalog for the Scenario API.
inline const InitialConditionSet<OptimalSilentSSR>& optimal_silent_inits() {
  using P = OptimalSilentSSR;
  auto from_kind = [](OsAdversary kind) {
    return [kind](const P& p, std::uint64_t seed) {
      return optimal_silent_config(p.params(), kind, seed);
    };
  };
  auto describe = [](OsAdversary kind) {
    switch (kind) {
      case OsAdversary::kUniformRandom:
        return "every field of every agent uniform over its valid range";
      case OsAdversary::kAllLeaders:
        return "everyone Settled at rank 1 (n leaders)";
      case OsAdversary::kAllUnsettledZero:
        return "everyone Unsettled with exhausted patience";
      case OsAdversary::kDuplicateRank:
        return "correct ranking except rank 1 duplicated (Observation 2.6 "
               "detection workload)";
      case OsAdversary::kAllPropagating:
        return "everyone mid-reset with resetcount > 0";
      case OsAdversary::kAllDormant:
        return "everyone dormant with a random delay timer";
      case OsAdversary::kCorrectRanking:
        return "the unique silent configuration (stability check)";
    }
    return "?";
  };
  static const InitialConditionSet<P> set = [describe, from_kind] {
    InitialConditionSet<P> s;
    for (OsAdversary kind :
         {OsAdversary::kUniformRandom, OsAdversary::kAllLeaders,
          OsAdversary::kAllUnsettledZero, OsAdversary::kDuplicateRank,
          OsAdversary::kAllPropagating, OsAdversary::kAllDormant,
          OsAdversary::kCorrectRanking})
      s.add({to_string(kind), describe(kind), from_kind(kind), nullptr});
    s.add({"dormant-mix",
           "post-wave reset epoch: everyone dormant at delaytimer = Dmax, "
           "one leader bit set (timer-heavy; 2 occupied states at any n)",
           nullptr,
           [](const P& p, std::uint64_t) {
             return optimal_silent_dormant_counts(p.params());
           }});
    s.add({"single-leader",
           "one Settled leader at rank 1, everyone else Unsettled at full "
           "patience (Lemma 4.1 binary-tree ranking start)",
           [](const P& p, std::uint64_t) {
             const auto& params = p.params();
             std::vector<P::State> init(params.n);
             init[0].role = OsRole::Settled;
             init[0].rank = 1;
             init[0].children = 0;
             for (std::uint32_t j = 1; j < params.n; ++j) {
               init[j].role = OsRole::Unsettled;
               init[j].errorcount = params.emax;
             }
             return init;
           },
           [](const P& p, std::uint64_t) {
             const auto& params = p.params();
             std::vector<std::uint64_t> counts(p.num_states(), 0);
             P::State leader;
             leader.role = OsRole::Settled;
             leader.rank = 1;
             leader.children = 0;
             counts[p.encode(leader)] = 1;
             P::State follower;
             follower.role = OsRole::Unsettled;
             follower.errorcount = params.emax;
             counts[p.encode(follower)] = params.n - 1;
             return counts;
           }});
    return s;
  }();
  return set;
}

}  // namespace ppsim
