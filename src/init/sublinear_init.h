// Adversarial initial conditions for Sublinear-Time-SSR (Protocols 5-8).
//
// The SlAdversary enum + free functions are the historical API (moved here
// from analysis/adversary.h); sublinear_inits() wraps them as the named
// InitialConditionSet the Scenario API dispatches on. All generators are
// agent-array only: the protocol's quasi-exponential state space is not
// enumerable, so there is no count form.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "init/initial_condition.h"
#include "protocols/sublinear.h"

namespace ppsim {

enum class SlAdversary {
  kUniformRandom,    // random names/rosters/trees/roles (valid states)
  kCorrectRanked,    // unique names, full rosters, lex ranks, bare trees
  kDuplicateNames,   // two agents share a name (the Lemma 5.6 workload)
  kGhostNames,       // unique names, a ghost entry planted in rosters
  kPoisonedTrees,    // unique names + fabricated histories (Lemma 5.5)
  kMidReset,         // everyone in a random Resetting state
  kPostWave,         // instant after a reset wave: everyone freshly recruited
  kAllSameName,      // every agent has the same name
  kShortNames,       // partially regenerated names
};

inline const char* to_string(SlAdversary a) {
  switch (a) {
    case SlAdversary::kUniformRandom: return "uniform-random";
    case SlAdversary::kCorrectRanked: return "correct-ranked";
    case SlAdversary::kDuplicateNames: return "duplicate-names";
    case SlAdversary::kGhostNames: return "ghost-names";
    case SlAdversary::kPoisonedTrees: return "poisoned-trees";
    case SlAdversary::kMidReset: return "mid-reset";
    case SlAdversary::kPostWave: return "post-wave";
    case SlAdversary::kAllSameName: return "all-same-name";
    case SlAdversary::kShortNames: return "short-names";
  }
  return "?";
}

inline Name random_name(Rng& rng, std::uint32_t len) {
  return Name::from_bits(rng(), len);
}

// Distinct full-length names for the whole population.
inline std::vector<Name> distinct_names(std::uint32_t count,
                                        std::uint32_t len, Rng& rng) {
  std::vector<Name> names;
  names.reserve(count);
  while (names.size() < count) {
    const Name cand = random_name(rng, len);
    bool dup = false;
    for (const auto& existing : names)
      if (existing == cand) {
        dup = true;
        break;
      }
    if (!dup) names.push_back(cand);
  }
  return names;
}

// A fabricated (but structurally valid: sibling-unique) history tree of the
// given depth, drawing node labels from `pool` and random syncs/timers, some
// live and some expired.
inline HistoryNodePtr random_history_node(const Name& label,
                                          const std::vector<Name>& pool,
                                          std::uint32_t depth, Rng& rng,
                                          const SublinearParams& p) {
  std::vector<HistoryEdge> kids;
  if (depth > 0) {
    const std::uint32_t fanout = static_cast<std::uint32_t>(rng.below(3));
    for (std::uint32_t k = 0; k < fanout; ++k) {
      const Name child_label = pool[rng.below(pool.size())];
      bool dup = false;
      for (const auto& e : kids)
        if (e.name == child_label) {
          dup = true;
          break;
        }
      if (dup) continue;
      HistoryEdge e;
      e.name = child_label;
      e.sync = rng.range(1, p.smax);
      // Owner frame starts at ops = 0; expiries in [-th, +th]: half expired.
      e.expiry = static_cast<std::int64_t>(rng.below(2 * p.th + 1)) -
                 static_cast<std::int64_t>(p.th);
      e.shift = 0;
      e.child = random_history_node(child_label, pool, depth - 1, rng, p);
      kids.push_back(std::move(e));
    }
  }
  return std::make_shared<const HistoryNode>(label, std::move(kids));
}

// Rosters are collected as plain name lists in draw order and built once
// (Roster::from_names), so a start costs O(n log n) per agent, not one
// copy-on-write insert per name.
inline std::vector<SublinearTimeSSR::State> sublinear_config(
    const SublinearParams& p, SlAdversary kind, std::uint64_t seed) {
  Rng rng(seed);
  const std::uint32_t n = p.n;
  const SublinearTimeSSR proto(p);
  std::vector<SublinearTimeSSR::State> states(n);

  auto collecting = [&](const Name& name) {
    return proto.make_collecting(name);
  };
  auto names = distinct_names(n, p.name_len, rng);

  // A correct ranked configuration over `names`: full rosters, lex ranks.
  auto make_ranked = [&] {
    const Roster full = Roster::from_names(names);
    for (std::uint32_t i = 0; i < n; ++i) {
      states[i] = collecting(names[i]);
      states[i].roster = full;
      states[i].rank = full.lexicographic_rank(names[i]);
    }
  };

  switch (kind) {
    case SlAdversary::kUniformRandom:
      for (std::uint32_t i = 0; i < n; ++i) {
        if (rng.below(4) == 0) {  // Resetting
          auto& s = states[i];
          s.role = SlRole::Resetting;
          s.resetcount = static_cast<std::uint32_t>(rng.below(p.rmax + 1));
          s.delaytimer = static_cast<std::uint32_t>(rng.below(p.dmax + 1));
          s.name = rng.coin() ? Name()
                              : random_name(rng, static_cast<std::uint32_t>(
                                                     rng.below(p.name_len)));
        } else {  // Collecting with random roster/tree/rank
          const Name nm = rng.coin() ? names[i] : names[rng.below(n)];
          auto& s = states[i];
          s = collecting(nm);
          const std::uint64_t extra = rng.below(n);
          std::vector<Name> heard{nm};
          heard.reserve(extra + 1);
          for (std::uint64_t k = 0; k < extra; ++k) {
            // Mix of real names and arbitrary bitstrings (possible ghosts).
            heard.push_back(rng.coin() ? names[rng.below(n)]
                                       : random_name(rng, p.name_len));
          }
          s.roster = Roster::from_names(std::move(heard));
          s.rank = static_cast<std::uint32_t>(rng.range(1, n));
          s.tree.install(
              random_history_node(nm, names,
                                  std::min<std::uint32_t>(p.depth_h, 3), rng,
                                  p),
              0);
        }
      }
      break;
    case SlAdversary::kCorrectRanked:
      make_ranked();
      break;
    case SlAdversary::kDuplicateNames: {
      names[1] = names[0];  // a collision; rosters see n-1 distinct names
      for (std::uint32_t i = 0; i < n; ++i)
        states[i] = collecting(names[i]);
      break;
    }
    case SlAdversary::kGhostNames: {
      // Unique names, but partial rosters with a planted ghost entry: the
      // roll call will push the union over n (Lemma 5.3). Rosters stay
      // within the |roster| <= n field bound — the ghost displaces a real
      // name the agent has "not heard yet".
      const Name ghost = [&] {
        while (true) {
          const Name g = random_name(rng, p.name_len);
          bool clash = false;
          for (const auto& nm : names)
            if (nm == g) clash = true;
          if (!clash) return g;
        }
      }();
      // Draws stop once an agent has heard all n names; `heard_by` marks
      // the names agent i has drawn so far (names are distinct).
      std::vector<std::uint32_t> heard_by(n, n);
      for (std::uint32_t i = 0; i < n; ++i) {
        states[i] = collecting(names[i]);
        std::vector<Name> heard{names[i]};
        heard_by[i] = i;
        const std::uint64_t extra = rng.below(n - 1);
        for (std::uint64_t k = 0; k < extra && heard.size() < n; ++k) {
          const auto j = static_cast<std::uint32_t>(rng.below(n));
          if (heard_by[j] == i) continue;
          heard_by[j] = i;
          heard.push_back(names[j]);
        }
        if (i < std::max<std::uint32_t>(1, n / 4) && heard.size() < n)
          heard.push_back(ghost);
        states[i].roster = Roster::from_names(std::move(heard));
      }
      states[0].roster = Roster::singleton(names[0]);  // room for the ghost
      states[0].roster.insert(ghost);
      break;
    }
    case SlAdversary::kPoisonedTrees:
      make_ranked();
      for (std::uint32_t i = 0; i < n; ++i)
        states[i].tree.install(
            random_history_node(names[i], names,
                                std::min<std::uint32_t>(p.depth_h, 3), rng,
                                p),
            0);
      break;
    case SlAdversary::kMidReset:
      for (auto& s : states) {
        s.role = SlRole::Resetting;
        s.resetcount = static_cast<std::uint32_t>(rng.below(p.rmax + 1));
        s.delaytimer = static_cast<std::uint32_t>(rng.below(p.dmax + 1));
        s.name = Name();
      }
      break;
    case SlAdversary::kPostWave:
      // Deterministic: the exact recruit() state (resetcount = 0,
      // delaytimer = Dmax, nameless, bare tree). No rng draws, so the
      // configuration is seed-independent — it mirrors the count-form
      // generator and anchors the count-vs-array drain equivalence tests.
      for (auto& s : states) {
        s.role = SlRole::Resetting;
        s.resetcount = 0;
        s.delaytimer = p.dmax;
        s.name = Name();
      }
      break;
    case SlAdversary::kAllSameName:
      for (std::uint32_t i = 0; i < n; ++i) states[i] = collecting(names[0]);
      break;
    case SlAdversary::kShortNames:
      for (std::uint32_t i = 0; i < n; ++i) {
        const auto len =
            static_cast<std::uint32_t>(rng.below(p.name_len));
        states[i] = collecting(Name::from_bits(rng(), len));
      }
      break;
  }
  return states;
}

// Named generator catalog for the Scenario API (agent-array only).
inline const InitialConditionSet<SublinearTimeSSR>& sublinear_inits() {
  using P = SublinearTimeSSR;
  auto from_kind = [](SlAdversary kind) {
    return [kind](const P& p, std::uint64_t seed) {
      return sublinear_config(p.params(), kind, seed);
    };
  };
  auto describe = [](SlAdversary kind) {
    switch (kind) {
      case SlAdversary::kUniformRandom:
        return "random names/rosters/trees/roles (valid states)";
      case SlAdversary::kCorrectRanked:
        return "unique names, full rosters, lex ranks, bare trees";
      case SlAdversary::kDuplicateNames:
        return "two agents share a name (Lemma 5.6 workload)";
      case SlAdversary::kGhostNames:
        return "unique names, ghost entry planted in rosters (Lemma 5.3)";
      case SlAdversary::kPoisonedTrees:
        return "unique names + fabricated histories (Lemma 5.5)";
      case SlAdversary::kMidReset:
        return "everyone in a random Resetting state";
      case SlAdversary::kPostWave:
        return "instant after a reset wave: everyone freshly recruited";
      case SlAdversary::kAllSameName:
        return "every agent has the same name";
      case SlAdversary::kShortNames:
        return "partially regenerated names";
    }
    return "?";
  };
  static const InitialConditionSet<P> set = [describe, from_kind] {
    InitialConditionSet<P> s;
    for (SlAdversary kind :
         {SlAdversary::kUniformRandom, SlAdversary::kCorrectRanked,
          SlAdversary::kDuplicateNames, SlAdversary::kGhostNames,
          SlAdversary::kPoisonedTrees, SlAdversary::kMidReset,
          SlAdversary::kPostWave, SlAdversary::kAllSameName,
          SlAdversary::kShortNames})
      s.add({to_string(kind), describe(kind), from_kind(kind), nullptr});
    return s;
  }();
  return set;
}

}  // namespace ppsim
