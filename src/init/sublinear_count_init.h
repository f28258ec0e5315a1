// Adversarial initial conditions for the count-form Sublinear-Time-SSR
// abstraction (protocols/sublinear_count.h).
//
// The generator names shared with the agent-array catalog
// (init/sublinear_init.h) — duplicate-names, mid-reset, correct-ranked —
// produce the *projection* of the same adversarial distribution, so
// cross-form experiments can pair (init, seed) cells: mid-reset draws the
// identical per-agent (resetcount, delaytimer) law, duplicate-names plants
// the same two colliding names among n-2 unique ones, correct-ranked is the
// all-passive fixed point. Every generator emits both forms and consumes its
// Rng stream identically in both (the scenario round-trip contract).
#pragma once

#include <cstdint>
#include <vector>

#include "core/rng.h"
#include "init/initial_condition.h"
#include "protocols/sublinear_count.h"

namespace ppsim {

inline const InitialConditionSet<SublinearCountSSR>& sublinear_count_inits() {
  using P = SublinearCountSSR;
  using State = P::State;

  static const InitialConditionSet<P> set = [] {
    InitialConditionSet<P> s;

    // Two agents share a name, everyone Collecting with singleton rosters
    // and bare trees — the Lemma 5.6 detection workload. No Rng draws.
    s.add({"duplicate-names",
           "two agents share a name (Lemma 5.6 workload), singleton rosters",
           [](const P& p, std::uint64_t) {
             std::vector<State> out;
             out.reserve(p.population_size());
             for (std::uint32_t j = 0; j < 2; ++j) {
               State d;
               d.nc = p.dup_class(j);
               out.push_back(d);
             }
             State full;
             full.nc = p.full_class();
             for (std::uint32_t i = 2; i < p.population_size(); ++i)
               out.push_back(full);
             return out;
           },
           [](const P& p, std::uint64_t) {
             std::vector<std::uint64_t> counts(p.num_states(), 0);
             State d;
             d.nc = p.dup_class(0);
             counts[p.encode(d)] += 1;
             d.nc = p.dup_class(1);
             counts[p.encode(d)] += 1;
             if (p.population_size() > 2) {
               State full;
               full.nc = p.full_class();
               counts[p.encode(full)] += p.population_size() - 2;
             }
             return counts;
           }});

    // Everyone in a random Resetting state with an empty name — the same
    // per-agent (resetcount, delaytimer) law as the agent-array mid-reset
    // generator, which makes (mid-reset -> drained) the paired cell the
    // cross-form exactness tests run.
    s.add({"mid-reset",
           "everyone in a random Resetting state, names cleared",
           [](const P& p, std::uint64_t seed) {
             Rng rng(seed);
             const auto& pp = p.params();
             std::vector<State> out(p.population_size());
             for (auto& st : out) {
               st.role = SlRole::Resetting;
               st.resetcount =
                   static_cast<std::uint32_t>(rng.below(pp.rmax + 1));
               st.delaytimer =
                   static_cast<std::uint32_t>(rng.below(pp.dmax + 1));
               st.nc = 0;
             }
             return out;
           },
           [](const P& p, std::uint64_t seed) {
             Rng rng(seed);
             const auto& pp = p.params();
             std::vector<std::uint64_t> counts(p.num_states(), 0);
             State st;
             st.role = SlRole::Resetting;
             st.nc = 0;
             for (std::uint32_t i = 0; i < p.population_size(); ++i) {
               st.resetcount =
                   static_cast<std::uint32_t>(rng.below(pp.rmax + 1));
               st.delaytimer =
                   static_cast<std::uint32_t>(rng.below(pp.dmax + 1));
               ++counts[p.encode(st)];
             }
             return counts;
           }});

    // The all-passive fixed point: unique full names, rosters at cap. The
    // configuration is silent in count form (every pair is null), so it
    // anchors safety/ptime cells. No Rng draws.
    s.add({"correct-ranked",
           "unique full names, rosters at cap (the all-passive fixed point)",
           [](const P& p, std::uint64_t) {
             State st;
             st.nc = p.full_class();
             st.bucket = p.top_bucket();
             return std::vector<State>(p.population_size(), st);
           },
           [](const P& p, std::uint64_t) {
             std::vector<std::uint64_t> counts(p.num_states(), 0);
             State st;
             st.nc = p.full_class();
             st.bucket = p.top_bucket();
             counts[p.encode(st)] = p.population_size();
             return counts;
           }});

    // The instant after a reset wave has zeroed out: everyone dormant with a
    // fresh delay timer and an empty name — the regime where the dormant
    // conveyor dominates. No Rng draws.
    s.add({"post-wave",
           "everyone dormant at delaytimer = Dmax with an empty name",
           [](const P& p, std::uint64_t) {
             State st;
             st.role = SlRole::Resetting;
             st.resetcount = 0;
             st.delaytimer = p.params().dmax;
             st.nc = 0;
             return std::vector<State>(p.population_size(), st);
           },
           [](const P& p, std::uint64_t) {
             std::vector<std::uint64_t> counts(p.num_states(), 0);
             State st;
             st.role = SlRole::Resetting;
             st.resetcount = 0;
             st.delaytimer = p.params().dmax;
             st.nc = 0;
             counts[p.encode(st)] = p.population_size();
             return counts;
           }});

    return s;
  }();
  return set;
}

}  // namespace ppsim
