// Protocol-facing concepts shared by every simulation engine.
//
// A protocol is a *pure* transition function over pairs of states: interact()
// must be const. Protocols that want per-interaction instrumentation declare
// a nested Counters struct and take it as an extra interact() parameter; the
// engine owns the Counters instance (the "engine-side observer"), so the same
// protocol object can drive many engines — or many threads — at once.
//
// The concept ladder, from weakest to strongest:
//   Protocol            - const transition function (plain or observable)
//   RankingProtocol     - exposes rank_of() (the paper's SSR output)
//   EnumerableProtocol  - finite state space coded as [0, num_states())
//   NullPairProtocol    - can certify a pair as a no-op without randomness
//   DeterministicProtocol  - interact() never consumes randomness, so the
//                            batched engine may cache transitions per
//                            ordered state pair and apply them in bulk
//   DiagonalActiveProtocol - non-null pairs all have equal states
//   KeyedPassiveProtocol   - null pairs are exactly "both passive, keys differ"
//   UnkeyedPassiveProtocol - "both passive" is a *sufficient* condition for
//                            null (no key); all-passive configurations are
//                            silent
//   StructuredProtocol     - any of the three null structures above
#pragma once

#include <concepts>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/rng.h"

namespace ppsim {

// Transition function without instrumentation: interact(a, b, rng) const.
template <class P>
concept PlainProtocol =
    requires(const P p, typename P::State& a, typename P::State& b, Rng& rng) {
      { p.interact(a, b, rng) };
    };

// Transition function that reports events into a protocol-defined counter
// struct owned by the engine: interact(a, b, rng, counters) const.
template <class P>
concept ObservableProtocol =
    requires(const P p, typename P::State& a, typename P::State& b, Rng& rng,
             typename P::Counters& c) {
      typename P::Counters;
      { p.interact(a, b, rng, c) };
    };

// Minimal contract a protocol must satisfy to be simulated. The requires
// clauses bind a *const* protocol object on purpose: a non-const interact()
// (e.g. one mutating protocol-local counters) is rejected at compile time.
template <class P>
concept Protocol = requires(const P p) {
  typename P::State;
  { p.population_size() } -> std::convertible_to<std::uint32_t>;
} && (PlainProtocol<P> || ObservableProtocol<P>);

// Protocols that expose a ranking output (rank_of returns 0 for "no rank
// assigned yet").
template <class P>
concept RankingProtocol =
    Protocol<P> && requires(const P p, const typename P::State& s) {
      { p.rank_of(s) } -> std::convertible_to<std::uint32_t>;
    };

// A protocol whose finite state space can be enumerated: states are coded
// as integers in [0, num_states()), with encode/decode the bijection. A
// code may drop fields its state never reads before rewriting them
// (Optimal-Silent-SSR's canonical coding); every protocol query on a state
// (interact, is_null_pair, the passive structure, rank_of) must then give
// the same result as on decode(encode(state)). The count engine's array
// arm relies on this: it keeps each agent's state as interact() left it.
template <class P>
concept EnumerableProtocol =
    Protocol<P> && requires(const P p, const typename P::State& s,
                            std::uint32_t code) {
      { p.num_states() } -> std::convertible_to<std::uint32_t>;
      { p.encode(s) } -> std::convertible_to<std::uint32_t>;
      { p.decode(code) } -> std::same_as<typename P::State>;
    };

// State codes are 32-bit. An enumerable protocol computes its code space in
// 64 bits and checks it here before any count vector is sized from it: a
// wrapped num_states() would size every vector too small.
inline void check_code_space(const char* protocol, std::uint64_t codes) {
  if (codes > UINT32_MAX)
    throw std::invalid_argument(
        std::string(protocol) + " needs " + std::to_string(codes) +
        " state codes; 32-bit codes stop at " + std::to_string(UINT32_MAX));
}

// Protocols that can tell, deterministically and without consuming
// randomness, whether interact(a, b, .) would leave (a, b) unchanged.
template <class P>
concept NullPairProtocol =
    requires(const P p, const typename P::State& a, const typename P::State& b) {
      { p.is_null_pair(a, b) } -> std::convertible_to<bool>;
    };

// Protocols declaring (kDeterministicInteract = true) that interact() is a
// deterministic function of the two input states: it never reads the Rng.
// The multinomial batch kernel relies on this to memoize transitions per
// ordered (s1, s2) code pair and apply k repetitions as one count update.
template <class P>
concept DeterministicProtocol = Protocol<P> && bool(P::kDeterministicInteract);

// Protocols asserting that every non-null ordered pair has equal states
// (all progress happens on the diagonal of Q x Q). Enables the exact
// geometric fast-forward between effective interactions.
template <class P>
concept DiagonalActiveProtocol =
    NullPairProtocol<P> && P::kActiveRequiresEqualStates;

// Protocols whose null pairs are exactly {both states "passive" with
// different keys}: is_null_pair(a, b) must equal
//   is_passive(a) && is_passive(b) && passive_key(a) != passive_key(b).
// Diagonal protocols are the special case where every state is passive and
// the key is the state code itself. For Optimal-Silent-SSR, passive =
// Settled and the key is the rank: two Settled agents with distinct ranks
// never change, so the batched engine can geometric-skip entire
// Theta(n^2)-interaction stretches of a mostly-Settled population (this is
// what makes the Observation 2.6 detection-latency experiments feasible at
// n = 10^6+). passive_fiber(k) must list exactly the codes of the passive
// states whose key is k (small for all protocols in this repo).
template <class P>
concept KeyedPassiveProtocol =
    NullPairProtocol<P> && EnumerableProtocol<P> &&
    requires(const P p, const typename P::State& s, std::uint32_t k) {
      { p.is_passive(s) } -> std::convertible_to<bool>;
      { p.passive_key(s) } -> std::convertible_to<std::uint32_t>;
      { p.num_passive_keys() } -> std::convertible_to<std::uint32_t>;
      { p.passive_fiber(k) } -> std::convertible_to<std::vector<std::uint32_t>>;
    };

// Protocols declaring (kPassivePairsAreNull = true) the keyless passive
// structure: any interaction between two passive agents is null, and a
// configuration in which every agent is passive is therefore silent. Unlike
// the keyed structure this is only a *sufficient* null condition — pairs
// involving a non-passive agent may still be null and are simulated
// individually (exact either way). ResetProcess (passive = computing, an
// iff) and one-way epidemics (passive = infected, sufficient only) use it.
template <class P>
concept UnkeyedPassiveProtocol =
    NullPairProtocol<P> && EnumerableProtocol<P> &&
    bool(P::kPassivePairsAreNull) &&
    requires(const P p, const typename P::State& s) {
      { p.is_passive(s) } -> std::convertible_to<bool>;
    };

// Protocols declaring one of the three exact null structures above. The
// count engine keeps their active weight W (the number of ordered pairs
// that can change the configuration) current, so it can skip null
// stretches geometrically, certify silence (W = 0) and route on W's
// density; core/batch_kernels.h holds one kernel per structure.
template <class P>
concept StructuredProtocol = DiagonalActiveProtocol<P> ||
                             KeyedPassiveProtocol<P> ||
                             UnkeyedPassiveProtocol<P>;

// --- Engine-side counters plumbing -----------------------------------------

// Placeholder counters type for plain protocols (zero size in the engine).
struct NoCounters {};

namespace detail {
template <class P>
struct ProtocolCountersImpl {
  using type = NoCounters;
};
template <ObservableProtocol P>
struct ProtocolCountersImpl<P> {
  using type = typename P::Counters;
};
}  // namespace detail

// The counters struct an engine must own for protocol P.
template <class P>
using ProtocolCounters = typename detail::ProtocolCountersImpl<P>::type;

// Counters that support bulk accumulation: c.add_scaled(delta, k) must be
// equivalent to adding `delta` into `c` k times. Required for the
// multinomial batch kernel to cache the counter increments of a
// deterministic transition alongside its state outputs.
template <class C>
concept ScalableCounters =
    requires(C c, const C& delta, std::uint64_t k) { c.add_scaled(delta, k); };

// Applies one transition, routing counters to observable protocols.
template <Protocol P>
inline void invoke_interact(const P& p, typename P::State& a,
                            typename P::State& b, Rng& rng,
                            ProtocolCounters<P>& counters) {
  if constexpr (ObservableProtocol<P>) {
    p.interact(a, b, rng, counters);
  } else {
    (void)counters;
    p.interact(a, b, rng);
  }
}

}  // namespace ppsim
