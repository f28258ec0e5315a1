// The one stop loop, on the backend-agnostic Engine contract
// (core/engine.h): every stop condition of the repo runs through
// run_until().
//
// Measures convergence/stabilization parallel time exactly as the paper
// defines it: the number of interactions after which the configuration is
// (stably) correct forever, divided by n. One clock serves every
// measurement, whatever "correct" means — a stop description (Stop below)
// names it as a per-agent census key plus an O(1) test:
//   * ranked   the rank fields form a permutation of 1..n;
//   * elected  exactly one agent is a leader;
//   * held     ranked, but the run measures how long the first correct
//              configuration lasts (see run_engine_until_held);
//   * events   a 0/1 key with a holder bound (no agent resetting, ...), or
//              no key and a test on the engine alone (a counter read); the
//              run stops at the first interaction where the event holds.
// The clock reads the configuration before the first interaction, then
// after every step. An event that holds at the start stops the run there;
// the "correct and held" stops take at least one step.
//
// For the silent protocols a correct configuration is provably silent, so
// the first entry into correctness is stabilization (optionally verified by
// an exhaustive null-pair check). Sublinear-Time-SSR is non-silent; there we
// record the *last* entry into correctness and additionally require the
// configuration to stay correct for a caller-chosen tail window (>= 3*TH
// parallel time: stale adversarial tree data can only cause a spurious reset
// while its timers are alive, Lemma 5.5). Ring leader election holds its
// unique leader for a window the same way.
//
// Two engine families, one step loop each, both feeding the same census
// (a RankTracker over the run's keys) and the same clock:
//   * AgentArrayEngine (Simulation<P>): the census follows per-agent shadow
//     keys for the two agents each step touches, plus the agent a churn
//     crash reset — O(1) per interaction.
//   * CountEngine (BatchSimulation<P>, RingSimulation<P>): the census starts
//     from a count scan and then follows the count deltas each step reports
//     (last_deltas()) — O(1) per configuration change, so whole
//     geometric-skipped null stretches cost nothing. Engines with an
//     observer form step(obs) (the array arm's bursts) run through it: the
//     census follows each agent change from the states handed over, and
//     the burst ends at every change that the clock must see, so results
//     equal a plain-step() loop's. Tail-window runs (tail_ptime > 0)
//     require the geometric_skip strategy, whose skipped stretches are
//     provably null — enforced below. A window that closes inside a null
//     stretch closes there, exactly as the per-interaction loop would see
//     it.
// A count engine that reports step() == 0 is provably stuck (silent): if the
// configuration is correct at that point it is stabilized forever.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/batch_simulation.h"
#include "core/engine.h"
#include "core/rank_tracker.h"
#include "core/simulation.h"

namespace ppsim {

struct RunOptions {
  std::uint64_t max_interactions = 0;  // hard horizon (required)
  double tail_ptime = 0.0;  // extra correct time demanded after last entry
  bool verify_silent = false;  // O(n^2) null-pair check at the end
};

struct RunResult {
  bool stabilized = false;
  double stabilization_ptime = -1.0;  // last entry into correctness
  double first_correct_ptime = -1.0;
  std::uint64_t interactions = 0;
  std::uint64_t correctness_breaks = 0;  // times correctness was lost again
};

// When a run stops: once correctness has held for the tail window (ranked,
// elected), at the first loss of correctness after the first entry (held),
// or at the first interaction, from the start on, where the configuration
// is correct (the events: detected, drained, complete, thinned, silent).
enum class StopRule { kHeldForTail, kFirstBreak, kFirstEntry };

namespace detail {

// Entry/exit bookkeeping for "correct and has stayed correct for the tail
// window", shared by both engine loops. The window is counted in
// interactions, so it closes at an exact interaction (a difference of
// floating-point parallel times, floored, can read one short).
class StabilizationClock {
 public:
  StabilizationClock(const RunOptions& opts, std::uint32_t n, RunResult& out,
                     StopRule rule = StopRule::kHeldForTail)
      : tail_interactions_(static_cast<std::uint64_t>(
            opts.tail_ptime * static_cast<double>(n))),
        n_(n),
        rule_(rule),
        out_(out) {}

  // Records the correctness state before the first interaction; returns
  // true iff the run has met its stop rule already (an event that holds at
  // the start).
  bool init(bool correct) {
    was_correct_ = correct;
    if (correct) {
      last_entry_ = 0;
      out_.first_correct_ptime = 0.0;
    }
    return rule_ == StopRule::kFirstEntry && correct;
  }

  // Records the correctness state after `interactions` interactions;
  // returns true iff the run has met its stop rule and should stop.
  bool on_state(bool correct, std::uint64_t interactions) {
    if (correct && !was_correct_) {
      last_entry_ = interactions;
      if (out_.first_correct_ptime < 0) out_.first_correct_ptime = last_entry();
    } else if (!correct && was_correct_) {
      ++out_.correctness_breaks;
    }
    was_correct_ = correct;
    if (rule_ == StopRule::kFirstBreak) return out_.correctness_breaks > 0;
    if (rule_ == StopRule::kFirstEntry) return correct;
    return correct && interactions - last_entry_ >= tail_interactions_;
  }

  // Settles the result when the loop ends at `interactions`: `stopped`
  // when on_state asked to stop, `stuck` when the engine proved that
  // nothing will ever change again. For kFirstBreak the stabilization
  // field carries the holding time (see run_engine_until_held).
  void finish(bool stopped, bool stuck, std::uint64_t interactions) {
    out_.interactions = interactions;
    if (rule_ == StopRule::kFirstBreak) {
      if (!stopped) return;
      out_.stabilized = true;
      out_.stabilization_ptime = ptime(interactions) - last_entry();
      return;
    }
    if (stopped || (stuck && was_correct_)) {
      out_.stabilized = true;
      out_.stabilization_ptime = last_entry();
    }
  }

  bool was_correct() const { return was_correct_; }
  double last_entry() const { return ptime(last_entry_); }

 private:
  double ptime(std::uint64_t interactions) const {
    return static_cast<double>(interactions) / static_cast<double>(n_);
  }

  std::uint64_t tail_interactions_;
  std::uint32_t n_;
  StopRule rule_;
  RunResult& out_;
  bool was_correct_ = false;
  std::uint64_t last_entry_ = 0;
};

}  // namespace detail

// What a run stops on — one stop description for every until=:
//   * key    maps an agent's state to a census key in 0..keys (NoKey: the
//            run keeps no census and never scans the agents or counts);
//   * test   reads the census and/or the engine: is the configuration
//            "correct" now? It must be O(1);
//   * rule   with RunOptions::tail_ptime, when the clock stops the run.
// The census is a RankTracker over keys 1..keys (0 = no key).
struct NoKey {};

template <class Key, class Test>
struct Stop {
  Key key;
  std::uint32_t keys = 0;
  Test test;
  StopRule rule = StopRule::kHeldForTail;
};

// The agent's rank (0 = unranked).
struct RankKey {
  template <class P>
  std::uint32_t operator()(const P& protocol,
                           const typename P::State& s) const {
    return protocol.rank_of(s);
  }
};

// 1 for a leader.
struct LeaderKey {
  template <class P>
  std::uint32_t operator()(const P& protocol,
                           const typename P::State& s) const {
    return protocol.is_leader(s) ? 1 : 0;
  }
};

// Every key in 1..keys is held by exactly one agent: ranked and held
// (RankKey, keys = n), elected (LeaderKey, keys = 1).
template <class Key>
auto permutation_stop(Key key, std::uint32_t keys,
                      StopRule rule = StopRule::kHeldForTail) {
  auto test = [](const RankTracker& census, const auto&) {
    return census.is_permutation();
  };
  return Stop<Key, decltype(test)>{key, keys, test, rule};
}

// At most `bound` agents have the 0/1 key `flag` set: drained (no agent
// resetting), complete (no agent uninfected), thinned (at most one agent
// at rank 0).
template <class Flag>
auto holders_stop(Flag flag, std::uint32_t bound) {
  auto key = [flag](const auto& protocol, const auto& s) -> std::uint32_t {
    return flag(protocol, s) ? 1 : 0;
  };
  auto test = [bound](const RankTracker& census, const auto&) {
    return census.count_of(1) <= bound;
  };
  return Stop<decltype(key), decltype(test)>{key, 1, test,
                                              StopRule::kFirstEntry};
}

// No key: an O(1) test on the engine alone (a counter read, a tiny scan).
template <class Done>
auto engine_stop(Done done) {
  auto test = [done](const RankTracker&, const auto& sim) {
    return done(sim);
  };
  return Stop<NoKey, decltype(test)>{NoKey{}, 0, test,
                                     StopRule::kFirstEntry};
}

// The one stop loop: drives an Engine until `stop` says so (see file
// comment). stabilization_ptime is the clock's reading: the last entry into
// correctness, or the holding time under StopRule::kFirstBreak.
//
// Agent-array step loop: shadow keys for every agent, refreshed for the
// scheduled pair and for the agent a churn crash reset.
template <class Key, class Test, AgentArrayEngine E>
RunResult run_until(E& sim, const Stop<Key, Test>& stop,
                    const RunOptions& opts) {
  if (opts.max_interactions == 0)
    throw std::invalid_argument("max_interactions must be set");
  constexpr bool keyed = !std::is_same_v<Key, NoKey>;
  const std::uint32_t n = sim.population_size();
  const auto& protocol = sim.protocol();
  RankTracker census(stop.keys);
  std::vector<std::uint32_t> keys;
  if constexpr (keyed) {
    keys.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      keys[i] = stop.key(protocol, sim.states()[i]);
      census.apply_delta(keys[i], 1);
    }
  }
  RunResult out;
  detail::StabilizationClock clock(opts, n, out, stop.rule);
  bool stopped = clock.init(stop.test(census, sim));

  auto refresh = [&](std::uint32_t agent) {
    if constexpr (keyed) {
      const std::uint32_t k = stop.key(protocol, sim.states()[agent]);
      census.on_change(keys[agent], k);
      keys[agent] = k;
    }
  };
  while (!stopped && sim.interactions() < opts.max_interactions) {
    const AgentPair pair = sim.step();
    refresh(pair.initiator);
    refresh(pair.responder);
    if (sim.last_crashed() >= 0)
      refresh(static_cast<std::uint32_t>(sim.last_crashed()));
    stopped = clock.on_state(stop.test(census, sim), sim.interactions());
  }
  clock.finish(stopped, /*stuck=*/false, sim.interactions());
  return out;
}

// Count-engine step loop: a count scan, then count deltas or burst changes.
template <class Key, class Test, CountEngine E>
RunResult run_until(E& sim, const Stop<Key, Test>& stop,
                    const RunOptions& opts) {
  if (opts.max_interactions == 0)
    throw std::invalid_argument("max_interactions must be set");
  constexpr bool keyed = !std::is_same_v<Key, NoKey>;
  const bool windowed =
      stop.rule == StopRule::kHeldForTail && opts.tail_ptime > 0.0;
  if constexpr (StrategyEngine<E>) {
    // The tail-window bookkeeping below credits the stretch before a step's
    // last interaction as "correctness unchanged", which the geometric
    // paths guarantee (their stretches are provably null); windows are
    // checked on no other arm, so they stay pinned to that one.
    if (windowed && sim.strategy() != BatchStrategy::kGeometricSkip)
      throw std::invalid_argument(
          "tail_ptime windows on a count engine require the geometric_skip "
          "strategy");
  }
  const std::uint32_t n = sim.population_size();
  const auto& protocol = sim.protocol();
  RankTracker census(stop.keys);
  if constexpr (keyed) {
    const auto& counts = sim.state_counts();
    for (std::uint32_t q = 0; q < counts.size(); ++q)
      if (counts[q] > 0)
        census.apply_delta(stop.key(protocol, protocol.decode(q)),
                           static_cast<std::int64_t>(counts[q]));
  }
  RunResult out;
  detail::StabilizationClock clock(opts, n, out, stop.rule);
  bool stopped = clock.init(stop.test(census, sim));

  // Burst observer: follows each agent change, and ends the burst whenever
  // the clock has something to record — the configuration is or was
  // correct (an entry, a break, or the stop), or the horizon is reached. A
  // burst therefore only runs on while the clock's verdict is a no-op.
  bool observed = false;
  auto on_agent_change = [&](const typename E::State& from,
                             const typename E::State& to) {
    observed = true;
    if constexpr (keyed)
      census.on_change(stop.key(protocol, from), stop.key(protocol, to));
    return clock.was_correct() || stop.test(census, sim) ||
           sim.interactions() >= opts.max_interactions;
  };
  auto step = [&] {
    observed = false;
    if constexpr (requires { sim.step(on_agent_change); })
      return sim.step(on_agent_change);
    else
      return sim.step();
  };

  bool stuck = false;
  while (!stopped && sim.interactions() < opts.max_interactions) {
    if (step() == 0) {
      stuck = true;  // provably silent: correctness is frozen forever
      break;
    }
    // A batched null stretch precedes the effective interaction the step
    // ends on; the configuration (and so correctness) was unchanged through
    // it. If a tail window is armed and closed inside the stretch — i.e. by
    // the interaction just before the effective one — the run stopped
    // there, exactly as the per-interaction agent-array loop would see it.
    if (windowed && clock.was_correct() &&
        clock.on_state(true, sim.interactions() - 1)) {
      stopped = true;
      break;
    }
    if constexpr (keyed) {
      if (!observed)  // the observer has seen a burst's changes already
        for (const CountDelta& d : sim.last_deltas())
          census.apply_delta(stop.key(protocol, protocol.decode(d.code)),
                             d.delta);
    }
    stopped = clock.on_state(stop.test(census, sim), sim.interactions());
  }
  clock.finish(stopped, stuck, sim.interactions());
  return out;
}

namespace detail {

template <class E>
void verify_silent_or_throw(const E& engine) {
  const auto& protocol = engine.protocol();
  if constexpr (AgentArrayEngine<E>) {
    const auto& states = engine.states();
    const std::uint32_t n = engine.population_size();
    for (std::uint32_t i = 0; i < n; ++i)
      for (std::uint32_t j = 0; j < n; ++j)
        if (i != j && !protocol.is_null_pair(states[i], states[j]))
          throw std::logic_error(
              "configuration reported stable is not silent");
  } else {
    // Count engine: check every ordered pair of occupied states (a state
    // with count >= 2 must also be null against itself). Decode each
    // occupied code once — the pair loop is O(occupied^2) already.
    const auto& counts = engine.state_counts();
    std::vector<std::uint32_t> occupied;
    std::vector<typename E::State> decoded;
    for (std::uint32_t q = 0; q < counts.size(); ++q)
      if (counts[q] > 0) {
        occupied.push_back(q);
        decoded.push_back(protocol.decode(q));
      }
    for (std::size_t i = 0; i < occupied.size(); ++i) {
      for (std::size_t j = 0; j < occupied.size(); ++j) {
        if (i == j && counts[occupied[i]] < 2) continue;
        if (!protocol.is_null_pair(decoded[i], decoded[j]))
          throw std::logic_error(
              "configuration reported stable is not silent");
      }
    }
  }
}

template <class E>
void maybe_verify_silent(const E& engine, const RunOptions& opts,
                         const RunResult& out) {
  using State = typename E::State;
  if constexpr (requires(const E& e, const State& s) {
                  e.protocol().is_null_pair(s, s);
                }) {
    if (out.stabilized && opts.verify_silent) verify_silent_or_throw(engine);
  } else {
    if (opts.verify_silent)
      throw std::invalid_argument(
          "verify_silent requires the protocol to expose is_null_pair");
  }
}

}  // namespace detail

// Predicate front end: runs until done(engine) holds, checking it before
// the first interaction and after every step (every interaction on the
// agent array, every configuration change on a count engine). `done` must
// be O(1). Returns
// true iff it fired within `max_interactions`.
template <class E, class Done>
bool run_until(E& sim, Done done, std::uint64_t max_interactions) {
  RunOptions opts;
  opts.max_interactions = max_interactions;
  return run_until(sim, engine_stop(done), opts).stabilized;
}

// The stops of the rank and leader harnesses.
inline auto ranked_stop(std::uint32_t n) {
  return permutation_stop(RankKey{}, n);
}
inline auto held_stop(std::uint32_t n) {
  return permutation_stop(RankKey{}, n,
                                  StopRule::kFirstBreak);
}
inline auto elected_stop() {
  return permutation_stop(LeaderKey{}, 1);
}

// Ranked: drives any Engine whose protocol is a RankingProtocol until the
// ranking is stably correct (see file comment).
template <class E>
RunResult run_engine_until_ranked(E& sim, const RunOptions& opts) {
  const RunResult out =
      run_until(sim, ranked_stop(sim.population_size()), opts);
  detail::maybe_verify_silent(sim, opts, out);
  return out;
}

// Holding-time harness: how long does a correct (rank-permutation)
// configuration persist before the next disruption? The run waits for the
// first entry into correctness, then for the first loss of it; the metric
// is the parallel time between the two. Under a reliable scheduler a
// silent protocol never loses correctness, so the natural use is fault
// injection (core/faults.h) — holding time vs churn/drop rate quantifies
// how robust the stabilized configuration is.
//
// Result encoding (reusing RunResult): first_correct_ptime is the entry,
// stabilization_ptime is the HOLDING TIME, stabilized means the full
// entry-then-break cycle was observed inside the horizon. A run that never
// enters, or enters and never breaks (e.g. fault-free silence — the engine
// reports provably stuck, or the horizon ends first), is not a measurement
// and reports stabilized == false. On an exact count engine every step
// ends at the exact interaction of the entry or the break.
template <class E>
RunResult run_engine_until_held(E& sim, const RunOptions& opts) {
  return run_until(sim, held_stop(sim.population_size()), opts);
}

// Leader election: runs until exactly one agent is a leader and has stayed
// the only one for the tail window; stabilization_ptime is the onset of
// that uniqueness.
template <class E>
RunResult run_engine_until_elected(E& sim, const RunOptions& opts) {
  return run_until(sim, elected_stop(), opts);
}

// Convenience front-end that builds the agent-array engine from
// (protocol, initial configuration, seed), the historical API used
// throughout the tests.
template <RankingProtocol P>
RunResult run_until_ranked(P protocol, std::vector<typename P::State> initial,
                           std::uint64_t seed, const RunOptions& opts) {
  Simulation<P> sim(std::move(protocol), std::move(initial), seed);
  return run_engine_until_ranked(sim, opts);
}

}  // namespace ppsim
