// Run-until-stable harness, retargeted onto the backend-agnostic Engine
// contract (core/engine.h).
//
// Measures convergence/stabilization parallel time of a ranking protocol
// exactly as the paper defines it: the number of interactions after which
// the configuration is (stably) correct forever, divided by n.
//
// For the silent protocols a correct configuration is provably silent, so
// the first entry into correctness is stabilization (optionally verified by
// an exhaustive null-pair check). Sublinear-Time-SSR is non-silent; there we
// record the *last* entry into correctness and additionally require the
// configuration to stay correct for a caller-chosen tail window (>= 3*TH
// parallel time: stale adversarial tree data can only cause a spurious reset
// while its timers are alive, Lemma 5.5).
//
// Two engine families, one front door:
//   * AgentArrayEngine (Simulation<P>): incremental RankTracker updates on
//     the two agents each step touches — O(1) per interaction.
//   * CountEngine (BatchSimulation<P>): incremental RankTracker updates on
//     the count deltas each step reports (last_deltas()) — O(1) per
//     configuration change, so whole geometric-skipped null stretches cost
//     nothing. A multinomial batch step reports the whole batch's net
//     deltas, so correctness is observed at batch granularity; tail-window
//     runs (tail_ptime > 0) therefore require the geometric_skip strategy,
//     whose batched stretches are provably null — enforced below. The
//     ranked harness drives engines with an observer form step(obs) (the
//     array arm's bursts) through it: the tracker follows each agent change
//     from the states handed over, and the burst ends at every change
//     that the clock must see, so results equal a plain-step() loop's.
// A count engine that reports step() == 0 is provably stuck (silent): if the
// configuration is correct at that point it is stabilized forever.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/batch_simulation.h"
#include "core/engine.h"
#include "core/faults.h"  // ChurnReportingEngine
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

namespace detail {

// Entry/exit bookkeeping for "correct and has stayed correct for the tail
// window", shared by both engine harnesses.
class StabilizationClock {
 public:
  StabilizationClock(const RunOptions& opts, std::uint32_t n, RunResult& out)
      : tail_ptime_(opts.tail_ptime),
        tail_interactions_(
            static_cast<std::uint64_t>(opts.tail_ptime * static_cast<double>(n))),
        n_(n),
        out_(out) {}

  void init(bool correct) {
    was_correct_ = correct;
    if (correct) {
      last_entry_ = 0.0;
      out_.first_correct_ptime = 0.0;
    }
  }

  // Records the correctness state after one (effective) interaction at
  // parallel time `ptime`; returns true iff the run has stabilized and the
  // harness should stop.
  bool on_state(bool correct, double ptime) {
    if (correct && !was_correct_) {
      last_entry_ = ptime;
      if (out_.first_correct_ptime < 0) out_.first_correct_ptime = last_entry_;
    } else if (!correct && was_correct_) {
      ++out_.correctness_breaks;
    }
    was_correct_ = correct;
    if (correct) {
      const auto since_entry = static_cast<std::uint64_t>(
          (ptime - last_entry_) * static_cast<double>(n_));
      if (tail_ptime_ == 0.0 || since_entry >= tail_interactions_) return true;
    }
    return false;
  }

  bool was_correct() const { return was_correct_; }
  double last_entry() const { return last_entry_; }

 private:
  double tail_ptime_;
  std::uint64_t tail_interactions_;
  std::uint32_t n_;
  RunResult& out_;
  bool was_correct_ = false;
  double last_entry_ = -1.0;
};

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

// Backend-agnostic ranked-run harness: drives any Engine whose protocol is a
// RankingProtocol until the ranking is stably correct (see file comment).

template <AgentArrayEngine E>
RunResult run_engine_until_ranked(E& sim, const RunOptions& opts) {
  if (opts.max_interactions == 0)
    throw std::invalid_argument("max_interactions must be set");
  const std::uint32_t n = sim.population_size();
  const auto& protocol = sim.protocol();

  std::vector<std::uint32_t> shadow(n);
  RankTracker tracker(n);
  for (std::uint32_t i = 0; i < n; ++i)
    shadow[i] = protocol.rank_of(sim.states()[i]);
  tracker.reset(sim.states(), [&](const typename E::State& s) {
    return protocol.rank_of(s);
  });

  RunResult out;
  detail::StabilizationClock clock(opts, n, out);
  clock.init(tracker.is_permutation());

  auto refresh_agent = [&](std::uint32_t agent) {
    const std::uint32_t r = protocol.rank_of(sim.states()[agent]);
    if (r != shadow[agent]) {
      tracker.on_change(shadow[agent], r);
      shadow[agent] = r;
    }
  };
  while (sim.interactions() < opts.max_interactions) {
    const AgentPair pair = sim.step();
    refresh_agent(pair.initiator);
    refresh_agent(pair.responder);
    // Churn crashes an agent outside the scheduled pair; engines that do it
    // report the victim so the shadow ranks stay exact.
    if constexpr (ChurnReportingEngine<E>) {
      const std::int64_t crashed = sim.last_crashed();
      if (crashed >= 0) refresh_agent(static_cast<std::uint32_t>(crashed));
    }
    if (clock.on_state(tracker.is_permutation(), sim.parallel_time())) {
      out.stabilized = true;
      break;
    }
  }
  out.interactions = sim.interactions();
  if (out.stabilized) out.stabilization_ptime = clock.last_entry();
  detail::maybe_verify_silent(sim, opts, out);
  return out;
}

template <CountEngine E>
RunResult run_engine_until_ranked(E& sim, const RunOptions& opts) {
  if (opts.max_interactions == 0)
    throw std::invalid_argument("max_interactions must be set");
  if constexpr (StrategyEngine<E>) {
    // The tail-window bookkeeping below credits a whole batched stretch as
    // "correctness unchanged", which only the geometric paths guarantee
    // (their stretches are provably null); a multinomial batch can break
    // and re-enter correctness invisibly inside one step.
    if (opts.tail_ptime > 0.0 &&
        sim.strategy() != BatchStrategy::kGeometricSkip)
      throw std::invalid_argument(
          "tail_ptime windows on a count engine require the geometric_skip "
          "strategy (multinomial batches hide intra-batch correctness "
          "breaks)");
  }
  const std::uint32_t n = sim.population_size();
  const auto& protocol = sim.protocol();

  RankTracker tracker(n);
  {
    const auto& counts = sim.state_counts();
    for (std::uint32_t q = 0; q < counts.size(); ++q)
      if (counts[q] > 0)
        tracker.apply_delta(protocol.rank_of(protocol.decode(q)),
                            static_cast<std::int64_t>(counts[q]));
  }

  RunResult out;
  detail::StabilizationClock clock(opts, n, out);
  clock.init(tracker.is_permutation());

  // Burst observer: follows each agent change, and ends the burst whenever
  // the clock has something to record — the ranking is or was correct
  // (an entry, a break, or stabilization), or the horizon is reached. A
  // burst therefore only runs on while the clock's verdict is a no-op.
  bool observed = false;
  auto on_agent_change = [&](const typename E::State& from,
                             const typename E::State& to) {
    observed = true;
    tracker.on_change(protocol.rank_of(from), protocol.rank_of(to));
    return clock.was_correct() || tracker.is_permutation() ||
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
  while (sim.interactions() < opts.max_interactions) {
    if (step() == 0) {
      stuck = true;  // provably silent: correctness is frozen forever
      break;
    }
    // A batched null stretch precedes the effective interaction the step
    // ends on; the configuration (and so correctness) was unchanged through
    // it. If a tail window is armed and closed inside the stretch — i.e. by
    // the interaction just before the effective one — stabilization happened
    // there, exactly as the per-interaction agent-array harness would see.
    if (opts.tail_ptime > 0.0 && clock.was_correct()) {
      const double before_effective =
          static_cast<double>(sim.interactions() - 1) / static_cast<double>(n);
      if (clock.on_state(true, before_effective)) {
        out.stabilized = true;
        break;
      }
    }
    if (!observed)  // the observer has seen a burst's changes already
      for (const CountDelta& d : sim.last_deltas())
        tracker.apply_delta(protocol.rank_of(protocol.decode(d.code)),
                            d.delta);
    if (clock.on_state(tracker.is_permutation(), sim.parallel_time())) {
      out.stabilized = true;
      break;
    }
  }
  if (stuck && clock.was_correct()) out.stabilized = true;
  out.interactions = sim.interactions();
  if (out.stabilized) out.stabilization_ptime = clock.last_entry();
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
// and reports stabilized == false.

template <AgentArrayEngine E>
RunResult run_engine_until_held(E& sim, const RunOptions& opts) {
  if (opts.max_interactions == 0)
    throw std::invalid_argument("max_interactions must be set");
  const std::uint32_t n = sim.population_size();
  const auto& protocol = sim.protocol();

  std::vector<std::uint32_t> shadow(n);
  RankTracker tracker(n);
  for (std::uint32_t i = 0; i < n; ++i)
    shadow[i] = protocol.rank_of(sim.states()[i]);
  tracker.reset(sim.states(), [&](const typename E::State& s) {
    return protocol.rank_of(s);
  });

  RunResult out;
  bool entered = tracker.is_permutation();
  double entry_ptime = 0.0;
  if (entered) out.first_correct_ptime = 0.0;

  auto refresh_agent = [&](std::uint32_t agent) {
    const std::uint32_t r = protocol.rank_of(sim.states()[agent]);
    if (r != shadow[agent]) {
      tracker.on_change(shadow[agent], r);
      shadow[agent] = r;
    }
  };
  while (sim.interactions() < opts.max_interactions) {
    const AgentPair pair = sim.step();
    refresh_agent(pair.initiator);
    refresh_agent(pair.responder);
    if constexpr (ChurnReportingEngine<E>) {
      const std::int64_t crashed = sim.last_crashed();
      if (crashed >= 0) refresh_agent(static_cast<std::uint32_t>(crashed));
    }
    const bool correct = tracker.is_permutation();
    if (!entered) {
      if (correct) {
        entered = true;
        entry_ptime = sim.parallel_time();
        out.first_correct_ptime = entry_ptime;
      }
    } else if (!correct) {
      out.correctness_breaks = 1;
      out.stabilized = true;
      out.stabilization_ptime = sim.parallel_time() - entry_ptime;
      break;
    }
  }
  out.interactions = sim.interactions();
  return out;
}

// Count-engine twin. Correctness is observed at step granularity; while a
// silent protocol's configuration is correct (hence silent) the only
// possible step is a churn crash landing exactly on its own slot, so the
// break is still caught at the exact interaction for the protocols
// registered here.
template <CountEngine E>
RunResult run_engine_until_held(E& sim, const RunOptions& opts) {
  if (opts.max_interactions == 0)
    throw std::invalid_argument("max_interactions must be set");
  const std::uint32_t n = sim.population_size();
  const auto& protocol = sim.protocol();

  RankTracker tracker(n);
  {
    const auto& counts = sim.state_counts();
    for (std::uint32_t q = 0; q < counts.size(); ++q)
      if (counts[q] > 0)
        tracker.apply_delta(protocol.rank_of(protocol.decode(q)),
                            static_cast<std::int64_t>(counts[q]));
  }

  RunResult out;
  bool entered = tracker.is_permutation();
  double entry_ptime = 0.0;
  if (entered) out.first_correct_ptime = 0.0;

  while (sim.interactions() < opts.max_interactions) {
    if (sim.step() == 0) break;  // frozen forever: no break will ever come
    for (const CountDelta& d : sim.last_deltas())
      tracker.apply_delta(protocol.rank_of(protocol.decode(d.code)), d.delta);
    const bool correct = tracker.is_permutation();
    if (!entered) {
      if (correct) {
        entered = true;
        entry_ptime = sim.parallel_time();
        out.first_correct_ptime = entry_ptime;
      }
    } else if (!correct) {
      out.correctness_breaks = 1;
      out.stabilized = true;
      out.stabilization_ptime = sim.parallel_time() - entry_ptime;
      break;
    }
  }
  out.interactions = sim.interactions();
  return out;
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
