// A minimal host protocol around Propagate-Reset, used to study the reset
// machinery in isolation (Section 3's lemmas) in tests and in
// bench/bench_propagate_reset. Agents are either Computing (a single
// contentless state) or Resetting; Reset returns them to Computing and
// counts how many times each agent has reset.
//
// The protocol is enumerable, so the count-based batched backend can run
// the Section 3 phase experiments past n = 10^6: the canonical coding is
//   0                      Computing
//   1 .. Rmax              Resetting, propagating (resetcount = code)
//   Rmax+1 .. Rmax+1+Dmax  Resetting, dormant (delaytimer = code - Rmax - 1)
// A propagating agent's delaytimer is dead state — Protocol 2 line 7
// rewrites it on the transition to dormancy — and the per-agent
// resets_executed tally is pure instrumentation (never read by the
// dynamics), so both are normalized away by encode(); population-wide reset
// counts remain exact through the engine-owned Counters.
//
// It also declares the unkeyed passive structure (passive = Computing):
// two Computing agents never change, and an all-Computing configuration is
// silent, which is exactly the "null iff both passive" skip the batched
// engine exploits between reset waves.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/protocol.h"
#include "core/rng.h"
#include "reset/propagate_reset.h"

namespace ppsim {

class ResetProcess {
 public:
  struct State {
    bool resetting = false;
    std::uint32_t resetcount = 0;
    std::uint32_t delaytimer = 0;
    std::uint32_t resets_executed = 0;  // per-agent Reset() invocations
  };

  // Engine-owned per-interaction event counters (ObservableProtocol).
  struct Counters {
    std::uint64_t resets_executed = 0;  // population-wide Reset() count
  };

  // interact() never reads the Rng (the ring count engine's nullity probe
  // relies on it).
  static constexpr bool kDeterministicInteract = true;

  // Unkeyed passive structure: two Computing agents are always null.
  static constexpr bool kPassivePairsAreNull = true;

  ResetProcess(std::uint32_t n, std::uint32_t rmax, std::uint32_t dmax)
      : n_(n), rmax_(rmax), dmax_(dmax) {
    if (n < 2) throw std::invalid_argument("population size must be >= 2");
    // The code space is 1 + Rmax + Dmax + 1.
    check_code_space("reset-process", 2ull + rmax + dmax);
  }

  std::uint32_t population_size() const { return n_; }
  std::uint32_t rmax() const { return rmax_; }

  void interact(State& a, State& b, Rng&, Counters& c) const {
    if (a.resetting || b.resetting) {
      ResetView<ResetProcess, Counters> host{*this, c};
      propagate_reset_step(host, a, b);
    }
  }

  std::uint32_t rank_of(const State&) const { return 0; }

  // Marks an agent as having just detected an error (Protocol 2 precondition:
  // "some agent becoming triggered").
  void trigger(State& s) const {
    s.resetting = true;
    s.resetcount = rmax_;
    s.delaytimer = 0;
  }

  // --- EnumerableProtocol: canonical coding (see file comment). ---
  std::uint32_t num_states() const { return 1 + rmax_ + dmax_ + 1; }

  std::uint32_t encode(const State& s) const {
    if (!s.resetting) return 0;
    if (s.resetcount > 0) {
      if (s.resetcount > rmax_)
        throw std::invalid_argument("invalid propagating Resetting state");
      return s.resetcount;
    }
    if (s.delaytimer > dmax_)
      throw std::invalid_argument("invalid dormant Resetting state");
    return 1 + rmax_ + s.delaytimer;
  }

  State decode(std::uint32_t code) const {
    State s;
    if (code == 0) return s;
    s.resetting = true;
    if (code <= rmax_) {
      s.resetcount = code;
      return s;
    }
    code -= rmax_ + 1;
    if (code > dmax_)
      throw std::invalid_argument("state code out of range");
    s.resetcount = 0;
    s.delaytimer = code;
    return s;
  }

  // --- UnkeyedPassiveProtocol: both Computing => null; all-Computing is
  // silent (and the converse holds too: any pair with a Resetting agent
  // changes state, so is_null_pair is an exact characterization here). ---
  bool is_null_pair(const State& a, const State& b) const {
    return !a.resetting && !b.resetting;
  }
  bool is_passive(const State& s) const { return !s.resetting; }

  // --- ResetHost hooks. ---
  bool is_resetting(const State& s) const { return s.resetting; }
  std::uint32_t& reset_count(State& s) const { return s.resetcount; }
  std::uint32_t& delay_timer(State& s) const { return s.delaytimer; }
  void recruit(State& s) const {
    s.resetting = true;
    s.resetcount = 0;
    s.delaytimer = dmax_;
  }
  void reset_agent(State& s, Counters& c) const {
    s.resetting = false;
    ++s.resets_executed;
    ++c.resets_executed;
  }
  std::uint32_t dmax() const { return dmax_; }

 private:
  std::uint32_t n_;
  std::uint32_t rmax_;
  std::uint32_t dmax_;
};

}  // namespace ppsim
