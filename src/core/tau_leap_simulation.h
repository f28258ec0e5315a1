// Approximate tau-leaping count engine (the repo's first non-exact tier).
//
// The exact engines advance one effective interaction (or one exact
// collision-free batch) at a time; full stabilization of the paper's
// Optimal-Silent protocol at n = 10^6 is ~4n^2 effective interactions,
// out of reach for any of them. TauLeapSimulation trades exactness for
// throughput the standard SSA way (Gillespie's tau-leaping): freeze the
// pair rates, pick a macro-leap of L candidate interactions, draw how many
// *effective* interactions of each ordered (s1, s2) category the leap
// contains, and apply them in bulk against the frozen counts.
//
// Under the uniform ordered-pair scheduler, category (a, b) is drawn with
// probability m_a (m_b - [a = b]) / (n (n - 1)) per candidate interaction.
// Approximating the L-candidate multinomial by independent Poisson counts
// with the matched means lambda_ab = L m_a (m_b - [a = b]) / (n (n - 1)) —
// equivalently, one Poisson total thinned by the category distribution —
// and ignoring within-leap state changes is the entire approximation; its
// error shrinks with the leap's relative rate drift, which the adaptive
// controls below bound.
//
// Sampling uses the structured active-weight decomposition of the
// geometric-skip kernels (passive-structured protocols: W = A(n-1) + SA
// [+ sum_k s_k (s_k - 1) for keyed protocols]), so null categories are
// never enumerated or drawn. A leap runs in one of three modes, chosen by
// its expected event count k = L * W / n(n-1):
//   * exact jump chain (k <= kBulkMinEvents): too few events for bulk
//     statistics to pay off — the window is consumed exactly like the
//     geometric-skip kernel (skip to each effective interaction, sample
//     its pair from the live counts, apply immediately). This mode is
//     exact in distribution, so small populations (n up to ~kBulkMinEvents
//     / tau_eps at the eps target) incur no approximation error at all;
//   * enumerated bulk (k large, category grid small): one independent
//     Poisson per non-null category over active x occupied, walking the
//     SegmentedPool occupied slots — O(active-occupied x occupied), not
//     O(|Q|^2) — applied as net deltas against the frozen counts;
//   * per-draw bulk (k large, grid large): one Poisson total, then each
//     effective interaction samples its ordered pair through the pools'
//     weighted draws with the rates frozen at the leap's start.
// Bulk modes apply the drawn category counts through the TransitionCache
// (core/batch_kernels.h) with counters scaled by the repetition count.
//
// Adaptive tau: the leap targets tau_eps * n effective interactions (so
// tau ~ 2 tau_eps units of parallel time at density 1). Two controls bound
// the frozen-rate error of the bulk modes:
//   * occupancy collisions: a staged bulk leap whose Poisson draws would
//     drive any count negative is abandoned and the SAME window is
//     consumed by the exact jump chain instead (and the next bulk attempt
//     is halved). Resampling-until-feasible — the textbook rejection — is
//     deliberately avoided: it conditions the dynamics on "no code drawn
//     beyond its occupancy", which systematically slows every
//     occupancy-limited chain (measured at +20-40% stabilization time on
//     Optimal-Silent's dormant countdown before this design);
//   * rate drift: when a committed bulk leap that drew >= 2 effective
//     interactions moved the aggregate active weight by more than
//     kRateDriftFactor * tau_eps relatively, the *next* leap is halved
//     (and grows back x2 per quiet leap). This too is feedback, not
//     rejection — rejecting on drift would resample until the leap
//     contained no weight-moving events, suppressing exactly the rare
//     transitions (reset-wave recruitments, the last rank assignments)
//     that high-relative-drift regimes consist of.
//
// Everything is a pure function of (seed, tau_eps): determinism contracts
// survive, but distributional exactness does not. Results that flow
// through the scenario API are stamped `approximate: true` and carry
// tau_eps; `auto` never selects this engine.
#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/batch_kernels.h"
#include "core/discrete_samplers.h"
#include "core/engine.h"
#include "core/protocol.h"
#include "core/rng.h"

namespace ppsim {

template <EnumerableProtocol P>
class TauLeapSimulation {
  static_assert(DeterministicProtocol<P>,
                "tau-leaping applies cached transitions in bulk; interact() "
                "must be deterministic");
  static_assert(KeyedPassiveProtocol<P> || UnkeyedPassiveProtocol<P>,
                "tau-leaping needs the passive-structured active weight to "
                "enumerate non-null categories");
  static_assert(!ObservableProtocol<P> ||
                    ScalableCounters<ProtocolCounters<P>>,
                "observable protocols need add_scaled counters for bulk "
                "application");

 public:
  using State = typename P::State;
  using Counters = ProtocolCounters<P>;

  TauLeapSimulation(P protocol, std::vector<std::uint64_t> counts,
                    std::uint64_t seed, double tau_eps = kDefaultTauEps)
      : protocol_(std::move(protocol)),
        counts_(std::move(counts)),
        rng_(seed),
        eps_(tau_eps) {
    if (!(eps_ > 0.0) || !std::isfinite(eps_))
      throw std::invalid_argument("tau_eps must be finite and > 0");
    const std::uint32_t q = protocol_.num_states();
    if (counts_.size() != q)
      throw std::invalid_argument("counts size != num_states");
    std::uint64_t total = 0;
    for (std::uint32_t s = 0; s < q; ++s) total += counts_[s];
    if (total != protocol_.population_size() || total < 2)
      throw std::invalid_argument("counts must sum to population size >= 2");
    all_pool_.build(counts_);
    active_pool_.reset();
    for (std::uint32_t slot = 0; slot < all_pool_.slots(); ++slot) {
      const std::uint32_t code = all_pool_.code_at(slot);
      const std::uint64_t m = all_pool_.weight_at(slot);
      if (m == 0) continue;
      weight_.on_count_change(protocol_, code, 0, m);
      if (restless(code))
        active_pool_.apply_delta(code, static_cast<std::int64_t>(m));
    }
  }

  std::uint32_t population_size() const { return protocol_.population_size(); }
  const std::vector<std::uint64_t>& counts() const { return counts_; }
  const std::vector<std::uint64_t>& state_counts() const { return counts_; }
  const P& protocol() const { return protocol_; }
  P& protocol() { return protocol_; }
  const Counters& counters() const { return counters_; }
  std::uint64_t interactions() const { return interactions_; }
  double parallel_time() const {
    return static_cast<double>(interactions_) /
           static_cast<double>(population_size());
  }
  const std::vector<CountDelta>& last_deltas() const { return last_deltas_; }
  const StrategyTrace& strategy_trace() const { return trace_; }

  double tau_eps() const { return eps_; }
  // Leaps committed, bulk leaps that fell back to the exact jump chain on
  // an occupancy collision, and the number of *effective* interactions the
  // committed leaps contained — the "leaped" side of the exact-vs-leaped
  // interaction accounting (the trace arm holds the candidate-interaction
  // side).
  std::uint64_t leaps() const { return leaps_; }
  std::uint64_t shrink_retries() const { return shrink_retries_; }
  std::uint64_t effective_interactions() const { return effective_; }

  // True iff no future interaction can change the configuration (exact:
  // the structured active weight is identically zero).
  bool silent() const { return weight_.total(population_size()) == 0; }

  // Checks the incremental bookkeeping against the counts, without
  // touching the RNG: the counts sum to n, the running active weight equals
  // one rebuilt from the counts, and the two pools hold exactly the
  // occupied codes and the occupied restless codes at their counts. Throws
  // std::logic_error naming the first check that fails.
  void audit() const {
    auto fail = [](const char* what) {
      throw std::logic_error(std::string("TauLeapSimulation audit: ") + what);
    };
    const std::uint64_t n = population_size();
    std::uint64_t total = 0;
    for (std::uint64_t c : counts_) total += c;
    if (total != n) fail("counts do not sum to n");
    ScalarActiveWeight<P> fresh;
    for (std::uint32_t code = 0; code < counts_.size(); ++code)
      fresh.on_count_change(protocol_, code, 0, counts_[code]);
    const ActiveWeights a = weight_.weights(n);
    const ActiveWeights b = fresh.weights(n);
    if (a.restless != b.restless || a.diag != b.diag || a.total != b.total)
      fail("active weight != one rebuilt from the counts");
    std::uint64_t restless_total = 0;
    std::uint32_t occupied = 0, restless_occupied = 0;
    for (std::uint32_t code = 0; code < counts_.size(); ++code) {
      const std::uint64_t m = counts_[code];
      const bool active = m != 0 && restless(code);
      if (all_pool_.weight_of(code) != m)
        fail("occupied pool != counts");
      if (active_pool_.weight_of(code) != (active ? m : 0))
        fail("restless pool != restless counts");
      occupied += m != 0;
      restless_occupied += active;
      if (active) restless_total += m;
    }
    if (all_pool_.total() != n || all_pool_.occupied() != occupied)
      fail("occupied pool != counts");
    if (active_pool_.total() != restless_total ||
        active_pool_.occupied() != restless_occupied)
      fail("restless pool != restless counts");
  }

  // One macro-leap. Returns the candidate interactions the leap covered,
  // 0 iff the configuration is provably silent. A returned leap has
  // already been committed (counts, counters, pools, last_deltas).
  std::uint64_t step() {
    const std::uint64_t n = population_size();
    const std::uint64_t w = weight_.total(n);
    if (w == 0) {
      last_deltas_.clear();
      return 0;
    }
    const double pairs =
        static_cast<double>(n) * static_cast<double>(n - 1);
    const double density = static_cast<double>(w) / pairs;
    const double k_target =
        std::max(1.0, eps_ * static_cast<double>(n));
    const double l_cap =
        static_cast<double>(kMaxLeapPtime) * static_cast<double>(n);
    double l_cand = k_target / density;
    if (l_cand > l_cap) l_cand = l_cap;
    const auto target = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::llround(l_cand)));
    const std::uint64_t leap = std::min(target, cur_leap_);
    const double k_mean = static_cast<double>(leap) * density;
    bool bulk_rejected = false;
    if (k_mean <= static_cast<double>(kBulkMinEvents)) {
      // Too few expected events for bulk statistics to pay off (small
      // populations live here permanently): consume the window exactly.
      exact_jump(leap);
      last_drift_exceeded_ = false;
    } else if (!try_leap(leap)) {
      // Bulk staging drew more events on some code than its occupancy —
      // the occupancy scale is too small for Poissonized bulk application
      // at this length. Resampling until feasible would condition the
      // dynamics on "no collisions" (a systematic slow-down of every
      // occupancy-limited chain); instead the same window is consumed
      // exactly and the next bulk attempt is halved.
      ++shrink_retries_;
      exact_jump(leap);
      last_drift_exceeded_ = false;
      bulk_rejected = true;
    }
    // Leap-length feedback (never resampling — see the header comment):
    // a bulk leap that moved the rates too much, or one whose Poisson draw
    // overran an occupancy, halves the next attempt; a clean leap doubles
    // back toward the eps target.
    if (bulk_rejected || last_drift_exceeded_) {
      cur_leap_ = std::max<std::uint64_t>(1, leap / 2);
    } else if (leap < target) {
      cur_leap_ = leap < target / 2 ? leap * 2 : target;
    } else {
      cur_leap_ = target;
    }
    interactions_ += leap;
    ++leaps_;
    trace_.note(StrategyArm::kTauLeap, leap);
    return leap;
  }

  // Runs until at least `count` interactions have elapsed (a final leap
  // may overshoot; the overshoot is real simulated time, not error).
  void run(std::uint64_t count) {
    const std::uint64_t target = interactions_ + count;
    while (interactions_ < target)
      if (step() == 0) break;  // silent: nothing will ever change again
  }

 private:
  // Hard per-leap ceiling in parallel-time units. Near-silent endgames have
  // densities ~1/n^2, where covering k_target effective draws would need
  // astronomically long leaps; capping keeps every leap's candidate length
  // (and so the time axis of trajectories) finitely resolved while the
  // Poisson means simply scale down.
  static constexpr std::uint64_t kMaxLeapPtime = 64;

  // Below this expected event count per leap, bulk Poisson application is
  // replaced by the exact jump chain: the bulk machinery only pays off when
  // a leap amortizes hundreds of events, and small expected counts are
  // exactly where Poissonization + occupancy collisions would bias the
  // dynamics. With the eps target k = tau_eps * n, populations up to
  // ~kBulkMinEvents / tau_eps run entirely exactly.
  static constexpr std::uint64_t kBulkMinEvents = 256;

  // Per-draw mode clamps the Poisson total 8 sigma above its mean so a
  // single leap cannot draw more effective interactions than candidates in
  // pathological tails (P < 1e-15 per leap; the distortion is far below
  // the method's own bias).
  static std::uint64_t clamp_tail(std::uint64_t k, double mean) {
    const double cap = mean + 8.0 * std::sqrt(mean) + 16.0;
    const auto cap_u = static_cast<std::uint64_t>(cap);
    return k > cap_u ? cap_u : k;
  }

  bool restless(std::uint32_t code) const {
    return !protocol_.is_passive(protocol_.decode(code));
  }

  // Stages one bulk leap of `leap` candidate interactions into
  // draws_/net_ and commits it unless a count would go negative (then:
  // discard; the caller consumes the window exactly instead). On commit it
  // also evaluates the aggregate-weight drift of multi-event leaps into
  // last_drift_exceeded_ for the step()-level feedback controller — drift
  // never rejects a drawn leap (that would condition the dynamics on "no
  // rare events"; see the header comment).
  bool try_leap(std::uint64_t leap) {
    const std::uint64_t n = population_size();
    const ActiveWeights aw = weight_.weights(n);
    const std::uint64_t active = aw.restless;
    const std::uint64_t key_diag = aw.diag;
    const std::uint64_t w = aw.total;
    const double pairs =
        static_cast<double>(n) * static_cast<double>(n - 1);
    const double per_pair = static_cast<double>(leap) / pairs;
    const double k_mean = per_pair * static_cast<double>(w);

    draws_.clear();
    std::uint64_t drawn = 0;

    // Category enumeration beats per-draw sampling when the category grid
    // is small relative to the expected number of draws it replaces.
    const auto a_occ = static_cast<std::uint64_t>(active_pool_.occupied());
    const auto occ = static_cast<std::uint64_t>(all_pool_.occupied());
    std::uint64_t grid = a_occ * occ + (occ - a_occ) * a_occ;
    if constexpr (KeyedPassiveProtocol<P>)
      grid += weight_.key_counts().size();
    const bool enumerate =
        static_cast<double>(grid) <=
        std::max(256.0, 0.5 * k_mean);

    if (enumerate) {
      drawn = stage_enumerated(per_pair);
    } else {
      const std::uint64_t k_total =
          clamp_tail(sample_poisson(rng_, k_mean), k_mean);
      drawn = stage_per_draw(k_total, aw.w1, aw.w2, key_diag);
    }

    // --- Stage the net deltas (and counter deltas) through the cache.
    net_.clear();
    Counters staged{};
    for (std::uint32_t slot : draws_.entry_slots()) {
      const std::uint64_t key = draws_.key_at(slot);
      const std::uint64_t k = draws_.value_at(slot);
      const auto a = static_cast<std::uint32_t>(key >> 32);
      const auto b = static_cast<std::uint32_t>(key);
      const typename TransitionCache<P>::Entry& e =
          cache_.lookup(protocol_, a, b, rng_);
      if constexpr (ObservableProtocol<P>)
        staged.add_scaled(e.counters_delta, k);
      const auto dk = static_cast<std::int64_t>(k);
      net_.add(a, -dk);
      net_.add(b, -dk);
      net_.add(e.na, +dk);
      net_.add(e.nb, +dk);
    }

    // --- Reject leaps the frozen-rate fiction cannot support.
    std::int64_t d_active = 0;
    if constexpr (KeyedPassiveProtocol<P>) key_net_.clear();
    for (std::uint32_t slot : net_.entry_slots()) {
      const auto code = static_cast<std::uint32_t>(net_.key_at(slot));
      const auto d = static_cast<std::int64_t>(net_.value_at(slot));
      if (d == 0) continue;
      if (d < 0 && counts_[code] < static_cast<std::uint64_t>(-d))
        return false;  // negative count: shrink and retry
      if (restless(code)) {
        d_active += d;
      } else if constexpr (KeyedPassiveProtocol<P>) {
        key_net_.add(protocol_.passive_key(protocol_.decode(code)), d);
      }
    }
    last_drift_exceeded_ = false;
    if (drawn >= 2) {
      std::int64_t d_diag = 0;
      if constexpr (KeyedPassiveProtocol<P>) {
        for (std::uint32_t slot : key_net_.entry_slots()) {
          const auto d = static_cast<std::int64_t>(key_net_.value_at(slot));
          if (d == 0) continue;
          const std::uint64_t* kc =
              weight_.key_counts().find(key_net_.key_at(slot));
          const std::uint64_t old_kc = kc == nullptr ? 0 : *kc;
          const auto new_kc = static_cast<std::uint64_t>(
              static_cast<std::int64_t>(old_kc) + d);
          d_diag += static_cast<std::int64_t>(pair_weight(new_kc)) -
                    static_cast<std::int64_t>(pair_weight(old_kc));
        }
      }
      const auto new_active = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(active) + d_active);
      const std::uint64_t new_w =
          active_weights(n, new_active, add_signed(key_diag, d_diag)).total;
      const double drift =
          std::fabs(static_cast<double>(new_w) - static_cast<double>(w));
      last_drift_exceeded_ =
          drift > kRateDriftFactor * eps_ * static_cast<double>(w);
    }

    // --- Commit.
    last_deltas_.clear();
    for (std::uint32_t slot : net_.entry_slots()) {
      const auto code = static_cast<std::uint32_t>(net_.key_at(slot));
      const auto d = static_cast<std::int64_t>(net_.value_at(slot));
      if (d == 0) continue;
      const std::uint64_t old = counts_[code];
      const auto now = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(old) + d);
      counts_[code] = now;
      weight_.on_count_change(protocol_, code, old, now);
      all_pool_.apply_delta(code, d);
      if (restless(code)) active_pool_.apply_delta(code, d);
      last_deltas_.push_back(
          CountDelta{code, static_cast<std::int32_t>(d)});
    }
    if constexpr (ObservableProtocol<P>) counters_.add_scaled(staged, 1);
    effective_ += drawn;
    return true;
  }

  // Enumerated mode: one independent Poisson per non-null category —
  // active initiator x any occupied responder, passive initiator x active
  // responder, and (keyed) the same-key passive fibers — walking only the
  // pools' occupied slots.
  std::uint64_t stage_enumerated(double per_pair) {
    std::uint64_t drawn = 0;
    for (std::uint32_t sa = 0; sa < active_pool_.slots(); ++sa) {
      const std::uint64_t ma = active_pool_.weight_at(sa);
      if (ma == 0) continue;
      const std::uint32_t a = active_pool_.code_at(sa);
      for (std::uint32_t sb = 0; sb < all_pool_.slots(); ++sb) {
        std::uint64_t mb = all_pool_.weight_at(sb);
        if (mb == 0) continue;
        const std::uint32_t b = all_pool_.code_at(sb);
        if (b == a) --mb;
        if (mb == 0) continue;
        const std::uint64_t k = sample_poisson(
            rng_, per_pair * static_cast<double>(ma) *
                      static_cast<double>(mb));
        if (k != 0) {
          draws_.add(pair_code_key(a, b), static_cast<std::int64_t>(k));
          drawn += k;
        }
      }
    }
    for (std::uint32_t sq = 0; sq < all_pool_.slots(); ++sq) {
      const std::uint64_t mq = all_pool_.weight_at(sq);
      if (mq == 0) continue;
      const std::uint32_t q = all_pool_.code_at(sq);
      if (restless(q)) continue;  // active initiators covered above
      for (std::uint32_t sb = 0; sb < active_pool_.slots(); ++sb) {
        const std::uint64_t mb = active_pool_.weight_at(sb);
        if (mb == 0) continue;
        const std::uint64_t k = sample_poisson(
            rng_, per_pair * static_cast<double>(mq) *
                      static_cast<double>(mb));
        if (k != 0) {
          draws_.add(pair_code_key(q, active_pool_.code_at(sb)),
                     static_cast<std::int64_t>(k));
          drawn += k;
        }
      }
    }
    if constexpr (KeyedPassiveProtocol<P>) {
      const FlatMap64& kc = weight_.key_counts();
      for (std::uint32_t slot : kc.entry_slots()) {
        if (kc.value_at(slot) < 2) continue;
        const auto key = static_cast<std::uint32_t>(kc.key_at(slot));
        for (std::uint32_t c1 : protocol_.passive_fiber(key)) {
          const std::uint64_t m1 = counts_[c1];
          if (m1 == 0) continue;
          for (std::uint32_t c2 : protocol_.passive_fiber(key)) {
            std::uint64_t m2 = counts_[c2];
            if (c2 == c1) --m2;
            if (m2 == 0) continue;
            const std::uint64_t k = sample_poisson(
                rng_, per_pair * static_cast<double>(m1) *
                          static_cast<double>(m2));
            if (k != 0) {
              draws_.add(pair_code_key(c1, c2),
                         static_cast<std::int64_t>(k));
              drawn += k;
            }
          }
        }
      }
    }
    return drawn;
  }

  // Per-draw mode: `k_total` effective interactions, each sampling its
  // ordered pair with the exact kernels' 3-case conditional split —
  // with replacement across draws (the frozen-rate fiction), each draw's
  // responder conditioned on the initiator's unit within the draw.
  std::uint64_t stage_per_draw(std::uint64_t k_total, std::uint64_t w1,
                               std::uint64_t w2, std::uint64_t key_diag) {
    for (std::uint64_t i = 0; i < k_total; ++i) {
      const std::pair<std::uint32_t, std::uint32_t> pr =
          draw_effective_pair(w1, w2, key_diag);
      draws_.add(pair_code_key(pr.first, pr.second), 1);
    }
    return k_total;
  }

  // Samples one effective ordered pair from the *current* pools via the
  // exact kernels' 3-case conditional split on the active-weight partition
  // (which the caller passes so bulk staging can freeze it per leap).
  std::pair<std::uint32_t, std::uint32_t> draw_effective_pair(
      std::uint64_t w1, std::uint64_t w2, std::uint64_t key_diag) {
    const std::uint64_t x = rng_.below(w1 + w2 + key_diag);
    std::uint32_t a, b;
    if (x < w1) {
      // Active initiator ∝ count; responder ∝ count over the other n-1.
      a = active_pool_.code_at(active_pool_.draw_remove(rng_));
      active_pool_.restore_removed();
      std::uint32_t a_slot = 0;
      all_pool_.find_slot(a, a_slot);
      all_pool_.remove_bulk(a_slot, 1);
      b = all_pool_.code_at(all_pool_.draw_remove(rng_));
      all_pool_.restore_removed();
    } else if (x < w1 + w2) {
      // Passive initiator: rejection-sample from the full counts
      // (expected tries n / S, paid with probability ∝ S). Responder is
      // restless, so it is never the initiator's unit.
      do {
        a = all_pool_.code_at(all_pool_.draw_remove(rng_));
        all_pool_.restore_removed();
      } while (restless(a));
      b = active_pool_.code_at(active_pool_.draw_remove(rng_));
      active_pool_.restore_removed();
    } else {
      // Keyed same-key passive pair: key ∝ s_k (s_k - 1), then the
      // ordered pair within the fiber ∝ counts with the initiator's unit
      // excluded from the responder.
      return draw_diag_pair();
    }
    return {a, b};
  }

  // Exact jump-chain mode: consumes `leap` candidate interactions the way
  // the geometric-skip kernels do — skip Geometric(W / n(n-1)) candidates
  // to the next effective interaction, sample its ordered pair from the
  // *live* counts, apply it immediately, repeat. Every quantity refreshes
  // between events, so this mode is exact in distribution: leaps routed
  // here contribute zero approximation error. It carries the engine
  // whenever the expected event count is too small for bulk statistics
  // (small populations run entirely here) and absorbs bulk leaps whose
  // Poisson draws overran an occupancy.
  void exact_jump(std::uint64_t leap) {
    const std::uint64_t n = population_size();
    const double pairs =
        static_cast<double>(n) * static_cast<double>(n - 1);
    last_deltas_.clear();
    std::uint64_t consumed = 0;
    while (consumed < leap) {
      const std::uint64_t w = weight_.total(n);
      if (w == 0) break;  // silent: every remaining candidate is null
      const std::uint64_t skip =
          sample_geometric(rng_, static_cast<double>(w) / pairs);
      if (skip > leap - consumed) break;  // next event lands past the window
      consumed += skip;
      const ActiveWeights aw = weight_.weights(n);
      const std::pair<std::uint32_t, std::uint32_t> pr =
          draw_effective_pair(aw.w1, aw.w2, aw.diag);
      const typename TransitionCache<P>::Entry& e =
          cache_.lookup(protocol_, pr.first, pr.second, rng_);
      if constexpr (ObservableProtocol<P>)
        counters_.add_scaled(e.counters_delta, 1);
      ++effective_;
      if (e.na == pr.first && e.nb == pr.second)
        continue;  // null pair inside the active-weight superset
      net_.clear();
      net_.add(pr.first, -1);
      net_.add(pr.second, -1);
      net_.add(e.na, +1);
      net_.add(e.nb, +1);
      for (std::uint32_t slot : net_.entry_slots()) {
        const auto code = static_cast<std::uint32_t>(net_.key_at(slot));
        const auto d = static_cast<std::int64_t>(net_.value_at(slot));
        if (d == 0) continue;
        const std::uint64_t old = counts_[code];
        const auto now = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(old) + d);
        counts_[code] = now;
        weight_.on_count_change(protocol_, code, old, now);
        all_pool_.apply_delta(code, d);
        if (restless(code)) active_pool_.apply_delta(code, d);
        last_deltas_.push_back(
            CountDelta{code, static_cast<std::int32_t>(d)});
      }
    }
  }

  std::pair<std::uint32_t, std::uint32_t> draw_diag_pair() {
    if constexpr (KeyedPassiveProtocol<P>) {
      const FlatMap64& kc = weight_.key_counts();
      std::uint64_t target =
          rng_.below(weight_.weights(population_size()).diag);
      for (std::uint32_t slot : kc.entry_slots()) {
        const std::uint64_t sk = kc.value_at(slot);
        const std::uint64_t pw = pair_weight(sk);
        if (target >= pw) {
          target -= pw;
          continue;
        }
        const auto key = static_cast<std::uint32_t>(kc.key_at(slot));
        const std::uint32_t a =
            pick_in_fiber(key, rng_.below(sk), 0, 0);
        const std::uint32_t b =
            pick_in_fiber(key, rng_.below(sk - 1), a, 1);
        return {a, b};
      }
    }
    throw std::logic_error("key diagonal weight inconsistent");
  }

  std::uint32_t pick_in_fiber(std::uint32_t key, std::uint64_t target,
                              std::uint32_t exclude,
                              std::uint64_t discount) const {
    if constexpr (KeyedPassiveProtocol<P>) {
      for (std::uint32_t code : protocol_.passive_fiber(key)) {
        std::uint64_t m = counts_[code];
        if (discount > 0 && code == exclude) m -= discount;
        if (target < m) return code;
        target -= m;
      }
    }
    throw std::logic_error("passive fiber exhausted in diagonal draw");
  }

  // Aggregate-rate drift bound, relative to tau_eps: a multi-event leap may
  // move the active weight by at most this multiple of eps * W before the
  // feedback controller halves the next leap. At the default eps this flags
  // per-leap rate drift beyond 20%.
  static constexpr double kRateDriftFactor = 4.0;

  P protocol_;
  std::vector<std::uint64_t> counts_;
  Rng rng_;
  double eps_;
  Counters counters_{};
  std::uint64_t interactions_ = 0;

  ScalarActiveWeight<P> weight_;
  SegmentedPool all_pool_;     // weight = count, every occupied code
  SegmentedPool active_pool_;  // weight = count, restless codes only
  TransitionCache<P> cache_;

  FlatMap64 draws_;    // (a << 32 | b) -> effective draws this leap
  FlatMap64 net_;      // staged code -> net delta (int64 bits)
  FlatMap64 key_net_;  // staged passive-key -> delta (keyed drift preview)
  std::vector<CountDelta> last_deltas_;
  StrategyTrace trace_;
  std::uint64_t leaps_ = 0;
  std::uint64_t shrink_retries_ = 0;
  std::uint64_t effective_ = 0;
  // Drift-feedback controller state: the running leap-length ceiling (starts
  // unclamped = "use the eps target") and the last committed leap's verdict.
  std::uint64_t cur_leap_ = ~std::uint64_t{0};
  bool last_drift_exceeded_ = false;
};

}  // namespace ppsim
