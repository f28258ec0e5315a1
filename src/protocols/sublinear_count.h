// Count-form abstraction of Sublinear-Time-SSR (Table 1 rows 3-4).
//
// The real protocol (protocols/sublinear.h) is pinned to the O(n)-memory
// agent array: its per-agent state (3*log2 n name bits, a roster set, an
// interaction-history tree) is quasi-exponential, which defeats the
// EnumerableProtocol coding every fast engine depends on. This file defines
// a canonical truncated quotient of that state with a state space polynomial
// in n, so the dynamics run on BatchSimulation (geometric/multinomial/auto)
// and the tau tier.
//
// The abstraction, field by field:
//
//   name    -> lexicographic-rank CLASS. The dynamics never compare two
//              specific names; they only ask "is this name one of the
//              colliding duplicates, a completed unique name, or a partial
//              name of length l still being regenerated?". Classes:
//              partial(l) for l in [0, name_len), unique-full, dup_0, dup_1.
//              Bit-by-bit regeneration becomes partial(l) -> partial(l+1);
//              completion lands on unique-full (the O(1/n) birthday chance
//              that a regenerated name re-collides is dropped -- see "lossy
//              regimes" below).
//   tree    -> depth-<= d truncation with canonical shape codes (the
//              projection computed by truncated_shape_code /
//              root_edge_age in collision_tree.h). At trunc.depth = 1 the
//              live truncation of a non-duplicate agent's tree that matters
//              for detection is exactly its root edge toward the duplicate
//              name x: a WITNESS (j, age) recording which duplicate last
//              grafted the x-edge and how many owner operations ago. The
//              witness automaton is exact for direction-1 of
//              Detect-Name-Collision (holder of a live witness about dup_j
//              meets dup_{1-j} => syncs cannot match => collision);
//              direction-2 (the duplicate's own tree vouching) would need
//              per-pair sync memory and is dropped, which can only delay
//              detection, never fabricate it. trunc.depth = 0 keeps only
//              the direct equal-names check. Depths >= 2 are rejected.
//   roster  -> cardinality class: exact buckets {1..8}, geometric x2 above,
//              and the cap n as its own bucket (rank assignment fires there).
//              Merges take the deterministic mean-field union of bucket
//              representatives u = min(n, ra + rb - floor(ra*rb/n)). Ghost
//              names (|union| > n) are not expressible, so the ghost trigger
//              is unreachable by construction.
//   reset   -> exact. (role, resetcount <= Rmax, delaytimer <= Dmax) carry
//              over unchanged and the transition reuses propagate_reset_step
//              verbatim through ResetView, with the same dead-field
//              normalization as ResetProcess (a propagating agent's
//              delaytimer is rewritten before it is ever read). Resetting
//              agents keep their name class: recruitment and the rc 1 -> 0
//              transition preserve names in the real protocol, so dormant
//              agents can awaken carrying full (even duplicate) names.
//   coin    -> the Section 6 synthetic coin multiplexes a phase bit over
//              every interaction; it is rejected here (construction throws)
//              rather than silently mismodeled.
//
// Exact vs lossy regimes. The reset machinery (trigger -> wave -> dormancy
// -> drain) is a lossless quotient: every transition of (role, rc, dt, name
// length) matches the real protocol exactly, which the cross-form CI-overlap
// tests assert at n in {8, 64, 512}. Detection latency and roster growth are
// lossy (direction-2 dropped, mean-field rosters, birthday re-collisions
// dropped), so every record produced through the registry entries is stamped
// `abstracted: true` and tests/sublinear_count_test.cpp quantifies the
// detection divergence instead of claiming equivalence.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/intlog.h"
#include "core/protocol.h"
#include "core/rng.h"
#include "protocols/sublinear.h"
#include "reset/propagate_reset.h"

namespace ppsim {

class SublinearCountSSR {
 public:
  struct State {
    SlRole role = SlRole::Collecting;
    // Name class index: [0, name_len) partial of that length; name_len
    // unique-full; name_len + 1 + j the duplicate classes (j in {0, 1}).
    std::uint32_t nc = 0;
    // Witness about duplicate wit_j, wit_age in [1, th) own-operations old;
    // wit_age == 0 means no (live) witness. Collecting non-duplicates only.
    std::uint32_t wit_j = 0;
    std::uint32_t wit_age = 0;
    std::uint32_t bucket = 0;  // roster cardinality bucket index
    // Resetting fields (exact; dead while Collecting).
    std::uint32_t resetcount = 0;
    std::uint32_t delaytimer = 0;
  };

  // Engine-owned per-interaction event counters (ObservableProtocol).
  // ghost_triggers is omitted: the bucketed roster cannot exceed n, so the
  // ghost rule is unreachable in count form.
  struct Counters {
    std::uint64_t collision_triggers = 0;
    std::uint64_t resets_executed = 0;
    std::uint64_t rank_updates = 0;
    std::uint64_t coin_bits = 0;

    // ScalableCounters: bulk accounting for the multinomial batch kernel.
    void add_scaled(const Counters& d, std::uint64_t k) {
      collision_triggers += d.collision_triggers * k;
      resets_executed += d.resets_executed * k;
      rank_updates += d.rank_updates * k;
      coin_bits += d.coin_bits * k;
    }
  };

  // interact() never reads the Rng: transitions are cacheable per ordered
  // state-code pair (multinomial batch strategy).
  static constexpr bool kDeterministicInteract = true;

  // Unkeyed passive structure: see is_passive below.
  static constexpr bool kPassivePairsAreNull = true;

  SublinearCountSSR(SublinearParams params, std::uint32_t trunc_depth)
      : params_(params), depth_(trunc_depth) {
    if (params.n < 2) throw std::invalid_argument("population size >= 2");
    if (params.use_synthetic_coin)
      throw std::invalid_argument(
          "the synthetic coin is not expressible in the count abstraction");
    if (trunc_depth > 1)
      throw std::invalid_argument(
          "trunc.depth >= 2 would need per-pair sync memory; supported "
          "depths are 0 (direct check only) and 1 (witness automaton)");
    if (params.th < 1 || params.rmax < 1 || params.dmax < 1)
      throw std::invalid_argument("constants must be positive");
    build_buckets();
    // Code-layout radices (see encode below).
    wit_count_ = depth_ >= 1 && params_.th >= 2 ? 1 + 2 * (params_.th - 1) : 1;
    const std::uint64_t rb = buckets_.size();
    const std::uint64_t nn = params_.name_len + 3;  // partials + full + dups
    dup_base_ = (params_.name_len + 1ull) * wit_count_ * rb;
    collecting_size_ = dup_base_ + 2 * rb;
    resetting_size_ = (params_.rmax + params_.dmax + 1ull) * nn;
    check_code_space("sublinear count form",
                     collecting_size_ + resetting_size_);
  }

  std::uint32_t population_size() const { return params_.n; }
  const SublinearParams& params() const { return params_; }
  std::uint32_t trunc_depth() const { return depth_; }

  // --- Name classes. ---
  std::uint32_t partial_class(std::uint32_t len) const {
    if (len >= params_.name_len)
      throw std::invalid_argument("partial length past name_len");
    return len;
  }
  std::uint32_t full_class() const { return params_.name_len; }
  std::uint32_t dup_class(std::uint32_t j) const {
    if (j > 1) throw std::invalid_argument("duplicate index must be 0 or 1");
    return params_.name_len + 1 + j;
  }
  bool is_dup_class(std::uint32_t nc) const { return nc > params_.name_len; }

  // --- Roster cardinality buckets. ---
  std::uint32_t num_buckets() const {
    return static_cast<std::uint32_t>(buckets_.size());
  }
  std::uint32_t top_bucket() const { return num_buckets() - 1; }
  std::uint64_t bucket_rep(std::uint32_t k) const { return buckets_.at(k); }
  std::uint32_t bucket_of(std::uint64_t size) const {
    if (size < 1 || size > params_.n)
      throw std::invalid_argument("roster size out of [1, n]");
    const auto it = std::lower_bound(buckets_.begin(), buckets_.end(), size);
    return static_cast<std::uint32_t>(it - buckets_.begin());
  }

  void interact(State& a, State& b, Rng&, Counters& c) const {
    if (a.role == SlRole::Collecting && b.role == SlRole::Collecting) {
      const bool a_dup = is_dup_class(a.nc);
      const bool b_dup = is_dup_class(b.nc);
      // Line 2 of Protocol 5: collision detection. Direct check first, then
      // direction-1 of the truncated witness automaton; the ghost rule is
      // unreachable (buckets are capped at n).
      bool collision = params_.direct_check && a_dup && b_dup;
      if (depth_ >= 1 && !collision) {
        collision = (b_dup && !a_dup && a.wit_age > 0 &&
                     a.wit_j != b.nc - params_.name_len - 1) ||
                    (a_dup && !b_dup && b.wit_age > 0 &&
                     b.wit_j != a.nc - params_.name_len - 1);
      }
      if (collision) {
        ++c.collision_triggers;
        trigger_reset(a);  // line 3
        trigger_reset(b);
        return;
      }
      // Tree exchange + tick, projected to depth <= 1: meeting a duplicate
      // (re)grafts the x-edge with a fresh timer (witness age 1 after this
      // interaction's tick); otherwise an existing witness just ages, dying
      // when its timer would have hit 0 (age reaches th).
      if (depth_ >= 1) {
        auto update_witness = [&](State& self, const State& other,
                                  bool self_dup, bool other_dup) {
          if (self_dup) return;  // duplicates hold no witness about x
          if (other_dup) {
            if (params_.th >= 2) {
              self.wit_j = other.nc - params_.name_len - 1;
              self.wit_age = 1;
            }
            return;
          }
          if (self.wit_age > 0 && ++self.wit_age >= params_.th)
            self.wit_age = 0;
        };
        update_witness(a, b, a_dup, b_dup);
        update_witness(b, a, b_dup, a_dup);
      }
      // Line 5: roster union, as the mean-field union of bucket
      // representatives. The expected intersection ra*rb/n is FLOORED, not
      // rounded: floor(r*r/n) < r for every r < n, so a same-bucket merge
      // always advances and the roll call cannot stall (rounding deadlocks
      // at r = 1, n = 2), at the price of a bias of at most one name
      // toward faster collection. Line 6-8: rank assignment fires on newly
      // reaching the full roster (the real protocol re-assigns on every
      // full-roster meeting, but those are exactly the pairs the passive
      // skip elides, so the count tallies first-fills only).
      const std::uint64_t ra = bucket_rep(a.bucket);
      const std::uint64_t rb = bucket_rep(b.bucket);
      const std::uint64_t cap = params_.n;
      std::uint64_t u = ra + rb - ra * rb / cap;
      u = std::min(u, cap);
      if (u == cap && (ra < cap || rb < cap)) c.rank_updates += 2;
      a.bucket = b.bucket = bucket_of(u);
    } else {
      // Line 10: some agent is Resetting — the exact regime.
      ResetView<SublinearCountSSR, Counters> host{*this, c};
      propagate_reset_step(host, a, b);
      // Lines 11-12: clear names while the reset wave is propagating.
      for (State* i : {&a, &b})
        if (i->role == SlRole::Resetting && i->resetcount > 0) i->nc = 0;
      // Lines 13-14: dormant agents regenerate their name bit by bit;
      // partial(l) -> partial(l+1), landing on unique-full at l = name_len.
      for (State* i : {&a, &b}) {
        if (i->role != SlRole::Resetting || i->resetcount != 0 ||
            i->nc >= params_.name_len)
          continue;
        ++i->nc;
        ++c.coin_bits;
      }
    }
  }

  // Ranks are not recoverable from cardinality classes; the count entries
  // expose detected/drained/ptime stop conditions, never ranked.
  std::uint32_t rank_of(const State&) const { return 0; }

  // --- EnumerableProtocol: canonical coding. Layout (Collecting block
  // first, Resetting block contiguous at the end so the drained predicate
  // scans one span):
  //   [0, dup_base_)                non-dup Collecting: ((nc*W)+w)*RB + r
  //   [dup_base_, collecting_size_) dup Collecting:     dup_base_ + j*RB + r
  //   [collecting_size_, ...)       Resetting:          phase*NN + nc
  // where w = 0 means no witness, w = 1 + j*(th-1) + (age-1) otherwise;
  // phase < rmax is propagating with rc = phase+1 (delaytimer dead,
  // normalized), phase >= rmax is dormant with dt = phase - rmax. ---
  std::uint32_t num_states() const {
    return static_cast<std::uint32_t>(collecting_size_ + resetting_size_);
  }

  std::uint32_t encode(const State& s) const {
    const std::uint64_t rb = buckets_.size();
    if (s.role == SlRole::Collecting) {
      if (s.bucket >= rb) throw std::invalid_argument("bucket out of range");
      if (is_dup_class(s.nc)) {
        const std::uint32_t j = s.nc - params_.name_len - 1;
        if (j > 1) throw std::invalid_argument("invalid name class");
        return static_cast<std::uint32_t>(dup_base_ + j * rb + s.bucket);
      }
      std::uint64_t w = 0;
      if (s.wit_age > 0) {
        if (depth_ < 1 || s.wit_age >= params_.th || s.wit_j > 1)
          throw std::invalid_argument("invalid witness");
        w = 1 + static_cast<std::uint64_t>(s.wit_j) * (params_.th - 1) +
            (s.wit_age - 1);
      }
      return static_cast<std::uint32_t>(
          (static_cast<std::uint64_t>(s.nc) * wit_count_ + w) * rb + s.bucket);
    }
    const std::uint64_t nn = params_.name_len + 3;
    if (s.nc >= nn) throw std::invalid_argument("invalid name class");
    std::uint64_t phase;
    if (s.resetcount > 0) {
      if (s.resetcount > params_.rmax)
        throw std::invalid_argument("invalid propagating Resetting state");
      phase = s.resetcount - 1;
    } else {
      if (s.delaytimer > params_.dmax)
        throw std::invalid_argument("invalid dormant Resetting state");
      phase = params_.rmax + s.delaytimer;
    }
    return static_cast<std::uint32_t>(collecting_size_ + phase * nn + s.nc);
  }

  State decode(std::uint32_t code) const {
    State s;
    const std::uint64_t rb = buckets_.size();
    std::uint64_t c = code;
    if (c < dup_base_) {
      s.role = SlRole::Collecting;
      s.bucket = static_cast<std::uint32_t>(c % rb);
      c /= rb;
      const std::uint64_t w = c % wit_count_;
      s.nc = static_cast<std::uint32_t>(c / wit_count_);
      if (w > 0) {
        s.wit_j = static_cast<std::uint32_t>((w - 1) / (params_.th - 1));
        s.wit_age = static_cast<std::uint32_t>((w - 1) % (params_.th - 1)) + 1;
      }
      return s;
    }
    if (c < collecting_size_) {
      s.role = SlRole::Collecting;
      c -= dup_base_;
      s.nc = params_.name_len + 1 + static_cast<std::uint32_t>(c / rb);
      s.bucket = static_cast<std::uint32_t>(c % rb);
      return s;
    }
    c -= collecting_size_;
    if (c >= resetting_size_)
      throw std::invalid_argument("state code out of range");
    const std::uint64_t nn = params_.name_len + 3;
    s.role = SlRole::Resetting;
    s.nc = static_cast<std::uint32_t>(c % nn);
    const std::uint64_t phase = c / nn;
    if (phase < params_.rmax) {
      s.resetcount = static_cast<std::uint32_t>(phase) + 1;
    } else {
      s.resetcount = 0;
      s.delaytimer = static_cast<std::uint32_t>(phase - params_.rmax);
    }
    return s;
  }

  // First code of the contiguous Resetting block and its length — the span
  // the drained stop-condition scans.
  std::uint32_t first_resetting_code() const {
    return static_cast<std::uint32_t>(collecting_size_);
  }
  std::uint32_t resetting_code_count() const {
    return static_cast<std::uint32_t>(resetting_size_);
  }

  // --- UnkeyedPassiveProtocol. Passive = Collecting, uniquely and fully
  // named, witness-free, roster at cap: two such agents change nothing (the
  // mean union of cap with cap is cap, no witness is created or aged, no
  // collision can fire). Any pair with a Resetting agent is non-null, and a
  // non-passive Collecting partner strictly grows its roster bucket or ages
  // a witness, so the certificate is tight for non-duplicate pairs. ---
  bool is_passive(const State& s) const {
    return s.role == SlRole::Collecting && s.nc == params_.name_len &&
           s.wit_age == 0 && s.bucket == top_bucket();
  }
  bool is_null_pair(const State& a, const State& b) const {
    return is_passive(a) && is_passive(b);
  }

  // Marks an agent as having just detected an error (used by adversarial
  // generators; colliders keep their duplicate name class until the
  // propagating wave clears it, exactly like the real protocol).
  void trigger_reset(State& s) const {
    s.role = SlRole::Resetting;
    s.resetcount = params_.rmax;
    s.delaytimer = 0;
  }

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
  // Protocol 6 Reset(a): back to Collecting with a singleton roster and a
  // bare tree (no witnesses). The name class survives, as in the real
  // protocol.
  void reset_agent(State& s, Counters& c) const {
    ++c.resets_executed;
    s.role = SlRole::Collecting;
    s.bucket = 0;  // bucket_of(1)
    s.wit_j = 0;
    s.wit_age = 0;
  }
  std::uint32_t dmax() const { return params_.dmax; }

 private:
  // Exact buckets {1..8}, geometric x2 above, a bucket ending at n-1, and
  // {n} alone on top (rank assignment is observable only there).
  void build_buckets() {
    const std::uint64_t cap = params_.n;
    for (std::uint64_t u = 1; u <= cap && u <= 8; ++u) buckets_.push_back(u);
    if (cap > 8) {
      for (std::uint64_t u = 16; u < cap - 1; u *= 2) buckets_.push_back(u);
      if (buckets_.back() < cap - 1) buckets_.push_back(cap - 1);
      buckets_.push_back(cap);
    }
  }

  SublinearParams params_;
  std::uint32_t depth_;
  std::vector<std::uint64_t> buckets_;  // bucket upper bounds = representatives
  std::uint64_t wit_count_ = 1;
  std::uint64_t dup_base_ = 0;
  std::uint64_t collecting_size_ = 0;
  std::uint64_t resetting_size_ = 0;
};

}  // namespace ppsim
