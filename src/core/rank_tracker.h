// Incremental tracker for "the rank fields form a permutation of 1..n".
//
// Checking correctness of a ranking configuration naively costs O(n) per
// interaction; since an interaction touches exactly two agents, the tracker
// maintains per-rank counts and the number of ranks with count exactly 1,
// giving an O(1) update. Rank 0 means "no rank assigned".
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace ppsim {

class RankTracker {
 public:
  explicit RankTracker(std::uint32_t n) : n_(n), counts_(n + 1, 0) {}

  // Initializes from a full configuration scan.
  template <class States, class RankOf>
  void reset(const States& states, RankOf&& rank_of) {
    counts_.assign(n_ + 1, 0);
    singletons_ = 0;
    for (const auto& s : states) add(rank_of(s));
  }

  // Call when one agent's rank changes from old_rank to new_rank.
  void on_change(std::uint32_t old_rank, std::uint32_t new_rank) {
    if (old_rank == new_rank) return;
    remove(old_rank);
    add(new_rank);
  }

  // Count-engine form: `delta` agents entered (+) or left (-) `rank`.
  // Mirrors the CountDelta stream of BatchSimulation::last_deltas(). O(1)
  // whatever |delta|: only the count's before and after values decide
  // whether `rank` is a singleton.
  void apply_delta(std::uint32_t rank, std::int64_t delta) {
    if (rank > n_) throw std::out_of_range("rank exceeds population size");
    const std::uint32_t before = counts_[rank];
    const auto after = static_cast<std::uint32_t>(
        static_cast<std::int64_t>(before) + delta);
    counts_[rank] = after;
    if (rank == 0) return;
    if (before == 1) --singletons_;
    if (after == 1) ++singletons_;
  }

  // True iff every rank in 1..n is held by exactly one agent.
  bool is_permutation() const { return singletons_ == n_; }

  std::uint32_t count_of(std::uint32_t rank) const {
    return counts_.at(rank);
  }

 private:
  void add(std::uint32_t rank) {
    if (rank > n_) throw std::out_of_range("rank exceeds population size");
    const auto c = ++counts_[rank];
    if (rank == 0) return;
    if (c == 1)
      ++singletons_;
    else if (c == 2)
      --singletons_;
  }

  void remove(std::uint32_t rank) {
    if (rank > n_) throw std::out_of_range("rank exceeds population size");
    const auto c = --counts_[rank];
    if (rank == 0) return;
    if (c == 1)
      ++singletons_;
    else if (c == 0)
      --singletons_;
  }

  std::uint32_t n_;
  std::vector<std::uint32_t> counts_;
  std::uint32_t singletons_ = 0;
};

}  // namespace ppsim
