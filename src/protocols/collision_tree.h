// The interaction-history tree of Sublinear-Time-SSR and the collision
// detection it supports (Protocols 7 and 8, Sections 5.3-5.4, Figure 2).
//
// Each agent stores a tree of depth <= H whose root is labelled with its own
// name; a root-to-node path a -s1-> b -s2-> c means "when a last met b they
// generated sync value s1, and in that interaction b told a that when b last
// met c they generated s2". Paths are simply labelled (no name repeats along
// a path). When agents meet they (1) check every not-outdated path ending at
// the partner's name against the partner's own history (Check-Path-
// Consistency) and declare a collision on any mismatch, then (2) exchange
// trees: each replaces its depth-1 subtree for the partner by the partner's
// entire tree trimmed to depth H-1, tagged with a freshly generated shared
// sync value.
//
// Representation. The tree field has quasi-exponential size if materialized
// (Theorem 5.7 counts exp(O(n^H) log n) states), so only the root level is
// owned and mutable; everything below it is immutable and structurally
// shared.
//
//   * owned root - HistoryTree keeps its root edges in a vector in graft
//                  order plus an open-addressing index from child name to
//                  position. A graft appends the partner's fresh edge and
//                  marks the partner's old edge replaced: O(1) amortized,
//                  where copying the root cost O(degree) per graft. Each
//                  edge carries its child's name, so an H = 1 edge (whose
//                  subtree the depth-H-1 trim empties) has no child node.
//   * lazy prune - dead-edge pruning (below) is a floor: a root edge is
//                  visible iff expiry + prune_window >= the owner's ops at
//                  its last graft, and every edge is visible after
//                  install(). Replaced and pruned edges leave the vector
//                  in an amortized sweep. Detection and verification see
//                  exactly the edges a copying graft keeps.
//   * snapshots  - for H >= 2 the partner grafts this agent's
//                  pre-interaction root as a subtree, so root() freezes the
//                  visible edges into a shared immutable HistoryNode (the
//                  O(degree) copy a copying graft pays anyway), cached until
//                  the next graft. root() is also the read-only view tests,
//                  bench_fig2 and the demo walk.
//
// Three protocol rules are lazy:
//
//   * timers   - "decrement every edge timer" (lines 13-14) would touch the
//                whole tree; instead each agent keeps an operation counter
//                and edges store an expiry in their owner's frame. A graft
//                stores the frame shift (owner ops - partner ops), so the
//                effective timer of an edge reached with accumulated shift
//                sigma is expiry + sigma - reader_ops, clamped at 0.
//   * depth    - trimming the partner's tree to depth H-1 (line 9) is a
//                depth budget enforced during traversal.
//   * own-name - "remove subtrees rooted at my own name" (lines 11-12) and
//                simple labeling are together equivalent to skipping, during
//                traversal, any child whose name equals an ancestor's name on
//                the current path (the root carries the owner's name).
//
// Detection walks live paths only, and at the DFS's last level only the
// edge named after the partner can end one: at H = 1, where the root is the
// last level, a detection is a lookup in the root index (O(1) probes), and
// deeper last levels skip every other edge. Per-node 256-bit Bloom digests
// of subtree names prune the levels above.
//
// Two departures from the paper's protocol text, both safe:
//
//   * dead-edge pruning - a root edge expired for longer than a window of
//     the owner's operations is dropped (CollisionDetectorParams::
//     prune_window; Sublinear-Time-SSR uses (H + 6) * TH). Detection never
//     reads an expired edge, so pruning matters only to verification:
//     Check-Path-Consistency reads the verifier's root edge to the path's
//     second-to-last agent whatever its timer. That edge vouches for a live
//     path in the partner's tree whose edges were each created within TH
//     operations of their holder, and the holders' operation counters
//     drift apart by O(TH) per hop whp (every agent interacts at the same
//     rate), so an edge expired for longer than (H + O(1)) * TH of the
//     verifier's operations cannot be needed by a live path of length <= H.
//     Without the window the root degree grows with every name ever met;
//     with it the degree is bounded by the partners met within the window.
//   * direct check - two agents with equal names that meet declare a
//     collision outright (CollisionDetectorParams::direct_check). Protocol 7
//     detects only through third parties, which cannot work at n = 2 (there
//     is no third agent). The rule is the paper's H = 0 warm-up, and it can
//     never fire in a configuration with unique names, so it adds no false
//     collision.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/name.h"
#include "core/rng.h"

namespace ppsim {

struct HistoryNode;
using HistoryNodePtr = std::shared_ptr<const HistoryNode>;

struct HistoryEdge {
  Name name;                // the child's name
  std::uint64_t sync = 0;   // {1..Smax}
  std::int64_t expiry = 0;  // effective timer = expiry + sigma - reader ops
  std::int64_t shift = 0;   // added to sigma when descending into child
  HistoryNodePtr child;     // null: a bare leaf (every H = 1 graft)
};

// 256-bit Bloom digest over the names appearing in a subtree (including the
// node's own name; over-approximate, never misses a present name).
struct NameDigest {
  std::array<std::uint64_t, 4> words{};

  void add(const Name& n) {
    const std::uint64_t h = n.hash();
    words[(h >> 6) & 3] |= (1ULL << (h & 63));
    words[(h >> 14) & 3] |= (1ULL << ((h >> 8) & 63));
  }
  void merge(const NameDigest& other) {
    for (int i = 0; i < 4; ++i) words[i] |= other.words[i];
  }
  bool may_contain(const Name& n) const {
    const std::uint64_t h = n.hash();
    return ((words[(h >> 6) & 3] >> (h & 63)) & 1ULL) != 0 &&
           ((words[(h >> 14) & 3] >> ((h >> 8) & 63)) & 1ULL) != 0;
  }
};

struct HistoryNode {
  Name name;
  std::vector<HistoryEdge> children;  // sibling names are unique
  NameDigest digest;                  // own name + all descendant names

  HistoryNode(Name n, std::vector<HistoryEdge> kids)
      : name(n), children(std::move(kids)) {
    digest.add(name);
    for (const auto& e : children) {
      digest.add(e.name);
      if (e.child) digest.merge(e.child->digest);
    }
  }

  // Iterative teardown: history DAGs can contain reference chains as long as
  // the execution, so the default recursive shared_ptr destruction could
  // overflow the stack.
  ~HistoryNode() {
    thread_local std::vector<HistoryEdge> pending;
    thread_local bool draining = false;
    for (auto& e : children) pending.push_back(std::move(e));
    children.clear();
    if (draining) return;
    draining = true;
    while (!pending.empty()) {
      HistoryEdge e = std::move(pending.back());
      pending.pop_back();
      e.child.reset();  // may re-enter this destructor, which only enqueues
    }
    draining = false;
  }

  HistoryNode(const HistoryNode&) = delete;
  HistoryNode& operator=(const HistoryNode&) = delete;
};

// One agent's tree field: the owned root level (see "Representation"
// above) plus the agent's operation counter, whose increments realize the
// global timer decrement.
class HistoryTree {
 public:
  HistoryTree() = default;

  void reset(const Name& own_name) {
    name_ = own_name;
    ops_ = 0;
    floor_ = kNoFloor;
    edges_.clear();
    reindex(kMinSweep);
    frozen_.reset();
  }

  // Reset and install both build the index.
  bool initialized() const { return !slots_.empty(); }
  std::uint64_t ops() const { return ops_; }
  const Name& own_name() const { return name_; }

  // The root as an immutable node: the visible edges in graft order. Built
  // on first use after a change and cached, so the partner of an H >= 2
  // graft and repeated readers share one snapshot.
  const HistoryNodePtr& root() const {
    if (!frozen_) {
      std::vector<HistoryEdge> kids;
      kids.reserve(edges_.size());
      for (const auto& e : edges_)
        if (visible(e)) kids.push_back(e);
      frozen_ = std::make_shared<const HistoryNode>(name_, std::move(kids));
    }
    return frozen_;
  }

  // The visible root edge to `name`, or nullptr. `probes`, when given, is
  // increased by the index slots examined.
  const HistoryEdge* find(const Name& name,
                          std::uint64_t* probes = nullptr) const {
    if (!initialized()) return nullptr;
    const Slot& s = slots_[probe(name, probes)];
    if (s.pos == kEmptySlot || !visible(edges_[s.pos])) return nullptr;
    return &edges_[s.pos];
  }

  // Lines 13-14 of Protocol 7: decrement every timer in this tree.
  void tick() { ++ops_; }

  // Lines 6-10 of Protocol 7: replace the depth-1 subtree named after the
  // partner by the partner's tree (`partner_root`, a pre-interaction
  // snapshot, or null for a bare leaf when H = 1), reached via a new edge
  // carrying the shared sync value and a fresh timer. prune_window > 0
  // raises the prune floor to this graft's ops - prune_window (see
  // "dead-edge pruning" above).
  void graft(const Name& partner, HistoryNodePtr partner_root,
             std::uint64_t partner_ops, std::uint64_t sync, std::uint32_t th,
             std::uint64_t prune_window = 0) {
    const auto ops = static_cast<std::int64_t>(ops_);
    if (prune_window > 0)
      floor_ = std::max(floor_, ops - static_cast<std::int64_t>(prune_window));
    Slot& slot = slots_[probe(partner)];
    if (slot.pos != kEmptySlot) {
      HistoryEdge& old = edges_[slot.pos];
      old.expiry = kReplaced;
      old.child.reset();
    }
    slot = Slot{static_cast<std::uint32_t>(edges_.size()),
                tag(partner.hash())};
    HistoryEdge& fresh = edges_.emplace_back();
    fresh.name = partner;
    fresh.sync = sync;
    fresh.expiry = ops + th;
    fresh.shift = ops - static_cast<std::int64_t>(partner_ops);
    fresh.child = std::move(partner_root);
    frozen_.reset();
    if (edges_.size() >= sweep_at_) sweep();
  }

  // Used by adversarial generators to install arbitrary (valid-format,
  // sibling-unique) trees; every installed root edge is visible.
  void install(HistoryNodePtr root, std::uint64_t ops) {
    name_ = root->name;
    ops_ = ops;
    floor_ = kNoFloor;
    edges_ = root->children;
    reindex(std::max(kMinSweep, 2 * edges_.size()));
    frozen_ = std::move(root);
  }

 private:
  friend class CollisionDetector;

  struct Slot {
    std::uint32_t pos;  // index into edges_, or kEmptySlot
    std::uint32_t tag;  // high half of the name's hash
  };
  static constexpr std::uint32_t kEmptySlot =
      std::numeric_limits<std::uint32_t>::max();
  static constexpr std::size_t kMinSweep = 8;
  // A replaced edge's expiry: below every floor, so never visible.
  static constexpr std::int64_t kReplaced =
      std::numeric_limits<std::int64_t>::min();
  static constexpr std::int64_t kNoFloor = kReplaced + 1;

  bool visible(const HistoryEdge& e) const { return e.expiry >= floor_; }

  static std::uint32_t tag(std::uint64_t hash) {
    return static_cast<std::uint32_t>(hash >> 32);
  }

  // The index of the slot holding `name`, or of the empty slot where it
  // goes; `probes`, when given, counts the slots examined. The table is at
  // most half full: it has room for 2 * sweep_at_ entries and edges_ never
  // holds more than sweep_at_ names.
  std::size_t probe(const Name& name, std::uint64_t* probes = nullptr) const {
    const std::uint64_t h = name.hash();
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = h & mask;; i = (i + 1) & mask) {
      if (probes != nullptr) ++*probes;
      const Slot& s = slots_[i];
      if (s.pos == kEmptySlot ||
          (s.tag == tag(h) &&
           edges_[s.pos].name == name))
        return i;
    }
  }

  // Moves the visible edges (in graft order) into a vector with room for
  // as many grafts again and rebuilds the index: each graft pays O(1)
  // amortized, and the owned root holds at most twice its visible edges.
  void sweep() {
    std::size_t live = 0;
    for (const auto& e : edges_) live += visible(e) ? 1 : 0;
    std::vector<HistoryEdge> kept;
    kept.reserve(std::max(kMinSweep, 2 * live));
    for (auto& e : edges_)
      if (visible(e)) kept.push_back(std::move(e));
    edges_ = std::move(kept);
    reindex(edges_.capacity());
  }

  void reindex(std::size_t sweep_at) {
    sweep_at_ = sweep_at;
    std::size_t capacity = 2 * kMinSweep;
    while (capacity < 2 * sweep_at_) capacity *= 2;
    slots_.assign(capacity, Slot{kEmptySlot, 0});
    for (std::size_t p = 0; p < edges_.size(); ++p)
      slots_[probe(edges_[p].name)] =
          Slot{static_cast<std::uint32_t>(p), tag(edges_[p].name.hash())};
  }

  Name name_;
  std::uint64_t ops_ = 0;
  std::int64_t floor_ = kNoFloor;  // visible iff expiry >= floor_
  std::vector<HistoryEdge> edges_;  // graft order; replaced/pruned linger
  std::vector<Slot> slots_;         // power-of-two open addressing
  std::size_t sweep_at_ = kMinSweep;
  mutable HistoryNodePtr frozen_;  // root() cache, reset by every graft
};

struct CollisionDetectorParams {
  std::uint32_t depth_h = 1;  // H: maximum path length considered
  std::uint64_t smax = 1;     // sync values drawn from {1..smax}
  std::uint32_t th = 1;       // initial edge timer T_H
  // The direct rule "equal names meeting declare a collision" (see
  // "direct check" in the header comment).
  bool direct_check = true;
  // Root edges expired for more than this many owner operations are
  // dropped (0 = keep forever; see "dead-edge pruning" in the header
  // comment). Bounds the root degree by ~the number of distinct partners
  // met within the window.
  std::uint64_t prune_window = 0;
};

struct CollisionDetectorStats {
  std::uint64_t calls = 0;
  // Detection work: root and subtree edges examined by the DFS. The last
  // level is a lookup, so at H = 1 this counts root-index probes.
  std::uint64_t nodes_visited = 0;
  std::uint64_t paths_checked = 0;       // Check-Path-Consistency runs
  std::uint64_t max_nodes_one_call = 0;  // worst single detection DFS
  std::uint64_t collisions_reported = 0;
};

// Stateless with respect to agents; owns parameters only. Instrumentation is
// reported into a caller-owned CollisionDetectorStats (engine-side observer),
// which keeps detect_and_update const — required for const protocol
// transition functions. The DFS scratch buffers are mutable workspace, so a
// detector instance must not be shared across concurrently running engines
// (each trial of run_trials_parallel constructs its own protocol).
class CollisionDetector {
 public:
  explicit CollisionDetector(CollisionDetectorParams params)
      : params_(params) {}

  const CollisionDetectorParams& params() const { return params_; }

  // Protocol 7, Detect-Name-Collision(a, b). Returns true iff a collision is
  // detected; otherwise performs the mutual tree exchange and timer tick.
  // Both trees must be initialized.
  bool detect_and_update(HistoryTree& a, HistoryTree& b, Rng& rng,
                         CollisionDetectorStats& stats) const {
    ++stats.calls;
    std::uint64_t call_nodes = 0;
    if (params_.direct_check && a.own_name() == b.own_name()) {
      ++stats.collisions_reported;
      return true;
    }
    // Lines 1-4: check all of a's live histories about b and vice versa.
    const bool collision = has_inconsistent_path(a, b, call_nodes, stats) ||
                           has_inconsistent_path(b, a, call_nodes, stats);
    stats.nodes_visited += call_nodes;
    stats.max_nodes_one_call = std::max(stats.max_nodes_one_call, call_nodes);
    if (collision) {
      ++stats.collisions_reported;
      return true;
    }
    // Line 5: the shared fresh sync value.
    const std::uint64_t x = rng.range(1, params_.smax);
    // Lines 6-10: mutual graft of pre-interaction snapshots, trimmed to
    // depth H-1. For H = 1 the trim leaves only the partner's bare name: the
    // edge gets no child node, which cuts the reference chain into the
    // partner's history entirely and gives the depth-1 "dictionary" of the
    // paper's warm-up O(sqrt n) protocol with O(1) memory per edge. For
    // H >= 2 the trim stays lazy (see the header comment).
    HistoryNodePtr a_for_b;
    HistoryNodePtr b_for_a;
    if (params_.depth_h >= 2) {
      a_for_b = a.root();
      b_for_a = b.root();
    }
    const std::uint64_t a_ops = a.ops();
    const std::uint64_t b_ops = b.ops();
    a.graft(b.own_name(), std::move(b_for_a), b_ops, x, params_.th,
            params_.prune_window);
    b.graft(a.own_name(), std::move(a_for_b), a_ops, x, params_.th,
            params_.prune_window);
    // Lines 13-14: global timer decrement.
    a.tick();
    b.tick();
    return false;
  }

  // Exposed for unit tests: Protocol 8 on an explicit path. `names` holds
  // the path's node labels from the root (names[0] = i's own name) to the
  // final node (named j); `syncs[k]` is the sync on the edge into names[k]
  // (syncs[0] unused). Returns true iff consistent.
  bool check_path_consistency(const HistoryTree& j_tree,
                              const std::vector<Name>& names,
                              const std::vector<std::uint64_t>& syncs) const {
    const std::size_t p = names.size() - 1;
    const HistoryNode* cur = nullptr;  // null: j's owned root
    for (std::size_t t = 1; t <= p && t <= params_.depth_h; ++t) {
      const Name& want = names[p - t];
      const HistoryEdge* next =
          t == 1 ? j_tree.find(want) : find_child(*cur, want);
      if (next == nullptr) break;  // the reverse suffix ends here
      // j.e_{p-t+1} in the paper's indexing corresponds to i's edge with
      // sync syncs[p-t+1].
      if (next->sync == syncs[p - t + 1]) return true;
      cur = next->child.get();
      if (cur == nullptr) break;  // a bare leaf has no children
    }
    return false;  // Inconsistent: no edge of the reverse suffix matched
  }

 private:
  static const HistoryEdge* find_child(const HistoryNode& node,
                                       const Name& name) {
    for (const auto& e : node.children)
      if (e.name == name) return &e;
    return nullptr;
  }

  // Line 2 of Protocol 7: DFS over all live (all timers positive), simply
  // labelled paths of length <= H in i's tree that end at a node named
  // j.name; returns true iff any fails Check-Path-Consistency against j.
  bool has_inconsistent_path(const HistoryTree& i_tree,
                             const HistoryTree& j_tree,
                             std::uint64_t& nodes_visited,
                             CollisionDetectorStats& stats) const {
    const Name& target = j_tree.own_name();
    const auto ops = static_cast<std::int64_t>(i_tree.ops());
    path_names_.clear();
    path_syncs_.clear();
    path_names_.push_back(i_tree.own_name());
    path_syncs_.push_back(0);
    if (params_.depth_h == 1) {
      // The root is the last level: only the edge named j can end a path.
      const HistoryEdge* e = i_tree.find(target, &nodes_visited);
      if (e == nullptr || e->expiry - ops <= 0 ||
          target == i_tree.own_name())
        return false;
      return inconsistent(*e, j_tree, stats);
    }
    return dfs(i_tree.edges_, i_tree.floor_, /*sigma=*/0, ops, /*depth=*/0,
               target, j_tree, nodes_visited, stats);
  }

  // One level of the DFS: the edges of i's owned root (floor = its prune
  // floor) or of a shared node (floor = kNoFloor: all visible).
  bool dfs(const std::vector<HistoryEdge>& edges, std::int64_t floor,
           std::int64_t sigma, std::int64_t ops, std::uint32_t depth,
           const Name& target, const HistoryTree& j_tree,
           std::uint64_t& nodes_visited, CollisionDetectorStats& stats) const {
    if (depth >= params_.depth_h) return false;
    const bool last_level = depth + 1 == params_.depth_h;
    for (const auto& e : edges) {
      if (e.expiry < floor) continue;  // replaced or pruned: not in the tree
      ++nodes_visited;
      const Name& cn = e.name;
      // Nothing below the last level is visited, so only j's edge matters.
      if (last_level && !(cn == target)) continue;
      if (e.expiry + sigma - ops <= 0) continue;  // outdated: timer hit 0
      if (e.child && !e.child->digest.may_contain(target))
        continue;  // Bloom prune
      bool repeated = false;  // lazy simple-labeling / own-name removal
      for (const Name& anc : path_names_)
        if (anc == cn) {
          repeated = true;
          break;
        }
      if (repeated) continue;
      bool bad = false;
      if (cn == target) {
        bad = inconsistent(e, j_tree, stats);
      } else if (e.child) {
        path_names_.push_back(cn);
        path_syncs_.push_back(e.sync);
        bad = dfs(e.child->children, HistoryTree::kNoFloor, sigma + e.shift,
                  ops, depth + 1, target, j_tree, nodes_visited, stats);
        path_names_.pop_back();
        path_syncs_.pop_back();
      }
      if (bad) return true;
    }
    return false;
  }

  // Check-Path-Consistency of the current path extended by `last` (an edge
  // named j); true iff it fails.
  bool inconsistent(const HistoryEdge& last, const HistoryTree& j_tree,
                    CollisionDetectorStats& stats) const {
    ++stats.paths_checked;
    path_names_.push_back(last.name);
    path_syncs_.push_back(last.sync);
    const bool bad = !check_path_consistency(j_tree, path_names_, path_syncs_);
    path_names_.pop_back();
    path_syncs_.pop_back();
    return bad;
  }

  CollisionDetectorParams params_;
  // Scratch buffers reused across calls to avoid per-interaction allocation;
  // mutable workspace only (never read across calls), not observable state.
  mutable std::vector<Name> path_names_;
  mutable std::vector<std::uint64_t> path_syncs_;
};

// --- Introspection helpers (tests, state accounting, demos). ---
//
// Each walks the tree from root(); an edge without a child node is a leaf
// named e.name.

// Counts the logical nodes of the tree as the protocol defines it (depth
// limit, live-or-dead edges, simple labeling). Exponential in the worst
// case; use on small trees only.
inline std::uint64_t logical_node_count(const HistoryNode& node,
                                        std::uint32_t depth_left,
                                        std::vector<Name>& path) {
  std::uint64_t count = 1;
  if (depth_left == 0) return count;
  path.push_back(node.name);
  for (const auto& e : node.children) {
    bool repeated = false;
    for (const Name& anc : path)
      if (anc == e.name) {
        repeated = true;
        break;
      }
    if (repeated) continue;
    count += e.child ? logical_node_count(*e.child, depth_left - 1, path) : 1;
  }
  path.pop_back();
  return count;
}

inline std::uint64_t logical_node_count(const HistoryTree& tree,
                                        std::uint32_t depth_h) {
  std::vector<Name> path;
  return tree.initialized() ? logical_node_count(*tree.root(), depth_h, path)
                            : 0;
}

// Counts only live paths (all timers positive), i.e. the portion the
// detection DFS can visit.
inline std::uint64_t live_node_count(const HistoryNode& node,
                                     std::int64_t sigma, std::int64_t ops,
                                     std::uint32_t depth_left,
                                     std::vector<Name>& path) {
  std::uint64_t count = 1;
  if (depth_left == 0) return count;
  path.push_back(node.name);
  for (const auto& e : node.children) {
    if (e.expiry + sigma - ops <= 0) continue;
    bool repeated = false;
    for (const Name& anc : path)
      if (anc == e.name) {
        repeated = true;
        break;
      }
    if (repeated) continue;
    count += e.child ? live_node_count(*e.child, sigma + e.shift, ops,
                                       depth_left - 1, path)
                     : 1;
  }
  path.pop_back();
  return count;
}

inline std::uint64_t live_node_count(const HistoryTree& tree,
                                     std::uint32_t depth_h) {
  std::vector<Name> path;
  return tree.initialized()
             ? live_node_count(*tree.root(), 0,
                               static_cast<std::int64_t>(tree.ops()), depth_h,
                               path)
             : 0;
}

// --- Truncated-tree projection (the count-form state abstraction). ---
//
// sublinear_count.h abstracts each agent's history tree to its depth-<= d
// truncation with syncs erased: what survives of a root edge is only (child
// name, age in owner operations). These helpers compute that projection from
// a concrete tree, so tests can map agent-array states onto count-form codes
// and verify the abstraction identifies exactly the states the quotient says
// it should.

// Number of live (timer > 0) root edges — the truncated tree's root degree.
inline std::uint32_t live_root_degree(const HistoryTree& tree) {
  if (!tree.initialized()) return 0;
  const auto ops = static_cast<std::int64_t>(tree.ops());
  std::uint32_t deg = 0;
  for (const auto& e : tree.root()->children)
    if (e.expiry - ops > 0) ++deg;
  return deg;
}

// Age (in owner operations since the graft) of the root edge leading to
// `name`, or -1 if no such edge exists. The edge is live iff its age < th it
// was grafted with: age = ops_now - ops_at_graft = th - remaining_timer. A
// freshly grafted edge has age 1 by the time its owner next interacts (the
// creating interaction's tick happens after the graft).
inline std::int64_t root_edge_age(const HistoryTree& tree, const Name& name,
                                  std::uint32_t th) {
  if (!tree.initialized()) return -1;
  const HistoryEdge* e = tree.find(name);
  if (e == nullptr) return -1;
  return static_cast<std::int64_t>(tree.ops()) - (e->expiry - th);
}

// Canonical shape code of the depth-<= d truncation restricted to live
// paths: a stable hash over (child name, recursive code) pairs sorted by
// name, with syncs and exact timer values erased. Two trees get the same
// code iff their live truncations are isomorphic as name-labelled trees —
// the equivalence the count form's state classes are built from.
inline std::uint64_t truncated_shape_code(const Name& name,
                                          const HistoryNode* node,
                                          std::int64_t sigma, std::int64_t ops,
                                          std::uint32_t depth_left,
                                          std::vector<Name>& path) {
  std::uint64_t code = name.hash() * 0x9e3779b97f4a7c15ULL + 1;
  if (depth_left == 0 || node == nullptr) return code;
  path.push_back(name);
  std::vector<std::uint64_t> kid_codes;
  for (const auto& e : node->children) {
    if (e.expiry + sigma - ops <= 0) continue;
    bool repeated = false;
    for (const Name& anc : path)
      if (anc == e.name) {
        repeated = true;
        break;
      }
    if (repeated) continue;
    kid_codes.push_back(truncated_shape_code(e.name, e.child.get(),
                                             sigma + e.shift, ops,
                                             depth_left - 1, path));
  }
  path.pop_back();
  std::sort(kid_codes.begin(), kid_codes.end());
  // The root-vs-child mix must not commute: a plain (code ^ k) * m maps
  // root-A-child-B and root-B-child-A single-edge trees to the same code.
  for (std::uint64_t k : kid_codes)
    code = (code * 0x2545f4914f6cdd1dULL) ^ (k + 0x9e3779b97f4a7c15ULL);
  return code;
}

inline std::uint64_t truncated_shape_code(const HistoryTree& tree,
                                          std::uint32_t depth) {
  if (!tree.initialized()) return 0;
  std::vector<Name> path;
  const HistoryNodePtr& root = tree.root();
  return truncated_shape_code(root->name, root.get(), 0,
                              static_cast<std::int64_t>(tree.ops()), depth,
                              path);
}

}  // namespace ppsim
