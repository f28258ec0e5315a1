// Test-only reference for the collision detector: the copying design that
// protocols/collision_tree.h replaced, kept verbatim in behaviour. Each
// graft copies the whole root into a new shared immutable node (dropping
// the partner's old edge and, with a prune window, every edge expired for
// longer than the window), H = 1 grafts materialize the partner as a
// canonical leaf node, and detection is a full DFS over every root edge.
// tests/collision_tree_test.cpp drives it side by side with the library's
// owned, name-indexed root and asserts identical verdicts, syncs and
// projections after every interaction.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/name.h"
#include "core/rng.h"
#include "protocols/collision_tree.h"

namespace ppsim::reference {

struct RefNode;
using RefNodePtr = std::shared_ptr<const RefNode>;

struct RefEdge {
  std::uint64_t sync = 0;   // {1..Smax}
  std::int64_t expiry = 0;  // effective timer = expiry + sigma - reader ops
  std::int64_t shift = 0;   // added to sigma when descending into child
  RefNodePtr child;
};

struct RefNode {
  Name name;
  std::vector<RefEdge> children;  // sibling names are unique
  NameDigest digest;                  // own name + all descendant names

  RefNode(Name n, std::vector<RefEdge> kids)
      : name(n), children(std::move(kids)) {
    digest.add(name);
    for (const auto& e : children)
      if (e.child) digest.merge(e.child->digest);
  }

  // Iterative teardown: history DAGs can contain reference chains as long as
  // the execution, so the default recursive shared_ptr destruction could
  // overflow the stack.
  ~RefNode() {
    thread_local std::vector<RefEdge> pending;
    thread_local bool draining = false;
    for (auto& e : children) pending.push_back(std::move(e));
    children.clear();
    if (draining) return;
    draining = true;
    while (!pending.empty()) {
      RefEdge e = std::move(pending.back());
      pending.pop_back();
      e.child.reset();  // may re-enter this destructor, which only enqueues
    }
    draining = false;
  }

  RefNode(const RefNode&) = delete;
  RefNode& operator=(const RefNode&) = delete;
};

// One agent's tree field: the current (immutable) root plus the agent's
// operation counter, whose increments realize the global timer decrement.
class RefTree {
 public:
  RefTree() = default;

  void reset(const Name& own_name) {
    root_ = std::make_shared<const RefNode>(own_name,
                                                std::vector<RefEdge>{});
    ops_ = 0;
  }

  bool initialized() const { return root_ != nullptr; }
  const RefNodePtr& root() const { return root_; }
  std::uint64_t ops() const { return ops_; }
  const Name& own_name() const { return root_->name; }

  // Lines 13-14 of Protocol 7: decrement every timer in this tree.
  void tick() { ++ops_; }

  // The copying graft: a new root without the partner's old edge and, when
  // prune_window > 0, without edges expired for longer than the window.
  void graft(const RefNodePtr& partner_root, std::uint64_t partner_ops,
             std::uint64_t sync, std::uint32_t th,
             std::uint64_t prune_window = 0) {
    std::vector<RefEdge> kids;
    kids.reserve(root_->children.size() + 1);
    for (const auto& e : root_->children) {
      if (e.child->name == partner_root->name) continue;
      if (prune_window > 0 &&
          e.expiry + static_cast<std::int64_t>(prune_window) <
              static_cast<std::int64_t>(ops_))
        continue;  // long-dead: unreachable for detection, stale for verify
      kids.push_back(e);
    }
    RefEdge fresh;
    fresh.sync = sync;
    fresh.expiry = static_cast<std::int64_t>(ops_) + th;
    fresh.shift = static_cast<std::int64_t>(ops_) -
                  static_cast<std::int64_t>(partner_ops);
    fresh.child = partner_root;
    kids.push_back(std::move(fresh));
    root_ = std::make_shared<const RefNode>(root_->name, std::move(kids));
  }

  // Used by adversarial generators to install arbitrary (valid-format) trees.
  void install(RefNodePtr root, std::uint64_t ops) {
    root_ = std::move(root);
    ops_ = ops;
  }

 private:
  RefNodePtr root_;
  std::uint64_t ops_ = 0;
};

// The full-DFS detector over RefTree (Protocols 7 and 8).
class RefDetector {
 public:
  explicit RefDetector(CollisionDetectorParams params)
      : params_(params) {}

  const CollisionDetectorParams& params() const { return params_; }

  // Protocol 7, Detect-Name-Collision(a, b). Returns true iff a collision is
  // detected; otherwise performs the mutual tree exchange and timer tick.
  // Both trees must be initialized.
  bool detect_and_update(RefTree& a, RefTree& b, Rng& rng,
                         CollisionDetectorStats& stats) const {
    ++stats.calls;
    std::uint64_t call_nodes = 0;
    if (params_.direct_check && a.own_name() == b.own_name()) {
      ++stats.collisions_reported;
      return true;
    }
    // Lines 1-4: check all of a's live histories about b and vice versa.
    if (has_inconsistent_path(a, b, call_nodes, stats) ||
        has_inconsistent_path(b, a, call_nodes, stats)) {
      stats.nodes_visited += call_nodes;
      stats.max_nodes_one_call =
          std::max(stats.max_nodes_one_call, call_nodes);
      ++stats.collisions_reported;
      return true;
    }
    stats.nodes_visited += call_nodes;
    stats.max_nodes_one_call = std::max(stats.max_nodes_one_call, call_nodes);
    // Line 5: the shared fresh sync value.
    const std::uint64_t x = rng.range(1, params_.smax);
    // Lines 6-10: mutual graft of pre-interaction snapshots, trimmed to
    // depth H-1. For H = 1 the trim leaves only the partner's bare name, so
    // we materialize it (a canonical leaf): this cuts the reference chain
    // into the partner's history entirely and gives the depth-1
    // "dictionary" of the paper's warm-up O(sqrt n) protocol with O(1)
    // memory per edge. For H >= 2 the trim stays lazy (see class comment).
    RefNodePtr a_for_b;
    RefNodePtr b_for_a;
    if (params_.depth_h == 1) {
      a_for_b = std::make_shared<const RefNode>(
          a.own_name(), std::vector<RefEdge>{});
      b_for_a = std::make_shared<const RefNode>(
          b.own_name(), std::vector<RefEdge>{});
    } else {
      a_for_b = a.root();
      b_for_a = b.root();
    }
    const std::uint64_t a_ops = a.ops();
    const std::uint64_t b_ops = b.ops();
    a.graft(b_for_a, b_ops, x, params_.th, params_.prune_window);
    b.graft(a_for_b, a_ops, x, params_.th, params_.prune_window);
    // Lines 13-14: global timer decrement.
    a.tick();
    b.tick();
    return false;
  }

  // Exposed for unit tests: Protocol 8 on an explicit path. `names` holds
  // the path's node labels from the root (names[0] = i's own name) to the
  // final node (named j); `syncs[k]` is the sync on the edge into names[k]
  // (syncs[0] unused). Returns true iff consistent.
  bool check_path_consistency(const RefTree& j_tree,
                              const std::vector<Name>& names,
                              const std::vector<std::uint64_t>& syncs) const {
    const std::size_t p = names.size() - 1;
    const RefNode* cur = j_tree.root().get();
    for (std::size_t t = 1; t <= p && t <= params_.depth_h; ++t) {
      const Name& want = names[p - t];
      const RefEdge* next = find_child(*cur, want);
      if (next == nullptr) break;  // the reverse suffix ends here
      // j.e_{p-t+1} in the paper's indexing corresponds to i's edge with
      // sync syncs[p-t+1].
      if (next->sync == syncs[p - t + 1]) return true;
      cur = next->child.get();
    }
    return false;  // Inconsistent: no edge of the reverse suffix matched
  }

 private:
  static const RefEdge* find_child(const RefNode& node,
                                       const Name& name) {
    for (const auto& e : node.children)
      if (e.child->name == name) return &e;
    return nullptr;
  }

  // Line 2 of Protocol 7: DFS over all live (all timers positive), simply
  // labelled paths of length <= H in i's tree that end at a node named
  // j.name; returns true iff any fails Check-Path-Consistency against j.
  bool has_inconsistent_path(const RefTree& i_tree,
                             const RefTree& j_tree,
                             std::uint64_t& nodes_visited,
                             CollisionDetectorStats& stats) const {
    const Name target = j_tree.own_name();
    path_names_.clear();
    path_syncs_.clear();
    path_names_.push_back(i_tree.own_name());
    path_syncs_.push_back(0);
    return dfs(*i_tree.root(), /*sigma=*/0,
               static_cast<std::int64_t>(i_tree.ops()), /*depth=*/0, target,
               j_tree, nodes_visited, stats);
  }

  bool dfs(const RefNode& node, std::int64_t sigma, std::int64_t ops,
           std::uint32_t depth, const Name& target, const RefTree& j_tree,
           std::uint64_t& nodes_visited, CollisionDetectorStats& stats) const {
    if (depth >= params_.depth_h) return false;
    for (const auto& e : node.children) {
      ++nodes_visited;
      const Name& cn = e.child->name;
      if (e.expiry + sigma - ops <= 0) continue;  // outdated: timer hit 0
      if (!e.child->digest.may_contain(target)) continue;  // Bloom prune
      bool repeated = false;  // lazy simple-labeling / own-name removal
      for (const Name& anc : path_names_)
        if (anc == cn) {
          repeated = true;
          break;
        }
      if (repeated) continue;
      path_names_.push_back(cn);
      path_syncs_.push_back(e.sync);
      bool bad = false;
      if (cn == target) {
        ++stats.paths_checked;
        bad = !check_path_consistency(j_tree, path_names_, path_syncs_);
      }
      if (!bad)
        bad = dfs(*e.child, sigma + e.shift, ops, depth + 1, target, j_tree,
                  nodes_visited, stats);
      path_names_.pop_back();
      path_syncs_.pop_back();
      if (bad) return true;
    }
    return false;
  }

  CollisionDetectorParams params_;
  // Scratch buffers reused across calls to avoid per-interaction allocation;
  // mutable workspace only (never read across calls), not observable state.
  mutable std::vector<Name> path_names_;
  mutable std::vector<std::uint64_t> path_syncs_;
};

// --- Truncated-tree projection (the count-form state abstraction). ---
//
// sublinear_count.h abstracts each agent's history tree to its depth-<= d
// truncation with syncs erased: what survives of a root edge is only (child
// name, age in owner operations). These helpers compute that projection from
// a concrete tree, so tests can map agent-array states onto count-form codes
// and verify the abstraction identifies exactly the states the quotient says
// it should.

// Number of live (timer > 0) root edges — the truncated tree's root degree.
inline std::uint32_t live_root_degree(const RefTree& tree) {
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
inline std::int64_t root_edge_age(const RefTree& tree, const Name& name,
                                  std::uint32_t th) {
  if (!tree.initialized()) return -1;
  const auto ops = static_cast<std::int64_t>(tree.ops());
  for (const auto& e : tree.root()->children)
    if (e.child->name == name) return ops - (e.expiry - th);
  return -1;
}

// Canonical shape code of the depth-<= d truncation restricted to live
// paths: a stable hash over (child name, recursive code) pairs sorted by
// name, with syncs and exact timer values erased. Two trees get the same
// code iff their live truncations are isomorphic as name-labelled trees —
// the equivalence the count form's state classes are built from.
inline std::uint64_t truncated_shape_code(const RefNode& node,
                                          std::int64_t sigma, std::int64_t ops,
                                          std::uint32_t depth_left,
                                          std::vector<Name>& path) {
  std::uint64_t code = node.name.hash() * 0x9e3779b97f4a7c15ULL + 1;
  if (depth_left == 0) return code;
  path.push_back(node.name);
  std::vector<std::uint64_t> kid_codes;
  for (const auto& e : node.children) {
    if (e.expiry + sigma - ops <= 0) continue;
    bool repeated = false;
    for (const Name& anc : path)
      if (anc == e.child->name) {
        repeated = true;
        break;
      }
    if (repeated) continue;
    kid_codes.push_back(truncated_shape_code(*e.child, sigma + e.shift, ops,
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

inline std::uint64_t truncated_shape_code(const RefTree& tree,
                                          std::uint32_t depth) {
  if (!tree.initialized()) return 0;
  std::vector<Name> path;
  return truncated_shape_code(*tree.root(), 0,
                              static_cast<std::int64_t>(tree.ops()), depth,
                              path);
}

}  // namespace ppsim::reference
