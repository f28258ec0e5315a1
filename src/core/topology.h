// Interaction-graph topologies: the scheduler layer behind the Engine API
// generalized from the complete graph to arbitrary communication graphs.
//
// The population-protocol model schedules one ordered pair per slot,
// uniformly over the DIRECTED EDGES of a communication graph G (the paper's
// Section 2 model is the complete graph; ROADMAP item 1 names the
// directed-ring SS-LE family as the first non-clique target). A Topology is
// a value describing G together with an exact uniform-edge sampler:
//
//   complete     all n(n-1) ordered pairs (the classical scheduler)
//   ring         the directed cycle: n edges i -> (i+1) mod n
//   line         the path 0-1-...-(n-1), both directions: 2(n-1) edges
//   star         hub 0 <-> each leaf, both directions: 2(n-1) edges
//   mesh:RxC     the R x C grid, both directions per adjacency
//   torus:RxC    the grid with wrap-around edges (a wrapped dimension
//                contributes its extra edge only when its size is >= 3,
//                so degenerate dims never duplicate an edge or self-loop)
//   custom:path  explicit directed-edge list loaded from a file
//
// Transparency contract: sampling the complete topology reproduces
// UniformScheduler::next draw for draw — same rng calls, same order, same
// values — so topology=complete is bit-identical to the untopologized
// engines and consumes zero extra randomness (the fault-layer contract of
// core/faults.h, applied to the scheduler itself). Every other topology
// uses exactly one rng.below(edge_count()) draw per slot.
//
// Custom-graph file format: one directed edge "u v" per line, '#' starts a
// comment, blank lines ignored. Validation is strict (the CLI convention):
// self-loops, duplicate edges, out-of-range indices, isolated agents and
// disconnected supports are hard errors, not silent acceptance.
#pragma once

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <queue>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "core/scheduler.h"

namespace ppsim {

enum class TopologyKind { kComplete, kRing, kLine, kStar, kMesh, kTorus,
                          kCustom };

inline const char* to_string(TopologyKind k) {
  switch (k) {
    case TopologyKind::kComplete: return "complete";
    case TopologyKind::kRing: return "ring";
    case TopologyKind::kLine: return "line";
    case TopologyKind::kStar: return "star";
    case TopologyKind::kMesh: return "mesh";
    case TopologyKind::kTorus: return "torus";
    case TopologyKind::kCustom: return "custom";
  }
  return "?";
}

class Topology {
 public:
  // Unset placeholder (population_size() == 0): engine constructors taking
  // a defaulted Topology substitute complete(n) for it. Never sampled.
  Topology() : kind_(TopologyKind::kComplete), n_(0), spec_("complete") {}

  // --- Factories -----------------------------------------------------------

  static Topology complete(std::uint32_t n) {
    Topology t(TopologyKind::kComplete, n, "complete");
    t.edge_count_ = static_cast<std::uint64_t>(n) * (n - 1);
    t.diameter_ = 1;
    return t;
  }

  static Topology ring(std::uint32_t n) {
    Topology t(TopologyKind::kRing, n, "ring");
    t.edge_count_ = n;  // directed cycle; n = 2 gives both (0,1) and (1,0)
    t.diameter_ = n / 2;  // undirected support (interactions update both ends)
    return t;
  }

  static Topology line(std::uint32_t n) {
    Topology t(TopologyKind::kLine, n, "line");
    t.edge_count_ = 2ull * (n - 1);
    t.diameter_ = n - 1;
    return t;
  }

  static Topology star(std::uint32_t n) {
    Topology t(TopologyKind::kStar, n, "star");
    t.edge_count_ = 2ull * (n - 1);
    t.diameter_ = n == 2 ? 1 : 2;
    return t;
  }

  static Topology mesh(std::uint32_t rows, std::uint32_t cols) {
    return grid(TopologyKind::kMesh, rows, cols);
  }

  static Topology torus(std::uint32_t rows, std::uint32_t cols) {
    return grid(TopologyKind::kTorus, rows, cols);
  }

  // Explicit directed-edge list. `label` is the canonical spec echoed in
  // reports (parse() passes "custom:<path>").
  static Topology custom(std::uint32_t n, std::vector<AgentPair> edges,
                         const std::string& label = "custom") {
    Topology t(TopologyKind::kCustom, n, label);
    validate_edge_list(n, edges, label);
    t.edge_count_ = edges.size();
    t.custom_edges_ = std::move(edges);
    t.diameter_ = undirected_diameter(n, t.custom_edges_);
    return t;
  }

  // --- Spec parsing --------------------------------------------------------

  // Full parse against a known population size. "" means complete.
  static Topology parse(const std::string& spec, std::uint32_t n) {
    if (n < 2) throw std::invalid_argument("population size must be >= 2");
    if (spec.empty() || spec == "complete") return complete(n);
    if (spec == "ring") return ring(n);
    if (spec == "line") return line(n);
    if (spec == "star") return star(n);
    if (spec.rfind("mesh:", 0) == 0 || spec.rfind("torus:", 0) == 0) {
      const bool is_torus = spec[0] == 't';
      const auto [rows, cols] =
          parse_dims(spec, spec.find(':') + 1);
      if (static_cast<std::uint64_t>(rows) * cols != n)
        throw std::invalid_argument(
            "topology '" + spec + "' needs rows*cols == n (" +
            std::to_string(static_cast<std::uint64_t>(rows) * cols) +
            " != " + std::to_string(n) + ")");
      return is_torus ? torus(rows, cols) : mesh(rows, cols);
    }
    if (spec.rfind("custom:", 0) == 0)
      return custom(n, load_edge_file(spec.substr(7)), spec);
    throw std::invalid_argument(
        "unknown topology '" + spec +
        "' (complete | ring | line | star | mesh:RxC | torus:RxC | "
        "custom:<file>)");
  }

  // Population-free shape check for flag-parse time (common/cli.h): the
  // kind must be known, mesh/torus dims must parse as positive integers,
  // and a custom file must exist and parse (index bounds, isolation and
  // connectivity still need n and are checked by parse()).
  static void validate_spec(const std::string& spec) {
    if (spec.empty() || spec == "complete" || spec == "ring" ||
        spec == "line" || spec == "star")
      return;
    if (spec.rfind("mesh:", 0) == 0 || spec.rfind("torus:", 0) == 0) {
      parse_dims(spec, spec.find(':') + 1);
      return;
    }
    if (spec.rfind("custom:", 0) == 0) {
      load_edge_file(spec.substr(7));
      return;
    }
    throw std::invalid_argument(
        "unknown topology '" + spec +
        "' (complete | ring | line | star | mesh:RxC | torus:RxC | "
        "custom:<file>)");
  }

  // --- Observers -----------------------------------------------------------

  TopologyKind kind() const { return kind_; }
  bool is_complete() const { return kind_ == TopologyKind::kComplete; }
  std::uint32_t population_size() const { return n_; }
  std::uint64_t edge_count() const { return edge_count_; }  // directed
  const std::string& spec() const { return spec_; }

  // Diameter of the undirected support of G (an interaction updates both
  // endpoints, so information crosses any edge in either direction —
  // edge orientation only fixes the initiator/responder roles).
  std::uint32_t diameter() const { return diameter_; }

  // --- Sampling ------------------------------------------------------------

  // One slot: an ordered pair uniform over the directed edges. The
  // complete path must stay textually identical to UniformScheduler::next
  // (core/scheduler.h) — that equality IS the transparency contract.
  AgentPair sample(Rng& rng) const {
    switch (kind_) {
      case TopologyKind::kComplete: {
        const auto i = static_cast<std::uint32_t>(rng.below(n_));
        auto j = static_cast<std::uint32_t>(rng.below(n_ - 1));
        if (j >= i) ++j;  // uniform over the n-1 agents distinct from i
        return AgentPair{i, j};
      }
      case TopologyKind::kRing: {
        const auto e = static_cast<std::uint32_t>(rng.below(n_));
        return AgentPair{e, e + 1 == n_ ? 0 : e + 1};
      }
      case TopologyKind::kLine: {
        const auto e = rng.below(edge_count_);
        const auto u = static_cast<std::uint32_t>(e >> 1);
        return (e & 1) ? AgentPair{u + 1, u} : AgentPair{u, u + 1};
      }
      case TopologyKind::kStar: {
        const auto e = rng.below(edge_count_);
        const auto leaf = static_cast<std::uint32_t>(1 + (e >> 1));
        return (e & 1) ? AgentPair{leaf, 0} : AgentPair{0, leaf};
      }
      case TopologyKind::kMesh:
      case TopologyKind::kTorus: {
        const auto e = rng.below(edge_count_);
        return grid_edge(e);
      }
      case TopologyKind::kCustom:
        return custom_edges_[rng.below(edge_count_)];
    }
    throw std::logic_error("unreachable topology kind");
  }

  // Materialized directed-edge list, in the sampler's index order (edge k
  // is what sample() returns when its below(edge_count) draw lands on k;
  // the complete topology has no single-draw index and lists pairs in
  // (i, j) lexicographic order). Test/analysis use — O(edges) memory.
  std::vector<AgentPair> edges() const {
    std::vector<AgentPair> out;
    out.reserve(edge_count_);
    switch (kind_) {
      case TopologyKind::kComplete:
        for (std::uint32_t i = 0; i < n_; ++i)
          for (std::uint32_t j = 0; j < n_; ++j)
            if (i != j) out.push_back(AgentPair{i, j});
        break;
      case TopologyKind::kRing:
        for (std::uint32_t e = 0; e < n_; ++e)
          out.push_back(AgentPair{e, e + 1 == n_ ? 0 : e + 1});
        break;
      case TopologyKind::kLine:
      case TopologyKind::kStar:
      case TopologyKind::kMesh:
      case TopologyKind::kTorus:
        for (std::uint64_t e = 0; e < edge_count_; ++e) {
          if (kind_ == TopologyKind::kLine) {
            const auto u = static_cast<std::uint32_t>(e >> 1);
            out.push_back((e & 1) ? AgentPair{u + 1, u} : AgentPair{u, u + 1});
          } else if (kind_ == TopologyKind::kStar) {
            const auto leaf = static_cast<std::uint32_t>(1 + (e >> 1));
            out.push_back((e & 1) ? AgentPair{leaf, 0} : AgentPair{0, leaf});
          } else {
            out.push_back(grid_edge(e));
          }
        }
        break;
      case TopologyKind::kCustom:
        out = custom_edges_;
        break;
    }
    return out;
  }

 private:
  Topology(TopologyKind kind, std::uint32_t n, std::string spec)
      : kind_(kind), n_(n), spec_(std::move(spec)) {
    if (n < 2) throw std::invalid_argument("population size must be >= 2");
  }

  // Shared mesh/torus construction. A torus dimension of size >= 3 closes
  // into a cycle (one extra undirected edge per row/column); sizes 1 and 2
  // keep the mesh edges only — the wrap edge would be a self-loop (size 1)
  // or a duplicate of the existing edge (size 2).
  static Topology grid(TopologyKind kind, std::uint32_t rows,
                       std::uint32_t cols) {
    if (rows == 0 || cols == 0)
      throw std::invalid_argument("mesh/torus dims must be >= 1");
    const std::uint64_t n64 = static_cast<std::uint64_t>(rows) * cols;
    if (n64 > 0xffffffffull)
      throw std::invalid_argument("mesh/torus rows*cols overflows uint32");
    const bool wrap = kind == TopologyKind::kTorus;
    const std::uint32_t h_per_row =
        (wrap && cols >= 3) ? cols : (cols >= 2 ? cols - 1 : 0);
    const std::uint32_t v_per_col =
        (wrap && rows >= 3) ? rows : (rows >= 2 ? rows - 1 : 0);
    const std::uint64_t undirected =
        static_cast<std::uint64_t>(rows) * h_per_row +
        static_cast<std::uint64_t>(cols) * v_per_col;
    if (undirected == 0)
      throw std::invalid_argument("mesh/torus 1x1 has no edges");
    const std::string spec = std::string(to_string(kind)) + ":" +
                             std::to_string(rows) + "x" +
                             std::to_string(cols);
    Topology t(kind, static_cast<std::uint32_t>(n64), spec);
    t.rows_ = rows;
    t.cols_ = cols;
    t.h_per_row_ = h_per_row;
    t.v_per_col_ = v_per_col;
    t.edge_count_ = 2 * undirected;
    const std::uint32_t dr =
        (wrap && rows >= 3) ? rows / 2 : rows - 1;
    const std::uint32_t dc =
        (wrap && cols >= 3) ? cols / 2 : cols - 1;
    t.diameter_ = dr + dc;
    return t;
  }

  // Directed grid edge for sampler index e in [0, edge_count): bit 0 is
  // the direction, the rest indexes undirected edges — horizontal edges
  // (row-major) first, then vertical edges (column-major). A wrapped
  // dimension's per-row/per-column edge k connects offset k to (k+1) mod
  // size, which for the unwrapped count (size-1) never wraps.
  AgentPair grid_edge(std::uint64_t e) const {
    const bool back = (e & 1) != 0;
    std::uint64_t u = e >> 1;
    std::uint32_t a, b;
    const std::uint64_t horizontal =
        static_cast<std::uint64_t>(rows_) * h_per_row_;
    if (u < horizontal) {
      const auto r = static_cast<std::uint32_t>(u / h_per_row_);
      const auto k = static_cast<std::uint32_t>(u % h_per_row_);
      a = r * cols_ + k;
      b = r * cols_ + (k + 1 == cols_ ? 0 : k + 1);
    } else {
      u -= horizontal;
      const auto c = static_cast<std::uint32_t>(u / v_per_col_);
      const auto k = static_cast<std::uint32_t>(u % v_per_col_);
      a = k * cols_ + c;
      b = (k + 1 == rows_ ? 0 : k + 1) * cols_ + c;
    }
    return back ? AgentPair{b, a} : AgentPair{a, b};
  }

  static std::pair<std::uint32_t, std::uint32_t> parse_dims(
      const std::string& spec, std::size_t from) {
    const std::size_t x = spec.find('x', from);
    if (x == std::string::npos || x == from || x + 1 >= spec.size())
      throw std::invalid_argument("topology '" + spec +
                                  "' needs dims in the form RxC");
    auto parse_one = [&](std::size_t lo, std::size_t hi) -> std::uint32_t {
      const std::string tok = spec.substr(lo, hi - lo);
      try {
        std::size_t pos = 0;
        const unsigned long v = std::stoul(tok, &pos);
        if (pos != tok.size() || v == 0 || v > 0xffffffffUL)
          throw std::invalid_argument(tok);
        return static_cast<std::uint32_t>(v);
      } catch (...) {
        throw std::invalid_argument("topology '" + spec +
                                    "' has a malformed dim '" + tok + "'");
      }
    };
    return {parse_one(from, x), parse_one(x + 1, spec.size())};
  }

  static std::vector<AgentPair> load_edge_file(const std::string& path) {
    std::ifstream in(path);
    if (!in)
      throw std::invalid_argument("cannot open custom-topology file '" +
                                  path + "'");
    std::vector<AgentPair> edges;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
      ++lineno;
      const std::size_t hash = line.find('#');
      if (hash != std::string::npos) line.resize(hash);
      if (line.find_first_not_of(" \t\r\f\v") == std::string::npos)
        continue;  // blank / comment-only line
      std::istringstream ls(line);
      std::uint64_t u, v;
      std::string trailing;
      if (!(ls >> u) || !(ls >> v) || (ls >> trailing))
        throw std::invalid_argument(
            "custom-topology file '" + path + "' line " +
            std::to_string(lineno) + ": expected 'u v' (one directed edge)");
      if (u == v)
        throw std::invalid_argument("custom-topology file '" + path +
                                    "' line " + std::to_string(lineno) +
                                    ": self-loop " + std::to_string(u));
      if (u > 0xffffffffull || v > 0xffffffffull)
        throw std::invalid_argument("custom-topology file '" + path +
                                    "' line " + std::to_string(lineno) +
                                    ": agent index overflows uint32");
      edges.push_back(AgentPair{static_cast<std::uint32_t>(u),
                                static_cast<std::uint32_t>(v)});
    }
    if (edges.empty())
      throw std::invalid_argument("custom-topology file '" + path +
                                  "' has no edges");
    return edges;
  }

  static void validate_edge_list(std::uint32_t n,
                                 const std::vector<AgentPair>& edges,
                                 const std::string& label) {
    if (edges.empty())
      throw std::invalid_argument("custom topology '" + label +
                                  "' has no edges");
    std::vector<char> seen_agent(n, 0);
    std::vector<std::uint64_t> keys;
    keys.reserve(edges.size());
    for (const AgentPair& e : edges) {
      if (e.initiator >= n || e.responder >= n)
        throw std::invalid_argument(
            "custom topology '" + label + "' edge (" +
            std::to_string(e.initiator) + ", " +
            std::to_string(e.responder) + ") is out of range for n = " +
            std::to_string(n));
      if (e.initiator == e.responder)
        throw std::invalid_argument("custom topology '" + label +
                                    "' has a self-loop at " +
                                    std::to_string(e.initiator));
      seen_agent[e.initiator] = seen_agent[e.responder] = 1;
      keys.push_back((static_cast<std::uint64_t>(e.initiator) << 32) |
                     e.responder);
    }
    std::sort(keys.begin(), keys.end());
    for (std::size_t i = 1; i < keys.size(); ++i)
      if (keys[i] == keys[i - 1])
        throw std::invalid_argument(
            "custom topology '" + label + "' has a duplicate edge (" +
            std::to_string(keys[i] >> 32) + ", " +
            std::to_string(keys[i] & 0xffffffffull) +
            ") — duplicates would skew uniform-edge sampling");
    for (std::uint32_t a = 0; a < n; ++a)
      if (!seen_agent[a])
        throw std::invalid_argument("custom topology '" + label +
                                    "' leaves agent " + std::to_string(a) +
                                    " isolated (it could never interact)");
    // Weak connectivity: an interaction updates both endpoints, so the
    // undirected support must be one component or part of the population
    // can never influence the rest.
    std::vector<std::vector<std::uint32_t>> adj(n);
    for (const AgentPair& e : edges) {
      adj[e.initiator].push_back(e.responder);
      adj[e.responder].push_back(e.initiator);
    }
    std::vector<char> visited(n, 0);
    std::queue<std::uint32_t> frontier;
    frontier.push(0);
    visited[0] = 1;
    std::uint32_t reached = 1;
    while (!frontier.empty()) {
      const std::uint32_t u = frontier.front();
      frontier.pop();
      for (std::uint32_t v : adj[u])
        if (!visited[v]) {
          visited[v] = 1;
          ++reached;
          frontier.push(v);
        }
    }
    if (reached != n)
      throw std::invalid_argument("custom topology '" + label +
                                  "' is disconnected (" +
                                  std::to_string(n - reached) +
                                  " agent(s) unreachable from agent 0)");
  }

  // All-pairs undirected eccentricity via BFS from every node — custom
  // graphs are small by construction (they arrive as files).
  static std::uint32_t undirected_diameter(
      std::uint32_t n, const std::vector<AgentPair>& edges) {
    std::vector<std::vector<std::uint32_t>> adj(n);
    for (const AgentPair& e : edges) {
      adj[e.initiator].push_back(e.responder);
      adj[e.responder].push_back(e.initiator);
    }
    std::uint32_t diameter = 0;
    std::vector<std::uint32_t> dist(n);
    for (std::uint32_t s = 0; s < n; ++s) {
      std::fill(dist.begin(), dist.end(), 0xffffffffu);
      std::queue<std::uint32_t> frontier;
      dist[s] = 0;
      frontier.push(s);
      while (!frontier.empty()) {
        const std::uint32_t u = frontier.front();
        frontier.pop();
        for (std::uint32_t v : adj[u])
          if (dist[v] == 0xffffffffu) {
            dist[v] = dist[u] + 1;
            if (dist[v] > diameter) diameter = dist[v];
            frontier.push(v);
          }
      }
    }
    return diameter;
  }

  TopologyKind kind_;
  std::uint32_t n_;
  std::string spec_;
  std::uint64_t edge_count_ = 0;
  std::uint32_t diameter_ = 0;
  std::uint32_t rows_ = 0, cols_ = 0;        // grid kinds
  std::uint32_t h_per_row_ = 0, v_per_col_ = 0;
  std::vector<AgentPair> custom_edges_;      // custom kind only
};

}  // namespace ppsim
