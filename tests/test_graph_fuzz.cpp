// Randomized differential testing: the Graph class against a naive
// adjacency-matrix reference model, and the Hamiltonian DFS against the
// exact DP on random instances.
#include <gtest/gtest.h>

#include <bit>
#include <set>
#include <string>

#include "graph/bit_adjacency.hpp"
#include "graph/graph.hpp"
#include "graph/hamiltonian.hpp"
#include "graph/properties.hpp"
#include "kgd/factory.hpp"
#include "kgd/pipeline.hpp"
#include "util/rng.hpp"

namespace kgdp::graph {
namespace {

// Reference model: plain boolean matrix.
class RefGraph {
 public:
  explicit RefGraph(int n) : n_(n), m_(n * n, false) {}
  bool has(int u, int v) const { return m_[u * n_ + v]; }
  void add(int u, int v) { m_[u * n_ + v] = m_[v * n_ + u] = true; }
  void remove(int u, int v) { m_[u * n_ + v] = m_[v * n_ + u] = false; }
  int degree(int u) const {
    int d = 0;
    for (int v = 0; v < n_; ++v) d += m_[u * n_ + v];
    return d;
  }
  std::size_t edges() const {
    std::size_t e = 0;
    for (int u = 0; u < n_; ++u) {
      for (int v = u + 1; v < n_; ++v) e += m_[u * n_ + v];
    }
    return e;
  }

 private:
  int n_;
  std::vector<bool> m_;
};

TEST(GraphFuzz, RandomOpSequencesMatchReferenceModel) {
  util::Rng rng(0xfacade);
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 2 + static_cast<int>(rng.next_below(20));
    Graph g(n);
    RefGraph ref(n);
    for (int op = 0; op < 200; ++op) {
      const int u = static_cast<int>(rng.next_below(n));
      const int v = static_cast<int>(rng.next_below(n));
      if (rng.next_bool(0.7)) {
        if (g.can_add_edge(u, v)) {
          g.add_edge(u, v);
          ref.add(u, v);
        }
      } else if (u != v && g.has_edge(u, v)) {
        g.remove_edge(u, v);
        ref.remove(u, v);
      }
    }
    // Full-state comparison.
    ASSERT_EQ(g.num_edges(), ref.edges()) << "trial " << trial;
    for (int u = 0; u < n; ++u) {
      ASSERT_EQ(g.degree(u), ref.degree(u));
      for (int v = 0; v < n; ++v) {
        ASSERT_EQ(g.has_edge(u, v), ref.has(u, v));
      }
    }
    // Neighbor lists stay sorted and deduplicated.
    EXPECT_TRUE(is_simple(g));
    // Edge list round-trips through from_edges.
    EXPECT_EQ(from_edges(n, g.edges()), g);
  }
}

TEST(GraphFuzz, InducedSubgraphMatchesReference) {
  util::Rng rng(0xbeef);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 3 + static_cast<int>(rng.next_below(15));
    Graph g(n);
    for (int u = 0; u < n; ++u) {
      for (int v = u + 1; v < n; ++v) {
        if (rng.next_bool(0.4)) g.add_edge(u, v);
      }
    }
    util::DynamicBitset keep(n);
    for (int v = 0; v < n; ++v) keep.set(v, rng.next_bool(0.6));
    std::vector<Node> map;
    const Graph sub = g.induced_subgraph(keep, &map);
    // Every kept pair must preserve adjacency exactly.
    for (int u = 0; u < n; ++u) {
      for (int v = 0; v < n; ++v) {
        if (keep.test(u) && keep.test(v) && u != v) {
          ASSERT_EQ(sub.has_edge(map[u], map[v]), g.has_edge(u, v));
        }
      }
    }
    ASSERT_EQ(sub.num_nodes(), static_cast<int>(keep.count()));
  }
}

TEST(HamiltonianFuzz, DfsMatchesDpOnRandomEndpointSets) {
  util::Rng rng(0xcafe);
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 4 + static_cast<int>(rng.next_below(10));
    Graph g(n);
    const double p = 0.2 + rng.next_double() * 0.5;
    for (int u = 0; u < n; ++u) {
      for (int v = u + 1; v < n; ++v) {
        if (rng.next_bool(p)) g.add_edge(u, v);
      }
    }
    util::DynamicBitset starts(n), ends(n);
    for (int v = 0; v < n; ++v) {
      starts.set(v, rng.next_bool(0.5));
      ends.set(v, rng.next_bool(0.5));
    }
    if (starts.none()) starts.set(0);
    if (ends.none()) ends.set(n - 1);

    HamiltonianOptions exact;  // DFS with restarts, exact
    const auto dfs_res = hamiltonian_path(g, starts, ends, exact);
    HamiltonianOptions force_dp;
    force_dp.dfs_budget = 1;  // immediately defer to the DP
    const auto dp_res = hamiltonian_path(g, starts, ends, force_dp);

    ASSERT_NE(dfs_res.status, HamResult::kUnknown);
    ASSERT_NE(dp_res.status, HamResult::kUnknown);
    EXPECT_EQ(dfs_res.status, dp_res.status)
        << "trial " << trial << " n=" << n;
    if (dfs_res.status == HamResult::kFound) {
      EXPECT_TRUE(is_hamiltonian_path(g, dfs_res.path));
      EXPECT_TRUE(starts.test(dfs_res.path.front()));
      EXPECT_TRUE(ends.test(dfs_res.path.back()));
    }
  }
}

TEST(HamiltonianFuzz, SparseNegativesProvenQuickly) {
  // Trees never have Hamiltonian paths unless they ARE paths; the solver
  // must prove absence (never hang, never report unknown in exact mode).
  util::Rng rng(0xdead);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 6 + static_cast<int>(rng.next_below(12));
    Graph g(n);
    // Random tree via random attachment, then add one extra leaf branch
    // to guarantee a degree-3 node (so it is not a path).
    for (int v = 1; v < n; ++v) {
      g.add_edge(v, static_cast<int>(rng.next_below(v)));
    }
    int branching = -1;
    for (int v = 0; v < n; ++v) {
      if (g.degree(v) >= 3) {
        branching = v;
        break;
      }
    }
    if (branching < 0) continue;  // happened to be a path: skip
    util::DynamicBitset all(n, true);
    const auto res = hamiltonian_path(g, all, all);
    EXPECT_EQ(res.status, HamResult::kNone);
  }
}

// Checker-mode (budgeted) solves on seeded over-k fault sets of the §3.4
// family G(n,4): the verdict stream, kUnknown included, is pinned
// exactly, so a change to the escalation ladder that moves any verdict
// fails here. Every kFound path is certified against the pipeline
// definition and every kNone is re-decided by an exact-mode solve.
TEST(HamiltonianFuzz, BudgetedVerdictStreamPinned) {
  constexpr int kK = 4;
  constexpr int kSetsPerSize = 12;
  struct Case {
    int n;
    const char* verdicts;  // F/N/U per solve, |F| = k+1..k+6 in order
  };
  const Case cases[] = {
      {30, "FFFFFFFFFFFF" "FFFFFFFFFFFF" "FFFFFFFFFFFF"
           "FFFFFFNFNFFF" "FFFFFFFFFFFF" "NFFNFFFFFNFF"},
      {36, "FFFFFFFFFFFF" "FFFFNFFFFFFF" "FFFFFFFFFFFF"
           "FFFFFFFFFFFF" "FFFFFFFFFFUF" "FFNFFFFFFFFF"},
      {40, "FFFFFFFFFFFF" "FFFFFFFFFFFF" "FFFFFFFFFFFF"
           "FFFFFNFFFFFF" "FFFFFFFFNFFF" "FFFFFFFFFFFF"},
  };
  HamiltonianOptions budgeted;
  budgeted.dfs_budget = std::uint64_t{1} << 20;
  int unknowns = 0;
  for (const Case& c : cases) {
    const auto sg = kgd::build_solution(c.n, kK);
    ASSERT_TRUE(sg.has_value());
    const int num_nodes = sg->num_nodes();
    ASSERT_LE(num_nodes, 64);
    const BitAdjacency adj(sg->graph());
    const std::span<const std::uint64_t> rows = adj.rows64();
    std::uint64_t proc = 0, in = 0, out = 0;
    for (Node v = 0; v < num_nodes; ++v) {
      const std::uint64_t bit = std::uint64_t{1} << v;
      switch (sg->role(v)) {
        case kgd::Role::kInput: in |= bit; break;
        case kgd::Role::kOutput: out |= bit; break;
        case kgd::Role::kProcessor: proc |= bit; break;
      }
    }
    HamiltonianSolver solver(budgeted);
    HamiltonianSolver exact;
    util::Rng rng(0x5eed0000 + c.n);
    std::string got;
    for (int size = kK + 1; size <= kK + 6; ++size) {
      for (int t = 0; t < kSetsPerSize; ++t) {
        std::uint64_t faulty = 0;
        while (std::popcount(faulty) < size) {
          faulty |= std::uint64_t{1} << rng.next_below(num_nodes);
        }
        const std::uint64_t keep = proc & ~faulty;
        const std::uint64_t in_ok = in & ~faulty;
        const std::uint64_t out_ok = out & ~faulty;
        std::uint64_t starts = 0, ends = 0;
        for (std::uint64_t s = keep; s; s &= s - 1) {
          const int v = std::countr_zero(s);
          if (rows[v] & in_ok) starts |= std::uint64_t{1} << v;
          if (rows[v] & out_ok) ends |= std::uint64_t{1} << v;
        }
        const HamResult r = solver.solve_masked(rows, keep, starts, ends);
        got += "FNU"[static_cast<int>(r)];
        if (r == HamResult::kUnknown) ++unknowns;
        if (r == HamResult::kFound) {
          const std::span<const Node> interior = solver.masked_path();
          std::vector<Node> path{
              std::countr_zero(rows[interior.front()] & in_ok)};
          path.insert(path.end(), interior.begin(), interior.end());
          path.push_back(std::countr_zero(rows[interior.back()] & out_ok));
          std::vector<Node> fault_list;
          for (std::uint64_t f = faulty; f; f &= f - 1) {
            fault_list.push_back(std::countr_zero(f));
          }
          const kgd::FaultSet fs(num_nodes, std::move(fault_list));
          const kgd::PipelineCheck check = kgd::check_pipeline(*sg, fs, path);
          EXPECT_TRUE(check.ok) << "G(" << c.n << ",4) solve " << got.size()
                                << ": " << check.error;
        } else if (r == HamResult::kNone) {
          EXPECT_EQ(exact.solve_masked(rows, keep, starts, ends),
                    HamResult::kNone)
              << "G(" << c.n << ",4) solve " << got.size();
        }
      }
    }
    EXPECT_EQ(got, c.verdicts) << "G(" << c.n << ",4)";
  }
  EXPECT_EQ(unknowns, 1);
}

}  // namespace
}  // namespace kgdp::graph
