// Exact Hamiltonian-path solving with endpoint-set constraints.
//
// A pipeline in G \ F is exactly a Hamiltonian path of the healthy
// processor subgraph whose first node lies in A (processors adjacent to a
// healthy input terminal) and whose last node lies in B (output side), so
// this solver is the verification workhorse of the library.
//
// Strategy: depth-first search with strong pruning — remaining-graph
// connectivity, forced-terminal detection, isolated-node rejection and a
// fewest-options-first successor order — escalated through a ladder. The
// <=64-node mask engine (m = healthy-node count):
//   * exact mode (dfs_budget == 0): DFS passes of 2^12, 2^17 and 2^20
//     nodes per start, each followed by the Held–Karp DP when m is at
//     most dp_max_nodes, else by 12 seeded Pósa rotation attempts (step
//     cap 600·m + 30000, doubling the 600 per level); then one unbounded
//     DFS pass, so it is exact;
//   * budgeted mode (dfs_budget > 0, e.g. the exhaustive checker): when
//     m > dp_max_nodes and the Pósa step cap 600·m + 30000 is below
//     dfs_budget, one Pósa attempt (seed 11) first; then DFS(dfs_budget),
//     then the DP when m is DP-sized, else the remaining Pósa seeds of
//     the 12; it may give up (HamResult::kUnknown).
// The >64-node engine (n = node count; no DP):
//   * a connectivity check (kNone when the graph is disconnected), then
//     one Pósa attempt (seed 21, step cap 1000·n + 50000) — always in
//     exact mode, in budgeted mode only when that cap is below
//     dfs_budget (so the incremental repairer's small-budget window
//     solves keep DFS first);
//   * exact mode: DFS passes of 2^11, 2^16, 2^19 and 2^22 nodes per
//     start, each followed by 16 Pósa seeds (level L: seeds 21 + 64·L
//     onward, cap (1000 << L)·n + 50000; level 0 skips seed 21 when it
//     already ran); then one unbounded DFS pass, so it is exact;
//   * budgeted mode: DFS(dfs_budget), then the level-0 Pósa seeds; it
//     may give up (HamResult::kUnknown).
// Pósa never proves absence, so every kNone comes from a connectivity
// check, a DFS pass that finished within its budget, or the DP.
//
// Two entry points share the same <=64-node mask engine: solve() takes a
// graph::Graph (building the word-per-node adjacency on entry), while
// solve_masked() takes prebuilt adjacency rows plus an `allowed` subset
// and searches directly in the original id space — the zero-allocation
// hot path of the exhaustive fault sweep, which would otherwise pay an
// induced-subgraph copy per fault set.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "util/bitset.hpp"

namespace kgdp::graph {

struct HamiltonianOptions {
  // Maximum DFS expansions before giving up; 0 means run to completion
  // (exact). The exhaustive checker uses a budget plus the DP fallback.
  std::uint64_t dfs_budget = 0;
  // Largest node count for which the DP fallback may be used.
  int dp_max_nodes = 22;
};

enum class HamResult { kFound, kNone, kUnknown };

struct HamPath {
  HamResult status = HamResult::kUnknown;
  std::vector<Node> path;  // nonempty iff status == kFound
};

// Finds a Hamiltonian path of `g` with first node in `starts` and last
// node in `ends`. A single-node graph needs its node in both sets.
// `starts`/`ends` must have size g.num_nodes().
HamPath hamiltonian_path(const Graph& g, const util::DynamicBitset& starts,
                         const util::DynamicBitset& ends,
                         const HamiltonianOptions& opts = {});

// Reusable solver: keeps scratch buffers across calls so that the
// exhaustive fault sweep does not allocate per fault set.
class HamiltonianSolver {
 public:
  explicit HamiltonianSolver(HamiltonianOptions opts = {}) : opts_(opts) {}

  HamPath solve(const Graph& g, const util::DynamicBitset& starts,
                const util::DynamicBitset& ends);

  // Masked variant: searches the subgraph induced by `allowed` inside a
  // universe of adj_rows.size() <= 64 nodes whose adjacency is one word
  // per node (graph::BitAdjacency::rows64() has this shape; rows need not
  // be pre-masked). starts/ends are masks in the same id space. Node ids
  // are not remapped: on kFound the path — in original ids — is exposed
  // through masked_path() and stays valid until the next call. Allocates
  // nothing once scratch has warmed up (the DP fallback, reached only
  // when a DFS budget is exhausted, may grow its table).
  HamResult solve_masked(std::span<const std::uint64_t> adj_rows,
                         std::uint64_t allowed, std::uint64_t starts,
                         std::uint64_t ends);
  std::span<const Node> masked_path() const { return stack_; }

  // Heuristic positive-instance engine: a seeded greedy walk with random
  // rotations (min-degree extension biased away from end-capable nodes,
  // Pósa rotations on dead ends, endpoint spin-rotations preferring
  // pivots whose successor lies in `ends`). Never proves absence — it
  // returns true with a certified-shape path in masked_path(), or false,
  // in which case callers fall back to the exact solve_masked(). The
  // walk is deterministic in (rows, allowed, starts, ends, seed), so
  // verdict streams stay independent of batching and thread schedule.
  // Allocation-free: fixed 64-entry scratch, path copied into stack_.
  //
  // `first_start` >= 0 supplies the restart-0 start node precomputed by
  // a batch setup kernel (the lowest bit of `starts` after masking);
  // the walk would derive the same node itself, so passing it only
  // moves the endpoint selection into the lane-parallel phase. -1 keeps
  // the scalar derivation.
  bool walk_masked(std::span<const std::uint64_t> adj_rows,
                   std::uint64_t allowed, std::uint64_t starts,
                   std::uint64_t ends, std::uint64_t seed,
                   int first_start = -1);

  // Total DFS expansions across all calls (for the scaling bench and the
  // solver perf-counter layer).
  std::uint64_t expansions() const { return expansions_total_; }

  // Total Pósa rotation-search steps (posa_masked and the >64-node
  // posa_search) across all calls; walk_masked steps are not counted.
  std::uint64_t posa_steps() const { return posa_steps_total_; }

  // Bytes retained by the reusable scratch buffers (solver gauge).
  std::size_t scratch_bytes() const {
    return adj64_.capacity() * sizeof(std::uint64_t) +
           prio_.capacity() * sizeof(std::uint32_t) +
           stack_.capacity() * sizeof(Node) +
           start_order_.capacity() * sizeof(int) +
           posa_pos_.capacity() * sizeof(int) +
           posa_pool_.capacity() * sizeof(int) +
           dp_reach_.capacity() * sizeof(std::uint32_t);
  }

 private:
  void set_tie_break(int n, std::uint64_t seed);
  HamResult dfs_small(int v, std::uint64_t rem, std::uint64_t ends,
                      std::uint64_t budget_left);
  // Shared <=64-node engine; adj64_ must already hold the (masked)
  // adjacency rows for the full id space. Leaves the path in stack_.
  HamResult solve_mask_core(int n_all, std::uint64_t allowed,
                            std::uint64_t starts, std::uint64_t ends);
  HamResult solve_dp_masked(std::uint64_t allowed, std::uint64_t starts,
                            std::uint64_t ends);
  bool posa_masked(std::uint64_t allowed, std::uint64_t starts,
                   std::uint64_t ends, std::uint64_t seed,
                   std::uint64_t max_steps);
  HamPath solve_large(const Graph& g, const util::DynamicBitset& starts,
                      const util::DynamicBitset& ends);

  HamiltonianOptions opts_;
  // Small-graph (n <= 64) state. All scratch: sized on first use, reused
  // across calls. The engine reads adjacency through `rows_`, which
  // points either at the caller's prebuilt rows (solve_masked — no copy)
  // or at adj64_ (solve builds it from the Graph). Rows are raw: every
  // read site masks with the relevant node subset.
  const std::uint64_t* rows_ = nullptr;
  int n_all_ = 0;  // id-space size behind rows_
  std::vector<std::uint64_t> adj64_;
  std::vector<std::uint32_t> prio_;  // per-pass tie-break perturbation
  int prio_zero_n_ = 0;  // prio_[0..n) known all-zero (skip re-clearing)
  std::vector<Node> stack_;
  std::vector<int> start_order_;
  std::vector<int> posa_pos_;
  std::vector<int> posa_pool_;
  std::vector<std::uint32_t> dp_reach_;  // Held–Karp table (cold path)
  std::int8_t walk_pos_[64] = {};  // node -> position, on-path nodes only
  std::int8_t walk_path_[64] = {};
  std::uint64_t expansions_ = 0;
  std::uint64_t expansions_total_ = 0;
  std::uint64_t posa_steps_total_ = 0;
};

}  // namespace kgdp::graph
