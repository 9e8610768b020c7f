#include "graph/hamiltonian.hpp"

#include "graph/properties.hpp"
#include "util/rng.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#if defined(__BMI2__)
#include <immintrin.h>
#endif

namespace kgdp::graph {

namespace {

// Pósa-rotation heuristic: grow a path from a fixed start; when the
// endpoint has no unvisited neighbor, "rotate" — pick an on-path
// neighbor w of the endpoint and reverse the suffix after w, which makes
// w's old successor the new endpoint. With random choices this converges
// fast on dense/expander-like graphs (our solution graphs qualify), and
// it is immune to the deep-backtrack traps that stall a Warnsdorff DFS.
// Returns a full path with first node in `starts` and last in `ends`, or
// nullopt if the step cap runs out. Never proves absence. Adds the steps
// it took to *steps_spent. This is the >64-node variant; the mask engine
// has its own allocation-free port (HamiltonianSolver::posa_masked) with
// the identical search sequence.
std::optional<std::vector<Node>> posa_search(const Graph& g,
                                             const util::DynamicBitset& starts,
                                             const util::DynamicBitset& ends,
                                             std::uint64_t seed,
                                             std::uint64_t max_steps,
                                             std::uint64_t* steps_spent) {
  const int n = g.num_nodes();
  util::Rng rng(seed);
  std::vector<int> start_pool;
  for (int v = 0; v < n; ++v) {
    if (starts.test(v)) start_pool.push_back(v);
  }
  if (start_pool.empty()) return std::nullopt;

  std::vector<Node> path;
  std::vector<int> pos(n);
  std::uint64_t steps = 0;

  auto rotate_at = [&](int w) {
    // Reverse path[pos[w]+1 .. end]; the node after w becomes the end.
    int lo = pos[w] + 1;
    int hi = static_cast<int>(path.size()) - 1;
    while (lo < hi) {
      std::swap(path[lo], path[hi]);
      pos[path[lo]] = lo;
      pos[path[hi]] = hi;
      ++lo;
      --hi;
    }
    if (lo == hi) pos[path[lo]] = lo;
  };

  for (int restart = 0; restart < 4 && steps < max_steps; ++restart) {
    const int a = start_pool[rng.next_below(start_pool.size())];
    path.clear();
    path.push_back(a);
    std::fill(pos.begin(), pos.end(), -1);
    pos[a] = 0;

    while (steps < max_steps) {
      ++steps;
      const int e = path.back();
      const auto nb = g.neighbors(e);
      // Extend with a random unvisited neighbor when possible.
      int fresh = -1;
      int seen_fresh = 0;
      for (Node w : nb) {
        if (pos[w] < 0 && static_cast<int>(rng.next_below(++seen_fresh)) == 0) {
          fresh = w;
        }
      }
      if (fresh >= 0) {
        pos[fresh] = static_cast<int>(path.size());
        path.push_back(fresh);
        if (static_cast<int>(path.size()) == n) break;
        continue;
      }
      // Stuck: rotate on a random on-path neighbor (skip the
      // predecessor, whose rotation is a no-op).
      const int len = static_cast<int>(path.size());
      int w = -1;
      int seen = 0;
      for (Node x : nb) {
        if (pos[x] >= 0 && pos[x] < len - 2 &&
            static_cast<int>(rng.next_below(++seen)) == 0) {
          w = x;
        }
      }
      if (w < 0) break;  // endpoint only connects backwards: restart
      rotate_at(w);
    }

    if (static_cast<int>(path.size()) != n) continue;
    // Full path; rotate until the endpoint lands in `ends`.
    std::uint64_t spins = 0;
    while (!ends.test(path.back()) && steps < max_steps &&
           spins < static_cast<std::uint64_t>(8 * n)) {
      ++steps;
      ++spins;
      const auto nb = g.neighbors(path.back());
      int w = -1;
      int seen = 0;
      for (Node x : nb) {
        if (pos[x] < n - 2 && static_cast<int>(rng.next_below(++seen)) == 0) {
          w = x;
        }
      }
      if (w < 0) break;
      rotate_at(w);
    }
    if (ends.test(path.back())) {
      *steps_spent += steps;
      return path;
    }
  }
  *steps_spent += steps;
  return std::nullopt;
}

// Index of the idx-th (0-based) set bit of `mask`; idx < popcount(mask).
inline int select_bit(std::uint64_t mask, unsigned idx) {
#if defined(__BMI2__)
  return std::countr_zero(_pdep_u64(std::uint64_t{1} << idx, mask));
#else
  while (idx--) mask &= mask - 1;
  return std::countr_zero(mask);
#endif
}

// Cheap per-fault-set randomness for the walk engine. Deterministic in
// the seed; xorshift64 is plenty for rotation pivots.
struct WalkRng {
  std::uint64_t s;
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
};

// Connected-component mask of `seed` within `allowed` (uint64 universe).
// Rows need not be pre-masked: the frontier is intersected with `allowed`
// each round.
std::uint64_t component64(const std::uint64_t* adj, std::uint64_t allowed,
                          int seed) {
  std::uint64_t comp = std::uint64_t{1} << seed;
  std::uint64_t frontier = comp;
  while (frontier) {
    std::uint64_t next = 0;
    std::uint64_t f = frontier;
    while (f) {
      const int v = std::countr_zero(f);
      f &= f - 1;
      next |= adj[v];
    }
    next &= allowed & ~comp;
    comp |= next;
    frontier = next;
  }
  return comp;
}

}  // namespace

HamPath hamiltonian_path(const Graph& g, const util::DynamicBitset& starts,
                         const util::DynamicBitset& ends,
                         const HamiltonianOptions& opts) {
  HamiltonianSolver solver(opts);
  return solver.solve(g, starts, ends);
}

// Deterministic per-pass tie-break priorities. Seed 0 yields the all-zero
// (pure Warnsdorff) order so the fast path stays exactly as before; the
// steady-state sweep always passes seed 0 first, so re-clearing an
// already-zero prefix is skipped.
void HamiltonianSolver::set_tie_break(int n, std::uint64_t seed) {
  if (seed == 0 && prio_zero_n_ >= n) return;
  prio_.assign(n, 0);
  prio_zero_n_ = n;
  if (seed == 0) return;
  prio_zero_n_ = 0;
  std::uint64_t x = seed;
  for (int v = 0; v < n; ++v) {
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    prio_[v] = static_cast<std::uint32_t>(z ^ (z >> 31));
  }
}

HamPath HamiltonianSolver::solve(const Graph& g,
                                 const util::DynamicBitset& starts,
                                 const util::DynamicBitset& ends) {
  assert(static_cast<int>(starts.size()) == g.num_nodes());
  assert(static_cast<int>(ends.size()) == g.num_nodes());
  const int n = g.num_nodes();
  if (n == 0) return {HamResult::kNone, {}};
  if (n <= 64) {
    const std::uint64_t s = starts.words().empty() ? 0 : starts.words()[0];
    const std::uint64_t e = ends.words().empty() ? 0 : ends.words()[0];
    const std::uint64_t full =
        (n == 64) ? ~std::uint64_t{0} : ((std::uint64_t{1} << n) - 1);
    adj64_.assign(n, 0);
    for (Node u = 0; u < n; ++u) {
      for (Node v : g.neighbors(u)) adj64_[u] |= std::uint64_t{1} << v;
    }
    rows_ = adj64_.data();
    const HamResult r = solve_mask_core(n, full, s, e);
    if (r == HamResult::kFound) return {r, stack_};
    return {r, {}};
  }
  return solve_large(g, starts, ends);
}

HamResult HamiltonianSolver::solve_masked(
    std::span<const std::uint64_t> adj_rows, std::uint64_t allowed,
    std::uint64_t starts, std::uint64_t ends) {
  const int n_all = static_cast<int>(adj_rows.size());
  assert(n_all >= 1 && n_all <= 64);
  const std::uint64_t full =
      (n_all == 64) ? ~std::uint64_t{0} : ((std::uint64_t{1} << n_all) - 1);
  allowed &= full;
  if (allowed == 0) return HamResult::kNone;
  // No per-solve copy: the engine reads the caller's rows directly and
  // masks at each use site (the rows must stay valid through the call).
  rows_ = adj_rows.data();
  return solve_mask_core(n_all, allowed, starts & allowed, ends & allowed);
}

// The <=64-node engine shared by solve() (contiguous universe) and
// solve_masked() (subset universe, original ids). Exact under the same
// budget-escalation contract as before; leaves any found path in stack_.
HamResult HamiltonianSolver::solve_mask_core(int n_all, std::uint64_t allowed,
                                             std::uint64_t starts,
                                             std::uint64_t ends) {
  n_all_ = n_all;
  starts &= allowed;
  ends &= allowed;
  if (!starts || !ends) return HamResult::kNone;
  const int m = std::popcount(allowed);
  if (m == 1) {
    // starts/ends are subsets of the single-node universe, so being both
    // nonempty they contain exactly that node.
    stack_.assign(1, std::countr_zero(allowed));
    return HamResult::kFound;
  }

  // Global necessary condition: the graph must be connected.
  if (component64(rows_, allowed, std::countr_zero(allowed)) != allowed) {
    return HamResult::kNone;
  }

  // Try each start, cheapest (lowest-degree) first: low-degree starts are
  // the most constrained and usually the ones that force failure early.
  start_order_.clear();
  {
    std::uint64_t s = starts;
    while (s) {
      start_order_.push_back(std::countr_zero(s));
      s &= s - 1;
    }
    std::sort(start_order_.begin(), start_order_.end(), [&](int a, int b) {
      return std::popcount(rows_[a] & allowed) <
             std::popcount(rows_[b] & allowed);
    });
  }

  // Budget-escalating restarts. A plain Warnsdorff DFS can backtrack
  // exponentially on some structured instances even when Hamiltonian
  // paths abound; restarting with a perturbed tie-break order (and a
  // bigger budget) finds a path almost surely while staying exact: a
  // pass that finishes without hitting its budget proves kNone, and in
  // exact mode the final pass is unbounded.
  //
  // Order per mode: see hamiltonian.hpp. Budgeted mode above DP size tries
  // one Pósa attempt before the DFS when its step cap is below the DFS
  // budget: a positive the walk missed then skips up to dfs_budget nodes
  // per start, and a negative pays the cap, less than one start's DFS.
  // Pósa only adds found paths, so every verdict equals the DFS-first
  // order's.
  const bool exact_mode = opts_.dfs_budget == 0;
  const bool dp_sized = m <= opts_.dp_max_nodes && m <= 31;
  constexpr std::uint64_t kPosaSeed = 11;
  auto posa_steps = [m](std::size_t attempt) {
    return (600ull << attempt) * static_cast<unsigned>(m) + 30000;
  };
  const bool posa_first =
      !exact_mode && !dp_sized && opts_.dfs_budget > posa_steps(0);
  if (posa_first &&
      posa_masked(allowed, starts, ends, kPosaSeed, posa_steps(0))) {
    return HamResult::kFound;
  }
  std::uint64_t budgets[3];
  std::size_t num_budgets;
  if (exact_mode) {
    budgets[0] = std::uint64_t{1} << 12;
    budgets[1] = std::uint64_t{1} << 17;
    budgets[2] = std::uint64_t{1} << 20;
    num_budgets = 3;
  } else {
    budgets[0] = opts_.dfs_budget;
    num_budgets = 1;
  }

  auto run_pass = [&](std::uint64_t budget, std::uint64_t seed) -> HamResult {
    set_tie_break(n_all, seed);
    bool hit = false;
    for (int a : start_order_) {
      stack_.clear();
      stack_.push_back(a);
      expansions_ = 0;
      const HamResult r =
          dfs_small(a, allowed & ~(std::uint64_t{1} << a), ends, budget);
      expansions_total_ += expansions_;
      if (r == HamResult::kFound) return HamResult::kFound;
      if (r == HamResult::kUnknown) hit = true;
    }
    return hit ? HamResult::kUnknown : HamResult::kNone;
  };

  for (std::size_t attempt = 0; attempt < num_budgets; ++attempt) {
    const HamResult r = run_pass(budgets[attempt], attempt);
    if (r != HamResult::kUnknown) return r;
    // DP-sized instances go straight to the exact DP: cheaper than more
    // DFS and, unlike Pósa, it also proves absence.
    if (dp_sized) return solve_dp_masked(allowed, starts, ends);
    // The deterministic pass came up empty-handed: try Pósa rotations
    // before burning bigger DFS budgets — on positive instances it nearly
    // always succeeds immediately. Fresh seeds and growing step caps at
    // every escalation level; a seed already tried above is skipped.
    const std::uint64_t base_seed = kPosaSeed + 64 * attempt;
    for (std::uint64_t seed = base_seed + (posa_first ? 1 : 0);
         seed < base_seed + 12; ++seed) {
      if (posa_masked(allowed, starts, ends, seed, posa_steps(attempt))) {
        return HamResult::kFound;
      }
    }
  }

  // Budgets exhausted (m too large for the DP): in exact mode run one
  // final unbounded pass.
  if (exact_mode) {
    const HamResult r = run_pass(~std::uint64_t{0}, 0x9e3779b9u);
    return r == HamResult::kFound ? HamResult::kFound : HamResult::kNone;
  }
  return HamResult::kUnknown;
}

// DFS from endpoint v; `rem` = unvisited nodes, all of which must still be
// covered; the final node must lie in `ends`.
HamResult HamiltonianSolver::dfs_small(int v, std::uint64_t rem,
                                       std::uint64_t ends,
                                       std::uint64_t budget_left) {
  if (rem == 0) {
    return ((ends >> v) & 1u) ? HamResult::kFound : HamResult::kNone;
  }
  if (++expansions_ > budget_left) return HamResult::kUnknown;

  // Terminal availability: some end candidate must remain reachable.
  if ((rem & ends) == 0) return HamResult::kNone;

  // Prune on remaining-degree structure. A node of `rem` whose only
  // neighbors lie outside rem ∪ {v} can never be reached; a node whose
  // only neighbor is v must be visited next and, transitively, must end
  // the path, which is possible only when it is the sole remaining node.
  std::uint64_t forced_terminal = 0;  // nodes that must be the final node
  int forced_count = 0;
  {
    std::uint64_t scan = rem;
    const std::uint64_t ctx = rem | (std::uint64_t{1} << v);
    while (scan) {
      const int u = std::countr_zero(scan);
      scan &= scan - 1;
      const std::uint64_t nb = rows_[u] & ctx;
      if (nb == 0) return HamResult::kNone;
      if ((nb & (nb - 1)) == 0) {  // exactly one neighbor left
        if (nb == (std::uint64_t{1} << v)) {
          // Only connection is v: u must be next AND last.
          if (rem != (std::uint64_t{1} << u)) return HamResult::kNone;
        }
        // Remaining-path endpoint is forced to be u.
        forced_terminal |= std::uint64_t{1} << u;
        if (++forced_count > 1) return HamResult::kNone;
      }
    }
  }
  std::uint64_t effective_ends = ends;
  if (forced_count == 1) {
    effective_ends &= forced_terminal;
    if (effective_ends == 0) return HamResult::kNone;
  }

  // Connectivity: rem must form one component hanging off v.
  {
    const std::uint64_t seed_set = rows_[v] & rem;
    if (seed_set == 0) return HamResult::kNone;
    const std::uint64_t ctx = rem | (std::uint64_t{1} << v);
    const std::uint64_t comp = component64(rows_, ctx, v);
    if ((comp & rem) != rem) return HamResult::kNone;
  }

  // Successors, fewest onward options first (Warnsdorff's heuristic);
  // ties broken by the per-pass perturbation so restarts explore
  // different corners of the search tree.
  int cand[64];
  std::uint64_t cand_key[64];
  int m = 0;
  {
    std::uint64_t s = rows_[v] & rem;
    while (s) {
      const int w = std::countr_zero(s);
      s &= s - 1;
      cand[m] = w;
      cand_key[m] =
          (static_cast<std::uint64_t>(std::popcount(rows_[w] & rem))
           << 32) |
          prio_[w];
      ++m;
    }
  }
  // Insertion sort: m is at most max degree, which is small.
  for (int i = 1; i < m; ++i) {
    const int cw = cand[i];
    const std::uint64_t ck = cand_key[i];
    int j = i - 1;
    while (j >= 0 && cand_key[j] > ck) {
      cand[j + 1] = cand[j];
      cand_key[j + 1] = cand_key[j];
      --j;
    }
    cand[j + 1] = cw;
    cand_key[j + 1] = ck;
  }

  bool unknown = false;
  for (int i = 0; i < m; ++i) {
    const int w = cand[i];
    stack_.push_back(w);
    const HamResult r = dfs_small(w, rem & ~(std::uint64_t{1} << w),
                                  effective_ends, budget_left);
    if (r == HamResult::kFound) return r;
    stack_.pop_back();
    if (r == HamResult::kUnknown) unknown = true;
  }
  return unknown ? HamResult::kUnknown : HamResult::kNone;
}

// Held–Karp style reachability DP over the compacted `allowed` universe.
// reach[mask] holds the set of compact ids v such that some path starting
// in `starts` visits exactly `mask` and ends at v. Exact; used only for
// small subproblems when the DFS budget was exhausted, so its table
// (re)allocation is off the steady-state path. When `allowed` is the
// contiguous full universe the compaction is the identity and this is
// exactly the historical solve_dp.
HamResult HamiltonianSolver::solve_dp_masked(std::uint64_t allowed,
                                             std::uint64_t starts,
                                             std::uint64_t ends) {
  const int m = std::popcount(allowed);
  assert(m >= 2 && m <= 31);

  int nodes[32];        // compact id -> original id
  signed char sub[64];  // original id -> compact id (allowed bits only)
  {
    int i = 0;
    std::uint64_t s = allowed;
    while (s) {
      const int v = std::countr_zero(s);
      s &= s - 1;
      nodes[i] = v;
      sub[v] = static_cast<signed char>(i);
      ++i;
    }
  }
  std::uint32_t adj[32];
  std::uint32_t cstarts = 0, cends = 0;
  for (int i = 0; i < m; ++i) {
    std::uint32_t row = 0;
    std::uint64_t nb = rows_[nodes[i]] & allowed;
    while (nb) {
      row |= std::uint32_t{1} << sub[std::countr_zero(nb)];
      nb &= nb - 1;
    }
    adj[i] = row;
    if ((starts >> nodes[i]) & 1u) cstarts |= std::uint32_t{1} << i;
    if ((ends >> nodes[i]) & 1u) cends |= std::uint32_t{1} << i;
  }
  const std::uint32_t full = (std::uint32_t{1} << m) - 1;

  dp_reach_.assign(std::size_t{1} << m, 0);
  {
    std::uint32_t s = cstarts;
    while (s) {
      const int a = std::countr_zero(s);
      s &= s - 1;
      dp_reach_[std::uint32_t{1} << a] = std::uint32_t{1} << a;
    }
  }
  for (std::uint32_t mask = 1; mask <= full; ++mask) {
    std::uint32_t end_set = dp_reach_[mask];
    while (end_set) {
      const int v = std::countr_zero(end_set);
      end_set &= end_set - 1;
      std::uint32_t ext = adj[v] & ~mask;
      while (ext) {
        const int w = std::countr_zero(ext);
        ext &= ext - 1;
        dp_reach_[mask | (std::uint32_t{1} << w)] |= std::uint32_t{1} << w;
      }
    }
  }

  const std::uint32_t finals = dp_reach_[full] & cends;
  if (!finals) return HamResult::kNone;

  // Reconstruct backwards (original ids).
  stack_.clear();
  std::uint32_t mask = full;
  int v = std::countr_zero(finals);
  stack_.push_back(nodes[v]);
  while (mask != (std::uint32_t{1} << v)) {
    const std::uint32_t prev_mask = mask & ~(std::uint32_t{1} << v);
    std::uint32_t preds = dp_reach_[prev_mask] & adj[v];
    assert(preds != 0);
    const int u = std::countr_zero(preds);
    stack_.push_back(nodes[u]);
    mask = prev_mask;
    v = u;
  }
  std::reverse(stack_.begin(), stack_.end());
  return HamResult::kFound;
}

// Allocation-free port of posa_search for the mask engine: identical
// search sequence (neighbor visit order, RNG draws, rotation rule) over
// the rows_ adjacency masked to `allowed`, with the path built in stack_.
// Returns true on success with the path left in stack_.
bool HamiltonianSolver::posa_masked(std::uint64_t allowed,
                                    std::uint64_t starts, std::uint64_t ends,
                                    std::uint64_t seed,
                                    std::uint64_t max_steps) {
  const int m = std::popcount(allowed);
  util::Rng rng(seed);
  posa_pool_.clear();
  {
    std::uint64_t s = starts;
    while (s) {
      posa_pool_.push_back(std::countr_zero(s));
      s &= s - 1;
    }
  }
  if (posa_pool_.empty()) return false;

  posa_pos_.resize(static_cast<std::size_t>(n_all_));
  std::vector<Node>& path = stack_;
  std::uint64_t steps = 0;

  auto rotate_at = [&](int w) {
    int lo = posa_pos_[w] + 1;
    int hi = static_cast<int>(path.size()) - 1;
    while (lo < hi) {
      std::swap(path[lo], path[hi]);
      posa_pos_[path[lo]] = lo;
      posa_pos_[path[hi]] = hi;
      ++lo;
      --hi;
    }
    if (lo == hi) posa_pos_[path[lo]] = lo;
  };

  for (int restart = 0; restart < 4 && steps < max_steps; ++restart) {
    const int a = posa_pool_[rng.next_below(posa_pool_.size())];
    path.clear();
    path.push_back(a);
    std::fill(posa_pos_.begin(), posa_pos_.end(), -1);
    posa_pos_[a] = 0;

    while (steps < max_steps) {
      ++steps;
      const int e = path.back();
      int fresh = -1;
      int seen_fresh = 0;
      for (std::uint64_t nb = rows_[e] & allowed; nb; nb &= nb - 1) {
        const int w = std::countr_zero(nb);
        if (posa_pos_[w] < 0 &&
            static_cast<int>(rng.next_below(++seen_fresh)) == 0) {
          fresh = w;
        }
      }
      if (fresh >= 0) {
        posa_pos_[fresh] = static_cast<int>(path.size());
        path.push_back(fresh);
        if (static_cast<int>(path.size()) == m) break;
        continue;
      }
      const int len = static_cast<int>(path.size());
      int w = -1;
      int seen = 0;
      for (std::uint64_t nb = rows_[e] & allowed; nb; nb &= nb - 1) {
        const int x = std::countr_zero(nb);
        if (posa_pos_[x] >= 0 && posa_pos_[x] < len - 2 &&
            static_cast<int>(rng.next_below(++seen)) == 0) {
          w = x;
        }
      }
      if (w < 0) break;
      rotate_at(w);
    }

    if (static_cast<int>(path.size()) != m) continue;
    std::uint64_t spins = 0;
    while (!((ends >> path.back()) & 1u) && steps < max_steps &&
           spins < static_cast<std::uint64_t>(8 * m)) {
      ++steps;
      ++spins;
      int w = -1;
      int seen = 0;
      for (std::uint64_t nb = rows_[path.back()] & allowed; nb; nb &= nb - 1) {
        const int x = std::countr_zero(nb);
        if (posa_pos_[x] < m - 2 &&
            static_cast<int>(rng.next_below(++seen)) == 0) {
          w = x;
        }
      }
      if (w < 0) break;
      rotate_at(w);
    }
    if ((ends >> path.back()) & 1u) {
      posa_steps_total_ += steps;
      return true;
    }
  }
  posa_steps_total_ += steps;
  return false;
}

bool HamiltonianSolver::walk_masked(std::span<const std::uint64_t> adj_rows,
                                    std::uint64_t allowed,
                                    std::uint64_t starts, std::uint64_t ends,
                                    std::uint64_t seed, int first_start) {
  const int n_all = static_cast<int>(adj_rows.size());
  assert(n_all >= 1 && n_all <= 64);
  const std::uint64_t full =
      (n_all == 64) ? ~std::uint64_t{0} : ((std::uint64_t{1} << n_all) - 1);
  allowed &= full;
  starts &= allowed;
  ends &= allowed;
  if (!starts || !ends) return false;
  const std::uint64_t* rows = adj_rows.data();
  const int m = std::popcount(allowed);
  if (m == 1) {
    stack_.assign(1, std::countr_zero(allowed));
    return true;
  }
  // Tuned on the Figure 14 sweep: 3 restarts x 120 steps settles nearly
  // all of G(22,4)'s fault sets, fewer on larger instances (hit rates per
  // instance: EXPERIMENTS.md, X-FALLBACK); the rest fall to the exact
  // engine.
  constexpr int kMaxSteps = 120;
  constexpr int kRestarts = 3;
  WalkRng rng{seed ? seed : 0x243f6a8885a308d3ULL};
  const int ns = std::popcount(starts);
  // A batch kernel may hand in the restart-0 start (lowest start bit,
  // computed lane-parallel). It must agree with the scalar derivation —
  // the walk stays a pure function of (rows, allowed, starts, ends,
  // seed) either way.
  assert(first_start < 0 || first_start == std::countr_zero(starts));
  const int start0 =
      first_start >= 0 ? first_start : std::countr_zero(starts);

  // pos[] is only ever read for on-path nodes (allowed & ~rem), each
  // written when it joins the path, so restarts need not clear it.
  std::int8_t* const pos = walk_pos_;
  std::int8_t* const path = walk_path_;
  auto bit = [](int v) { return std::uint64_t{1} << v; };
  for (int r = 0; r < kRestarts; ++r) {
    // First try the lowest start deterministically; later restarts draw.
    const int start = r == 0 ? start0 : select_bit(starts, rng.next() % ns);
    std::uint64_t rem = allowed & ~bit(start);
    int len = 1;
    int steps = 0;
    path[0] = static_cast<std::int8_t>(start);
    pos[start] = 0;

    auto rotate_at = [&](int w) {
      // Reverse path[pos[w]+1 .. len-1]: w's old successor becomes the
      // new endpoint, the path edge set stays valid.
      int lo = pos[w] + 1;
      int hi = len - 1;
      while (lo < hi) {
        std::swap(path[lo], path[hi]);
        pos[path[lo]] = static_cast<std::int8_t>(lo);
        pos[path[hi]] = static_cast<std::int8_t>(hi);
        ++lo;
        --hi;
      }
      if (lo == hi) pos[path[lo]] = static_cast<std::int8_t>(lo);
    };

    bool dead = false;
    while (!dead && steps++ < kMaxSteps) {
      const int e = path[len - 1];
      std::uint64_t cand = rows[e] & rem;
      if (cand) {
        // Greedy extension, min key = 2*remaining-degree plus a penalty
        // that saves end-capable nodes for the endpoint-landing phase.
        int best = -1;
        int best_key = 999;
        do {
          const int w = std::countr_zero(cand);
          cand &= cand - 1;
          const int key = 2 * std::popcount(rows[w] & rem) +
                          (((ends >> w) & 1u) ? 32 : 0);
          if (key < best_key) {
            best_key = key;
            best = w;
          }
        } while (cand);
        rem &= ~bit(best);
        path[len] = static_cast<std::int8_t>(best);
        pos[best] = static_cast<std::int8_t>(len);
        ++len;
        if (len < m) continue;
      }
      if (len == m) {
        // Full path: spin-rotate until the endpoint lands in `ends`,
        // preferring pivots whose successor already is an end. Pivots
        // are the endpoint's neighbours short of the last two positions.
        int spins = 0;
        while (spins++ < 4 * m && steps++ < kMaxSteps) {
          const int ep = path[m - 1];
          if ((ends >> ep) & 1u) {
            stack_.assign(path, path + m);
            return true;
          }
          const std::uint64_t elig =
              rows[ep] & allowed & ~bit(ep) & ~bit(path[m - 2]);
          if (!elig) {
            dead = true;
            break;
          }
          int pick = -1;
          for (std::uint64_t t = elig; t; t &= t - 1) {
            const int x = std::countr_zero(t);
            if ((ends >> path[pos[x] + 1]) & 1u) {
              pick = x;
              break;
            }
          }
          if (pick < 0) {
            const unsigned c =
                static_cast<unsigned>(std::popcount(elig));
            pick = select_bit(elig, static_cast<unsigned>(rng.next() % c));
          }
          rotate_at(pick);
        }
        if (!dead && ((ends >> path[m - 1]) & 1u)) {
          stack_.assign(path, path + m);
          return true;
        }
        break;  // spin cap: restart from a fresh start node
      }
      // Stuck mid-walk: random Pósa rotation over the on-path neighbours
      // of the endpoint e, skipping e and its predecessor (whose rotation
      // is a no-op).
      std::uint64_t elig = rows[e] & allowed & ~rem & ~bit(e);
      if (len >= 2) elig &= ~bit(path[len - 2]);
      if (!elig) break;
      const unsigned c = static_cast<unsigned>(std::popcount(elig));
      rotate_at(select_bit(elig, static_cast<unsigned>(rng.next() % c)));
    }
  }
  return false;
}

// Generic variant for graphs with more than 64 nodes (kgdd routes on
// large instances, the reconfiguration benches). Same search, DynamicBitset
// state. Exact when dfs_budget == 0. This path is outside exhaustive
// certification reach (orbit pruning and the fault sweep cap at 64
// nodes), so it keeps the simpler per-call allocations.
HamPath HamiltonianSolver::solve_large(const Graph& g,
                                       const util::DynamicBitset& starts,
                                       const util::DynamicBitset& ends) {
  const int n = g.num_nodes();
  // Global necessary condition, as in the mask engine: the graph must be
  // connected. Checked first, so a disconnected negative does not pay the
  // Pósa attempt's cap.
  if (!is_connected(g)) return {HamResult::kNone, {}};

  // Order per mode: see hamiltonian.hpp. One Pósa attempt runs before the
  // first DFS pass (always in exact mode, in budgeted mode when its step
  // cap is below the budget): that pass costs milliseconds here and fails
  // on nearly every positive instance, which the attempt settles in well
  // under a millisecond; a negative pays the cap. Pósa only adds found
  // paths, so every verdict equals the DFS-first order's.
  constexpr std::uint64_t kPosaSeed = 21;
  auto posa_cap = [n](std::size_t attempt) {
    return (1000ull << attempt) * static_cast<unsigned>(n) + 50000;
  };
  const bool exact_mode = opts_.dfs_budget == 0;
  const bool posa_first = exact_mode || opts_.dfs_budget > posa_cap(0);
  if (posa_first) {
    if (auto p = posa_search(g, starts, ends, kPosaSeed, posa_cap(0),
                             &posa_steps_total_)) {
      return {HamResult::kFound, std::move(*p)};
    }
  }

  std::vector<util::DynamicBitset> adj(n, util::DynamicBitset(n));
  for (Node u = 0; u < n; ++u) {
    for (Node v : g.neighbors(u)) adj[u].set(v);
  }

  auto connected_within = [&](const util::DynamicBitset& allowed,
                              int seed) {
    util::DynamicBitset comp(n), frontier(n);
    comp.set(seed);
    frontier.set(seed);
    while (frontier.any()) {
      util::DynamicBitset next(n);
      for (std::size_t v = frontier.find_first(); v < frontier.size();
           v = frontier.find_next(v + 1)) {
        next |= adj[v];
      }
      next &= allowed;
      // next &= ~comp
      util::DynamicBitset fresh = next;
      fresh ^= comp;
      fresh &= next;
      comp |= next;
      frontier = fresh;
    }
    return comp;
  };

  std::vector<Node> path;
  util::DynamicBitset rem(n, true);
  std::uint64_t budget = 0;
  std::uint64_t spent = 0;

  // Recursive lambda DFS.
  auto dfs = [&](auto&& self, int v) -> HamResult {
    if (rem.none()) {
      return ends.test(v) ? HamResult::kFound : HamResult::kNone;
    }
    if (++spent > budget) return HamResult::kUnknown;

    // Degree / forced-terminal pruning.
    int forced = -1;
    for (std::size_t u = rem.find_first(); u < rem.size();
         u = rem.find_next(u + 1)) {
      int deg = 0;
      int last = -1;
      const auto& nb = adj[u];
      for (std::size_t w = nb.find_first(); w < nb.size();
           w = nb.find_next(w + 1)) {
        if (rem.test(w) || static_cast<int>(w) == v) {
          ++deg;
          last = static_cast<int>(w);
          if (deg > 1) break;
        }
      }
      if (deg == 0) return HamResult::kNone;
      if (deg == 1) {
        if (last == v && rem.count() != 1) return HamResult::kNone;
        if (forced >= 0) return HamResult::kNone;
        forced = static_cast<int>(u);
      }
    }

    // Connectivity through v.
    {
      util::DynamicBitset ctx = rem;
      ctx.set(v);
      util::DynamicBitset comp = connected_within(ctx, v);
      comp &= rem;
      if (comp.count() != rem.count()) return HamResult::kNone;
    }

    // Candidates sorted by remaining degree, perturbed tie-break.
    std::vector<std::pair<std::uint64_t, int>> cand;  // (key, node)
    const auto& nbv = adj[v];
    for (std::size_t w = nbv.find_first(); w < nbv.size();
         w = nbv.find_next(w + 1)) {
      if (!rem.test(w)) continue;
      int deg = 0;
      const auto& nbw = adj[w];
      for (std::size_t x = nbw.find_first(); x < nbw.size();
           x = nbw.find_next(x + 1)) {
        if (rem.test(x)) ++deg;
      }
      cand.emplace_back((static_cast<std::uint64_t>(deg) << 32) | prio_[w],
                        static_cast<int>(w));
    }
    std::sort(cand.begin(), cand.end());

    bool any_unknown = false;
    for (auto [key, w] : cand) {
      if (forced >= 0 && rem.count() > 1 && w != forced &&
          !ends.test(forced)) {
        // Forced terminal is not a legal end: dead branch regardless.
        return HamResult::kNone;
      }
      path.push_back(w);
      rem.reset(w);
      const HamResult r = self(self, w);
      if (r == HamResult::kFound) return r;
      rem.set(w);
      path.pop_back();
      if (r == HamResult::kUnknown) any_unknown = true;
    }
    return any_unknown ? HamResult::kUnknown : HamResult::kNone;
  };

  // Same budget-escalating restart scheme as the small solver: perturbed
  // Warnsdorff passes, exact because a pass that never hits its budget
  // proves absence and the exact-mode final pass is unbounded.
  auto run_pass = [&](std::uint64_t pass_budget,
                      std::uint64_t seed) -> HamResult {
    set_tie_break(n, seed);
    budget = pass_budget;
    bool hit = false;
    for (int a = 0; a < n; ++a) {
      if (!starts.test(a)) continue;
      path.clear();
      path.push_back(a);
      rem.set_all();
      rem.reset(a);
      spent = 0;
      const HamResult r = dfs(dfs, a);
      expansions_total_ += spent;
      if (r == HamResult::kFound) return HamResult::kFound;
      if (r == HamResult::kUnknown) hit = true;
    }
    return hit ? HamResult::kUnknown : HamResult::kNone;
  };

  std::vector<std::uint64_t> budgets;
  if (exact_mode) {
    budgets = {std::uint64_t{1} << 11, std::uint64_t{1} << 16,
               std::uint64_t{1} << 19, std::uint64_t{1} << 22};
  } else {
    budgets = {opts_.dfs_budget};
  }
  for (std::size_t attempt = 0; attempt < budgets.size(); ++attempt) {
    const HamResult r = run_pass(budgets[attempt], attempt);
    if (r != HamResult::kUnknown) {
      return {r, r == HamResult::kFound ? path : std::vector<Node>{}};
    }
    // Lean hard on Pósa between every escalation: each DFS budget pass
    // costs O(budget * n) here — minutes at n in the hundreds — whereas
    // rotations are O(n) per step, and on the dense positive instances
    // this solver sees, Pósa with enough fresh seeds essentially always
    // lands. Fresh seeds and growing step caps at every escalation level;
    // the seed already tried above is skipped.
    const std::uint64_t base_seed = kPosaSeed + 64 * attempt;
    const bool seed_tried = posa_first && attempt == 0;
    for (std::uint64_t seed = base_seed + (seed_tried ? 1 : 0);
         seed < base_seed + 16; ++seed) {
      auto p = posa_search(g, starts, ends, seed, posa_cap(attempt),
                           &posa_steps_total_);
      if (p) return {HamResult::kFound, std::move(*p)};
    }
  }
  if (exact_mode) {
    const HamResult r = run_pass(~std::uint64_t{0}, 0x5eedULL);
    return {r == HamResult::kFound ? HamResult::kFound : HamResult::kNone,
            r == HamResult::kFound ? path : std::vector<Node>{}};
  }
  return {HamResult::kUnknown, {}};
}

}  // namespace kgdp::graph
