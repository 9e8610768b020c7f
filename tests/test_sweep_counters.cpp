// Exact work-counter gate for the exhaustive sweep. Walk hits, walk
// fallbacks, exact-search nodes and Pósa steps are pure functions of the
// instance — the walk seed comes from the fault mask and the fallback
// solver is deterministic — so they are the same on every host, kernel
// width and thread schedule. Pinning them makes a change in the walk
// split, in the fallback's DFS/DP search nodes or in the Pósa steps it
// spends fail on any machine, unlike a wall-clock budget.
//
// Two regimes: G(22,4) is walk-bound (six fallbacks, all DP-sized, so no
// Pósa step), and G(36,4) is fallback-bound (859 misses on 40-node
// instances, above the DP cutoff, where one Pósa attempt precedes the
// budgeted DFS).
//
// The counters pin how many walks hit, not which paths they return; the
// walk-path hash below pins the paths themselves.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>

#include "fault/enumerator.hpp"
#include "graph/bit_adjacency.hpp"
#include "graph/hamiltonian.hpp"
#include "kgd/factory.hpp"
#include "util/thread_pool.hpp"
#include "verify/batch_kernels.hpp"
#include "verify/checker.hpp"

namespace kgdp::verify {
namespace {

struct Expected {
  int n;
  std::uint64_t walk_hits;
  std::uint64_t walk_fallbacks;
  std::uint64_t search_nodes;
  std::uint64_t posa_steps;
};

constexpr int kK = 4;
constexpr Expected kG22{22, 66'706, 6, 425, 0};
constexpr Expected kG36{36, 250'317, 859, 1'492, 834'608};

void expect_counters(const Expected& e, util::ThreadPool* pool) {
  const auto sg = kgd::build_solution(e.n, kK);
  ASSERT_TRUE(sg.has_value());
  CheckOptions opts;
  opts.pool = pool;
  const CheckResult res = run_check(*sg, CheckRequest::exhaustive(kK, opts));
  const std::string tag = "G(" + std::to_string(e.n) + ",4) threads=" +
                          std::to_string(pool ? pool->thread_count() : 1);
  EXPECT_TRUE(res.holds) << tag;
  EXPECT_EQ(res.fault_sets_checked,
            fault::FaultEnumerator(sg->num_nodes(), kK).total())
      << tag;
  EXPECT_EQ(res.solver_unknowns, 0u) << tag;
  EXPECT_EQ(res.solver_walk_hits, e.walk_hits) << tag;
  EXPECT_EQ(res.solver_walk_fallbacks, e.walk_fallbacks) << tag;
  EXPECT_EQ(res.solver_search_nodes, e.search_nodes) << tag;
  EXPECT_EQ(res.solver_posa_steps, e.posa_steps) << tag;
}

TEST(SweepCounters, WalkBoundG22SingleThreaded) {
  expect_counters(kG22, nullptr);
}

TEST(SweepCounters, WalkBoundG22TwoWorkers) {
  util::ThreadPool pool(2);
  expect_counters(kG22, &pool);
}

TEST(SweepCounters, FallbackBoundG36SingleThreaded) {
  expect_counters(kG36, nullptr);
}

TEST(SweepCounters, FallbackBoundG36TwoWorkers) {
  util::ThreadPool pool(2);
  expect_counters(kG36, &pool);
}

// Every walk of the G(22,4) sweep, bit for bit: lanes come from the
// batch kernel in sweep order, the way the checker feeds the walk, and
// each hit path (its length, then its nodes) or miss (one marker byte)
// is folded into an FNV-1a hash. A walk change that keeps the hit count
// but returns different paths, or draws the RNG differently, moves it.
TEST(SweepCounters, WalkPathsG22Pinned) {
  const auto sg = kgd::build_solution(22, kK);
  ASSERT_TRUE(sg.has_value());
  const int n = sg->num_nodes();
  const graph::BitAdjacency adj(sg->graph());
  const std::span<const std::uint64_t> rows = adj.rows64();
  std::uint64_t proc = 0, in = 0, out = 0;
  for (int v = 0; v < n; ++v) {
    const std::uint64_t bit = std::uint64_t{1} << v;
    switch (sg->role(v)) {
      case kgd::Role::kProcessor: proc |= bit; break;
      case kgd::Role::kInput: in |= bit; break;
      case kgd::Role::kOutput: out |= bit; break;
    }
  }
  graph::HamiltonianSolver ham;
  const detail::BatchKernel kernel = detail::select_batch_kernel(0);

  std::uint64_t hash = 0xcbf29ce484222325ULL;
  auto fold = [&hash](std::uint64_t byte) {
    hash = (hash ^ byte) * 0x100000001b3ULL;
  };
  std::uint64_t hits = 0, misses = 0;
  const fault::FaultEnumerator en(n, kK);
  fault::FaultEnumerator::Sweep sweep(en);
  constexpr std::size_t kBatch = 64;
  std::uint64_t masks[kBatch];
  detail::LaneSetup lanes[kBatch];
  for (std::uint64_t base = 0; base < en.total(); base += kBatch) {
    const std::size_t count = static_cast<std::size_t>(
        std::min<std::uint64_t>(kBatch, en.total() - base));
    for (std::size_t i = 0; i < count; ++i) {
      if (base + i == 0) {
        sweep.seek(0);
      } else {
        sweep.advance();
      }
      masks[i] = sweep.mask64();
    }
    kernel.fn(rows.data(), n, proc, in, out, masks, count, lanes);
    for (std::size_t i = 0; i < count; ++i) {
      const detail::LaneSetup& lane = lanes[i];
      if (lane.keep == 0 || !lane.starts || !lane.ends) continue;
      if (ham.walk_masked(rows, lane.keep, lane.starts, lane.ends, lane.seed,
                          std::countr_zero(lane.start_bit))) {
        ++hits;
        const std::span<const graph::Node> path = ham.masked_path();
        fold(path.size());
        for (const graph::Node v : path) fold(static_cast<std::uint64_t>(v));
      } else {
        ++misses;
        fold(0xff);
      }
    }
  }
  EXPECT_EQ(hits, kG22.walk_hits);
  EXPECT_EQ(misses, kG22.walk_fallbacks);
  EXPECT_EQ(hash, 0x63a5a8cbe39e6836ULL);
}

}  // namespace
}  // namespace kgdp::verify
