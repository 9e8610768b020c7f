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
#include <gtest/gtest.h>

#include "fault/enumerator.hpp"
#include "kgd/factory.hpp"
#include "util/thread_pool.hpp"
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

}  // namespace
}  // namespace kgdp::verify
