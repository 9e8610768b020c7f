// Differential harness: the pruned and unpruned exhaustive checkers are
// two implementations of the same quantifier GD(G,k), so on every factory
// construction in reach they must agree on the verdict, any reported
// counterexample must genuinely kill the graph, and the orbit partition
// must tile the full fault-set space exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>

#include "baseline/naive.hpp"
#include "fault/enumerator.hpp"
#include "fault/orbit_enumerator.hpp"
#include "graph/automorphism.hpp"
#include "kgd/factory.hpp"
#include "util/thread_pool.hpp"
#include "verify/checker.hpp"

namespace kgdp::verify {
namespace {

CheckOptions with_prune(PruneMode mode, util::ThreadPool* pool = nullptr) {
  CheckOptions opts;
  opts.prune = mode;
  opts.pool = pool;
  return opts;
}

// Every covered (n, k) with n+k <= 12, k <= 3 — small enough that the
// unpruned sweep stays fast, large enough to hit every §3.2/§3.3
// construction branch at least once.
std::vector<std::pair<int, int>> covered_instances() {
  std::vector<std::pair<int, int>> out;
  for (int k = 1; k <= 3; ++k) {
    for (int n = 1; n + k <= 12; ++n) {
      if (kgd::is_supported(n, k)) out.emplace_back(n, k);
    }
  }
  return out;
}

void expect_agreement(const kgd::SolutionGraph& sg, int k,
                      const CheckResult& pruned,
                      const CheckResult& unpruned) {
  const std::string tag = sg.name() + " k=" + std::to_string(k);
  EXPECT_EQ(pruned.holds, unpruned.holds) << tag;
  EXPECT_EQ(pruned.exhaustive, unpruned.exhaustive) << tag;
  EXPECT_EQ(pruned.solver_unknowns, 0u) << tag;
  EXPECT_EQ(unpruned.solver_unknowns, 0u) << tag;
  if (pruned.holds) {
    // Both cover the full quantifier domain, the pruned one with fewer
    // solves whenever the group is non-trivial.
    const auto total = fault::FaultEnumerator(sg.num_nodes(), k).total();
    EXPECT_EQ(pruned.fault_sets_checked, total) << tag;
    EXPECT_EQ(unpruned.fault_sets_checked, total) << tag;
    EXPECT_EQ(pruned.fault_sets_solved + pruned.orbits_pruned, total) << tag;
  } else {
    // Counterexample *membership*: each checker's witness must be a real
    // killer (the sets themselves may differ across orbit choices).
    ASSERT_TRUE(pruned.counterexample.has_value()) << tag;
    ASSERT_TRUE(unpruned.counterexample.has_value()) << tag;
    for (const auto* ce : {&*pruned.counterexample, &*unpruned.counterexample}) {
      EXPECT_LE(ce->size(), k) << tag;
      EXPECT_EQ(find_pipeline(sg, *ce).status, SolveStatus::kNone) << tag;
    }
  }
}

TEST(OrbitChecker, DifferentialOverFactoryConstructions) {
  for (const auto& [n, k] : covered_instances()) {
    const auto sg = kgd::build_solution(n, k);
    ASSERT_TRUE(sg) << n << "," << k;
    const auto pruned = run_check(*sg, CheckRequest::exhaustive(k, with_prune(PruneMode::kAuto)));
    const auto unpruned = run_check(*sg, CheckRequest::exhaustive(k, with_prune(PruneMode::kOff)));
    expect_agreement(*sg, k, pruned, unpruned);
    EXPECT_TRUE(pruned.holds) << sg->name();  // factory graphs are GD
  }
}

TEST(OrbitChecker, DifferentialOnFailingGraphs) {
  // Negative instances: the spare path dies on interior faults; also
  // check the factory graphs one past their design budget.
  for (auto [n, k] : std::vector<std::pair<int, int>>{{4, 2}, {6, 3}}) {
    const auto sg = baseline::make_spare_path(n, k);
    const auto pruned = run_check(sg, CheckRequest::exhaustive(k, with_prune(PruneMode::kAuto)));
    const auto unpruned = run_check(sg, CheckRequest::exhaustive(k, with_prune(PruneMode::kOff)));
    expect_agreement(sg, k, pruned, unpruned);
    EXPECT_FALSE(pruned.holds);
  }
  for (auto [n, k] : std::vector<std::pair<int, int>>{{1, 2}, {3, 2}, {5, 1}}) {
    const auto sg = kgd::build_solution(n, k);
    ASSERT_TRUE(sg);
    const auto pruned =
        run_check(*sg, CheckRequest::exhaustive(k + 1, with_prune(PruneMode::kAuto)));
    const auto unpruned =
        run_check(*sg, CheckRequest::exhaustive(k + 1, with_prune(PruneMode::kOff)));
    expect_agreement(*sg, k + 1, pruned, unpruned);
    EXPECT_FALSE(pruned.holds) << sg->name();
  }
}

TEST(OrbitChecker, ParallelPrunedMatchesSequentialPruned) {
  util::ThreadPool pool(4);
  for (const auto& [n, k] : covered_instances()) {
    if (n + k > 10) continue;  // keep the parallel leg quick
    const auto sg = kgd::build_solution(n, k);
    ASSERT_TRUE(sg);
    const auto seq = run_check(*sg, CheckRequest::exhaustive(k, with_prune(PruneMode::kAuto)));
    const auto par =
        run_check(*sg, CheckRequest::exhaustive(k, with_prune(PruneMode::kAuto, &pool)));
    EXPECT_EQ(seq.holds, par.holds) << sg->name();
    EXPECT_EQ(seq.fault_sets_solved, par.fault_sets_solved) << sg->name();
    EXPECT_EQ(par.worker_solve_seconds.size(), pool.thread_count());
  }
  // Deterministic counterexample under parallel pruning: lowest-index
  // failing representative, any thread count.
  const auto bad = baseline::make_spare_path(4, 2);
  const auto seq = run_check(bad, CheckRequest::exhaustive(2, with_prune(PruneMode::kAuto)));
  const auto par =
      run_check(bad, CheckRequest::exhaustive(2, with_prune(PruneMode::kAuto, &pool)));
  ASSERT_TRUE(seq.counterexample && par.counterexample);
  EXPECT_EQ(seq.counterexample->nodes(), par.counterexample->nodes());
}

TEST(OrbitChecker, OrbitSizesTileTheFaultSpace) {
  // Summed orbit sizes must equal FaultEnumerator::total() exactly, and
  // representatives must be sorted orbit minima.
  for (const auto& [n, k] : covered_instances()) {
    const auto sg = kgd::build_solution(n, k);
    ASSERT_TRUE(sg);
    const auto autos = graph::solution_automorphisms(*sg);
    const fault::OrbitEnumerator orbits(sg->num_nodes(), k, autos);
    const fault::FaultEnumerator plain(sg->num_nodes(), k);
    EXPECT_EQ(orbits.total(), plain.total());
    std::uint64_t sum = 0;
    std::uint64_t prev_rep = 0;
    for (std::uint64_t i = 0; i < orbits.num_orbits(); ++i) {
      sum += orbits.orbit_size(i);
      if (i > 0) {
        EXPECT_GT(orbits.rep_index(i), prev_rep) << sg->name();
      }
      prev_rep = orbits.rep_index(i);
    }
    EXPECT_EQ(sum, plain.total()) << sg->name();
    EXPECT_EQ(orbits.num_orbits() + orbits.fault_sets_pruned(),
              plain.total())
        << sg->name();
  }
}

TEST(OrbitChecker, OrbitMembersShareTheVerdict) {
  // Spot-check soundness directly: within an orbit, every member solves
  // to the same yes/no as its representative.
  const auto sg = kgd::build_solution(2, 3);  // G(2,3): |Aut| = 6
  ASSERT_TRUE(sg);
  const auto autos = graph::solution_automorphisms(*sg);
  ASSERT_TRUE(autos.usable());
  const fault::FaultEnumerator plain(sg->num_nodes(), 3);
  for (std::uint64_t i = 0; i < plain.total(); ++i) {
    const auto nodes = plain.nodes_at(i);
    const bool base_ok =
        find_pipeline(*sg, plain.at(i)).status == SolveStatus::kFound;
    for (const auto& g : autos.generators) {
      std::vector<int> image;
      for (int v : nodes) image.push_back(g[v]);
      std::sort(image.begin(), image.end());
      const kgd::FaultSet mapped(sg->num_nodes(), image);
      EXPECT_EQ(find_pipeline(*sg, mapped).status == SolveStatus::kFound,
                base_ok)
          << sg->name() << " index " << i;
    }
  }
}

TEST(OrbitChecker, UnprunedFallbackIsTransparent) {
  // A trivial group must leave the enumerator in identity mode with the
  // exact FaultEnumerator ordering.
  const graph::AutomorphismList trivial;
  const fault::OrbitEnumerator orbits(6, 2, trivial);
  const fault::FaultEnumerator plain(6, 2);
  EXPECT_FALSE(orbits.pruned());
  EXPECT_EQ(orbits.num_orbits(), plain.total());
  EXPECT_EQ(orbits.fault_sets_pruned(), 0u);
  for (std::uint64_t i = 0; i < orbits.num_orbits(); ++i) {
    EXPECT_EQ(orbits.rep_index(i), i);
    EXPECT_EQ(orbits.orbit_size(i), 1u);
    EXPECT_EQ(orbits.representative(i).nodes(), plain.at(i).nodes());
  }
}

}  // namespace
}  // namespace kgdp::verify
