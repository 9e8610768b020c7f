#include "verify/checker.hpp"

#include <gtest/gtest.h>

#include "baseline/naive.hpp"
#include "fault/enumerator.hpp"
#include "kgd/factory.hpp"
#include "kgd/small_n.hpp"

namespace kgdp::verify {
namespace {

TEST(Checker, CertifiesKnownGoodGraphs) {
  const auto res = run_check(kgd::make_g1k(2), CheckRequest::exhaustive(2));
  EXPECT_TRUE(res.holds);
  EXPECT_TRUE(res.exhaustive);
  EXPECT_FALSE(res.counterexample.has_value());
  EXPECT_EQ(res.fault_sets_checked,
            fault::FaultEnumerator(9, 2).total());
  // On these instance sizes the solver must never punt: a certificate
  // with unknowns would not be a certificate.
  EXPECT_EQ(res.solver_unknowns, 0u);
  // Orbit pruning is on by default and must account for every fault set
  // it skipped.
  EXPECT_EQ(res.fault_sets_solved + res.orbits_pruned,
            res.fault_sets_checked);
}

TEST(Checker, FindsCounterexampleOnSparePath) {
  // The naive spare path dies on any interior processor fault.
  const auto sg = baseline::make_spare_path(4, 2);
  const auto res = run_check(sg, CheckRequest::exhaustive(2));
  EXPECT_FALSE(res.holds);
  EXPECT_EQ(res.solver_unknowns, 0u);
  ASSERT_TRUE(res.counterexample.has_value());
  // And the counterexample really is one.
  const auto out = find_pipeline(sg, *res.counterexample);
  EXPECT_EQ(out.status, SolveStatus::kNone);
}

TEST(Checker, CounterexampleIsLowestIndexDeterministic) {
  const auto sg = baseline::make_spare_path(4, 2);
  const auto res1 = run_check(sg, CheckRequest::exhaustive(2));
  const auto res2 = run_check(sg, CheckRequest::exhaustive(2));
  ASSERT_TRUE(res1.counterexample && res2.counterexample);
  EXPECT_EQ(res1.counterexample->nodes(), res2.counterexample->nodes());
}

TEST(Checker, ParallelMatchesSequential) {
  util::ThreadPool pool(4);
  CheckOptions seq;
  CheckOptions par;
  par.pool = &pool;
  for (auto [n, k] : std::vector<std::pair<int, int>>{{4, 2}, {5, 2},
                                                      {6, 1}, {3, 3}}) {
    const auto sg = kgd::build_solution(n, k);
    ASSERT_TRUE(sg);
    const auto a = run_check(*sg, CheckRequest::exhaustive(k, seq));
    const auto b = run_check(*sg, CheckRequest::exhaustive(k, par));
    EXPECT_EQ(a.holds, b.holds) << sg->name();
    EXPECT_EQ(a.fault_sets_checked, b.fault_sets_checked) << sg->name();
    EXPECT_EQ(a.solver_unknowns, 0u) << sg->name();
    EXPECT_EQ(b.solver_unknowns, 0u) << sg->name();
  }
  // Negative case determinism under parallelism.
  const auto bad = baseline::make_spare_path(4, 2);
  const auto a = run_check(bad, CheckRequest::exhaustive(2, seq));
  const auto b = run_check(bad, CheckRequest::exhaustive(2, par));
  ASSERT_TRUE(a.counterexample && b.counterexample);
  EXPECT_EQ(a.counterexample->nodes(), b.counterexample->nodes());
}

TEST(Checker, ParallelReportsPerWorkerCounters) {
  // The pool path at k >= 2: one solver per worker, per-worker solve
  // times, and steal accounting all surface through CheckResult.
  util::ThreadPool pool(3);
  CheckOptions par;
  par.pool = &pool;
  const auto sg = kgd::build_solution(8, 2);
  ASSERT_TRUE(sg);
  const auto res = run_check(*sg, CheckRequest::exhaustive(2, par));
  EXPECT_TRUE(res.holds);
  EXPECT_EQ(res.solver_unknowns, 0u);
  EXPECT_EQ(res.worker_solve_seconds.size(), pool.thread_count());
  double busy = 0.0;
  for (double s : res.worker_solve_seconds) {
    EXPECT_GE(s, 0.0);
    busy += s;
  }
  EXPECT_GT(busy, 0.0);  // somebody actually solved something
  // Steals are schedule-dependent, but the counter must at least be
  // bounded by the amount of work available.
  EXPECT_LE(res.steal_count, res.fault_sets_checked);
}

TEST(Checker, PruneOffMatchesPruneAuto) {
  CheckOptions off;
  off.prune = PruneMode::kOff;
  for (auto [n, k] : std::vector<std::pair<int, int>>{{1, 3}, {3, 3},
                                                      {6, 2}}) {
    const auto sg = kgd::build_solution(n, k);
    ASSERT_TRUE(sg);
    const auto pruned = run_check(*sg, CheckRequest::exhaustive(k));  // default: kAuto
    const auto plain = run_check(*sg, CheckRequest::exhaustive(k, off));
    EXPECT_EQ(pruned.holds, plain.holds) << sg->name();
    EXPECT_EQ(pruned.fault_sets_checked, plain.fault_sets_checked)
        << sg->name();
    EXPECT_EQ(plain.orbits_pruned, 0u) << sg->name();
    EXPECT_EQ(plain.automorphism_order, 1u) << sg->name();
  }
}

TEST(Checker, ZeroFaultBudgetChecksOnlyEmptySet) {
  const auto res = run_check(kgd::make_g1k(1), CheckRequest::exhaustive(0));
  EXPECT_TRUE(res.holds);
  EXPECT_EQ(res.fault_sets_checked, 1u);
}

TEST(Checker, SampledFindsObviousFlaws) {
  const auto sg = baseline::make_spare_path(6, 2);
  const auto res = run_check(sg, CheckRequest::sampled(2, /*samples=*/200, /*seed=*/1));
  EXPECT_FALSE(res.holds);
  EXPECT_TRUE(res.counterexample.has_value());
}

TEST(Checker, SampledPassesOnGoodGraphs) {
  const auto sg = kgd::build_solution(9, 2);
  ASSERT_TRUE(sg);
  const auto res = run_check(*sg, CheckRequest::sampled(2, 200, 7));
  EXPECT_TRUE(res.holds);
  EXPECT_FALSE(res.exhaustive);  // sampling never claims exhaustiveness
}

TEST(Checker, BeyondDesignBudgetGraphsMayFail) {
  // G(n,k) checked at k+1 faults: killing all k+1 input terminals is a
  // guaranteed counterexample, so the checker must find SOME failure.
  const auto sg = kgd::build_solution(5, 2);
  ASSERT_TRUE(sg);
  const auto res = run_check(*sg, CheckRequest::exhaustive(3));
  EXPECT_FALSE(res.holds);
}

TEST(Checker, CompleteDesignIsGd) {
  const auto res = run_check(baseline::make_complete_design(6, 2), CheckRequest::exhaustive(2));
  EXPECT_TRUE(res.holds);
}

}  // namespace
}  // namespace kgdp::verify
