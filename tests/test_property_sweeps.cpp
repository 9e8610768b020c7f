// Parameterized property sweeps across the construction grid: the
// invariants every solution graph must satisfy, checked wholesale.
#include <gtest/gtest.h>

#include "fault/fault_model.hpp"
#include "kgd/bounds.hpp"
#include "kgd/extension.hpp"
#include "kgd/factory.hpp"
#include "kgd/merge.hpp"
#include "kgd/small_n.hpp"
#include "util/rng.hpp"
#include "verify/pipeline_solver.hpp"

// GCC 12 reports -Wrestrict false positives inside libstdc++'s inlined
// std::string operator+ (GCC bug 105329), here in the name building of
// gtest's parameterized-test macros.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wrestrict"
#endif

namespace kgdp {
namespace {

using kgd::FaultSet;
using kgd::Role;
using kgd::SolutionGraph;

struct GridPoint {
  int n;
  int k;
};

std::vector<GridPoint> coverage_grid() {
  std::vector<GridPoint> pts;
  for (int k = 1; k <= 3; ++k) {
    for (int n = 1; n <= 16; ++n) pts.push_back({n, k});
  }
  for (int k = 4; k <= 6; ++k) {
    for (int n = 2 * k + 5; n <= 2 * k + 8; ++n) pts.push_back({n, k});
  }
  for (int k = 7; k <= 12; ++k) {
    for (int n = 1; n <= 3; ++n) pts.push_back({n, k});
  }
  return pts;
}

class GridSweep : public ::testing::TestWithParam<GridPoint> {};

TEST_P(GridSweep, StructuralInvariants) {
  const auto [n, k] = GetParam();
  const auto sg = kgd::build_solution(n, k);
  ASSERT_TRUE(sg.has_value());
  // Node census (node-optimality).
  EXPECT_EQ(sg->num_inputs(), k + 1);
  EXPECT_EQ(sg->num_outputs(), k + 1);
  EXPECT_EQ(sg->num_processors(), n + k);
  // Standardness: all terminals degree 1.
  EXPECT_TRUE(sg->all_terminals_degree_one());
  // Lemma 3.1 / 3.4 floors and the degree-optimality ceiling.
  EXPECT_GE(sg->min_processor_degree(), k + 2);
  if (n > 1) {
    for (auto v : sg->processors()) {
      EXPECT_GE(kgd::processor_neighbor_count(*sg, v), k + 1);
    }
  }
  EXPECT_EQ(sg->max_processor_degree(), kgd::max_degree_lower_bound(n, k));
  // No terminal-terminal edges ever.
  for (auto [u, v] : sg->graph().edges()) {
    EXPECT_FALSE(sg->role(u) != Role::kProcessor &&
                 sg->role(v) != Role::kProcessor);
  }
}

TEST_P(GridSweep, EverySingleFaultTolerated) {
  const auto [n, k] = GetParam();
  const auto sg = kgd::build_solution(n, k);
  ASSERT_TRUE(sg.has_value());
  verify::PipelineSolver solver;
  for (int v = 0; v < sg->num_nodes(); ++v) {
    const FaultSet fs(sg->num_nodes(), {v});
    const auto out = solver.solve(*sg, fs);
    ASSERT_EQ(out.status, verify::SolveStatus::kFound)
        << "n=" << n << " k=" << k << " fault " << v;
    // Graceful degradation: the pipeline's interior is every healthy
    // processor, i.e. n+k or n+k-1 of them.
    const int expect =
        sg->role(v) == Role::kProcessor ? n + k - 1 : n + k;
    EXPECT_EQ(out.pipeline->num_processors(), expect);
  }
}

TEST_P(GridSweep, RandomMaxBudgetFaultsTolerated) {
  const auto [n, k] = GetParam();
  const auto sg = kgd::build_solution(n, k);
  ASSERT_TRUE(sg.has_value());
  util::Rng rng(static_cast<std::uint64_t>(n) * 1000 + k);
  verify::PipelineSolver solver;
  for (int trial = 0; trial < 10; ++trial) {
    const FaultSet fs =
        fault::draw_faults(*sg, k, fault::FaultPolicy::kUniform, rng);
    ASSERT_EQ(solver.solve(*sg, fs).status, verify::SolveStatus::kFound)
        << "n=" << n << " k=" << k << " faults " << fs.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(
    CoverageGrid, GridSweep, ::testing::ValuesIn(coverage_grid()),
    [](const ::testing::TestParamInfo<GridPoint>& param_info) {
      return "n" + std::to_string(param_info.param.n) + "_k" +
             std::to_string(param_info.param.k);
    });

// ---- extension-chain properties ----

class ExtensionChain : public ::testing::TestWithParam<int> {};

TEST_P(ExtensionChain, InvariantsSurviveRepeatedExtension) {
  const int k = GetParam();
  SolutionGraph cur = kgd::make_g1k(k);
  const int base_degree = cur.max_processor_degree();
  for (int step = 1; step <= 4; ++step) {
    cur = kgd::extend_once(cur);
    EXPECT_EQ(cur.n(), 1 + step * (k + 1));
    EXPECT_TRUE(cur.is_standard());
    EXPECT_EQ(cur.max_processor_degree(), base_degree);
    EXPECT_GE(cur.min_processor_degree(), k + 2);
  }
}

TEST_P(ExtensionChain, MergedTerminalDegreeIsAlwaysKPlus1) {
  const int k = GetParam();
  for (int times = 0; times <= 2; ++times) {
    const SolutionGraph merged =
        kgd::merge_terminals(kgd::extend(kgd::make_g2k(k), times));
    EXPECT_EQ(merged.graph().degree(merged.inputs()[0]), k + 1);
    EXPECT_EQ(merged.graph().degree(merged.outputs()[0]), k + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(KRange, ExtensionChain, ::testing::Range(1, 5));

// ---- asymptotic degree table over a wide grid ----

TEST(AsymptoticWideGrid, DegreeFormulaHoldsEverywhere) {
  for (int k = 4; k <= 11; ++k) {
    for (int n = 2 * k + 5; n <= 2 * k + 20; ++n) {
      const auto sg = kgd::build_solution(n, k);
      ASSERT_TRUE(sg.has_value());
      const int expect =
          (n % 2 == 0 && k % 2 == 1) ? k + 3 : k + 2;
      ASSERT_EQ(sg->max_processor_degree(), expect)
          << "n=" << n << " k=" << k;
      ASSERT_EQ(sg->min_processor_degree(), k + 2)
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(AsymptoticWideGrid, EdgeCountIsLinearInN) {
  // Degree k+2 (or +3) regularity implies |E| ~ (n+3k+2)(k+2)/2 + O(k).
  for (int k : {4, 6, 8}) {
    const auto small = kgd::build_solution(6 * k, k);
    const auto big = kgd::build_solution(12 * k, k);
    ASSERT_TRUE(small && big);
    const double ratio = static_cast<double>(big->graph().num_edges()) /
                         static_cast<double>(small->graph().num_edges());
    EXPECT_GT(ratio, 1.4);
    EXPECT_LT(ratio, 2.6);
  }
}

}  // namespace
}  // namespace kgdp
