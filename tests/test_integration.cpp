// End-to-end scenarios crossing every layer: construction -> fault
// injection -> reconfiguration -> verified pipeline -> stream processing.
#include <gtest/gtest.h>

#include "baseline/compare.hpp"
#include "baseline/naive.hpp"
#include "fault/fault_model.hpp"
#include "kgd/factory.hpp"
#include "kgd/merge.hpp"
#include "sim/machine.hpp"
#include "sim/stages_dsp.hpp"
#include "util/rng.hpp"
#include "verify/checker.hpp"
#include "verify/pipeline_solver.hpp"

// GCC 12 reports -Wrestrict false positives inside libstdc++'s inlined
// std::string operator+ (GCC bug 105329), here in a node-name lookup.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wrestrict"
#endif

namespace kgdp {
namespace {

using kgd::FaultSet;
using kgd::SolutionGraph;

TEST(Integration, RandomFaultCampaignOnEveryFamily) {
  // For a grid of (n, k): inject random fault sets up to k and require a
  // certified pipeline every single time.
  util::Rng rng(2024);
  verify::PipelineSolver solver;
  for (int k = 1; k <= 3; ++k) {
    for (int n : {4, 7, 10, 15}) {
      const auto sg = kgd::build_solution(n, k);
      ASSERT_TRUE(sg);
      for (int trial = 0; trial < 40; ++trial) {
        const int f = static_cast<int>(rng.next_below(k + 1));
        const FaultSet fs =
            fault::draw_faults(*sg, f, fault::FaultPolicy::kUniform, rng);
        const auto out = solver.solve(*sg, fs);
        ASSERT_EQ(out.status, verify::SolveStatus::kFound)
            << "n=" << n << " k=" << k << " faults " << fs.to_string();
        EXPECT_TRUE(kgd::check_pipeline(*sg, fs, out.pipeline->path).ok);
      }
    }
  }
}

TEST(Integration, AdversarialCampaignOnAsymptotic) {
  const auto sg = kgd::build_solution(18, 4);
  ASSERT_TRUE(sg);
  verify::PipelineSolver solver;
  for (const FaultSet& fs : fault::adversarial_suite(*sg, 4, 2000)) {
    ASSERT_EQ(solver.solve(*sg, fs).status, verify::SolveStatus::kFound)
        << fs.to_string();
  }
}

TEST(Integration, MachineSurvivesSequentialFaultStorm) {
  // Kill k nodes one at a time on a k=3 machine, remapping after each;
  // stream output must track the fault-free reference throughout.
  auto sg = kgd::build_solution(9, 3);
  ASSERT_TRUE(sg);
  sim::PipelineMachine machine(*sg, sim::make_video_pipeline());
  sim::StageList ref = sim::make_video_pipeline();

  util::Rng rng(5);
  const auto procs = sg->processors();
  std::vector<int> order(procs.begin(), procs.end());
  rng.shuffle(order);

  for (int round = 0; round < 4; ++round) {
    const sim::Chunk sig = sim::make_test_signal(256, 100 + round);
    EXPECT_EQ(machine.process(sig), sim::run_sequential(ref, sig))
        << "round " << round;
    if (round < 3) {
      ASSERT_TRUE(machine.inject_fault(order[round]));
      ASSERT_TRUE(machine.reconfigure()) << "round " << round;
    }
  }
  EXPECT_EQ(machine.fault_count(), 3);
}

TEST(Integration, MergedModelSurvivesProcessorCampaign) {
  const auto base = kgd::build_solution(8, 2);
  ASSERT_TRUE(base);
  const SolutionGraph merged = kgd::merge_terminals(*base);
  util::Rng rng(7);
  verify::PipelineSolver solver;
  for (int trial = 0; trial < 60; ++trial) {
    const FaultSet fs = fault::draw_faults(
        merged, 2, fault::FaultPolicy::kProcessorsOnly, rng);
    ASSERT_EQ(solver.solve(merged, fs).status, verify::SolveStatus::kFound);
  }
}

TEST(Integration, PaperHeadlineComparison) {
  // The qualitative result a reader should reproduce: on identical (n,k),
  // the paper's graph tolerates everything up to k using all healthy
  // processors; the spare path collapses; the complete design works but
  // pays quadratic edges.
  const int n = 8, k = 2;
  const auto ours = kgd::build_solution(n, k);
  ASSERT_TRUE(ours);
  const auto spare = baseline::make_spare_path(n, k);
  const auto complete = baseline::make_complete_design(n, k);

  EXPECT_TRUE(verify::run_check(*ours, verify::CheckRequest::exhaustive(k)).holds);
  EXPECT_FALSE(verify::run_check(spare, verify::CheckRequest::exhaustive(k)).holds);
  EXPECT_TRUE(verify::run_check(complete, verify::CheckRequest::exhaustive(k)).holds);

  const auto m_ours = baseline::metrics_for(*ours);
  const auto m_complete = baseline::metrics_for(complete);
  EXPECT_LT(m_ours.max_processor_degree, m_complete.max_processor_degree);
  EXPECT_LT(m_ours.edges, m_complete.edges);
}

TEST(Integration, DotExportsForFigureRegeneration) {
  // Regenerate the paper's figure objects as DOT and sanity-check them.
  for (auto [n, k] : std::vector<std::pair<int, int>>{
           {3, 2}, {3, 3}, {6, 2}, {8, 2}, {7, 3}, {4, 3}, {22, 4},
           {26, 5}}) {
    const auto sg = kgd::build_solution(n, k);
    ASSERT_TRUE(sg) << n << "," << k;
    const std::string dot = sg->to_dot();
    EXPECT_NE(dot.find("graph"), std::string::npos);
    // Every node present.
    EXPECT_NE(dot.find("n" + std::to_string(sg->num_nodes() - 1)),
              std::string::npos);
  }
}

TEST(Integration, ReconfigurationIsDeterministic) {
  const auto sg = kgd::build_solution(12, 3);
  ASSERT_TRUE(sg);
  const FaultSet fs(sg->num_nodes(), {1, 5, 9});
  const auto a = verify::find_pipeline(*sg, fs);
  const auto b = verify::find_pipeline(*sg, fs);
  ASSERT_EQ(a.status, verify::SolveStatus::kFound);
  EXPECT_EQ(a.pipeline->path, b.pipeline->path);
}

}  // namespace
}  // namespace kgdp
