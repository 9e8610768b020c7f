#include "kgd/special.hpp"

#include <gtest/gtest.h>

#include "kgd/bounds.hpp"
#include "verify/checker.hpp"

// GCC 12 reports -Wrestrict false positives inside libstdc++'s inlined
// std::string operator+ (GCC bug 105329), here in the name building of
// gtest's parameterized-test macros.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wrestrict"
#endif

namespace kgdp::kgd {
namespace {

struct SpecialCase {
  int n;
  int k;
  int expect_max_degree;
};

class SpecialParam : public ::testing::TestWithParam<SpecialCase> {};

TEST_P(SpecialParam, StructurallySound) {
  const auto [n, k, deg] = GetParam();
  const SolutionGraph sg = make_special(n, k);
  EXPECT_EQ(sg.n(), n);
  EXPECT_EQ(sg.k(), k);
  EXPECT_TRUE(sg.is_standard());
  EXPECT_EQ(sg.num_processors(), n + k);
  EXPECT_EQ(sg.max_processor_degree(), deg);
  EXPECT_GE(sg.min_processor_degree(), k + 2);  // Lemma 3.1
  for (Node v : sg.processors()) {
    EXPECT_GE(processor_neighbor_count(sg, v), k + 1);  // Lemma 3.4
  }
}

TEST_P(SpecialParam, ExhaustivelyCertified) {
  // This re-runs the certification the embedded edge lists shipped with.
  const auto [n, k, deg] = GetParam();
  const auto res = verify::run_check(make_special(n, k), verify::CheckRequest::exhaustive(k));
  EXPECT_TRUE(res.holds);
  EXPECT_TRUE(res.exhaustive);
  EXPECT_EQ(res.solver_unknowns, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllFour, SpecialParam,
    ::testing::Values(SpecialCase{6, 2, 4}, SpecialCase{8, 2, 4},
                      SpecialCase{7, 3, 5}, SpecialCase{4, 3, 6}),
    [](const ::testing::TestParamInfo<SpecialCase>& param_info) {
      return "G" + std::to_string(param_info.param.n) + "_" +
             std::to_string(param_info.param.k);
    });

TEST(Special, PairPredicate) {
  EXPECT_TRUE(is_special_pair(6, 2));
  EXPECT_TRUE(is_special_pair(8, 2));
  EXPECT_TRUE(is_special_pair(7, 3));
  EXPECT_TRUE(is_special_pair(4, 3));
  EXPECT_FALSE(is_special_pair(5, 2));
  EXPECT_FALSE(is_special_pair(6, 3));
  EXPECT_FALSE(is_special_pair(4, 2));
}

TEST(Special, G62IsUniformDegreeKPlus2) {
  // The whole point of G(6,2): n=6 even escapes the k+3 penalty because
  // k=2 is even; every processor sits exactly at the Lemma 3.1 floor.
  const SolutionGraph sg = make_special_g62();
  EXPECT_EQ(sg.min_processor_degree(), 4);
  EXPECT_EQ(sg.max_processor_degree(), 4);
}

TEST(Special, G73IsUniformDegreeKPlus2) {
  const SolutionGraph sg = make_special_g73();
  EXPECT_EQ(sg.min_processor_degree(), 5);
  EXPECT_EQ(sg.max_processor_degree(), 5);
}

TEST(Special, G43RespectsLemma35) {
  // n=4 even, k=3 odd: max degree k+3 = 6 is forced (Lemma 3.5).
  const SolutionGraph sg = make_special_g43();
  EXPECT_EQ(sg.max_processor_degree(), 6);
  EXPECT_EQ(max_degree_lower_bound(4, 3), 6);
}

TEST(Special, AttachmentCountsBalanced) {
  for (const auto& sg :
       {make_special_g62(), make_special_g82(), make_special_g73(),
        make_special_g43()}) {
    EXPECT_EQ(sg.num_inputs(), sg.k() + 1);
    EXPECT_EQ(sg.num_outputs(), sg.k() + 1);
    EXPECT_TRUE(sg.all_terminals_degree_one());
  }
}

}  // namespace
}  // namespace kgdp::kgd
