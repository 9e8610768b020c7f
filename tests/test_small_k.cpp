#include "kgd/small_k.hpp"

#include <gtest/gtest.h>

#include "kgd/bounds.hpp"
#include "verify/checker.hpp"
#include "verify/optimality.hpp"

// GCC 12 reports -Wrestrict false positives inside libstdc++'s inlined
// std::string operator+ (GCC bug 105329), here in the name building of
// gtest's parameterized-test macros.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wrestrict"
#endif

namespace kgdp::kgd {
namespace {

struct Case {
  int n;
  int k;
};

class FamilyParam : public ::testing::TestWithParam<Case> {};

TEST_P(FamilyParam, StructureMatchesTheorems) {
  const auto [n, k] = GetParam();
  const SolutionGraph sg = make_small_k_family(n, k);
  EXPECT_EQ(sg.n(), n);
  EXPECT_EQ(sg.k(), k);
  EXPECT_TRUE(sg.is_standard());
  EXPECT_EQ(sg.num_processors(), n + k);
  // Degree matches the theorem's claim, which equals the lower bound.
  EXPECT_EQ(sg.max_processor_degree(), achieved_max_degree(n, k));
  const auto rep = verify::certify_optimality(sg);
  EXPECT_TRUE(rep.degree_optimal) << rep.summary();
}

TEST_P(FamilyParam, ExhaustivelyGracefullyDegradable) {
  const auto [n, k] = GetParam();
  const SolutionGraph sg = make_small_k_family(n, k);
  const auto res = verify::run_check(sg, verify::CheckRequest::exhaustive(k));
  EXPECT_TRUE(res.holds)
      << "n=" << n << " k=" << k << " cex "
      << (res.counterexample ? res.counterexample->to_string() : "");
}

std::vector<Case> family_cases() {
  std::vector<Case> cases;
  for (int n = 1; n <= 12; ++n) cases.push_back({n, 1});
  for (int n = 1; n <= 12; ++n) cases.push_back({n, 2});
  for (int n = 1; n <= 11; ++n) cases.push_back({n, 3});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FamilyParam, ::testing::ValuesIn(family_cases()),
    [](const ::testing::TestParamInfo<Case>& param_info) {
      return "n" + std::to_string(param_info.param.n) + "_k" +
             std::to_string(param_info.param.k);
    });

TEST(FamilyK1, Theorem313DegreeParity) {
  for (int n = 1; n <= 20; ++n) {
    const SolutionGraph sg = make_family_k1(n);
    EXPECT_EQ(sg.max_processor_degree(), n % 2 == 1 ? 3 : 4) << "n=" << n;
  }
}

TEST(FamilyK2, Theorem315DegreeExceptions) {
  for (int n = 1; n <= 20; ++n) {
    const SolutionGraph sg = make_family_k2(n);
    const int want = (n == 2 || n == 3 || n == 5) ? 5 : 4;
    EXPECT_EQ(sg.max_processor_degree(), want) << "n=" << n;
  }
}

TEST(FamilyK3, Theorem316DegreeParity) {
  for (int n = 1; n <= 20; ++n) {
    const SolutionGraph sg = make_family_k3(n);
    const int want = (n == 3) ? 6 : (n % 2 == 1 ? 5 : 6);
    EXPECT_EQ(sg.max_processor_degree(), want) << "n=" << n;
  }
}

TEST(FamilyRecipeTest, MatchesThePaperText) {
  EXPECT_EQ(family_recipe(7, 2).base, "G(1,2)");  // "applying twice"
  EXPECT_EQ(family_recipe(7, 2).extensions, 2);
  EXPECT_EQ(family_recipe(9, 2).base, "special G(6,2)");
  EXPECT_EQ(family_recipe(11, 2).base, "special G(8,2)");
  EXPECT_EQ(family_recipe(5, 3).base, "G(1,3)");
  EXPECT_EQ(family_recipe(11, 3).base, "special G(7,3)");
  EXPECT_EQ(family_recipe(8, 3).base, "special G(4,3)");
  EXPECT_EQ(family_recipe(10, 3).base, "G(2,3)");
  EXPECT_EQ(family_recipe(3, 3).base, "G(3,3)");
}

TEST(FamilyRecipeTest, RecipeProcessorsAddUp) {
  for (int k = 1; k <= 3; ++k) {
    for (int n = 1; n <= 25; ++n) {
      const FamilyRecipe r = family_recipe(n, k);
      const SolutionGraph sg = make_small_k_family(n, k);
      EXPECT_EQ(sg.num_processors(), n + k) << "n=" << n << " k=" << k
                                            << " base " << r.base;
    }
  }
}

TEST(FamilyLarge, BigInstancesStayStructurallySound) {
  // Construction scales far beyond the exhaustive-check regime.
  for (int k = 1; k <= 3; ++k) {
    const SolutionGraph sg = make_small_k_family(200 + k, k);
    EXPECT_TRUE(sg.is_standard());
    EXPECT_EQ(sg.max_processor_degree(), achieved_max_degree(200 + k, k));
    EXPECT_TRUE(audit_bounds(sg).empty());
  }
}

}  // namespace
}  // namespace kgdp::kgd
