#include "kgd/small_n.hpp"

#include <cassert>
#include <string>

// GCC 12 reports -Wrestrict false positives inside libstdc++'s inlined
// std::string operator+ and assignment (GCC bug 105329); the string
// building in this file is ordinary.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wrestrict"
#endif

namespace kgdp::kgd {

SolutionGraph make_g1k(int k) {
  assert(k >= 1);
  SolutionGraphBuilder b(/*n=*/1, k, "G(1," + std::to_string(k) + ")");

  // k+1 processors forming a complete subgraph; I = O = all of them.
  std::vector<Node> p;
  for (int j = 0; j <= k; ++j) {
    p.push_back(b.add(Role::kProcessor, "p" + std::to_string(j)));
  }
  for (int i = 0; i <= k; ++i) {
    for (int j = i + 1; j <= k; ++j) b.connect(p[i], p[j]);
  }
  for (int j = 0; j <= k; ++j) {
    const Node in = b.add(Role::kInput, "i" + std::to_string(j));
    const Node out = b.add(Role::kOutput, "o" + std::to_string(j));
    b.connect(in, p[j]);
    b.connect(out, p[j]);
  }
  return b.build();
}

SolutionGraph make_g2k(int k) {
  assert(k >= 1);
  SolutionGraphBuilder b(/*n=*/2, k, "G(2," + std::to_string(k) + ")");

  // k+2 processors forming a clique. p[0] = a (input-only terminal),
  // p[1] = b (output-only); p[2..k+1] carry one input and one output.
  std::vector<Node> p;
  for (int j = 0; j < k + 2; ++j) {
    p.push_back(b.add(Role::kProcessor, "p" + std::to_string(j)));
  }
  for (int i = 0; i < k + 2; ++i) {
    for (int j = i + 1; j < k + 2; ++j) b.connect(p[i], p[j]);
  }
  const Node ia = b.add(Role::kInput, "i_a");
  b.connect(ia, p[0]);
  const Node ob = b.add(Role::kOutput, "o_b");
  b.connect(ob, p[1]);
  for (int j = 2; j < k + 2; ++j) {
    const Node in = b.add(Role::kInput, "i" + std::to_string(j));
    const Node out = b.add(Role::kOutput, "o" + std::to_string(j));
    b.connect(in, p[j]);
    b.connect(out, p[j]);
  }
  return b.build();
}

SolutionGraph make_g3k(int k) {
  assert(k >= 1);
  SolutionGraphBuilder b(/*n=*/3, k, "G(3," + std::to_string(k) + ")");

  // Processors p0..p_{k+2}: clique minus the matching
  // {(p_{2q}, p_{2q+1}) : 0 <= q <= floor((k+1)/2)}. When k is odd the
  // matching is perfect (k+3 even, Figure 2); when k is even p_{k+2}
  // stays unmatched (Figure 3).
  const int np = k + 3;
  std::vector<Node> p;
  for (int j = 0; j < np; ++j) {
    p.push_back(b.add(Role::kProcessor, "p" + std::to_string(j)));
  }
  auto matched = [&](int i, int j) {
    if (i > j) std::swap(i, j);
    return j == i + 1 && i % 2 == 0;  // pair (p_{2q}, p_{2q+1})
  };
  for (int i = 0; i < np; ++i) {
    for (int j = i + 1; j < np; ++j) {
      if (!matched(i, j)) b.connect(p[i], p[j]);
    }
  }

  // Input terminals i_j for j in {0..k-2} ∪ {k, k+2};
  // output terminals o_j for j in {0..k-1} ∪ {k+1}. (k+1 of each;
  // i_{k-1}, o_k, i_{k+1}, o_{k+2} intentionally do not exist.)
  for (int j = 0; j < np; ++j) {
    const bool has_input = (j <= k - 2) || j == k || j == k + 2;
    const bool has_output = (j <= k - 1) || j == k + 1;
    if (has_input) {
      const Node in = b.add(Role::kInput, "i" + std::to_string(j));
      b.connect(in, p[j]);
    }
    if (has_output) {
      const Node out = b.add(Role::kOutput, "o" + std::to_string(j));
      b.connect(out, p[j]);
    }
  }
  return b.build();
}

}  // namespace kgdp::kgd
