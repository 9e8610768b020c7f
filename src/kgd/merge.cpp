#include "kgd/merge.hpp"

#include <cassert>

// GCC 12 reports -Wrestrict false positives inside libstdc++'s inlined
// std::string operator+ and assignment (GCC bug 105329); the string
// building in this file is ordinary.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wrestrict"
#endif

namespace kgdp::kgd {

SolutionGraph merge_terminals(const SolutionGraph& sg) {
  assert(sg.is_standard());
  const int n_old = sg.num_nodes();

  // New ids: processors keep relative order; then node i, then node o.
  std::vector<Node> remap(n_old, -1);
  int next = 0;
  for (Node v = 0; v < n_old; ++v) {
    if (sg.role(v) == Role::kProcessor) remap[v] = next++;
  }
  const Node node_i = next++;
  const Node node_o = next++;

  Graph g(next);
  std::vector<Role> roles(next, Role::kProcessor);
  roles[node_i] = Role::kInput;
  roles[node_o] = Role::kOutput;

  for (auto [u, v] : sg.graph().edges()) {
    Node a = sg.role(u) == Role::kProcessor ? remap[u]
             : sg.role(u) == Role::kInput   ? node_i
                                            : node_o;
    Node b = sg.role(v) == Role::kProcessor ? remap[v]
             : sg.role(v) == Role::kInput   ? node_i
                                            : node_o;
    if (!g.has_edge(a, b)) g.add_edge(a, b);
  }

  std::vector<std::string> names(next);
  for (Node v = 0; v < n_old; ++v) {
    if (remap[v] >= 0) names[remap[v]] = sg.node_names()[v];
  }
  names[node_i] = "i";
  names[node_o] = "o";

  SolutionGraph out(std::move(g), std::move(roles), sg.n(), sg.k(),
                    "merged(" + sg.name() + ")");
  out.set_node_names(std::move(names));
  return out;
}

}  // namespace kgdp::kgd
