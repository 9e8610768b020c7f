#include "kgd/asymptotic.hpp"

#include <cassert>
#include <string>

// GCC 12 reports -Wrestrict false positives inside libstdc++'s inlined
// std::string operator+ and assignment (GCC bug 105329); the string
// building in this file is ordinary.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wrestrict"
#endif

namespace kgdp::kgd {

namespace {

// Shared skeleton: builds either G'(n,k) (keep_all = true) or G(n,k).
SolutionGraph build(int n, int k, bool keep_all, AsymptoticInfo* info) {
  assert(k >= 4);
  assert(n >= asymptotic_min_n(k));

  const int m = n - k - 2;   // |C|
  const int p = k / 2;       // chord offsets 1..p+1
  const bool bisector = (k % 2 == 1);
  const int bisector_offset = m / 2;

  SolutionGraphBuilder b(
      n, k,
      std::string(keep_all ? "G'(" : "G(") + std::to_string(n) + "," +
          std::to_string(k) + ")");

  // Node ids per class, indexed by label; -1 = deleted in G(n,k).
  std::vector<Node> ti(k + 2, -1), to(k + 2, -1), vi(k + 2, -1),
      vo(k + 2, -1);
  std::vector<Node> c(m, -1);  // circulant core: labels 0..k+1 are S,
                               // labels k+2..m-1 are R.

  AsymptoticInfo local;
  auto tag = [&](Node v, AsymptoticClass cls, int label) {
    if (static_cast<int>(local.node_class.size()) <= v) {
      local.node_class.resize(v + 1);
      local.label.resize(v + 1);
    }
    local.node_class[v] = cls;
    local.label[v] = label;
  };

  for (int x = 0; x <= k + 1; ++x) {
    if (keep_all || x != 0) {
      ti[x] = b.add(Role::kInput, "Ti" + std::to_string(x));
      tag(ti[x], AsymptoticClass::kTi, x);
    }
    if (keep_all || x != k + 1) {
      to[x] = b.add(Role::kOutput, "To" + std::to_string(x));
      tag(to[x], AsymptoticClass::kTo, x);
    }
    if (keep_all || x != 0) {
      vi[x] = b.add(Role::kProcessor, "I" + std::to_string(x));
      tag(vi[x], AsymptoticClass::kI, x);
    }
    if (keep_all || x != k + 1) {
      vo[x] = b.add(Role::kProcessor, "O" + std::to_string(x));
      tag(vo[x], AsymptoticClass::kO, x);
    }
  }
  for (int x = 0; x < m; ++x) {
    const bool in_s = x <= k + 1;
    c[x] = b.add(Role::kProcessor,
                 (in_s ? "S" : "R") + std::to_string(x));
    tag(c[x], in_s ? AsymptoticClass::kS : AsymptoticClass::kR, x);
  }

  auto connect_if = [&](Node u, Node v) {
    if (u >= 0 && v >= 0) b.connect(u, v);
  };

  // Same-label ladder Ti—I—S—O—To.
  for (int x = 0; x <= k + 1; ++x) {
    connect_if(ti[x], vi[x]);
    connect_if(vi[x], c[x]);
    connect_if(c[x], vo[x]);
    connect_if(vo[x], to[x]);
  }
  // I and O cliques.
  for (int x = 0; x <= k + 1; ++x) {
    for (int y = x + 1; y <= k + 1; ++y) {
      connect_if(vi[x], vi[y]);
      connect_if(vo[x], vo[y]);
    }
  }
  // Circulant core with offsets 1..p+1 (+ bisector). In G(n,k) the
  // offset-1 edges whose endpoints are both in S are removed.
  for (int s = 1; s <= p + 1; ++s) {
    for (int x = 0; x < m; ++x) {
      const int y = (x + s) % m;
      if (!keep_all && s == 1 && x <= k + 1 && y <= k + 1 && y == x + 1) {
        continue;  // deleted S–S unit edge
      }
      if (!b.has_edge(c[x], c[y])) b.connect(c[x], c[y]);
    }
  }
  if (bisector) {
    for (int x = 0; x < m; ++x) {
      const int y = (x + bisector_offset) % m;
      if (c[x] != c[y] && !b.has_edge(c[x], c[y])) b.connect(c[x], c[y]);
    }
  }

  local.m = m;
  local.p = p;
  local.has_bisector = bisector;
  local.bisector_offset = bisector ? bisector_offset : 0;
  if (info) *info = std::move(local);
  return b.build();
}

}  // namespace

int asymptotic_min_n(int k) {
  assert(k >= 4);
  return 2 * k + 5;
}

SolutionGraph make_extended_gnk(int n, int k, AsymptoticInfo* info) {
  return build(n, k, /*keep_all=*/true, info);
}

SolutionGraph make_asymptotic_gnk(int n, int k, AsymptoticInfo* info) {
  return build(n, k, /*keep_all=*/false, info);
}

}  // namespace kgdp::kgd
