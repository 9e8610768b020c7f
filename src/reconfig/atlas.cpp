#include "reconfig/atlas.hpp"

#include <algorithm>
#include <bit>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "fault/orbit_enumerator.hpp"
#include "reconfig/route.hpp"
#include "verify/check_session.hpp"
#include "verify/pipeline_solver.hpp"

namespace kgdp::reconfig {

namespace {

inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t mask_of(const kgd::FaultSet& faults) {
  std::uint64_t mask = 0;
  for (graph::Node v : faults.nodes()) mask |= std::uint64_t{1} << v;
  return mask;
}

std::vector<graph::Node> nodes_of(std::uint64_t mask) {
  std::vector<graph::Node> nodes;
  for (std::uint64_t m = mask; m; m &= m - 1) {
    nodes.push_back(static_cast<graph::Node>(std::countr_zero(m)));
  }
  return nodes;
}

void expect_word(std::istream& in, const char* keyword) {
  std::string word;
  if (!(in >> word) || word != keyword) {
    throw std::runtime_error(std::string("route atlas: expected '") +
                             keyword + "', got '" + word + "'");
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// RouteAtlas
// ---------------------------------------------------------------------------

std::size_t RouteAtlas::KeyHash::operator()(const Key& k) const {
  return static_cast<std::size_t>(mix64(k.fp ^ mix64(k.mask)));
}

std::size_t RouteAtlas::shard_index(const Key& key) {
  // Top bits: the map's own bucket index uses the low bits of the hash,
  // so shard selection must not correlate with them.
  return static_cast<std::size_t>(mix64(key.mask ^ (key.fp * 3)) >> 58) %
         kShards;
}

RouteAtlas::RouteAtlas(std::size_t max_entries)
    : max_entries_(max_entries), shards_(new Shard[kShards]) {
  const auto empty = std::make_shared<const Map>();
  for (std::size_t i = 0; i < kShards; ++i) {
    shards_[i].snapshot.store(empty, std::memory_order_release);
  }
}

bool RouteAtlas::lookup(std::uint64_t graph_fp, std::uint64_t canon_mask,
                        std::vector<graph::Node>* path) const {
  const Key key{graph_fp, canon_mask};
  const std::shared_ptr<const Map> snap =
      shards_[shard_index(key)].snapshot.load(std::memory_order_acquire);
  const auto it = snap->find(key);
  if (it == snap->end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  *path = it->second;
  hits_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool RouteAtlas::insert(std::uint64_t graph_fp, std::uint64_t canon_mask,
                        std::vector<graph::Node> path) {
  const Key key{graph_fp, canon_mask};
  Shard& shard = shards_[shard_index(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  const std::shared_ptr<const Map> cur =
      shard.snapshot.load(std::memory_order_acquire);
  if (cur->find(key) != cur->end()) return true;  // duplicates agree
  if (entries_.load(std::memory_order_relaxed) >= max_entries_) {
    rejected_full_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // Copy-on-write publish: readers keep the old snapshot alive for as
  // long as they hold it; nothing is ever mutated in place.
  auto next = std::make_shared<Map>(*cur);
  next->emplace(key, std::move(path));
  shard.snapshot.store(std::shared_ptr<const Map>(std::move(next)),
                       std::memory_order_release);
  entries_.fetch_add(1, std::memory_order_relaxed);
  inserts_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

RouteAtlasStats RouteAtlas::stats() const {
  RouteAtlasStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.inserts = inserts_.load(std::memory_order_relaxed);
  s.rejected_full = rejected_full_.load(std::memory_order_relaxed);
  s.entries = entries_.load(std::memory_order_relaxed);
  return s;
}

void RouteAtlas::save(std::ostream& out, std::uint64_t graph_fp, int n,
                      int k) const {
  // Deterministic artifact: entries sorted by canonical mask so shard
  // builds merged in any order serialize identically.
  std::vector<std::pair<std::uint64_t, const std::vector<graph::Node>*>> rows;
  std::vector<std::shared_ptr<const Map>> pinned(kShards);
  for (std::size_t i = 0; i < kShards; ++i) {
    pinned[i] = shards_[i].snapshot.load(std::memory_order_acquire);
    for (const auto& [key, path] : *pinned[i]) {
      if (key.fp == graph_fp) rows.emplace_back(key.mask, &path);
    }
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  out << "kgdp-atlas 1\n";
  out << "fp " << graph_fp << "\n";
  out << "n " << n << "\n";
  out << "k " << k << "\n";
  out << "entries " << rows.size() << "\n";
  for (const auto& [mask, path] : rows) {
    out << "e " << mask << " " << path->size();
    for (graph::Node v : *path) out << " " << v;
    out << "\n";
  }
  out << "end\n";
}

RouteAtlasFileInfo RouteAtlas::load(std::istream& in,
                                    std::uint64_t expected_fp) {
  std::string magic;
  int version = 0;
  if (!(in >> magic >> version) || magic != "kgdp-atlas") {
    throw std::runtime_error("route atlas: not a kgdp-atlas file");
  }
  if (version != 1) {
    throw std::runtime_error("route atlas: unsupported version " +
                             std::to_string(version));
  }
  RouteAtlasFileInfo info;
  expect_word(in, "fp");
  if (!(in >> info.graph_fp)) {
    throw std::runtime_error("route atlas: bad fingerprint");
  }
  expect_word(in, "n");
  if (!(in >> info.n)) throw std::runtime_error("route atlas: bad n");
  expect_word(in, "k");
  if (!(in >> info.k)) throw std::runtime_error("route atlas: bad k");
  expect_word(in, "entries");
  if (!(in >> info.entries)) {
    throw std::runtime_error("route atlas: bad entry count");
  }
  if (expected_fp != 0 && info.graph_fp != expected_fp) {
    throw std::runtime_error(
        "route atlas: artifact was built for a different graph "
        "(fingerprint mismatch)");
  }
  for (std::uint64_t i = 0; i < info.entries; ++i) {
    expect_word(in, "e");
    std::uint64_t mask = 0;
    std::size_t len = 0;
    if (!(in >> mask >> len) || len > 4096) {
      throw std::runtime_error("route atlas: malformed entry");
    }
    std::vector<graph::Node> path(len);
    for (std::size_t j = 0; j < len; ++j) {
      if (!(in >> path[j])) {
        throw std::runtime_error("route atlas: truncated entry path");
      }
    }
    insert(info.graph_fp, mask, std::move(path));
  }
  expect_word(in, "end");
  return info;
}

// ---------------------------------------------------------------------------
// Router
// ---------------------------------------------------------------------------

// The group backs only the <=64-node orbit path; larger graphs are routed
// directly (route()) and refused by build_atlas(), so they skip it.
Router::Router(const kgd::SolutionGraph& sg, RouteAtlas* atlas)
    : sg_(sg),
      atlas_(atlas),
      graph_fp_(verify::graph_fingerprint(sg)),
      autos_(sg.num_nodes() <= 64 ? graph::solution_automorphisms(sg)
                                  : graph::AutomorphismList{}),
      canon_(&autos_) {}

std::vector<graph::Node> Router::compute_route(
    const kgd::FaultSet& faults) const {
  // Within the certified budget the constructive routers answer in O(n)
  // (with the exact solver as their internal safety net); past it only
  // the exact solver can decide. Both are deterministic.
  std::optional<kgd::Pipeline> p;
  if (faults.size() <= sg_.k()) {
    p = route_family(sg_, faults);
  } else {
    auto out = verify::find_pipeline(sg_, faults);
    if (out.status == verify::SolveStatus::kFound) {
      p = std::move(out.pipeline);
    }
  }
  if (!p) return {};
  return kgd::normalize_pipeline(sg_, std::move(p->path)).path;
}

Router::Result Router::route(const kgd::FaultSet& faults,
                             fault::FaultCanonicalizer::Scratch& scratch)
    const {
  Result res;
  const int nn = sg_.num_nodes();

  const auto direct = [&]() -> Result& {
    std::vector<graph::Node> path = compute_route(faults);
    if (!path.empty()) {
      res.feasible = true;
      res.pipeline.path = std::move(path);
    }
    return res;
  };

  // The orbit machinery is mask-based; larger graphs (outside exhaustive
  // certification reach anyway) are served by direct computation.
  if (nn > 64) return direct();

  const std::uint64_t mask = mask_of(faults);
  std::uint64_t canon = 0;
  graph::Permutation sigma;
  if (!canon_.canonical_mask_transport(mask, nn, scratch, &canon, &sigma)) {
    return direct();  // pathological orbit: bypass, stay deterministic
  }

  std::vector<graph::Node> cpath;
  res.atlas_hit =
      atlas_ != nullptr && atlas_->lookup(graph_fp_, canon, &cpath);
  if (!res.atlas_hit) {
    cpath = compute_route(kgd::FaultSet(nn, nodes_of(canon)));
    if (atlas_ != nullptr) {
      res.warmed = atlas_->insert(graph_fp_, canon, cpath);
    }
  }
  if (cpath.empty()) return res;  // infeasible for the whole orbit

  // Transport: sigma maps the query mask to the canonical mask, so the
  // inverse image of the canonical route avoids exactly the query's
  // faults (sigma is label-respecting, so roles carry over too).
  graph::Permutation inv(static_cast<std::size_t>(nn));
  for (int v = 0; v < nn; ++v) inv[sigma[v]] = v;
  std::vector<graph::Node> path(cpath.size());
  for (std::size_t i = 0; i < cpath.size(); ++i) path[i] = inv[cpath[i]];
  if (!kgd::check_pipeline(sg_, faults, path).ok) {
    // Defensive only: transport of a certified canonical route cannot
    // fail unless the atlas was fed a foreign artifact.
    return direct();
  }
  res.feasible = true;
  res.pipeline = kgd::normalize_pipeline(sg_, std::move(path));
  return res;
}

std::uint64_t Router::build_atlas(int max_faults, std::uint32_t shard_index,
                                  std::uint32_t shard_count,
                                  std::uint64_t* slots_total) const {
  if (atlas_ == nullptr) {
    throw std::runtime_error("atlas build: no atlas attached");
  }
  if (sg_.num_nodes() > 64) {
    throw std::runtime_error(
        "atlas build: graphs over 64 nodes are served without an atlas");
  }
  if (shard_count == 0 || shard_index >= shard_count) {
    throw std::runtime_error("atlas build: bad shard spec");
  }
  fault::OrbitEnumerator orbits(sg_.num_nodes(), max_faults, autos_);
  const std::uint64_t total = orbits.num_orbits();
  if (slots_total != nullptr) *slots_total = total;
  const auto [begin, end] =
      verify::CheckSession::shard_range(total, shard_index, shard_count);
  auto scratch = std::make_unique<fault::FaultCanonicalizer::Scratch>();
  std::uint64_t inserted = 0;
  std::vector<graph::Node> existing;
  for (std::uint64_t slot = begin; slot < end; ++slot) {
    const kgd::FaultSet rep = orbits.representative(slot);
    std::uint64_t canon = 0;
    if (!canon_.canonical_mask(mask_of(rep), *scratch, &canon)) {
      continue;  // orbit past the transport cap: serving bypasses it too
    }
    if (atlas_->lookup(graph_fp_, canon, &existing)) continue;
    if (atlas_->insert(graph_fp_, canon,
                       compute_route(kgd::FaultSet(sg_.num_nodes(),
                                                   nodes_of(canon))))) {
      ++inserted;
    }
  }
  return inserted;
}

}  // namespace kgdp::reconfig
