// Orbit-keyed route atlas: canonicalizer transport correctness, the
// atlas-on/off bit-identity contract (hit, cold-miss, and warmed routes
// all equal the atlas-free computation), warm-after-miss idempotence,
// artifact save/load/merge round-trips, shard tiling, and concurrent
// route+warm (the TSan target for the RCU snapshot path).
//
// Graphs under test: G(5,3) has |Aut| = 24 (697 fault sets collapse to
// 69 orbits, so transport is exercised on genuinely nontrivial orbits)
// and G(8,2) has a trivial group (every mask is its own canonical form
// — the degenerate path must honour the same contract).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fault/canonical.hpp"
#include "graph/automorphism.hpp"
#include "kgd/factory.hpp"
#include "kgd/pipeline.hpp"
#include "reconfig/atlas.hpp"
#include "reconfig/route.hpp"

namespace kgdp::reconfig {
namespace {

kgd::SolutionGraph build(int n, int k) {
  auto sg = kgd::build_solution(n, k);
  EXPECT_TRUE(sg.has_value()) << "n=" << n << " k=" << k;
  return std::move(*sg);
}

std::vector<graph::Node> nodes_of_mask(std::uint64_t mask) {
  std::vector<graph::Node> nodes;
  for (std::uint64_t m = mask; m; m &= m - 1) {
    nodes.push_back(static_cast<graph::Node>(std::countr_zero(m)));
  }
  return nodes;
}

// All fault masks of popcount <= max_faults over `num_nodes` bits.
std::vector<std::uint64_t> all_masks(int num_nodes, int max_faults) {
  std::vector<std::uint64_t> masks;
  const std::uint64_t limit = std::uint64_t{1} << num_nodes;
  for (std::uint64_t m = 0; m < limit; ++m) {
    if (std::popcount(m) <= max_faults) masks.push_back(m);
  }
  return masks;
}

std::string path_str(const std::vector<graph::Node>& path) {
  std::string s;
  for (graph::Node v : path) {
    s += std::to_string(v);
    s += ',';
  }
  return s;
}

TEST(FaultCanonicalTransport, SigmaMapsMaskToCanonicalMask) {
  const kgd::SolutionGraph sg = build(5, 3);
  const int nn = sg.num_nodes();
  ASSERT_LE(nn, 64);
  const graph::AutomorphismList autos = graph::solution_automorphisms(sg);
  ASSERT_TRUE(autos.usable());  // the whole point of this graph choice
  const fault::FaultCanonicalizer canon(&autos);
  auto scratch = std::make_unique<fault::FaultCanonicalizer::Scratch>();

  std::uint64_t collapsed = 0;
  for (const std::uint64_t mask : all_masks(nn, sg.k())) {
    std::uint64_t plain = 0;
    ASSERT_TRUE(canon.canonical_mask(mask, *scratch, &plain));
    std::uint64_t via_transport = 0;
    graph::Permutation sigma;
    ASSERT_TRUE(canon.canonical_mask_transport(mask, nn, *scratch,
                                               &via_transport, &sigma));
    // Transport agrees with the plain canonicalizer and actually carries
    // the query mask onto the canonical mask.
    EXPECT_EQ(via_transport, plain);
    ASSERT_EQ(sigma.size(), static_cast<std::size_t>(nn));
    EXPECT_EQ(fault::FaultCanonicalizer::apply_to_mask(sigma, mask),
              via_transport)
        << "mask " << mask;
    if (plain != mask) ++collapsed;
  }
  EXPECT_GT(collapsed, 0u);  // the group really moves masks around
}

TEST(RouteAtlas, InsertLookupAndCapacity) {
  RouteAtlas atlas(2);
  std::vector<graph::Node> path;
  EXPECT_FALSE(atlas.lookup(1, 5, &path));
  EXPECT_TRUE(atlas.insert(1, 5, {0, 1, 2}));
  EXPECT_TRUE(atlas.insert(1, 5, {0, 1, 2}));  // duplicate: confirmed
  EXPECT_TRUE(atlas.insert(1, 9, {3, 4}));
  EXPECT_FALSE(atlas.insert(1, 13, {5}));  // full
  EXPECT_TRUE(atlas.lookup(1, 5, &path));
  EXPECT_EQ(path, (std::vector<graph::Node>{0, 1, 2}));
  EXPECT_FALSE(atlas.lookup(2, 5, &path));  // other graph, same mask
  const RouteAtlasStats s = atlas.stats();
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.inserts, 2u);
  EXPECT_EQ(s.rejected_full, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 2u);
}

// The acceptance criterion: with the atlas disabled, cold, or prebuilt,
// `route` answers bit-identically for every fault set in certification
// reach and past it (where the exact solver takes over from the
// constructive routers).
void expect_bit_identity(const kgd::SolutionGraph& sg) {
  const int nn = sg.num_nodes();

  Router bare(sg, nullptr);
  RouteAtlas cold_atlas(std::size_t{1} << 20);
  Router cold(sg, &cold_atlas);
  RouteAtlas warm_atlas(std::size_t{1} << 20);
  Router warm(sg, &warm_atlas);
  warm.build_atlas(sg.k(), 0, 1);

  auto scratch = std::make_unique<fault::FaultCanonicalizer::Scratch>();
  std::uint64_t feasible = 0;
  for (const std::uint64_t mask : all_masks(nn, sg.k() + 1)) {
    const kgd::FaultSet faults(nn, nodes_of_mask(mask));
    const Router::Result a = bare.route(faults, *scratch);
    const Router::Result b = cold.route(faults, *scratch);
    const Router::Result c = warm.route(faults, *scratch);
    ASSERT_EQ(a.feasible, b.feasible) << faults.to_string();
    ASSERT_EQ(a.feasible, c.feasible) << faults.to_string();
    if (!a.feasible) continue;
    ++feasible;
    ASSERT_EQ(path_str(a.pipeline.path), path_str(b.pipeline.path))
        << faults.to_string();
    ASSERT_EQ(path_str(a.pipeline.path), path_str(c.pipeline.path))
        << faults.to_string();
    // Served routes are certified pipelines for the *query* faults.
    EXPECT_TRUE(kgd::check_pipeline(sg, faults, a.pipeline.path).ok)
        << faults.to_string();
  }
  EXPECT_GT(feasible, 0u);
  EXPECT_GT(warm_atlas.stats().hits, 0u);  // the atlas actually served
}

TEST(Router, AtlasOnOffBitIdentitySymmetricGraph) {
  expect_bit_identity(build(5, 3));
}

TEST(Router, AtlasOnOffBitIdentityTrivialGroupGraph) {
  expect_bit_identity(build(8, 2));
}

TEST(Router, WarmAfterMissIsIdempotent) {
  const kgd::SolutionGraph sg = build(5, 3);
  const int nn = sg.num_nodes();
  RouteAtlas atlas(std::size_t{1} << 20);
  Router router(sg, &atlas);
  auto scratch = std::make_unique<fault::FaultCanonicalizer::Scratch>();

  const kgd::FaultSet faults(nn, {0, 11});
  const Router::Result first = router.route(faults, *scratch);
  EXPECT_TRUE(first.feasible);
  EXPECT_FALSE(first.atlas_hit);
  EXPECT_TRUE(first.warmed);
  const std::uint64_t entries_after_first = atlas.stats().entries;

  const Router::Result second = router.route(faults, *scratch);
  EXPECT_TRUE(second.feasible);
  EXPECT_TRUE(second.atlas_hit);
  EXPECT_FALSE(second.warmed);
  EXPECT_EQ(atlas.stats().entries, entries_after_first);  // no re-insert
  EXPECT_EQ(path_str(first.pipeline.path), path_str(second.pipeline.path));

  // An orbit sibling — the image of the fault set under any group
  // element that moves it — hits the entry the miss just warmed.
  const std::uint64_t mask = (std::uint64_t{1} << 0) | (std::uint64_t{1} << 11);
  for (const graph::Permutation& gen : router.automorphisms().generators) {
    const std::uint64_t image =
        fault::FaultCanonicalizer::apply_to_mask(gen, mask);
    if (image == mask) continue;
    const kgd::FaultSet sibling_faults(nn, nodes_of_mask(image));
    const Router::Result sibling = router.route(sibling_faults, *scratch);
    EXPECT_TRUE(sibling.atlas_hit);
    EXPECT_TRUE(sibling.feasible);
    EXPECT_TRUE(
        kgd::check_pipeline(sg, sibling_faults, sibling.pipeline.path).ok);
    break;
  }
}

TEST(Router, BuildAtlasShardsTileTheSlotSpace) {
  const kgd::SolutionGraph sg = build(5, 3);

  RouteAtlas full_atlas(std::size_t{1} << 20);
  Router full(sg, &full_atlas);
  std::uint64_t slots_full = 0;
  const std::uint64_t inserted_full =
      full.build_atlas(sg.k(), 0, 1, &slots_full);
  EXPECT_GT(inserted_full, 0u);

  RouteAtlas sharded_atlas(std::size_t{1} << 20);
  Router sharded(sg, &sharded_atlas);
  std::uint64_t inserted_shards = 0;
  for (std::uint32_t i = 0; i < 3; ++i) {
    std::uint64_t slots = 0;
    inserted_shards += sharded.build_atlas(sg.k(), i, 3, &slots);
    EXPECT_EQ(slots, slots_full);
  }
  // Disjoint contiguous slot slices cover every orbit exactly once.
  EXPECT_EQ(inserted_shards, inserted_full);
  EXPECT_EQ(sharded_atlas.size(), full_atlas.size());

  // And the artifacts are byte-identical: save() sorts by canonical mask,
  // so shard-build order cannot leak into the file.
  std::ostringstream a, b;
  full_atlas.save(a, full.graph_fp(), sg.n(), sg.k());
  sharded_atlas.save(b, sharded.graph_fp(), sg.n(), sg.k());
  EXPECT_EQ(a.str(), b.str());
}

TEST(Router, SaveLoadMergeRoundTrip) {
  const kgd::SolutionGraph sg = build(5, 3);

  // Two shard artifacts, built independently.
  std::ostringstream shard_files[2];
  for (std::uint32_t i = 0; i < 2; ++i) {
    RouteAtlas atlas(std::size_t{1} << 20);
    Router router(sg, &atlas);
    router.build_atlas(sg.k(), i, 2);
    atlas.save(shard_files[i], router.graph_fp(), sg.n(), sg.k());
  }

  // Merge by loading both into one atlas.
  RouteAtlas merged(std::size_t{1} << 20);
  RouteAtlasFileInfo info0, info1;
  {
    std::istringstream in(shard_files[0].str());
    info0 = merged.load(in);
  }
  {
    std::istringstream in(shard_files[1].str());
    info1 = merged.load(in, info0.graph_fp);
  }
  EXPECT_EQ(info0.graph_fp, info1.graph_fp);
  EXPECT_EQ(info0.n, sg.n());
  EXPECT_EQ(info0.k, sg.k());
  EXPECT_EQ(merged.size(), info0.entries + info1.entries);

  // The merged atlas serves hits for everything a full build covers.
  Router router(sg, &merged);
  auto scratch = std::make_unique<fault::FaultCanonicalizer::Scratch>();
  const Router::Result res =
      router.route(kgd::FaultSet(sg.num_nodes(), {0, 11}), *scratch);
  EXPECT_TRUE(res.feasible);
  EXPECT_TRUE(res.atlas_hit);

  // A fingerprint pin rejects an artifact for a different graph.
  RouteAtlas other(std::size_t{1} << 20);
  std::istringstream in(shard_files[0].str());
  EXPECT_THROW(other.load(in, info0.graph_fp + 1), std::runtime_error);
}

TEST(RouteAtlas, LoadRejectsMalformedArtifacts) {
  RouteAtlas atlas(16);
  const char* bad[] = {
      "not-an-atlas 1\n",
      "kgdp-atlas 99\nfp 1\nn 8\nk 2\nentries 0\nend\n",
      "kgdp-atlas 1\nfp 1\nn 8\nk 2\nentries 1\ne 3 9999\n",
      "kgdp-atlas 1\nfp 1\nn 8\nk 2\nentries 1\ne 3 4 1 2\n",  // truncated
  };
  for (const char* text : bad) {
    std::istringstream in(text);
    EXPECT_THROW(atlas.load(in), std::runtime_error) << text;
  }
}

TEST(Router, BuildAtlasValidatesItsPreconditions) {
  const kgd::SolutionGraph sg = build(5, 3);
  Router no_atlas(sg, nullptr);
  EXPECT_THROW(no_atlas.build_atlas(2, 0, 1), std::runtime_error);
  RouteAtlas atlas(16);
  Router router(sg, &atlas);
  EXPECT_THROW(router.build_atlas(2, 1, 1), std::runtime_error);
  EXPECT_THROW(router.build_atlas(2, 0, 0), std::runtime_error);
}

// TSan target: concurrent readers and warmers over one shared atlas.
// Every thread routes the same fault-set population in a different
// order, so lookups race inserts on the RCU snapshots; every result
// must be certified and identical across threads.
TEST(Router, ConcurrentRouteAndWarm) {
  const kgd::SolutionGraph sg = build(5, 3);
  const int nn = sg.num_nodes();
  RouteAtlas atlas(std::size_t{1} << 20);
  Router router(sg, &atlas);

  const std::vector<std::uint64_t> masks = all_masks(nn, sg.k());
  constexpr int kThreads = 4;
  std::vector<std::vector<std::string>> seen(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto scratch = std::make_unique<fault::FaultCanonicalizer::Scratch>();
      seen[t].resize(masks.size());
      // Stride by 7·(t+1), coprime to the mask count (697 = 17·41), so
      // each thread covers every mask but collides with the others on
      // freshly warming orbits.
      for (std::size_t j = 0; j < masks.size(); ++j) {
        const std::size_t idx = (j * 7 * (t + 1) + t) % masks.size();
        const kgd::FaultSet faults(nn, nodes_of_mask(masks[idx]));
        const Router::Result res = router.route(faults, *scratch);
        if (res.feasible) {
          EXPECT_TRUE(kgd::check_pipeline(sg, faults, res.pipeline.path).ok);
        }
        seen[t][idx] = res.feasible ? path_str(res.pipeline.path) : "-";
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[0], seen[t]);  // hit/miss/warm history is invisible
  }
  const RouteAtlasStats s = atlas.stats();
  EXPECT_GT(s.hits, 0u);
  EXPECT_GT(s.inserts, 0u);
}

// Graphs past the 64-node mask machinery are served directly, and the
// precompute pass refuses them instead of silently doing nothing.
TEST(Router, LargeGraphsBypassTheAtlas) {
  const kgd::SolutionGraph sg = build(60, 2);
  ASSERT_GT(sg.num_nodes(), 64);
  RouteAtlas atlas(std::size_t{1} << 10);
  Router router(sg, &atlas);
  auto scratch = std::make_unique<fault::FaultCanonicalizer::Scratch>();
  const kgd::FaultSet faults(sg.num_nodes(), {1, 2});
  const Router::Result res = router.route(faults, *scratch);
  EXPECT_TRUE(res.feasible);  // GD(G, 2) holds, so any 2-fault set routes
  EXPECT_FALSE(res.atlas_hit);
  EXPECT_FALSE(res.warmed);
  EXPECT_EQ(atlas.size(), 0u);
  EXPECT_TRUE(kgd::check_pipeline(sg, faults, res.pipeline.path).ok);
  EXPECT_THROW(router.build_atlas(2, 0, 1), std::runtime_error);
}

// A router over a >64-node graph skips the automorphism group (only the
// orbit path uses it) and still serves exactly what the constructive
// router computes, fault set by fault set.
TEST(Router, LargeGraphRoutesEqualRouteFamily) {
  const kgd::SolutionGraph sg = build(66, 4);
  ASSERT_GT(sg.num_nodes(), 64);
  Router router(sg, nullptr);
  EXPECT_TRUE(router.automorphisms().generators.empty());
  EXPECT_EQ(router.automorphisms().order, 1u);
  auto scratch = std::make_unique<fault::FaultCanonicalizer::Scratch>();
  const std::vector<std::vector<graph::Node>> fault_lists = {
      {}, {0}, {0, 17, 40}, {3, 30, 55, 69}, {70, 71, 72, 73}};
  for (const auto& nodes : fault_lists) {
    const kgd::FaultSet faults(sg.num_nodes(), nodes);
    const Router::Result res = router.route(faults, *scratch);
    const auto expected = route_family(sg, faults);
    ASSERT_TRUE(expected.has_value()) << faults.to_string();
    ASSERT_TRUE(res.feasible) << faults.to_string();
    EXPECT_EQ(res.pipeline.path,
              kgd::normalize_pipeline(sg, expected->path).path)
        << faults.to_string();
  }
}

}  // namespace
}  // namespace kgdp::reconfig
