// Orbit-keyed reconfiguration atlas. A certified GD graph exists to
// answer one question fast: "faults F just happened — give me the new
// pipeline." Routes are invariant up to the label-respecting
// automorphism group, so the atlas stores one precomputed pipeline per
// (graph fingerprint, orbit-canonical fault mask) and serves every
// member of the orbit by transporting the canonical route through the
// minimising group element (fault/canonical.hpp's transport BFS).
//
// RouteAtlas is read-mostly and reader-lock-free: entries live in
// sharded hash maps published as std::shared_ptr snapshots (RCU —
// readers atomically load a snapshot and never touch a writer's lock;
// writers copy their shard under a per-shard mutex and swap the
// pointer). Lookups therefore cost one atomic load plus one hash probe,
// which is what makes the kgdd `route` hot path scale.
//
// Router is the serving engine: canonicalize, look up, fall back to the
// deterministic constructive routers (reconfig/route.hpp) on a miss,
// warm the atlas in place, and transport back. The fallback computes
// the *canonical* orbit's route — never the raw query's — so a route
// served from a warm atlas is bit-identical to one computed on a cold
// miss, and to one computed with no atlas at all.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "fault/canonical.hpp"
#include "graph/automorphism.hpp"
#include "kgd/labeled_graph.hpp"
#include "kgd/pipeline.hpp"

namespace kgdp::reconfig {

struct RouteAtlasStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;       // entries actually added
  std::uint64_t rejected_full = 0; // inserts dropped at max_entries
  std::uint64_t entries = 0;       // current population
};

// What an atlas file header declares (returned by load/peek).
struct RouteAtlasFileInfo {
  std::uint64_t graph_fp = 0;
  int n = 0;
  int k = 0;
  std::uint64_t entries = 0;
};

class RouteAtlas {
 public:
  // `max_entries` bounds the population (warms past the cap are counted
  // and dropped, so a hostile fault stream cannot grow the daemon
  // unboundedly). All structural memory is per-shard; entry storage
  // grows with population.
  explicit RouteAtlas(std::size_t max_entries);

  RouteAtlas(const RouteAtlas&) = delete;
  RouteAtlas& operator=(const RouteAtlas&) = delete;

  // Reader-lock-free exact probe. True on a hit, with *path set to the
  // stored canonical route (empty = proven infeasible for this orbit).
  bool lookup(std::uint64_t graph_fp, std::uint64_t canon_mask,
              std::vector<graph::Node>* path) const;

  // Inserts (or confirms) an entry. Racing inserts of one key are
  // benign: canonical routes are deterministic, so duplicates agree.
  // False only when the atlas is full and the key is new.
  bool insert(std::uint64_t graph_fp, std::uint64_t canon_mask,
              std::vector<graph::Node> path);

  RouteAtlasStats stats() const;
  std::size_t size() const { return entries_.load(std::memory_order_relaxed); }
  std::size_t max_entries() const { return max_entries_; }

  // Line-oriented artifact I/O ("kgdp-atlas 1" header). save() writes
  // every entry keyed by `graph_fp`; load() merges a saved artifact into
  // this atlas and returns its header info. Throws std::runtime_error on
  // malformed input. expected_fp != 0 rejects an artifact built for a
  // different graph.
  void save(std::ostream& out, std::uint64_t graph_fp, int n, int k) const;
  RouteAtlasFileInfo load(std::istream& in, std::uint64_t expected_fp = 0);

 private:
  struct Key {
    std::uint64_t fp = 0;
    std::uint64_t mask = 0;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const;
  };
  using Map = std::unordered_map<Key, std::vector<graph::Node>, KeyHash>;

  static constexpr std::size_t kShards = 64;

  struct Shard {
    // RCU snapshot: readers atomic-load, writers copy-and-swap under mu.
    std::atomic<std::shared_ptr<const Map>> snapshot;
    std::mutex mu;
  };

  static std::size_t shard_index(const Key& key);

  std::size_t max_entries_;
  std::unique_ptr<Shard[]> shards_;
  std::atomic<std::uint64_t> entries_{0};
  mutable std::atomic<std::uint64_t> hits_{0}, misses_{0};
  std::atomic<std::uint64_t> inserts_{0}, rejected_full_{0};
};

// The serving engine: owns the symmetry machinery for one graph and
// resolves fault sets to certified pipelines, through the atlas when one
// is attached. Thread-safe: route() is const, the atlas synchronises
// internally, and the caller provides per-thread canonicalizer scratch.
class Router {
 public:
  // `sg` must outlive the router; `atlas` may be nullptr (atlas-off).
  // Routes are bit-identical with or without an atlas, and regardless of
  // hit/miss/warm history — the miss path computes the same canonical
  // route the atlas would have stored.
  Router(const kgd::SolutionGraph& sg, RouteAtlas* atlas);

  struct Result {
    bool feasible = false;
    kgd::Pipeline pipeline;  // set when feasible
    // Observability only; never part of the reply body (it would break
    // the atlas-on/off bit-identity contract).
    bool atlas_hit = false;
    bool warmed = false;
  };

  // Resolves one fault set. Deterministic; safe from many threads.
  Result route(const kgd::FaultSet& faults,
               fault::FaultCanonicalizer::Scratch& scratch) const;

  // Precompute pass: canonical route for every orbit representative with
  // <= max_faults faults in shard `shard_index` of `shard_count`
  // (contiguous slot ranges, same tiling as CheckSession::shard_range).
  // Requires an attached atlas and a <= 64-node graph. Returns entries
  // inserted; *slots_total (optional) reports the unsharded slot count.
  std::uint64_t build_atlas(int max_faults, std::uint32_t shard_index,
                            std::uint32_t shard_count,
                            std::uint64_t* slots_total = nullptr) const;

  const kgd::SolutionGraph& graph() const { return sg_; }
  std::uint64_t graph_fp() const { return graph_fp_; }
  // The label-respecting automorphism group; trivial (not computed) for
  // graphs over 64 nodes, which never use the orbit path.
  const graph::AutomorphismList& automorphisms() const { return autos_; }
  RouteAtlas* atlas() const { return atlas_; }

 private:
  // Deterministic canonical-route computation shared by the miss path
  // and the precompute pass (empty = infeasible).
  std::vector<graph::Node> compute_route(const kgd::FaultSet& faults) const;

  const kgd::SolutionGraph& sg_;
  RouteAtlas* atlas_;
  std::uint64_t graph_fp_ = 0;
  graph::AutomorphismList autos_;
  fault::FaultCanonicalizer canon_;
};

}  // namespace kgdp::reconfig
