// Stepwise checker sessions. Every check is a CheckRequest resolved by
// CheckSession, which advances the underlying sweep in bounded work
// chunks so callers get progress, checkpoint/resume, and deterministic
// range sharding on top of the exact same quantifier:
//
//   * advance(max_items) runs at most that many orbit representatives
//     (or samples) and returns whether the session is finished;
//   * save()/restore() serialize the sweep cursor — counters, position,
//     RNG state — bound to a fingerprint of the graph and enumeration,
//     so a resumed session is byte-identical to an uninterrupted one;
//   * shard i of S certifies the i-th contiguous slice of the orbit
//     slots; the slices are disjoint, their union tiles the quantifier
//     domain, and merge_shard_results() reproduces the unsharded
//     sequential verdict (lowest-index counterexample wins).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "fault/canonical.hpp"
#include "fault/orbit_enumerator.hpp"
#include "graph/automorphism.hpp"
#include "kgd/labeled_graph.hpp"
#include "util/rng.hpp"
#include "verify/checker.hpp"

namespace kgdp::verify {

// CheckMode and CheckRequest (with its exhaustive()/sampled() factories
// and the one-shot run_check()) live in verify/checker.hpp; this header
// adds the stepwise session resolving the same requests.

// Graph-only fingerprint (nodes, (n, k), roles, edges — FNV-1a) scoping
// verdict-cache and route-atlas entries: the verdict for a fault set,
// and the canonical route, are functions of the graph alone, so every
// session/atlas over the same graph shares one key space.
std::uint64_t graph_fingerprint(const kgd::SolutionGraph& sg);

class CheckSession {
 public:
  // The graph must outlive the session. Throws std::invalid_argument on
  // malformed requests (bad shard spec, sharded sampling).
  CheckSession(const kgd::SolutionGraph& sg, const CheckRequest& req);
  ~CheckSession();

  CheckSession(const CheckSession&) = delete;
  CheckSession& operator=(const CheckSession&) = delete;

  // Runs at most `max_items` work items (orbit representatives, or
  // adversarial/random fault sets in sampled mode). Returns done().
  bool advance(std::uint64_t max_items);

  // Advance to completion.
  void run();

  bool done() const { return done_; }

  // This session's orbit-slot slice [slot_begin, slot_end) — the full
  // [0, num_orbits) range for an unsharded exhaustive session, the
  // shard/lease slice otherwise. Meaningless in sampled mode (0, 0).
  std::uint64_t slot_begin() const { return begin_; }
  std::uint64_t slot_end() const { return end_; }

  // Shrinks an explicit-range (has_slots) exhaustive session to
  // [slot_begin, new_end) — the worker half of a fleet steal. Legal only
  // while every slot at or past new_end is still unswept; returns false
  // (and changes nothing) when the sweep has already passed new_end,
  // when new_end would grow the range, or on a non-lease session. On
  // success the pruned-weight accounting is re-derived for the shorter
  // slice, so a truncated session's result merges bit-identically with
  // a separate session covering [new_end, old_end).
  bool truncate(std::uint64_t new_end);

  // Work items in this session's slice / already processed. A session
  // that found a counterexample reports done() with items_done() frozen
  // where the sweep stopped (later representatives cannot change the
  // lowest-index verdict).
  std::uint64_t items_total() const;
  std::uint64_t items_done() const;

  // Snapshot of the verdict and counters. Final (holds/exhaustive
  // meaningful) once done(). For a shard session, `holds` refers to this
  // shard's slice only.
  CheckResult result() const;

  // Solver engine counters summed across workers (plus any restored from
  // a cursor). scratch_bytes is a live gauge, never persisted. Callers
  // must not race this against advance() — workers mutate their counters.
  SolverCounters solver_totals() const;

  // Binds cursors to this exact (graph, request, enumeration) triple.
  std::uint64_t fingerprint() const { return fingerprint_; }

  // Serializable cursor: a line-oriented text block ending in "end".
  // restore() throws std::runtime_error on malformed input or a cursor
  // saved against a different graph/request/enumeration.
  void save(std::ostream& out) const;
  void restore(std::istream& in);

  // The contiguous slot range [first, second) assigned to shard `index`
  // of `count`; slices differ in size by at most one and tile [0, total).
  static std::pair<std::uint64_t, std::uint64_t> shard_range(
      std::uint64_t total, std::uint32_t index, std::uint32_t count);

 private:
  struct Worker;  // per-worker solver + delta sweep + solve-time accumulator

  void advance_exhaustive(std::uint64_t max_items);
  void advance_sampled(std::uint64_t max_items);

  const kgd::SolutionGraph& sg_;
  CheckRequest req_;
  std::uint64_t fingerprint_ = 0;
  bool done_ = false;

  // Verdict-cache plumbing (only populated when options.cache != nullptr
  // and the graph fits the mask fast path): the label-respecting
  // automorphism group backs orbit-canonical cache keys, and graph_fp_
  // scopes entries to this graph so one cache serves many instances.
  std::uint64_t graph_fp_ = 0;
  graph::AutomorphismList cache_autos_;
  std::optional<fault::FaultCanonicalizer> canon_;
  // Session-local cache traffic (the cache's own stats are global).
  std::uint64_t cache_hits_ = 0, cache_misses_ = 0, cache_inserts_ = 0,
      cache_evictions_ = 0;

  // Exhaustive state.
  std::unique_ptr<fault::OrbitEnumerator> orbits_;
  std::uint64_t automorphism_order_ = 1;
  std::uint64_t pruned_in_shard_ = 0;  // sum of (orbit_size - 1) in slice
  std::uint64_t begin_ = 0, end_ = 0, next_ = 0;
  std::uint64_t best_;  // lowest failing representative index so far
  std::uint64_t steal_count_ = 0;
  std::vector<std::unique_ptr<Worker>> workers_;

  // Sampled state.
  std::vector<kgd::FaultSet> adversarial_;
  util::Rng rng_;
  std::uint64_t next_item_ = 0;
  bool sample_failed_ = false;
  std::optional<kgd::FaultSet> sample_counterexample_;

  // Shared counters.
  std::uint64_t covered_ = 0, solved_ = 0, unknowns_ = 0;
  // Solver counters restored from a cursor; live worker counters are
  // added on top (see solver_totals()).
  std::uint64_t base_patches_ = 0, base_rebuilds_ = 0, base_search_nodes_ = 0;
  std::uint64_t base_walk_hits_ = 0, base_walk_fallbacks_ = 0;
  std::uint64_t base_posa_steps_ = 0;
};

// Merges per-shard results of a deterministically partitioned exhaustive
// run (same graph, max_faults, prune mode; shard i of shards.size()) into
// the result of the equivalent unsharded *sequential* run: the lowest
// counterexample index wins and, when one exists, the counters are
// recomputed canonically (sweep truncated at the failing representative),
// so merged output is bit-identical to an uninterrupted CheckSession.
// Throws std::invalid_argument on an empty or inconsistent shard list.
CheckResult merge_shard_results(const kgd::SolutionGraph& sg, int max_faults,
                                PruneMode prune,
                                const std::vector<CheckResult>& shards);

// One completed lease slice: the slot range the session actually
// certified (post-truncation) plus its result.
struct LeaseResult {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  CheckResult result;
};

// Merges lease-bounded slices of one exhaustive sweep. Unlike
// merge_shard_results, the partition is arbitrary: the ranges (in any
// order) must be disjoint and tile [0, num_orbits) exactly — steals and
// reassignments reshape the partition, and this validates the reshaped
// tiling before producing the same canonical merged result as the
// unsliced sequential run. Throws std::invalid_argument on gaps,
// overlaps, or a partition that does not cover the enumeration.
CheckResult merge_lease_results(const kgd::SolutionGraph& sg, int max_faults,
                                PruneMode prune,
                                std::vector<LeaseResult> leases);

}  // namespace kgdp::verify
