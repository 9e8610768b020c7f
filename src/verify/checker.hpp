// Graceful-degradation certification. GD(G,k) holds iff every fault set
// of size <= k leaves a pipeline; the exhaustive checker decides this by
// quantifier elimination (enumerate + exact solve). Two refinements keep
// the quantifier tractable: symmetry pruning (one solve per orbit of the
// label-respecting automorphism group, weighted by orbit size) and a
// work-stealing parallel sweep. Both are exact: pruned and unpruned runs
// are two implementations of the same forall. The sampled checker covers
// instances whose fault-set space is out of exhaustive reach.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "kgd/labeled_graph.hpp"
#include "util/thread_pool.hpp"
#include "verify/pipeline_solver.hpp"

namespace kgdp::verify {

struct CheckResult {
  // True when every checked fault set tolerated. For the exhaustive
  // checker this certifies GD(G,k); for the sampled checker it is
  // evidence only.
  bool holds = false;
  bool exhaustive = false;
  // Fault sets certified. With symmetry pruning each solved orbit
  // certifies its whole orbit, so on a completed sweep this equals the
  // full quantifier domain even though fewer solves ran.
  std::uint64_t fault_sets_checked = 0;
  std::uint64_t solver_unknowns = 0;  // always 0 with exact settings
  std::optional<kgd::FaultSet> counterexample;
  // Global FaultEnumerator index of the counterexample (exhaustive mode).
  // This is what makes shard merging deterministic: across shards the
  // lowest index wins, reproducing the unsharded sequential verdict.
  std::optional<std::uint64_t> counterexample_index;

  // --- observability (exhaustive checker only) ---
  // Solver invocations actually performed (== orbit representatives
  // visited; fault_sets_checked minus the symmetry-implied sets).
  std::uint64_t fault_sets_solved = 0;
  // Fault sets whose verdict came from symmetry instead of a solve.
  std::uint64_t orbits_pruned = 0;
  // Order of the label-respecting automorphism group used for pruning
  // (1 when pruning was off or declined).
  std::uint64_t automorphism_order = 1;
  // Work-stealing scheduler: number of range-split steals (0 when
  // sequential).
  std::uint64_t steal_count = 0;
  // Wall-clock seconds each worker spent solving; size = worker count
  // (1 when sequential).
  std::vector<double> worker_solve_seconds;
  // Solver engine counters, summed across workers. Patch/rebuild split
  // depends on chunking and stealing, so like steal_count these are
  // observability — never part of the deterministic verdict.
  std::uint64_t solver_patches = 0;      // delta-applied fault updates
  std::uint64_t solver_rebuilds = 0;     // full fault-view rebuilds
  std::uint64_t solver_search_nodes = 0; // Hamiltonian DFS expansions
  std::uint64_t solver_posa_steps = 0;   // Pósa rotation-search steps
  std::uint64_t solver_scratch_bytes = 0;// retained solver scratch (gauge)
  // Verdict-mode walk engine split: verdicts settled by the heuristic
  // walk vs decided by the exact search after a walk miss.
  std::uint64_t solver_walk_hits = 0;
  std::uint64_t solver_walk_fallbacks = 0;
  // Verdict-cache traffic attributable to this session (all 0 when no
  // cache was attached). A hit certifies without a solve, so with a
  // cache fault_sets_solved counts only the actual solver invocations:
  // checked == solved + orbits_pruned + cache_hits on a completed sweep.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_inserts = 0;
  std::uint64_t cache_evictions = 0;
};

// Symmetry handling for the exhaustive checker.
enum class PruneMode {
  kAuto,  // compute the automorphism group; prune when it is usable
  kOff,   // always enumerate the full fault-set space
};

class VerdictCache;  // verify/verdict_cache.hpp

struct CheckOptions {
  // Give the DFS this much budget before the exact DP fallback.
  std::uint64_t dfs_budget = 1u << 20;
  // Optional pool; nullptr = run sequentially on the calling thread.
  util::ThreadPool* pool = nullptr;
  PruneMode prune = PruneMode::kAuto;
  // Fault sets handed to the solver per batched pass on the <= 64-node
  // fast path: the exhaustive sweep gathers contiguous colex runs of
  // this length and solves them lane-parallel (PipelineSolver::
  // solve_batch). 1 = legacy per-item path. Over 64 nodes slots are
  // solved one by one and this is only the work-stealing block size.
  // Verdicts, counterexample indices and the checked / solved / unknown
  // counts are bit-identical either way; on a failing run the batched
  // sweep may do up to batch-1 extra solver invocations past the
  // counterexample (visible in the solver work counters only), like the
  // work-stealing parallel sweep.
  std::uint32_t batch = 64;
  // Optional shared orbit-canonical verdict cache (owned by the caller;
  // must outlive the session). Consulted by sampled sessions and by the
  // batched exhaustive sweep so isomorphic instances are never re-solved
  // across sessions; nullptr = off. Hits can only replace a solve with
  // an equal verdict, so results are bit-identical with or without it.
  VerdictCache* cache = nullptr;
};

enum class CheckMode {
  kExhaustive,  // certify: every fault set of size <= max_faults
  kSampled,     // evidence: adversarial suite + random samples
};

// The single checker entry point: every check is a CheckRequest resolved
// either one-shot by run_check() or stepwise by verify::CheckSession
// (check_session.hpp), which exposes the same sweep as a resumable,
// shardable session with a serializable cursor. The factories build the
// two standard requests.
struct CheckRequest {
  CheckMode mode = CheckMode::kExhaustive;
  int max_faults = 0;
  // Sampled mode only.
  std::uint64_t samples = 0;
  std::uint64_t seed = 0;
  CheckOptions options;
  // Deterministic range partitioning (exhaustive mode only): this session
  // certifies the shard_index-th of shard_count contiguous slices of the
  // orbit slot space. Sampled mode requires shard_count == 1.
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
  // Explicit lease-bounded slot range [slot_begin, slot_end) — the fleet
  // coordinator's unit of dispatch (exhaustive mode only; mutually
  // exclusive with a non-trivial shard spec). Unlike shards, lease
  // ranges are not derived from an (index, count) pair, so a lease can
  // be truncated mid-flight (CheckSession::truncate) when its tail is
  // stolen; the cursor fingerprint binds slot_begin but NOT slot_end so
  // a saved cursor stays valid across truncation and reassignment.
  bool has_slots = false;
  std::uint64_t slot_begin = 0;
  std::uint64_t slot_end = 0;

  // Decides GD(sg, max_faults) exactly. Deterministic for a fixed prune
  // mode: the counterexample, when one exists, is the lowest-index
  // failing orbit representative regardless of thread count.
  static CheckRequest exhaustive(int max_faults,
                                 const CheckOptions& opts = {}) {
    CheckRequest req;
    req.mode = CheckMode::kExhaustive;
    req.max_faults = max_faults;
    req.options = opts;
    return req;
  }

  // Certifies only orbit slots [begin, end) of the exhaustive sweep —
  // one fleet lease. end must not exceed the enumeration's num_orbits()
  // (validated at session construction).
  static CheckRequest exhaustive_slots(int max_faults, std::uint64_t begin,
                                       std::uint64_t end,
                                       const CheckOptions& opts = {}) {
    CheckRequest req;
    req.mode = CheckMode::kExhaustive;
    req.max_faults = max_faults;
    req.options = opts;
    req.has_slots = true;
    req.slot_begin = begin;
    req.slot_end = end;
    return req;
  }

  // Samples `samples` random fault sets of size <= max_faults (uniform
  // over sizes 0..max_faults weighted by count) plus the adversarial
  // suite.
  static CheckRequest sampled(int max_faults, std::uint64_t samples,
                              std::uint64_t seed,
                              const CheckOptions& opts = {}) {
    CheckRequest req;
    req.mode = CheckMode::kSampled;
    req.max_faults = max_faults;
    req.samples = samples;
    req.seed = seed;
    req.options = opts;
    return req;
  }
};

// Resolves a request to completion on the calling thread(s): equivalent
// to constructing a CheckSession and running it to done().
CheckResult run_check(const kgd::SolutionGraph& sg, const CheckRequest& req);

}  // namespace kgdp::verify
