// Reconfiguration: given a solution graph and a fault set, produce a
// pipeline through every healthy processor (or prove none exists). This
// is the algorithmic counterpart of the paper's existence proofs — the
// technical-report proofs are constructive but unavailable, so we solve
// the equivalent Hamiltonian-path-with-endpoint-sets problem exactly and
// certify each answer against the paper's pipeline definition.
//
// The solver is the hot loop of exhaustive certification (one call per
// orbit representative), so it is built as a zero-allocation engine:
//
//   * bind caching — the first solve against a SolutionGraph builds a
//     graph::BitAdjacency view plus role masks once; subsequent solves
//     against the same graph reuse them. rebind() forces a rebuild (use
//     it if a graph object is destroyed and another constructed at the
//     same address between calls).
//   * mask fast path — for graphs of <= 64 nodes (every instance within
//     exhaustive reach) the healthy-processor view is a single word and
//     the Hamiltonian search runs masked in the original id space: no
//     induced subgraph, no id remapping, no per-solve heap traffic.
//   * patch() — the enumerator sweep hands the solver colex deltas
//     (nodes leaving/entering the fault set) instead of materialised
//     fault sets; solve()/solve_faults() are the full-rebuild entries
//     used at chunk boundaries and on discontinuities.
//   * solve_batch() — lane-parallel verdict mode: the per-fault-set
//     setup (healthy masks, endpoint sets, walk seed and first-restart
//     start) for a whole run of fault masks is computed in one pass by
//     one portable kernel unrolled 16 lanes wide (batch_kernels.hpp),
//     then each lane is settled by a walk-first verdict core that
//     certifies heuristic positives and falls back to the exact search
//     on misses.
//   * perf counters — solves, patches vs rebuilds, Hamiltonian search
//     nodes, Pósa steps, walk hits vs fallbacks and retained scratch
//     bytes, surfaced through the checker, campaign telemetry and kgdd
//     stats.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "graph/bit_adjacency.hpp"
#include "graph/hamiltonian.hpp"
#include "kgd/labeled_graph.hpp"
#include "kgd/pipeline.hpp"
#include "verify/batch_kernels.hpp"

namespace kgdp::verify {

using kgd::FaultSet;
using kgd::Pipeline;
using kgd::SolutionGraph;

enum class SolveStatus {
  kFound,     // pipeline exists; `pipeline` is set and certified
  kNone,      // proven: no pipeline in G \ F
  kUnknown,   // solver budget exhausted (only with a finite budget)
};

struct SolveOutcome {
  SolveStatus status = SolveStatus::kUnknown;
  std::optional<Pipeline> pipeline;
};

struct SolverOptions {
  graph::HamiltonianOptions ham;  // defaults: exact (no budget)
  // Re-check every found pipeline against the pipeline definition; cheap
  // and keeps the solver honest. On by default. On the mask fast path the
  // check runs against the bitset view without building a Pipeline.
  bool certify = true;
  // When false, kFound outcomes skip materialising the Pipeline object —
  // the one unavoidable allocation of a positive solve. The exhaustive
  // sweep only consumes the verdict, so the checker turns this off.
  // Verdict-only mode also unlocks the walk-first engine: a heuristic
  // rotation walk settles the (overwhelmingly common) positive instances
  // and the exact search runs only on walk misses. Verdicts stay exact —
  // every walk path is certified, negatives always reach the full search —
  // but the interior path differs from the deterministic search's, which
  // is why pipeline-producing solves keep the classic engine.
  bool want_pipeline = true;
};

// Monotone per-solver counters (reset_counters() zeroes them). Patches
// and rebuilds depend on chunking and work stealing, so they are
// observability, not part of the deterministic verdict.
struct SolverCounters {
  std::uint64_t solves = 0;        // solve entries of any kind
  std::uint64_t patches = 0;       // delta-applied fault updates
  std::uint64_t rebuilds = 0;      // full fault-view rebuilds
  std::uint64_t search_nodes = 0;  // Hamiltonian DFS expansions
  std::uint64_t posa_steps = 0;    // Pósa rotation-search steps
  std::uint64_t walk_hits = 0;     // verdicts settled by the walk engine
  std::uint64_t walk_fallbacks = 0;// walk missed; exact search decided
  std::uint64_t scratch_bytes = 0; // scratch currently retained (gauge)
};

class PipelineSolver {
 public:
  explicit PipelineSolver(SolverOptions opts = {});

  // Full solve against an explicit fault set (rebuilds the fault view).
  SolveOutcome solve(const SolutionGraph& sg, const FaultSet& faults);

  // Zero-allocation entries used by the enumerator sweep. solve_faults
  // rebuilds the fault view from a sorted node list; patch applies a
  // colex delta (nodes leaving / entering the fault set) to the view
  // left by the previous call, which must have been against the same
  // graph. All three entries agree bit-for-bit on the verdict.
  SolveOutcome solve_faults(const SolutionGraph& sg,
                            std::span<const graph::Node> faulty);
  SolveOutcome patch(const SolutionGraph& sg,
                     std::span<const graph::Node> removed,
                     std::span<const graph::Node> added);

  // Lane-parallel batch solve (verdict-only; <= 64-node graphs). Derives
  // the per-lane healthy/endpoint setups for all fault masks in one
  // kernel pass (detail::batch_setup), then settles each
  // lane through the shared verdict core. Verdicts are bit-identical to
  // calling solve_faults() on each mask with want_pipeline off, and the
  // batch counts as one rebuild plus count-1 patches, preserving the
  // patches + rebuilds == solves invariant. Leaves the fault view at the
  // last lane so a subsequent patch() continues the delta stream.
  void solve_batch(const SolutionGraph& sg,
                   std::span<const std::uint64_t> fault_masks,
                   std::span<SolveStatus> out_status);

  // Drops the cached adjacency view; the next solve rebuilds it.
  void rebind() { bound_ = nullptr; }

  SolverCounters counters() const;
  void reset_counters() { ctr_ = {}; }

  std::uint64_t ham_expansions() const { return ham_.expansions(); }

 private:
  bool bind_if_needed(const SolutionGraph& sg);
  SolveOutcome solve_fast();
  SolveOutcome solve_general(const SolutionGraph& sg);
  SolveStatus solve_lane(const detail::LaneSetup& lane,
                         std::uint64_t fault_mask);
  // Runs one Hamiltonian search and charges its DFS nodes and Pósa steps
  // to ctr_.
  template <class Search>
  auto counted(Search&& search);
  bool certify_fast(std::span<const graph::Node> interior, std::uint64_t keep,
                    std::uint64_t healthy_inputs,
                    std::uint64_t healthy_outputs) const;

  SolverOptions opts_;
  graph::HamiltonianSolver ham_;

  // Bound-graph view (rebuilt when the graph identity changes).
  const SolutionGraph* bound_ = nullptr;
  int bound_nodes_ = 0;
  std::size_t bound_edges_ = 0;
  bool small_ = false;  // mask fast path applies (1 <= n <= 64)
  graph::BitAdjacency adj_;
  std::uint64_t proc_mask_ = 0, input_mask_ = 0, output_mask_ = 0;

  // Current fault view (valid when have_faults_).
  bool have_faults_ = false;
  std::uint64_t fault_mask_ = 0;          // fast path
  util::DynamicBitset fault_bits_;        // general path
  std::vector<graph::Node> fault_list_;   // general path, sorted

  // Scratch, reused across solves.
  graph::Node start_term_[64];  // witness input terminal per start node
  graph::Node end_term_[64];
  std::vector<graph::Node> path_buf_;
  std::vector<detail::LaneSetup> lane_setup_;  // solve_batch scratch
  // General (>64 nodes) path scratch; this path still builds an induced
  // subgraph per solve but reuses every mapping buffer.
  util::DynamicBitset keep_, starts_bs_, ends_bs_;
  std::vector<graph::Node> to_sub_, to_full_, start_term_v_, end_term_v_;

  SolverCounters ctr_;
};

// One-shot convenience.
SolveOutcome find_pipeline(const SolutionGraph& sg, const FaultSet& faults,
                           SolverOptions opts = {});

// Differential-testing oracle: the original allocation-per-call
// implementation (DynamicBitset keep + induced subgraph + id remapping),
// kept verbatim so tests can prove the zero-allocation engine returns
// identical verdicts. Not for production use.
SolveOutcome find_pipeline_reference(const SolutionGraph& sg,
                                     const FaultSet& faults,
                                     SolverOptions opts = {});

}  // namespace kgdp::verify
