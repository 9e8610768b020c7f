#include "verify/pipeline_solver.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace kgdp::verify {

using graph::Node;
using kgd::Role;

PipelineSolver::PipelineSolver(SolverOptions opts)
    : opts_(opts), ham_(opts.ham) {}

template <class Search>
auto PipelineSolver::counted(Search&& search) {
  const std::uint64_t nodes_before = ham_.expansions();
  const std::uint64_t posa_before = ham_.posa_steps();
  auto result = search();
  ctr_.search_nodes += ham_.expansions() - nodes_before;
  ctr_.posa_steps += ham_.posa_steps() - posa_before;
  return result;
}

// Rebuilds the cached adjacency/role view when the graph identity
// changed. Identity is (address, node count, edge count): enough to catch
// every legitimate rebinding in the codebase; callers juggling multiple
// graphs at one address can force the issue with rebind().
bool PipelineSolver::bind_if_needed(const SolutionGraph& sg) {
  if (bound_ == &sg && bound_nodes_ == sg.num_nodes() &&
      bound_edges_ == sg.graph().num_edges()) {
    return false;
  }
  bound_ = &sg;
  bound_nodes_ = sg.num_nodes();
  bound_edges_ = sg.graph().num_edges();
  small_ = bound_nodes_ >= 1 && bound_nodes_ <= 64;
  if (small_) {
    adj_.rebuild(sg.graph());
    proc_mask_ = input_mask_ = output_mask_ = 0;
    for (Node v = 0; v < bound_nodes_; ++v) {
      const std::uint64_t bit = std::uint64_t{1} << v;
      switch (sg.role(v)) {
        case Role::kProcessor: proc_mask_ |= bit; break;
        case Role::kInput: input_mask_ |= bit; break;
        case Role::kOutput: output_mask_ |= bit; break;
      }
    }
  } else {
    fault_bits_.resize(bound_nodes_);
  }
  have_faults_ = false;
  return true;
}

SolveOutcome PipelineSolver::solve(const SolutionGraph& sg,
                                   const FaultSet& faults) {
  assert(faults.universe() == sg.num_nodes());
  bind_if_needed(sg);
  ++ctr_.rebuilds;
  have_faults_ = true;
  if (small_) {
    fault_mask_ =
        faults.mask().words().empty() ? 0 : faults.mask().words()[0];
    return solve_fast();
  }
  fault_bits_ = faults.mask();
  fault_list_.assign(faults.nodes().begin(), faults.nodes().end());
  return solve_general(sg);
}

SolveOutcome PipelineSolver::solve_faults(const SolutionGraph& sg,
                                          std::span<const Node> faulty) {
  bind_if_needed(sg);
  ++ctr_.rebuilds;
  have_faults_ = true;
  if (small_) {
    fault_mask_ = 0;
    for (Node v : faulty) fault_mask_ |= std::uint64_t{1} << v;
    return solve_fast();
  }
  fault_bits_.reset_all();
  for (Node v : faulty) fault_bits_.set(v);
  fault_list_.assign(faulty.begin(), faulty.end());
  return solve_general(sg);
}

SolveOutcome PipelineSolver::patch(const SolutionGraph& sg,
                                   std::span<const Node> removed,
                                   std::span<const Node> added) {
  const bool rebound = bind_if_needed(sg);
  if (rebound || !have_faults_) {
    // No previous view to patch against; only legal when the delta is a
    // pure insertion from the empty set.
    assert(removed.empty() && "patch without a previous solve");
    return solve_faults(sg, added);
  }
  ++ctr_.patches;
  have_faults_ = true;
  if (small_) {
    for (Node v : removed) {
      assert((fault_mask_ >> v) & 1u);
      fault_mask_ &= ~(std::uint64_t{1} << v);
    }
    for (Node v : added) {
      assert(!((fault_mask_ >> v) & 1u));
      fault_mask_ |= std::uint64_t{1} << v;
    }
    return solve_fast();
  }
  for (Node v : removed) {
    fault_bits_.reset(v);
    fault_list_.erase(
        std::lower_bound(fault_list_.begin(), fault_list_.end(), v));
  }
  for (Node v : added) {
    fault_bits_.set(v);
    fault_list_.insert(
        std::lower_bound(fault_list_.begin(), fault_list_.end(), v), v);
  }
  return solve_general(sg);
}

void PipelineSolver::solve_batch(const SolutionGraph& sg,
                                 std::span<const std::uint64_t> fault_masks,
                                 std::span<SolveStatus> out_status) {
  assert(out_status.size() >= fault_masks.size());
  if (fault_masks.empty()) return;
  bind_if_needed(sg);
  assert(small_ && "solve_batch requires the <= 64-node mask fast path");
  // One rebuild for the head lane plus a patch per further lane keeps the
  // patches + rebuilds == solves invariant intact under batching.
  ++ctr_.rebuilds;
  ctr_.patches += fault_masks.size() - 1;
  lane_setup_.resize(fault_masks.size());
  detail::batch_setup(adj_.rows64().data(), bound_nodes_, proc_mask_,
                      input_mask_, output_mask_, fault_masks.data(),
                      fault_masks.size(), lane_setup_.data());
  for (std::size_t i = 0; i < fault_masks.size(); ++i) {
    out_status[i] = solve_lane(lane_setup_[i], fault_masks[i]);
  }
  // Leave the fault view at the last lane so a subsequent patch()
  // continues the colex delta stream from there.
  fault_mask_ = fault_masks.back();
  have_faults_ = true;
}

// Shared verdict core for the mask fast path: one lane's setup in, a
// verdict out. Walk-first — the heuristic rotation walk settles positive
// instances in a few hundred nanoseconds and its paths are certified like
// any other; misses (rare: genuinely negative or near-threshold sets)
// fall through to the exact masked search. Used by solve_batch and by the
// verdict-only scalar entries, so batched and unbatched runs share one
// verdict procedure bit for bit.
SolveStatus PipelineSolver::solve_lane(const detail::LaneSetup& lane,
                                       std::uint64_t fault_mask) {
  (void)fault_mask;  // seed and first start come precomputed in the lane
  ++ctr_.solves;
  const std::span<const std::uint64_t> rows = adj_.rows64();
  if (lane.keep == 0) {
    // Only a terminal-terminal edge can carry a pipeline with zero
    // healthy processors (see solve_fast()).
    for (std::uint64_t s = lane.in_ok; s; s &= s - 1) {
      if (rows[std::countr_zero(s)] & lane.out_ok) return SolveStatus::kFound;
    }
    return SolveStatus::kNone;
  }
  if (!lane.starts || !lane.ends) return SolveStatus::kNone;

  // The setup kernel already mixed the walk seed and selected the
  // restart-0 start (lowest start bit) lane-parallel; the walk takes
  // both as-is, so its per-lane scalar preamble is gone.
  if (ham_.walk_masked(rows, lane.keep, lane.starts, lane.ends, lane.seed,
                       std::countr_zero(lane.start_bit))) {
    ++ctr_.walk_hits;
  } else {
    ++ctr_.walk_fallbacks;
    const graph::HamResult r = counted([&] {
      return ham_.solve_masked(rows, lane.keep, lane.starts, lane.ends);
    });
    if (r == graph::HamResult::kUnknown) return SolveStatus::kUnknown;
    if (r == graph::HamResult::kNone) return SolveStatus::kNone;
  }
  if (opts_.certify &&
      !certify_fast(ham_.masked_path(), lane.keep, lane.in_ok, lane.out_ok)) {
    assert(false && "solver produced an invalid pipeline");
    return SolveStatus::kUnknown;
  }
  return SolveStatus::kFound;
}

// Mask fast path (1 <= n <= 64): the healthy-processor view, endpoint
// sets and witness terminals are all single-word computations over the
// BitAdjacency rows; the Hamiltonian search runs masked in the original
// id space. No heap allocation unless a pipeline object is requested.
// Verdict-only solves route through the walk-first lane core; pipeline-
// producing solves keep the deterministic exact search so the returned
// path matches the reference solver byte for byte.
SolveOutcome PipelineSolver::solve_fast() {
  if (!opts_.want_pipeline) {
    detail::LaneSetup lane;
    detail::batch_setup(adj_.rows64().data(), bound_nodes_, proc_mask_,
                        input_mask_, output_mask_, &fault_mask_, 1, &lane);
    return {solve_lane(lane, fault_mask_), std::nullopt};
  }
  ++ctr_.solves;
  const std::uint64_t healthy = ~fault_mask_;
  const std::uint64_t keep = proc_mask_ & healthy;
  const std::uint64_t in_ok = input_mask_ & healthy;
  const std::uint64_t out_ok = output_mask_ & healthy;
  const std::span<const std::uint64_t> rows = adj_.rows64();

  if (keep == 0) {
    // A pipeline has at least one interior node in any graph whose
    // terminals only attach to processors, so zero healthy processors
    // means no pipeline (terminal-terminal edges do not occur in our
    // constructions; if present they could make a 2-node pipeline, which
    // we check for completeness).
    for (std::uint64_t s = in_ok; s; s &= s - 1) {
      const int v = std::countr_zero(s);
      const std::uint64_t direct = rows[v] & out_ok;
      if (direct) {
        if (!opts_.want_pipeline) return {SolveStatus::kFound, std::nullopt};
        Pipeline pl{{v, std::countr_zero(direct)}};
        return {SolveStatus::kFound, pl};
      }
    }
    return {SolveStatus::kNone, std::nullopt};
  }

  // Healthy processors with a healthy input (resp. output) terminal
  // neighbor — the legal endpoints. The witness terminal is the
  // lowest-id healthy terminal neighbor, matching the reference solver's
  // first-in-adjacency-order choice (adjacency lists are sorted).
  std::uint64_t starts = 0, ends = 0;
  for (std::uint64_t s = keep; s; s &= s - 1) {
    const int v = std::countr_zero(s);
    const std::uint64_t in_nb = rows[v] & in_ok;
    if (in_nb) {
      starts |= std::uint64_t{1} << v;
      start_term_[v] = std::countr_zero(in_nb);
    }
    const std::uint64_t out_nb = rows[v] & out_ok;
    if (out_nb) {
      ends |= std::uint64_t{1} << v;
      end_term_[v] = std::countr_zero(out_nb);
    }
  }
  if (!starts || !ends) return {SolveStatus::kNone, std::nullopt};

  const graph::HamResult r =
      counted([&] { return ham_.solve_masked(rows, keep, starts, ends); });
  switch (r) {
    case graph::HamResult::kUnknown:
      return {SolveStatus::kUnknown, std::nullopt};
    case graph::HamResult::kNone:
      return {SolveStatus::kNone, std::nullopt};
    case graph::HamResult::kFound:
      break;
  }
  const std::span<const Node> interior = ham_.masked_path();

  if (opts_.certify && !certify_fast(interior, keep, in_ok, out_ok)) {
    assert(false && "solver produced an invalid pipeline");
    return {SolveStatus::kUnknown, std::nullopt};
  }
  if (!opts_.want_pipeline) return {SolveStatus::kFound, std::nullopt};

  path_buf_.clear();
  path_buf_.push_back(start_term_[interior.front()]);
  path_buf_.insert(path_buf_.end(), interior.begin(), interior.end());
  path_buf_.push_back(end_term_[interior.back()]);
  return {SolveStatus::kFound, kgd::normalize_pipeline(*bound_, path_buf_)};
}

// Mask-level certification of a found interior path: consecutive
// adjacency, exact coverage of the healthy-processor set, and healthy
// terminal attachments — the pipeline definition restated over bitsets,
// so the honesty check costs no allocation either.
bool PipelineSolver::certify_fast(std::span<const Node> interior,
                                  std::uint64_t keep,
                                  std::uint64_t healthy_inputs,
                                  std::uint64_t healthy_outputs) const {
  if (interior.empty()) return false;
  const std::span<const std::uint64_t> rows = adj_.rows64();
  std::uint64_t seen = 0;
  Node prev = -1;
  for (Node v : interior) {
    const std::uint64_t bit = std::uint64_t{1} << v;
    if (!(keep & bit) || (seen & bit)) return false;
    if (prev >= 0 && !((rows[prev] >> v) & 1u)) return false;
    seen |= bit;
    prev = v;
  }
  if (seen != keep) return false;
  // Witness terminals exist iff the path ends see a healthy terminal;
  // the materialised witness (lowest such neighbor) is then healthy and
  // adjacent by construction, so the mask test is the whole check.
  return (rows[interior.front()] & healthy_inputs) != 0 &&
         (rows[interior.back()] & healthy_outputs) != 0;
}

// General path (n > 64, outside exhaustive-certification reach): the
// historical induced-subgraph algorithm, with every mapping/endpoint
// buffer migrated to reused scratch. The subgraph copy itself remains —
// the large Hamiltonian solver wants a Graph — but the redundant
// per-call to_full/to_sub/terminal reallocations are gone.
SolveOutcome PipelineSolver::solve_general(const SolutionGraph& sg) {
  ++ctr_.solves;
  const int n_all = sg.num_nodes();

  keep_.resize(n_all);
  keep_.reset_all();
  for (Node v = 0; v < n_all; ++v) {
    if (sg.role(v) == Role::kProcessor && !fault_bits_.test(v)) keep_.set(v);
  }
  const graph::Graph sub = sg.graph().induced_subgraph(keep_, &to_sub_);
  const int hp = sub.num_nodes();

  // Reverse mapping, rebuilt in place (assign reuses capacity).
  to_full_.assign(hp, -1);
  for (Node v = 0; v < n_all; ++v) {
    if (to_sub_[v] >= 0) to_full_[to_sub_[v]] = v;
  }

  starts_bs_.resize(hp);
  starts_bs_.reset_all();
  ends_bs_.resize(hp);
  ends_bs_.reset_all();
  start_term_v_.assign(hp, -1);
  end_term_v_.assign(hp, -1);
  for (Node v = 0; v < n_all; ++v) {
    const int s = to_sub_[v];
    if (s < 0) continue;
    for (Node w : sg.graph().neighbors(v)) {
      if (fault_bits_.test(w)) continue;
      if (sg.role(w) == Role::kInput && start_term_v_[s] < 0) {
        starts_bs_.set(s);
        start_term_v_[s] = w;
      } else if (sg.role(w) == Role::kOutput && end_term_v_[s] < 0) {
        ends_bs_.set(s);
        end_term_v_[s] = w;
      }
    }
  }

  if (hp == 0) {
    // See solve_fast(): only a terminal-terminal edge can carry a
    // pipeline with no healthy processor.
    for (Node v = 0; v < n_all; ++v) {
      if (sg.role(v) != Role::kInput || fault_bits_.test(v)) continue;
      for (Node w : sg.graph().neighbors(v)) {
        if (sg.role(w) == Role::kOutput && !fault_bits_.test(w)) {
          Pipeline pl{{v, w}};
          return {SolveStatus::kFound, pl};
        }
      }
    }
    return {SolveStatus::kNone, std::nullopt};
  }

  if (!starts_bs_.any() || !ends_bs_.any()) {
    return {SolveStatus::kNone, std::nullopt};
  }

  const graph::HamPath hp_res =
      counted([&] { return ham_.solve(sub, starts_bs_, ends_bs_); });
  switch (hp_res.status) {
    case graph::HamResult::kUnknown:
      return {SolveStatus::kUnknown, std::nullopt};
    case graph::HamResult::kNone:
      return {SolveStatus::kNone, std::nullopt};
    case graph::HamResult::kFound:
      break;
  }

  // Assemble the full pipeline: input terminal, processors, output
  // terminal; normalise to input-first order.
  path_buf_.clear();
  path_buf_.push_back(start_term_v_[hp_res.path.front()]);
  for (Node s : hp_res.path) path_buf_.push_back(to_full_[s]);
  path_buf_.push_back(end_term_v_[hp_res.path.back()]);

  if (opts_.certify) {
    const kgd::FaultSet fs(n_all, fault_list_);
    const kgd::PipelineCheck chk = kgd::check_pipeline(sg, fs, path_buf_);
    assert(chk.ok && "solver produced an invalid pipeline");
    if (!chk.ok) return {SolveStatus::kUnknown, std::nullopt};
  }
  if (!opts_.want_pipeline) return {SolveStatus::kFound, std::nullopt};
  return {SolveStatus::kFound, kgd::normalize_pipeline(sg, path_buf_)};
}

SolverCounters PipelineSolver::counters() const {
  SolverCounters c = ctr_;
  auto vec_bytes = [](const auto& v) {
    return v.capacity() * sizeof(v[0]);
  };
  c.scratch_bytes = sizeof(*this) + vec_bytes(fault_list_) +
                    vec_bytes(path_buf_) + vec_bytes(lane_setup_) +
                    vec_bytes(to_sub_) +
                    vec_bytes(to_full_) + vec_bytes(start_term_v_) +
                    vec_bytes(end_term_v_) +
                    fault_bits_.words().capacity() * 8 +
                    keep_.words().capacity() * 8 +
                    starts_bs_.words().capacity() * 8 +
                    ends_bs_.words().capacity() * 8 + adj_.scratch_bytes() +
                    ham_.scratch_bytes();
  return c;
}

SolveOutcome find_pipeline(const SolutionGraph& sg, const FaultSet& faults,
                           SolverOptions opts) {
  PipelineSolver solver(opts);
  return solver.solve(sg, faults);
}

// The pre-rework implementation, verbatim: DynamicBitset keep, induced
// subgraph with fresh mappings, DynamicBitset endpoint sets, remapped
// Hamiltonian solve. Differential tests pit the engine above against
// this oracle fault set by fault set.
SolveOutcome find_pipeline_reference(const SolutionGraph& sg,
                                     const FaultSet& faults,
                                     SolverOptions opts) {
  graph::HamiltonianSolver ham(opts.ham);
  const int n_all = sg.num_nodes();
  assert(faults.universe() == n_all);

  util::DynamicBitset keep(n_all);
  for (Node v = 0; v < n_all; ++v) {
    if (sg.role(v) == Role::kProcessor && !faults.contains(v)) keep.set(v);
  }
  std::vector<Node> to_sub;  // old -> new (-1 outside)
  const graph::Graph sub = sg.graph().induced_subgraph(keep, &to_sub);
  const int hp = sub.num_nodes();

  std::vector<Node> to_full(hp, -1);
  for (Node v = 0; v < n_all; ++v) {
    if (to_sub[v] >= 0) to_full[to_sub[v]] = v;
  }

  util::DynamicBitset starts(hp), ends(hp);
  std::vector<Node> start_term(hp, -1), end_term(hp, -1);
  for (Node v = 0; v < n_all; ++v) {
    const int s = to_sub[v];
    if (s < 0) continue;
    for (Node w : sg.graph().neighbors(v)) {
      if (faults.contains(w)) continue;
      if (sg.role(w) == Role::kInput && start_term[s] < 0) {
        starts.set(s);
        start_term[s] = w;
      } else if (sg.role(w) == Role::kOutput && end_term[s] < 0) {
        ends.set(s);
        end_term[s] = w;
      }
    }
  }

  if (hp == 0) {
    for (Node v = 0; v < n_all; ++v) {
      if (sg.role(v) != Role::kInput || faults.contains(v)) continue;
      for (Node w : sg.graph().neighbors(v)) {
        if (sg.role(w) == Role::kOutput && !faults.contains(w)) {
          Pipeline pl{{v, w}};
          return {SolveStatus::kFound, pl};
        }
      }
    }
    return {SolveStatus::kNone, std::nullopt};
  }

  if (!starts.any() || !ends.any()) return {SolveStatus::kNone, std::nullopt};

  const graph::HamPath hp_res = ham.solve(sub, starts, ends);
  switch (hp_res.status) {
    case graph::HamResult::kUnknown:
      return {SolveStatus::kUnknown, std::nullopt};
    case graph::HamResult::kNone:
      return {SolveStatus::kNone, std::nullopt};
    case graph::HamResult::kFound:
      break;
  }

  std::vector<Node> full;
  full.reserve(hp_res.path.size() + 2);
  full.push_back(start_term[hp_res.path.front()]);
  for (Node s : hp_res.path) full.push_back(to_full[s]);
  full.push_back(end_term[hp_res.path.back()]);

  if (opts.certify) {
    const kgd::PipelineCheck chk = kgd::check_pipeline(sg, faults, full);
    assert(chk.ok && "solver produced an invalid pipeline");
    if (!chk.ok) return {SolveStatus::kUnknown, std::nullopt};
  }
  return {SolveStatus::kFound, kgd::normalize_pipeline(sg, std::move(full))};
}

}  // namespace kgdp::verify
