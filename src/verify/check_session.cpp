#include "verify/check_session.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "fault/fault_model.hpp"
#include "graph/automorphism.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "verify/verdict_cache.hpp"

namespace kgdp::verify {

namespace {

constexpr std::uint64_t kNoFailure = ~std::uint64_t{0};

class Fnv64 {
 public:
  void mix(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (v >> (8 * b)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// Everything a cursor must be bound to: the graph (roles + edges decide
// both the verdict and the automorphism group), the request semantics,
// and the orbit layout actually in effect.
std::uint64_t session_fingerprint(const kgd::SolutionGraph& sg,
                                  const CheckRequest& req,
                                  const fault::OrbitEnumerator* orbits) {
  Fnv64 h;
  h.mix(static_cast<std::uint64_t>(sg.num_nodes()));
  h.mix(static_cast<std::uint64_t>(sg.n()));
  h.mix(static_cast<std::uint64_t>(sg.k()));
  for (int v = 0; v < sg.num_nodes(); ++v) {
    h.mix(static_cast<std::uint64_t>(sg.role(v)));
  }
  for (auto [u, v] : sg.graph().edges()) {
    h.mix((static_cast<std::uint64_t>(u) << 32) |
          static_cast<std::uint32_t>(v));
  }
  h.mix(req.mode == CheckMode::kExhaustive ? 0 : 1);
  h.mix(static_cast<std::uint64_t>(req.max_faults));
  h.mix(req.samples);
  h.mix(req.seed);
  if (req.has_slots) {
    // Lease-bounded range: bind the cursor to where the slice starts but
    // NOT where it ends — a steal truncates slot_end mid-flight and a
    // reassigned worker must still accept the victim's streamed cursor.
    // (slot_end is re-validated structurally: restore() rejects any
    // position outside the live [begin_, end_).)
    h.mix(0x9e3779b97f4a7c15ULL);
    h.mix(req.slot_begin);
  } else {
    h.mix((static_cast<std::uint64_t>(req.shard_index) << 32) |
          req.shard_count);
  }
  if (orbits != nullptr) h.mix(orbits->fingerprint());
  return h.value();
}

SolverOptions solver_options(const CheckOptions& opts) {
  SolverOptions s;
  s.ham.dfs_budget = opts.dfs_budget;
  // The sweep only consumes the verdict; skipping Pipeline
  // materialisation keeps the steady-state solve path allocation-free
  // (and routes solves through the walk-first verdict core).
  s.want_pipeline = false;
  return s;
}

void expect_keyword(std::istream& in, const char* keyword) {
  std::string word;
  if (!(in >> word) || word != keyword) {
    throw std::runtime_error(std::string("check cursor: expected '") +
                             keyword + "', got '" + word + "'");
  }
}

std::uint64_t read_u64(std::istream& in, const char* keyword) {
  expect_keyword(in, keyword);
  std::uint64_t v = 0;
  if (!(in >> v)) {
    throw std::runtime_error(std::string("check cursor: bad value for ") +
                             keyword);
  }
  return v;
}

}  // namespace

// Declared in the header: two sessions (or a session and a route atlas)
// over the same graph share cache/atlas entries regardless of mode,
// max_faults, or sharding, because the verdict for a fault set — and
// the canonical route — is a function of the graph alone.
std::uint64_t graph_fingerprint(const kgd::SolutionGraph& sg) {
  Fnv64 h;
  h.mix(static_cast<std::uint64_t>(sg.num_nodes()));
  h.mix(static_cast<std::uint64_t>(sg.n()));
  h.mix(static_cast<std::uint64_t>(sg.k()));
  for (int v = 0; v < sg.num_nodes(); ++v) {
    h.mix(static_cast<std::uint64_t>(sg.role(v)));
  }
  for (auto [u, v] : sg.graph().edges()) {
    h.mix((static_cast<std::uint64_t>(u) << 32) |
          static_cast<std::uint32_t>(v));
  }
  return h.value();
}

// Per-worker context: one solver plus one delta sweep reused across every
// representative the worker claims (scratch allocations amortise), and a
// wall-clock solve accumulator. Heap-allocated per worker so no two share
// a cache line. The sweep tracks the worker's last solved slot; when the
// next claimed slot is its immediate successor the solver is patched with
// the enumeration delta instead of rebuilding the fault view (exhaustive
// mode only — sampled mode draws fault sets, so `sweep` stays empty).
struct CheckSession::Worker {
  // Where a gathered slot's verdict comes from / goes to.
  enum Route : std::uint8_t {
    kSolveOnly,      // solve; no cache (off, or canonicalization bypassed)
    kSolveAndStore,  // cache miss: solve, then insert under `keys`
    kFromCache,      // cache hit: `statuses` already holds the verdict
  };

  // Chunk-local cache-traffic accumulator, cache-line padded and private
  // to this worker (the shared-atomic version of these counters was the
  // measured false-sharing hot spot of the multi-core sweep).
  struct alignas(64) Counters {
    std::uint64_t c_hits = 0;
    std::uint64_t c_misses = 0;
    std::uint64_t c_inserts = 0;
    std::uint64_t c_evictions = 0;
  };

  // Chunk-local counts of one run of consecutive blocks this worker swept
  // in order; a steal or a claim gap starts a new run.
  struct Run {
    std::uint64_t first_slot = 0;
    std::uint64_t covered = 0;
    std::uint64_t solved = 0;
    bool unknown = false;  // the run stopped at a kUnknown verdict
  };

  PipelineSolver solver;
  Counters counters;
  std::vector<Run> runs;
  std::uint64_t last_block = 0;  // valid while `runs` is nonempty
  std::optional<fault::OrbitEnumerator::Sweep> sweep;
  double solve_seconds = 0.0;
  // Batched-sweep gather buffers: parallel arrays over the slots of one
  // block, plus the compacted mask/status arrays handed to solve_batch.
  // Reserved to the batch size once, so the steady state stays
  // allocation-free.
  std::vector<std::uint64_t> slots, masks, keys, hashes, solve_masks;
  std::vector<SolveStatus> statuses, solve_statuses;
  std::vector<std::uint8_t> routes;
  fault::FaultCanonicalizer::Scratch canon_scratch;

  Worker(const SolverOptions& o, std::uint32_t batch) : solver(o) {
    slots.reserve(batch);
    masks.reserve(batch);
    keys.reserve(batch);
    hashes.reserve(batch);
    solve_masks.reserve(batch);
    statuses.reserve(batch);
    solve_statuses.reserve(batch);
    routes.reserve(batch);
  }
};

std::pair<std::uint64_t, std::uint64_t> CheckSession::shard_range(
    std::uint64_t total, std::uint32_t index, std::uint32_t count) {
  // i-th of `count` contiguous slices, sizes differing by at most one:
  // [i*total/count, (i+1)*total/count). Their union tiles [0, total).
  const std::uint64_t lo = total / count * index +
                           std::min<std::uint64_t>(index, total % count);
  const std::uint64_t size = total / count + (index < total % count ? 1 : 0);
  return {lo, lo + size};
}

CheckSession::CheckSession(const kgd::SolutionGraph& sg,
                           const CheckRequest& req)
    : sg_(sg), req_(req), best_(kNoFailure) {
  if (req_.shard_count < 1 || req_.shard_index >= req_.shard_count) {
    throw std::invalid_argument("CheckSession: bad shard spec");
  }
  const unsigned num_workers =
      req_.options.pool ? req_.options.pool->thread_count() : 1;
  // Verdict-cache keys need the automorphism group (orbit-canonical
  // masks) and a graph-scoped fingerprint; both only on the mask fast
  // path, where fault sets are single words.
  const bool want_cache =
      req_.options.cache != nullptr && sg_.num_nodes() <= 64;
  const std::uint32_t batch = std::max<std::uint32_t>(1, req_.options.batch);
  if (req_.mode == CheckMode::kExhaustive) {
    if (req_.options.prune == PruneMode::kAuto || want_cache) {
      cache_autos_ = graph::solution_automorphisms(sg_);
    }
    static const graph::AutomorphismList kNoAutos{};
    const graph::AutomorphismList& orbit_autos =
        req_.options.prune == PruneMode::kAuto ? cache_autos_ : kNoAutos;
    orbits_ = std::make_unique<fault::OrbitEnumerator>(
        sg_.num_nodes(), req_.max_faults, orbit_autos);
    automorphism_order_ = orbits_->pruned() ? cache_autos_.order : 1;
    if (req_.has_slots) {
      if (req_.shard_index != 0 || req_.shard_count != 1) {
        throw std::invalid_argument(
            "CheckSession: a lease slot range excludes a shard spec");
      }
      if (req_.slot_begin > req_.slot_end ||
          req_.slot_end > orbits_->num_orbits()) {
        throw std::invalid_argument(
            "CheckSession: lease slot range outside the enumeration");
      }
      begin_ = req_.slot_begin;
      end_ = req_.slot_end;
    } else {
      std::tie(begin_, end_) = shard_range(orbits_->num_orbits(),
                                           req_.shard_index, req_.shard_count);
    }
    next_ = begin_;
    for (std::uint64_t i = begin_; i < end_; ++i) {
      pruned_in_shard_ += orbits_->orbit_size(i) - 1;
    }
    workers_.reserve(num_workers);
    for (unsigned w = 0; w < num_workers; ++w) {
      workers_.push_back(
          std::make_unique<Worker>(solver_options(req_.options), batch));
      workers_.back()->sweep.emplace(*orbits_);
    }
    done_ = next_ == end_;
  } else {
    if (req_.shard_count != 1) {
      throw std::invalid_argument(
          "CheckSession: sampled mode cannot be sharded (the sample "
          "stream is sequential); use shard_count == 1");
    }
    if (req_.has_slots) {
      throw std::invalid_argument(
          "CheckSession: sampled mode has no orbit slots to lease");
    }
    adversarial_ = fault::adversarial_suite(sg_, req_.max_faults);
    rng_ = util::Rng(req_.seed);
    if (want_cache) cache_autos_ = graph::solution_automorphisms(sg_);
    workers_.push_back(
        std::make_unique<Worker>(solver_options(req_.options), batch));
    done_ = items_total() == 0;
  }
  if (want_cache) {
    canon_.emplace(&cache_autos_);
    graph_fp_ = graph_fingerprint(sg_);
  }
  fingerprint_ = session_fingerprint(sg_, req_, orbits_.get());
}

CheckSession::~CheckSession() = default;

std::uint64_t CheckSession::items_total() const {
  return req_.mode == CheckMode::kExhaustive
             ? end_ - begin_
             : adversarial_.size() + req_.samples;
}

std::uint64_t CheckSession::items_done() const {
  return req_.mode == CheckMode::kExhaustive ? next_ - begin_ : next_item_;
}

bool CheckSession::advance(std::uint64_t max_items) {
  if (done_ || max_items == 0) return done_;
  if (req_.mode == CheckMode::kExhaustive) {
    advance_exhaustive(max_items);
  } else {
    advance_sampled(max_items);
  }
  return done_;
}

void CheckSession::run() {
  while (!advance(~std::uint64_t{0})) {
  }
}

bool CheckSession::truncate(std::uint64_t new_end) {
  if (!req_.has_slots || req_.mode != CheckMode::kExhaustive) return false;
  if (new_end < next_ || new_end > end_) return false;
  if (new_end == end_) return true;  // no-op steal of nothing
  // The surrendered tail [new_end, end_) was never swept, so only its
  // pruned-weight contribution has to leave the accounting; every other
  // counter reflects work already done in the surviving range.
  for (std::uint64_t i = new_end; i < end_; ++i) {
    pruned_in_shard_ -= orbits_->orbit_size(i) - 1;
  }
  end_ = new_end;
  done_ = next_ == end_;
  return true;
}

void CheckSession::advance_exhaustive(std::uint64_t max_items) {
  const std::uint64_t chunk =
      std::min<std::uint64_t>(max_items, end_ - next_);
  const std::uint64_t chunk_begin = next_;

  // The chunk is swept in blocks of `batch` contiguous slots. On the
  // <= 64-node fast path a block is one lane-parallel solver pass, with
  // the verdict cache consulted first where attached; otherwise (larger
  // graphs, or batch == 1) its slots are solved one by one. The
  // work-stealing grid is over whole blocks, so a steal only transfers
  // ownership at a block boundary: no stolen range splits a kernel pass,
  // and each block's gather buffers live in exactly one worker.
  const std::uint32_t batch = std::max<std::uint32_t>(1, req_.options.batch);
  const bool batched = batch > 1 && sg_.num_nodes() <= 64;
  VerdictCache* cache = canon_.has_value() ? req_.options.cache : nullptr;
  const std::uint64_t num_blocks = (chunk + batch - 1) / batch;

  // Each worker counts covered / solved / unknowns per run of blocks
  // (Worker::Run) and cache traffic in its padded Worker::Counters
  // block, so nothing is shared inside the parallel region. A block
  // counts its slots in slot order and stops at its first failure, where
  // the sequential sweep's cheap skip would stop. Both are reset here and
  // folded single-threaded once the chunk completes, so a cursor saved
  // between chunks captures a consistent state. `best` is a shared
  // atomic: workers read it per slot for the cheap skip, so it must be
  // globally fresh.
  std::atomic<std::uint64_t> best{best_};
  for (auto& w : workers_) {
    w->counters = {};
    w->runs.clear();
  }

  // A lower-index failure is already recorded: this representative, and
  // every later one in its block, can no longer affect the verdict
  // (cheap skip that preserves the lowest-index guarantee).
  auto skipped = [&](std::uint64_t slot) {
    return orbits_->rep_index(slot) > best.load(std::memory_order_acquire);
  };
  // Counts one settled slot in the worker's current run. Returns false on
  // a failure (unknowns are conservatively treated as failures), after
  // lowering `best`; the block stops there.
  auto settle = [&](Worker::Run& run, std::uint64_t slot, bool from_cache,
                    SolveStatus status) {
    run.covered += orbits_->orbit_size(slot);
    if (!from_cache) ++run.solved;
    if (status == SolveStatus::kFound) return true;
    run.unknown = status == SolveStatus::kUnknown;
    const std::uint64_t index = orbits_->rep_index(slot);
    std::uint64_t cur = best.load(std::memory_order_relaxed);
    while (index < cur && !best.compare_exchange_weak(
                              cur, index, std::memory_order_acq_rel)) {
    }
    return false;
  };

  auto run_items = [&](Worker& ctx, Worker::Run& run, std::uint64_t lo,
                       std::uint64_t hi) {
    fault::OrbitEnumerator::Sweep& sweep = *ctx.sweep;
    for (std::uint64_t slot = lo; slot < hi && !skipped(slot); ++slot) {
      const util::Timer timer;
      SolveOutcome out;
      if (sweep.positioned() && sweep.slot() + 1 == slot) {
        // Contiguous successor: step the sweep and patch the solver with
        // the fault-set delta. Discontinuities (block boundaries, stolen
        // ranges, cheap-skipped slots, resume) fall through to a full
        // rebuild, which is what keeps verdicts independent of scheduling.
        sweep.advance();
        out = ctx.solver.patch(sg_, sweep.removed(), sweep.added());
      } else {
        sweep.seek(slot);
        out = ctx.solver.solve_faults(sg_, sweep.nodes());
      }
      ctx.solve_seconds += timer.seconds();
      if (!settle(run, slot, false, out.status)) return;
    }
  };

  // Batched block: gather the block's colex slots (the sweep shim emits
  // one fault mask per step), consult the verdict cache where attached,
  // hand the rest to the solver in one lane-parallel pass, and settle in
  // slot order. Covered / solved / unknowns and the counterexample index
  // are bit-identical to batch == 1; only the solver's own work counters
  // may run up to a block past a counterexample (same class of overshoot
  // as stealing).
  auto run_batch = [&](Worker& ctx, Worker::Run& run, std::uint64_t lo,
                       std::uint64_t hi) {
    fault::OrbitEnumerator::Sweep& sweep = *ctx.sweep;
    const util::Timer timer;
    ctx.slots.clear();
    ctx.masks.clear();
    ctx.keys.clear();
    ctx.routes.clear();
    ctx.statuses.clear();
    // Gather: step the sweep over the block's slots, canonicalizing each
    // mask when a cache is attached. Routes are provisional here —
    // kSolveAndStore means "cacheable", and the probe phase below
    // rewrites hits to kFromCache.
    for (std::uint64_t slot = lo; slot < hi && !skipped(slot); ++slot) {
      if (sweep.positioned() && sweep.slot() + 1 == slot) {
        sweep.advance();
      } else {
        sweep.seek(slot);
      }
      const std::uint64_t mask = sweep.mask64();
      std::uint8_t route = Worker::kSolveOnly;
      std::uint64_t key = 0;
      if (cache != nullptr &&
          canon_->canonical_mask(mask, ctx.canon_scratch, &key)) {
        route = Worker::kSolveAndStore;
      }
      ctx.slots.push_back(slot);
      ctx.masks.push_back(mask);
      ctx.keys.push_back(key);
      ctx.routes.push_back(route);
      ctx.statuses.push_back(SolveStatus::kUnknown);
    }
    // Probe: hash every gathered key in one lane-parallel pass, then walk
    // the precomputed hashes through the cache. This keeps the double
    // mix64 out of the per-set probe loop — it was the scalar tail the
    // batched sweep still paid per fault set.
    if (cache != nullptr && !ctx.keys.empty()) {
      ctx.hashes.resize(ctx.keys.size());
      VerdictCache::hash_keys(graph_fp_, ctx.keys, ctx.hashes);
      for (std::size_t i = 0; i < ctx.keys.size(); ++i) {
        if (ctx.routes[i] == Worker::kSolveOnly) continue;
        if (const auto hit = cache->lookup_hashed(graph_fp_, ctx.keys[i],
                                                  ctx.hashes[i])) {
          ctx.routes[i] = Worker::kFromCache;
          ctx.statuses[i] = *hit;
          ++ctx.counters.c_hits;
        } else {
          ++ctx.counters.c_misses;
        }
      }
    }
    ctx.solve_masks.clear();
    for (std::size_t i = 0; i < ctx.slots.size(); ++i) {
      if (ctx.routes[i] != Worker::kFromCache) {
        ctx.solve_masks.push_back(ctx.masks[i]);
      }
    }
    if (!ctx.solve_masks.empty()) {
      ctx.solve_statuses.resize(ctx.solve_masks.size());
      ctx.solver.solve_batch(sg_, ctx.solve_masks, ctx.solve_statuses);
    }
    ctx.solve_seconds += timer.seconds();
    std::size_t sidx = 0;
    for (std::size_t i = 0; i < ctx.slots.size(); ++i) {
      const bool from_cache = ctx.routes[i] == Worker::kFromCache;
      SolveStatus status;
      if (from_cache) {
        status = ctx.statuses[i];
      } else {
        status = ctx.solve_statuses[sidx++];
        if (ctx.routes[i] == Worker::kSolveAndStore &&
            status != SolveStatus::kUnknown) {
          ++ctx.counters.c_inserts;
          if (cache->insert_hashed(graph_fp_, ctx.keys[i], ctx.hashes[i],
                                   status)) {
            ++ctx.counters.c_evictions;
          }
        }
      }
      // Later block slots would all cheap-skip: stop at a failure.
      if (!settle(run, ctx.slots[i], from_cache, status)) break;
    }
  };

  auto run_block = [&](std::uint64_t block, unsigned worker) {
    Worker& ctx = *workers_[worker];
    const std::uint64_t lo = chunk_begin + block * batch;
    const std::uint64_t hi = std::min(chunk_begin + chunk, lo + batch);
    if (ctx.runs.empty() || block != ctx.last_block + 1) {
      ctx.runs.push_back(Worker::Run{lo});
    }
    ctx.last_block = block;
    if (batched) {
      run_batch(ctx, ctx.runs.back(), lo, hi);
    } else {
      run_items(ctx, ctx.runs.back(), lo, hi);
    }
  };

  if (req_.options.pool && num_blocks > 1) {
    const util::StealStats stats =
        util::parallel_for_stealing(*req_.options.pool, num_blocks,
                                    run_block);
    steal_count_ += stats.steals;
  } else {
    for (std::uint64_t b = 0; b < num_blocks; ++b) run_block(b, 0);
  }

  for (const auto& w : workers_) {
    const Worker::Counters& c = w->counters;
    cache_hits_ += c.c_hits;
    cache_misses_ += c.c_misses;
    cache_inserts_ += c.c_inserts;
    cache_evictions_ += c.c_evictions;
  }
  // Fold the runs that start at or before the failing slot. Under a
  // pool, a run starting after it may have been counted before `best`
  // was lowered; leaving it out keeps covered / solved / unknowns those
  // of the sequential sweep whatever the schedule. The run holding the
  // failing slot counts nothing after it: its worker lowered `best`
  // there, so every later block of the run took the cheap skip. Runs are
  // disjoint intervals of blocks, so the others lie wholly before the
  // failure (all found) or wholly after it.
  best_ = best.load();
  for (const auto& w : workers_) {
    for (const Worker::Run& run : w->runs) {
      if (orbits_->rep_index(run.first_slot) > best_) continue;
      covered_ += run.covered;
      solved_ += run.solved;
      if (run.unknown) ++unknowns_;
    }
  }
  next_ = chunk_begin + chunk;
  // Representatives are index-ascending, so once a failure is recorded
  // every remaining slot would take the cheap skip; finish immediately
  // with identical counters.
  if (best_ != kNoFailure) next_ = end_;
  done_ = next_ == end_;
}

void CheckSession::advance_sampled(std::uint64_t max_items) {
  Worker& ctx = *workers_[0];
  VerdictCache* cache = canon_.has_value() ? req_.options.cache : nullptr;
  const std::uint64_t total = items_total();
  const std::uint64_t stop =
      max_items >= total - next_item_ ? total : next_item_ + max_items;
  while (next_item_ < stop) {
    const kgd::FaultSet fs =
        next_item_ < adversarial_.size()
            ? adversarial_[next_item_]
            : fault::draw_faults(
                  sg_,
                  static_cast<int>(rng_.next_int(0, req_.max_faults)),
                  fault::FaultPolicy::kUniform, rng_);
    ++next_item_;
    ++covered_;
    const util::Timer timer;
    // Probe the verdict cache under the orbit-canonical key. A hit is
    // exact: an isomorphic fault set has the same verdict, and if that
    // verdict is negative then `fs` itself is a genuine counterexample.
    SolveStatus status;
    bool from_cache = false;
    bool have_key = false;
    std::uint64_t key = 0;
    if (cache != nullptr) {
      const std::uint64_t mask =
          fs.mask().words().empty() ? 0 : fs.mask().words()[0];
      have_key = canon_->canonical_mask(mask, ctx.canon_scratch, &key);
      if (have_key) {
        if (const auto hit = cache->lookup(graph_fp_, key)) {
          ++cache_hits_;
          status = *hit;
          from_cache = true;
        } else {
          ++cache_misses_;
        }
      }
    }
    if (!from_cache) {
      ++solved_;
      status = ctx.solver.solve(sg_, fs).status;
      if (have_key && status != SolveStatus::kUnknown) {
        ++cache_inserts_;
        if (cache->insert(graph_fp_, key, status)) ++cache_evictions_;
      }
    }
    ctx.solve_seconds += timer.seconds();
    if (status == SolveStatus::kFound) continue;
    if (status == SolveStatus::kUnknown) ++unknowns_;
    sample_failed_ = true;
    sample_counterexample_ = fs;
    done_ = true;
    return;
  }
  done_ = next_item_ == total;
}

SolverCounters CheckSession::solver_totals() const {
  SolverCounters t;
  t.patches = base_patches_;
  t.rebuilds = base_rebuilds_;
  t.search_nodes = base_search_nodes_;
  t.posa_steps = base_posa_steps_;
  t.walk_hits = base_walk_hits_;
  t.walk_fallbacks = base_walk_fallbacks_;
  for (const auto& w : workers_) {
    const SolverCounters c = w->solver.counters();
    t.solves += c.solves;
    t.patches += c.patches;
    t.rebuilds += c.rebuilds;
    t.search_nodes += c.search_nodes;
    t.posa_steps += c.posa_steps;
    t.walk_hits += c.walk_hits;
    t.walk_fallbacks += c.walk_fallbacks;
    t.scratch_bytes += c.scratch_bytes;
  }
  return t;
}

CheckResult CheckSession::result() const {
  CheckResult res;
  res.fault_sets_checked = covered_;
  res.fault_sets_solved = solved_;
  res.solver_unknowns = unknowns_;
  const SolverCounters sc = solver_totals();
  res.solver_patches = sc.patches;
  res.solver_rebuilds = sc.rebuilds;
  res.solver_search_nodes = sc.search_nodes;
  res.solver_posa_steps = sc.posa_steps;
  res.solver_scratch_bytes = sc.scratch_bytes;
  res.solver_walk_hits = sc.walk_hits;
  res.solver_walk_fallbacks = sc.walk_fallbacks;
  res.cache_hits = cache_hits_;
  res.cache_misses = cache_misses_;
  res.cache_inserts = cache_inserts_;
  res.cache_evictions = cache_evictions_;
  if (req_.mode == CheckMode::kExhaustive) {
    res.orbits_pruned = pruned_in_shard_;
    res.automorphism_order = automorphism_order_;
    res.steal_count = steal_count_;
    res.worker_solve_seconds.reserve(workers_.size());
    for (const auto& w : workers_) {
      res.worker_solve_seconds.push_back(w->solve_seconds);
    }
    res.holds = done_ && best_ == kNoFailure;
    if (best_ != kNoFailure) {
      res.counterexample = orbits_->base().at(best_);
      res.counterexample_index = best_;
    }
    // Either the slice covered every fault set or it produced a concrete
    // counterexample; both are exact verdicts.
    res.exhaustive = res.holds || res.counterexample.has_value();
  } else {
    res.holds = done_ && !sample_failed_;
    res.exhaustive = false;
    if (sample_counterexample_) res.counterexample = sample_counterexample_;
  }
  return res;
}

void CheckSession::save(std::ostream& out) const {
  out << "kgdp-check-cursor 4\n";
  out << "fingerprint " << fingerprint_ << '\n';
  out << "pos "
      << (req_.mode == CheckMode::kExhaustive ? next_ : next_item_) << '\n';
  out << "covered " << covered_ << '\n';
  out << "solved " << solved_ << '\n';
  out << "unknowns " << unknowns_ << '\n';
  // v2: cumulative solver engine counters, so a resumed run reports
  // totals rather than since-resume values (scratch_bytes is a live
  // gauge and is deliberately not persisted). v3 appends the walk-engine
  // split and a verdict-cache traffic line; v4 the Pósa step count.
  const SolverCounters sc = solver_totals();
  out << "solver " << sc.patches << ' ' << sc.rebuilds << ' '
      << sc.search_nodes << ' ' << sc.walk_hits << ' ' << sc.walk_fallbacks
      << ' ' << sc.posa_steps << '\n';
  out << "cache " << cache_hits_ << ' ' << cache_misses_ << ' '
      << cache_inserts_ << ' ' << cache_evictions_ << '\n';
  if (req_.mode == CheckMode::kExhaustive) {
    out << "best " << best_ << '\n';
    out << "steals " << steal_count_ << '\n';
    // Wall-clock accumulators are carried across the checkpoint so a
    // resumed run reports total (not since-resume) solve time. Bit-cast
    // keeps the round-trip exact.
    out << "workers " << workers_.size();
    for (const auto& w : workers_) {
      out << ' ' << std::bit_cast<std::uint64_t>(w->solve_seconds);
    }
    out << '\n';
  } else {
    const auto s = rng_.state();
    out << "rng " << s[0] << ' ' << s[1] << ' ' << s[2] << ' ' << s[3]
        << '\n';
    out << "failed " << (sample_failed_ ? 1 : 0) << '\n';
    if (sample_counterexample_) {
      out << "ce " << sample_counterexample_->size();
      for (int v : sample_counterexample_->nodes()) out << ' ' << v;
      out << '\n';
    }
  }
  out << "done " << (done_ ? 1 : 0) << '\n';
  out << "end\n";
}

void CheckSession::restore(std::istream& in) {
  expect_keyword(in, "kgdp-check-cursor");
  int version = 0;
  if (!(in >> version) || version < 1 || version > 4) {
    throw std::runtime_error("check cursor: unsupported version");
  }
  const std::uint64_t fp = read_u64(in, "fingerprint");
  if (fp != fingerprint_) {
    throw std::runtime_error(
        "check cursor: fingerprint mismatch (cursor was saved for a "
        "different graph, request, or orbit layout)");
  }
  const std::uint64_t pos = read_u64(in, "pos");
  covered_ = read_u64(in, "covered");
  solved_ = read_u64(in, "solved");
  unknowns_ = read_u64(in, "unknowns");
  // Solver counters: restored totals become the base; live worker
  // counters restart from zero (v1 cursors predate the counters, v2
  // cursors predate the walk split and cache line, v3 the Pósa steps).
  for (auto& w : workers_) w->solver.reset_counters();
  base_patches_ = base_rebuilds_ = base_search_nodes_ = 0;
  base_walk_hits_ = base_walk_fallbacks_ = base_posa_steps_ = 0;
  cache_hits_ = cache_misses_ = cache_inserts_ = cache_evictions_ = 0;
  if (version >= 2) {
    expect_keyword(in, "solver");
    if (!(in >> base_patches_ >> base_rebuilds_ >> base_search_nodes_)) {
      throw std::runtime_error("check cursor: bad solver counters");
    }
    if (version >= 3) {
      if (!(in >> base_walk_hits_ >> base_walk_fallbacks_)) {
        throw std::runtime_error("check cursor: bad walk counters");
      }
      if (version >= 4 && !(in >> base_posa_steps_)) {
        throw std::runtime_error("check cursor: bad Pósa step counter");
      }
      expect_keyword(in, "cache");
      if (!(in >> cache_hits_ >> cache_misses_ >> cache_inserts_ >>
            cache_evictions_)) {
        throw std::runtime_error("check cursor: bad cache counters");
      }
    }
  }
  if (req_.mode == CheckMode::kExhaustive) {
    if (pos < begin_ || pos > end_) {
      throw std::runtime_error("check cursor: position outside shard");
    }
    next_ = pos;
    best_ = read_u64(in, "best");
    steal_count_ = read_u64(in, "steals");
    expect_keyword(in, "workers");
    std::size_t count = 0;
    if (!(in >> count)) throw std::runtime_error("check cursor: bad workers");
    // The checkpoint may have been written with a different thread count;
    // fold saved accumulators into the workers we actually have.
    for (auto& w : workers_) w->solve_seconds = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
      std::uint64_t bits = 0;
      if (!(in >> bits)) {
        throw std::runtime_error("check cursor: truncated worker seconds");
      }
      workers_[i % workers_.size()]->solve_seconds +=
          std::bit_cast<double>(bits);
    }
  } else {
    if (pos > items_total()) {
      throw std::runtime_error("check cursor: position out of range");
    }
    next_item_ = pos;
    expect_keyword(in, "rng");
    std::array<std::uint64_t, 4> s{};
    for (auto& v : s) {
      if (!(in >> v)) throw std::runtime_error("check cursor: bad rng state");
    }
    rng_.set_state(s);
    sample_failed_ = read_u64(in, "failed") != 0;
    sample_counterexample_.reset();
  }
  std::string word;
  if (!(in >> word)) throw std::runtime_error("check cursor: truncated");
  if (word == "ce") {
    int count = 0;
    if (!(in >> count) || count < 0) {
      throw std::runtime_error("check cursor: bad counterexample");
    }
    std::vector<int> nodes(count);
    for (int& v : nodes) {
      if (!(in >> v)) {
        throw std::runtime_error("check cursor: truncated counterexample");
      }
    }
    sample_counterexample_ = kgd::FaultSet(sg_.num_nodes(), nodes);
    if (!(in >> word)) throw std::runtime_error("check cursor: truncated");
  }
  if (word != "done") throw std::runtime_error("check cursor: expected done");
  std::uint64_t done_flag = 0;
  if (!(in >> done_flag)) throw std::runtime_error("check cursor: bad done");
  done_ = done_flag != 0;
  expect_keyword(in, "end");
}

CheckResult merge_shard_results(const kgd::SolutionGraph& sg, int max_faults,
                                PruneMode prune,
                                const std::vector<CheckResult>& shards) {
  if (shards.empty()) {
    throw std::invalid_argument("merge_shard_results: no shards");
  }
  const graph::AutomorphismList autos =
      prune == PruneMode::kAuto ? graph::solution_automorphisms(sg)
                                : graph::AutomorphismList{};
  const fault::OrbitEnumerator orbits(sg.num_nodes(), max_faults, autos);

  CheckResult out;
  out.automorphism_order = orbits.pruned() ? autos.order : 1;

  std::uint64_t best = kNoFailure;
  for (const CheckResult& s : shards) {
    if (s.counterexample.has_value()) {
      if (!s.counterexample_index.has_value()) {
        throw std::invalid_argument(
            "merge_shard_results: shard counterexample lacks its index");
      }
      best = std::min(best, *s.counterexample_index);
    }
    out.steal_count += s.steal_count;
    out.worker_solve_seconds.insert(out.worker_solve_seconds.end(),
                                    s.worker_solve_seconds.begin(),
                                    s.worker_solve_seconds.end());
    // Solver counters are observability (schedule-dependent), so the
    // merge simply sums the work each shard actually did.
    out.solver_patches += s.solver_patches;
    out.solver_rebuilds += s.solver_rebuilds;
    out.solver_search_nodes += s.solver_search_nodes;
    out.solver_posa_steps += s.solver_posa_steps;
    out.solver_scratch_bytes += s.solver_scratch_bytes;
  }

  if (best == kNoFailure) {
    // Every slice held: counters tile the quantifier domain exactly.
    for (const CheckResult& s : shards) {
      out.fault_sets_checked += s.fault_sets_checked;
      out.fault_sets_solved += s.fault_sets_solved;
      out.solver_unknowns += s.solver_unknowns;
      out.orbits_pruned += s.orbits_pruned;
    }
    out.holds = true;
    out.exhaustive = true;
    return out;
  }

  // Some slice failed. Shards above the failing slot did work the
  // unsharded sequential sweep never reaches, so recompute the counters
  // canonically: the sweep truncated at the lowest failing representative.
  out.orbits_pruned = orbits.fault_sets_pruned();
  for (std::uint64_t slot = 0; slot < orbits.num_orbits(); ++slot) {
    out.fault_sets_checked += orbits.orbit_size(slot);
    ++out.fault_sets_solved;
    if (orbits.rep_index(slot) == best) break;
  }
  for (const CheckResult& s : shards) out.solver_unknowns += s.solver_unknowns;
  out.holds = false;
  out.exhaustive = true;
  out.counterexample = orbits.base().at(best);
  out.counterexample_index = best;
  return out;
}

CheckResult merge_lease_results(const kgd::SolutionGraph& sg, int max_faults,
                                PruneMode prune,
                                std::vector<LeaseResult> leases) {
  if (leases.empty()) {
    throw std::invalid_argument("merge_lease_results: no leases");
  }
  std::sort(leases.begin(), leases.end(),
            [](const LeaseResult& a, const LeaseResult& b) {
              return a.begin < b.begin;
            });
  // Validate the reshaped partition before trusting it: steals and
  // reassignments rewrite lease boundaries at runtime, so gaps or
  // overlaps here mean a coordinator bug, not a degenerate input.
  std::uint64_t expect = 0;
  for (const LeaseResult& l : leases) {
    if (l.begin != expect || l.end < l.begin) {
      throw std::invalid_argument(
          "merge_lease_results: lease ranges do not tile the sweep");
    }
    expect = l.end;
  }
  {
    // Cheap num_orbits recomputation (prune geometry only) to check the
    // partition covers the whole enumeration; the merge itself rebuilds
    // the same layout.
    const graph::AutomorphismList autos =
        prune == PruneMode::kAuto ? graph::solution_automorphisms(sg)
                                  : graph::AutomorphismList{};
    const fault::OrbitEnumerator orbits(sg.num_nodes(), max_faults, autos);
    if (expect != orbits.num_orbits()) {
      throw std::invalid_argument(
          "merge_lease_results: partition does not cover the enumeration");
    }
  }
  std::vector<CheckResult> parts;
  parts.reserve(leases.size());
  for (LeaseResult& l : leases) parts.push_back(std::move(l.result));
  return merge_shard_results(sg, max_faults, prune, parts);
}

}  // namespace kgdp::verify
