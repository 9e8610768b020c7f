// Differential harness for the zero-allocation solver engine: the mask
// fast path, the delta-patched fault view, and the checker built on them
// must agree bit-for-bit with the original allocation-per-call solver
// (kept as find_pipeline_reference) — same verdicts, same lowest-index
// counterexamples — under every PruneMode, thread count, and a
// resumed/merged 4-shard campaign.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "baseline/naive.hpp"
#include "fault/enumerator.hpp"
#include "kgd/factory.hpp"
#include "kgd/small_n.hpp"
#include "util/thread_pool.hpp"
#include "verify/check_session.hpp"
#include "verify/checker.hpp"
#include "verify/pipeline_solver.hpp"

namespace kgdp::verify {
namespace {

using kgd::FaultSet;
using kgd::SolutionGraph;

// Every instance family the engine must match the reference on: the
// symmetric G(3,k) / clique families (mask path, rich automorphisms),
// the generic factory output, and the naive spare path (which FAILS
// under interior faults, so negative verdicts get differential coverage
// too).
std::vector<std::pair<std::string, SolutionGraph>> corpus() {
  std::vector<std::pair<std::string, SolutionGraph>> out;
  out.emplace_back("G(3,4)", kgd::make_g3k(4));
  out.emplace_back("G(2,5)", kgd::make_g2k(5));
  out.emplace_back("spare_path(4,2)", baseline::make_spare_path(4, 2));
  out.emplace_back("build(8,2)", *kgd::build_solution(8, 2));
  return out;
}

TEST(SolverDifferential, EngineMatchesReferencePerFaultSet) {
  for (const auto& [name, sg] : corpus()) {
    const int k = sg.k();
    const fault::FaultEnumerator en(sg.num_nodes(), k);
    PipelineSolver engine;  // one instance: bind caching + scratch reuse
    for (std::uint64_t i = 0; i < en.total(); ++i) {
      const FaultSet fs = en.at(i);
      const SolveOutcome fast = engine.solve(sg, fs);
      const SolveOutcome ref = find_pipeline_reference(sg, fs);
      ASSERT_EQ(fast.status, ref.status) << name << " index " << i;
      ASSERT_EQ(fast.pipeline.has_value(), ref.pipeline.has_value())
          << name << " index " << i;
      // Both solvers certify internally; additionally pin that the fast
      // engine's pipeline is byte-equal in the deterministic search
      // order (same witness-terminal and tie-break rules).
      if (fast.pipeline) {
        EXPECT_EQ(fast.pipeline->path, ref.pipeline->path)
            << name << " index " << i;
      }
    }
  }
}

TEST(SolverDifferential, PatchedSweepMatchesPerSetRebuild) {
  for (const auto& [name, sg] : corpus()) {
    const int k = sg.k();
    const fault::FaultEnumerator en(sg.num_nodes(), k);
    fault::FaultEnumerator::Sweep sweep(en);
    PipelineSolver patched, fresh;
    for (std::uint64_t i = 0; i < en.total(); ++i) {
      SolveOutcome a;
      if (i == 0) {
        sweep.seek(0);
        a = patched.solve_faults(sg, sweep.nodes());
      } else {
        sweep.advance();
        a = patched.patch(sg, sweep.removed(), sweep.added());
      }
      const SolveOutcome b = fresh.solve(sg, en.at(i));
      ASSERT_EQ(a.status, b.status) << name << " index " << i;
    }
    // The whole walk cost exactly one rebuild.
    EXPECT_EQ(patched.counters().rebuilds, 1u) << name;
    EXPECT_EQ(patched.counters().patches, en.total() - 1) << name;
    EXPECT_EQ(patched.counters().solves, en.total()) << name;
  }
}

TEST(SolverDifferential, SweepDeltasReproduceEveryFaultSet) {
  const fault::FaultEnumerator en(10, 3);
  fault::FaultEnumerator::Sweep sweep(en);
  // Maintain a shadow set from the deltas alone; it must always equal
  // the unranked fault set, and deltas must partition correctly.
  std::vector<int> shadow;
  for (std::uint64_t i = 0; i < en.total(); ++i) {
    if (i == 0) {
      sweep.seek(0);
    } else {
      sweep.advance();
    }
    for (int v : sweep.removed()) {
      const auto it = std::find(shadow.begin(), shadow.end(), v);
      ASSERT_NE(it, shadow.end()) << "removed node not present, index " << i;
      shadow.erase(it);
    }
    for (int v : sweep.added()) {
      ASSERT_EQ(std::find(shadow.begin(), shadow.end(), v), shadow.end())
          << "added node already present, index " << i;
      shadow.push_back(v);
    }
    std::sort(shadow.begin(), shadow.end());
    const std::vector<int> expect = en.nodes_at(i);
    ASSERT_EQ(shadow, expect) << "index " << i;
    ASSERT_EQ(std::vector<int>(sweep.nodes().begin(), sweep.nodes().end()),
              expect)
        << "index " << i;
  }
}

TEST(SolverDifferential, SeekAfterDiscontinuityDiffsCorrectly) {
  const fault::FaultEnumerator en(12, 3);
  fault::FaultEnumerator::Sweep sweep(en);
  std::vector<int> shadow;
  // Jump around the index space (as work stealing does) and verify the
  // delta always turns the previous set into the target set.
  const std::uint64_t jumps[] = {0, 50, 51, 7, 200, en.total() - 1, 3};
  for (std::uint64_t target : jumps) {
    sweep.seek(target);
    for (int v : sweep.removed()) {
      shadow.erase(std::find(shadow.begin(), shadow.end(), v));
    }
    for (int v : sweep.added()) shadow.push_back(v);
    std::sort(shadow.begin(), shadow.end());
    ASSERT_EQ(shadow, en.nodes_at(target)) << "seek " << target;
  }
}

// The checker drives the engine through patch/rebuild scheduling; its
// verdict must be identical across every PruneMode x thread-count combo,
// and equal to what the reference-solver semantics dictate.
void expect_same_verdict(const CheckResult& a, const CheckResult& b,
                         const std::string& tag) {
  EXPECT_EQ(a.holds, b.holds) << tag;
  EXPECT_EQ(a.exhaustive, b.exhaustive) << tag;
  EXPECT_EQ(a.fault_sets_checked, b.fault_sets_checked) << tag;
  ASSERT_EQ(a.counterexample.has_value(), b.counterexample.has_value()) << tag;
  if (a.counterexample) {
    EXPECT_EQ(a.counterexample->nodes(), b.counterexample->nodes()) << tag;
    EXPECT_EQ(a.counterexample_index, b.counterexample_index) << tag;
  }
}

TEST(SolverDifferential, CheckerAgreesAcrossPruneAndThreads) {
  for (int k = 4; k <= 6; ++k) {
    const SolutionGraph sg = kgd::make_g3k(k);
    util::ThreadPool pool8(8);
    std::vector<std::pair<std::string, CheckResult>> runs;
    for (const PruneMode prune : {PruneMode::kAuto, PruneMode::kOff}) {
      for (const int threads : {1, 8}) {
        CheckOptions opts;
        opts.prune = prune;
        if (threads == 8) opts.pool = &pool8;
        const std::string tag =
            "G(3," + std::to_string(k) + ") prune=" +
            (prune == PruneMode::kAuto ? "auto" : "off") +
            " threads=" + std::to_string(threads);
        runs.emplace_back(tag, run_check(sg, CheckRequest::exhaustive(k, opts)));
      }
    }
    // Pruned runs solve fewer representatives but certify the same
    // domain; every combo must produce the same verdict fields.
    for (std::size_t i = 1; i < runs.size(); ++i) {
      expect_same_verdict(runs[0].second, runs[i].second,
                          runs[0].first + " vs " + runs[i].first);
    }
    EXPECT_TRUE(runs[0].second.holds);
    EXPECT_EQ(runs[0].second.fault_sets_checked,
              fault::FaultEnumerator(sg.num_nodes(), k).total());
  }
}

TEST(SolverDifferential, CheckerCounterexampleAgreesAcrossCombos) {
  const SolutionGraph sg = baseline::make_spare_path(6, 2);
  util::ThreadPool pool8(8);
  std::vector<CheckResult> runs;
  for (const PruneMode prune : {PruneMode::kAuto, PruneMode::kOff}) {
    for (const int threads : {1, 8}) {
      CheckOptions opts;
      opts.prune = prune;
      if (threads == 8) opts.pool = &pool8;
      runs.push_back(run_check(sg, CheckRequest::exhaustive(2, opts)));
    }
  }
  ASSERT_TRUE(runs[0].counterexample.has_value());
  for (std::size_t i = 1; i < runs.size(); ++i) {
    expect_same_verdict(runs[0], runs[i], "combo " + std::to_string(i));
  }
}

// A 4-shard campaign, each shard checkpointed mid-sweep and resumed in a
// fresh session, merged back: bit-identical to the unsharded run for
// both a holding instance and a failing one.
TEST(SolverDifferential, ResumedShardedMergeMatchesUnsharded) {
  struct Case {
    SolutionGraph sg;
    int k;
  };
  const std::vector<Case> cases = {{kgd::make_g3k(4), 4},
                                   {kgd::make_g3k(5), 5},
                                   {kgd::make_g3k(6), 6},
                                   {baseline::make_spare_path(6, 2), 2}};
  for (const auto& [sg, k] : cases) {
    CheckRequest base;
    base.mode = CheckMode::kExhaustive;
    base.max_faults = k;

    CheckSession whole(sg, base);
    whole.run();
    const CheckResult unsharded = whole.result();

    std::vector<CheckResult> shards;
    for (std::uint32_t s = 0; s < 4; ++s) {
      CheckRequest req = base;
      req.shard_index = s;
      req.shard_count = 4;
      // Run a slice, checkpoint, resume in a fresh session, finish.
      CheckSession first(sg, req);
      first.advance(100);
      std::stringstream cursor;
      first.save(cursor);
      CheckSession resumed(sg, req);
      resumed.restore(cursor);
      resumed.run();
      shards.push_back(resumed.result());
    }
    const CheckResult merged =
        merge_shard_results(sg, k, PruneMode::kAuto, shards);
    expect_same_verdict(unsharded, merged, "n/k sharded merge");
    EXPECT_EQ(unsharded.fault_sets_solved, merged.fault_sets_solved);
    EXPECT_EQ(unsharded.orbits_pruned, merged.orbits_pruned);
  }
}

// Cursor v4 round-trips the engine counters (patch/rebuild/search plus
// the walk split, Pósa steps and cache traffic); v1, v2 and v3 cursors
// still restore, with the missing counters restarting from zero.
TEST(SolverDifferential, CursorCarriesSolverCountersAcrossResume) {
  const SolutionGraph sg = kgd::make_g3k(5);
  CheckRequest req;
  req.mode = CheckMode::kExhaustive;
  req.max_faults = 5;

  CheckSession first(sg, req);
  first.advance(200);
  const SolverCounters before = first.solver_totals();
  EXPECT_GT(before.patches + before.rebuilds, 0u);
  std::stringstream cursor;
  first.save(cursor);
  EXPECT_NE(cursor.str().find("kgdp-check-cursor 4"), std::string::npos);
  EXPECT_NE(cursor.str().find("solver "), std::string::npos);
  EXPECT_NE(cursor.str().find("cache "), std::string::npos);

  CheckSession resumed(sg, req);
  resumed.restore(cursor);
  resumed.run();
  const SolverCounters total = resumed.solver_totals();
  // Work done before the checkpoint is carried, not lost.
  EXPECT_GE(total.patches + total.rebuilds,
            before.patches + before.rebuilds);
  EXPECT_GE(total.walk_hits + total.walk_fallbacks,
            before.walk_hits + before.walk_fallbacks);
  EXPECT_GE(total.posa_steps, before.posa_steps);
  const CheckResult res = resumed.result();
  EXPECT_EQ(res.solver_patches + res.solver_rebuilds, res.fault_sets_solved);

  // v3 acceptance: downgrade the header and drop the Pósa step count,
  // the last field of the solver line.
  std::string v3 = cursor.str();
  v3.replace(v3.find("kgdp-check-cursor 4"), 19, "kgdp-check-cursor 3");
  {
    const auto pos = v3.find("\nsolver ");
    ASSERT_NE(pos, std::string::npos);
    const auto line_end = v3.find('\n', pos + 1);
    const auto last_space = v3.rfind(' ', line_end);
    v3.erase(last_space, line_end - last_space);
  }
  std::stringstream v3s(v3);
  CheckSession mid3(sg, req);
  mid3.restore(v3s);
  mid3.run();
  expect_same_verdict(resumed.result(), mid3.result(), "v3 cursor");

  // v2 acceptance: downgrade the header, truncate the solver line to its
  // v2 three fields, and drop the cache line.
  std::string v2 = cursor.str();
  v2.replace(v2.find("kgdp-check-cursor 4"), 19, "kgdp-check-cursor 2");
  {
    const auto pos = v2.find("\nsolver ");
    ASSERT_NE(pos, std::string::npos);
    std::istringstream fields(v2.substr(pos + 8));
    std::uint64_t p = 0, r = 0, s = 0;
    fields >> p >> r >> s;
    const auto line_end = v2.find('\n', pos + 1);
    v2.replace(pos + 1, line_end - pos - 1,
               "solver " + std::to_string(p) + ' ' + std::to_string(r) +
                   ' ' + std::to_string(s));
    const auto cpos = v2.find("\ncache ");
    ASSERT_NE(cpos, std::string::npos);
    v2.erase(cpos + 1, v2.find('\n', cpos + 1) - cpos);
  }
  std::stringstream v2s(v2);
  CheckSession mid(sg, req);
  mid.restore(v2s);
  mid.run();
  expect_same_verdict(resumed.result(), mid.result(), "v2 cursor");

  // v1 acceptance: strip the solver and cache lines, downgrade header.
  std::string v1 = cursor.str();
  v1.replace(v1.find("kgdp-check-cursor 4"), 19, "kgdp-check-cursor 1");
  for (const char* line : {"\nsolver ", "\ncache "}) {
    const auto pos = v1.find(line);
    ASSERT_NE(pos, std::string::npos);
    v1.erase(pos + 1, v1.find('\n', pos + 1) - pos);
  }
  std::stringstream old(v1);
  CheckSession legacy(sg, req);
  legacy.restore(old);
  legacy.run();
  expect_same_verdict(resumed.result(), legacy.result(), "v1 cursor");
}

}  // namespace
}  // namespace kgdp::verify
