// Certification phase: exhaustive GD(G(n,k), k) sweeps through
// verify::run_check, and the traced single-threaded replay of the same
// sweep through the solver's public layer functions.
#pragma once

#include <cstdint>
#include <vector>

#include "common.hpp"
#include "kgd/labeled_graph.hpp"
#include "util/thread_pool.hpp"
#include "verify/checker.hpp"

namespace perfbench {

struct CertifySpec {
  int n = 0;
  int k = 0;
  unsigned threads = 1;  // the pool sweep; 1 = single-threaded only
  int min_reps = 1;      // per call
};

struct CertifyRun {
  std::vector<double> pool_s;    // sweeps at spec.threads
  std::vector<double> single_s;  // single-threaded sweeps
  kgdp::verify::CheckResult pool_last;
  kgdp::verify::CheckResult single_last;
};

// Appends (pool sweep, single-threaded sweep) pairs to `run` until
// `min_seconds` have passed and spec.min_reps pairs are done. With
// spec.threads == 1 each repetition is one sweep, recorded as both.
// Every verdict is checked.
void run_certify(const kgdp::kgd::SolutionGraph& sg, const CertifySpec& spec,
                 kgdp::util::ThreadPool* pool, double min_seconds,
                 CertifyRun* run, Report& report);

struct CertifyTrace {
  Span enumerate;  // FaultEnumerator::Sweep, 64 sets per span
  Span setup;      // select_batch_kernel(0).fn on the 64-mask batch
  Span walk;       // HamiltonianSolver::walk_masked on the batch's lanes
  Span exact;      // solve_masked on the batch's walk misses
  std::uint64_t walk_hits = 0;
  std::uint64_t walk_fallbacks = 0;
  std::uint64_t search_nodes = 0;
  std::uint64_t unsolved = 0;  // lanes with no pipeline found
  double total_seconds() const {
    return enumerate.seconds + setup.seconds + walk.seconds + exact.seconds;
  }
};

// Replays the single-threaded sweep of GD(sg, k) lane by lane.
CertifyTrace trace_certify(const kgdp::kgd::SolutionGraph& sg, int k);

}  // namespace perfbench
