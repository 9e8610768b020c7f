#include "certify.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#include "fault/enumerator.hpp"
#include "graph/bit_adjacency.hpp"
#include "graph/hamiltonian.hpp"
#include "verify/batch_kernels.hpp"

namespace perfbench {

namespace kgd = kgdp::kgd;
namespace verify = kgdp::verify;

namespace {

std::string label(const kgd::SolutionGraph& sg, int k, unsigned threads) {
  return "certify G(" + std::to_string(sg.n()) + "," + std::to_string(sg.k()) +
         ") k=" + std::to_string(k) + " threads=" + std::to_string(threads);
}

double timed_sweep(const kgd::SolutionGraph& sg, int k,
                   kgdp::util::ThreadPool* pool, unsigned threads,
                   verify::CheckResult* out, Report& report) {
  verify::CheckOptions opts;
  opts.pool = pool;
  const auto t0 = Clock::now();
  *out = verify::run_check(sg, verify::CheckRequest::exhaustive(k, opts));
  const double s = seconds_since(t0);
  const bool ok = out->holds && out->exhaustive && !out->counterexample &&
                  out->solver_unknowns == 0 &&
                  out->fault_sets_checked ==
                      fault_set_count(sg.num_nodes(), k);
  report.op(ok, true, label(sg, k, threads) + ": wrong verdict or count");
  return s;
}

}  // namespace

void run_certify(const kgd::SolutionGraph& sg, const CertifySpec& spec,
                 kgdp::util::ThreadPool* pool, double min_seconds,
                 CertifyRun* run, Report& report) {
  const auto t0 = Clock::now();
  for (int rep = 0; rep < spec.min_reps || seconds_since(t0) < min_seconds;
       ++rep) {
    const double single = timed_sweep(sg, spec.k, nullptr, 1,
                                      &run->single_last, report);
    run->single_s.push_back(single);
    if (spec.threads > 1) {
      run->pool_s.push_back(timed_sweep(sg, spec.k, pool, spec.threads,
                                        &run->pool_last, report));
    } else {
      run->pool_s.push_back(single);
      run->pool_last = run->single_last;
    }
  }
}

CertifyTrace trace_certify(const kgd::SolutionGraph& sg, int k) {
  const int n = sg.num_nodes();
  if (n > 64) throw std::invalid_argument("trace_certify: more than 64 nodes");
  const kgdp::graph::BitAdjacency adj(sg.graph());
  const std::span<const std::uint64_t> rows = adj.rows64();
  std::uint64_t proc = 0, in = 0, out = 0;
  for (int v = 0; v < n; ++v) {
    const std::uint64_t bit = std::uint64_t{1} << v;
    switch (sg.role(v)) {
      case kgd::Role::kProcessor: proc |= bit; break;
      case kgd::Role::kInput: in |= bit; break;
      case kgd::Role::kOutput: out |= bit; break;
    }
  }
  // Same budget and kernel run_check uses by default.
  kgdp::graph::HamiltonianOptions ham_opts;
  ham_opts.dfs_budget = verify::CheckOptions{}.dfs_budget;
  kgdp::graph::HamiltonianSolver ham(ham_opts);
  const verify::detail::BatchKernel kernel = verify::detail::select_batch_kernel(0);

  const kgdp::fault::FaultEnumerator en(n, k);
  kgdp::fault::FaultEnumerator::Sweep sweep(en);
  constexpr std::size_t kBatch = 64;
  std::uint64_t masks[kBatch];
  verify::detail::LaneSetup lanes[kBatch];
  std::size_t misses[kBatch];
  CertifyTrace tr;
  for (std::uint64_t base = 0; base < en.total(); base += kBatch) {
    const std::size_t count =
        static_cast<std::size_t>(std::min<std::uint64_t>(kBatch, en.total() - base));

    auto t = Clock::now();
    for (std::size_t i = 0; i < count; ++i) {
      if (base + i == 0) {
        sweep.seek(0);
      } else {
        sweep.advance();
      }
      masks[i] = sweep.mask64();
    }
    tr.enumerate.add(t, count);

    t = Clock::now();
    kernel.fn(rows.data(), n, proc, in, out, masks, count, lanes);
    tr.setup.add(t, count);

    t = Clock::now();
    std::size_t num_misses = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const verify::detail::LaneSetup& lane = lanes[i];
      if (lane.keep == 0) {
        bool direct = false;
        for (std::uint64_t s = lane.in_ok; s; s &= s - 1) {
          direct = direct || (rows[std::countr_zero(s)] & lane.out_ok) != 0;
        }
        if (!direct) ++tr.unsolved;
        continue;
      }
      if (!lane.starts || !lane.ends) {
        ++tr.unsolved;
        continue;
      }
      if (ham.walk_masked(rows, lane.keep, lane.starts, lane.ends, lane.seed,
                          std::countr_zero(lane.start_bit))) {
        ++tr.walk_hits;
      } else {
        misses[num_misses++] = i;
      }
    }
    tr.walk.add(t, count);

    if (num_misses == 0) continue;
    t = Clock::now();
    for (std::size_t j = 0; j < num_misses; ++j) {
      const verify::detail::LaneSetup& lane = lanes[misses[j]];
      const std::uint64_t before = ham.expansions();
      if (ham.solve_masked(rows, lane.keep, lane.starts, lane.ends) !=
          kgdp::graph::HamResult::kFound) {
        ++tr.unsolved;
      }
      tr.search_nodes += ham.expansions() - before;
    }
    tr.exact.add(t, num_misses);
    tr.walk_fallbacks += num_misses;
  }
  return tr;
}

}  // namespace perfbench
