// Differential fuzz for the lane-parallel batch solver: random fault-set
// batches on real construction instances, checked bit-for-bit against
// find_pipeline_reference and against the unbatched delta-stream path,
// around the batch kernel's lane-width boundaries.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/bit_adjacency.hpp"
#include "kgd/factory.hpp"
#include "util/rng.hpp"
#include "verify/batch_kernels.hpp"
#include "verify/pipeline_solver.hpp"

namespace kgdp::verify {
namespace {

using graph::Node;
using kgd::FaultSet;
using kgd::SolutionGraph;

// Instances spanning the shapes the factory produces (spare-path,
// extension towers, small-k specials), all on the <= 64-node fast path.
const std::pair<int, int> kInstances[] = {
    {1, 1}, {2, 3}, {5, 2}, {6, 2}, {6, 3}, {3, 4}, {10, 3}, {14, 3},
};

std::vector<Node> mask_nodes(std::uint64_t mask) {
  std::vector<Node> nodes;
  for (std::uint64_t m = mask; m != 0; m &= m - 1) {
    nodes.push_back(static_cast<Node>(std::countr_zero(m)));
  }
  return nodes;
}

FaultSet mask_fault_set(const SolutionGraph& sg, std::uint64_t mask) {
  std::vector<int> nodes;
  for (std::uint64_t m = mask; m != 0; m &= m - 1) {
    nodes.push_back(std::countr_zero(m));
  }
  return FaultSet(sg.num_nodes(), nodes);
}

// Random fault mask over the whole node space (processors and terminals
// alike), between 0 and `max_size` faults.
std::uint64_t random_mask(util::Rng& rng, int n, int max_size) {
  const int size = static_cast<int>(rng.next_int(0, max_size));
  std::uint64_t mask = 0;
  for (int i = 0; i < size; ++i) {
    mask |= 1ull << rng.next_below(static_cast<std::uint64_t>(n));
  }
  return mask;
}

SolverOptions verdict_options() {
  SolverOptions o;
  o.want_pipeline = false;
  return o;
}

TEST(BatchFuzz, AllLaneWidthsMatchReferenceOnRandomBatches) {
  util::Rng rng(0xba7c4);
  for (const auto& [n, k] : kInstances) {
    const auto sg = kgd::build_solution(n, k);
    ASSERT_TRUE(sg) << "n=" << n << " k=" << k;
    const int nodes = sg->num_nodes();
    ASSERT_LE(nodes, 64);

    // One batch of random masks (96 = six full 16-lane passes); every
    // verdict must agree with the reference.
    std::vector<std::uint64_t> masks;
    for (int i = 0; i < 96; ++i) {
      masks.push_back(random_mask(rng, nodes, k + 2));
    }
    std::vector<SolveStatus> expected;
    for (std::uint64_t m : masks) {
      expected.push_back(
          find_pipeline_reference(*sg, mask_fault_set(*sg, m)).status);
    }

    PipelineSolver solver(verdict_options());
    std::vector<SolveStatus> got(masks.size(), SolveStatus::kUnknown);
    solver.solve_batch(*sg, masks, got);
    for (std::size_t i = 0; i < masks.size(); ++i) {
      EXPECT_EQ(got[i], expected[i])
          << "n=" << n << " k=" << k << " slot=" << i << " mask=" << masks[i];
      EXPECT_NE(got[i], SolveStatus::kUnknown);
    }
  }
}

TEST(BatchFuzz, BatchBoundariesAndTailsMatchUnbatchedStream) {
  util::Rng rng(0x5eed5);
  const auto sg = kgd::build_solution(10, 3);
  ASSERT_TRUE(sg);
  const int nodes = sg->num_nodes();

  // Batch sizes straddling kBatchLanes multiples plus ragged tails:
  // 1..9, W-1 / W / W+1, and 4W-1 / 4W / 4W+1.
  for (const std::size_t count :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4},
        std::size_t{5}, std::size_t{7}, std::size_t{8}, std::size_t{9},
        std::size_t{15}, std::size_t{16}, std::size_t{17},
        std::size_t{63}, std::size_t{64}, std::size_t{65}}) {
    std::vector<std::uint64_t> masks;
    for (std::size_t i = 0; i < count; ++i) {
      masks.push_back(random_mask(rng, nodes, 5));
    }

    // Unbatched oracle: one solver fed the same masks one at a time
    // through the rebuild entry (the delta-stream equivalent).
    PipelineSolver unbatched(verdict_options());
    std::vector<SolveStatus> expected;
    for (std::uint64_t m : masks) {
      const auto nodes_list = mask_nodes(m);
      expected.push_back(unbatched.solve_faults(*sg, nodes_list).status);
    }

    PipelineSolver solver(verdict_options());
    std::vector<SolveStatus> got(count, SolveStatus::kUnknown);
    solver.solve_batch(*sg, masks, got);
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(got[i], expected[i]) << "count=" << count << " slot=" << i;
    }
  }
}

TEST(BatchFuzz, BatchLeavesDeltaStreamContinuable) {
  // solve_batch leaves the fault view at the last lane; a subsequent
  // patch() must continue the delta stream as if the batch had been fed
  // item by item.
  util::Rng rng(0xde17a);
  const auto sg = kgd::build_solution(6, 3);
  ASSERT_TRUE(sg);
  const int nodes = sg->num_nodes();

  for (int round = 0; round < 20; ++round) {
    std::vector<std::uint64_t> masks;
    for (int i = 0; i < 5; ++i) masks.push_back(random_mask(rng, nodes, 4));
    const std::uint64_t next_mask = random_mask(rng, nodes, 4);

    PipelineSolver solver(verdict_options());
    std::vector<SolveStatus> got(masks.size(), SolveStatus::kUnknown);
    solver.solve_batch(*sg, masks, got);

    const std::uint64_t last = masks.back();
    const auto removed = mask_nodes(last & ~next_mask);
    const auto added = mask_nodes(next_mask & ~last);
    const auto patched = solver.patch(*sg, removed, added);

    PipelineSolver fresh(verdict_options());
    const auto oracle = fresh.solve_faults(*sg, mask_nodes(next_mask));
    EXPECT_EQ(patched.status, oracle.status) << "round=" << round;
  }
}

TEST(BatchFuzz, BatchCountersPreserveSolveIdentity) {
  // One rebuild plus count-1 patches per batch: the
  // patches + rebuilds == solves identity survives any mix of batch
  // sizes, exactly as it does for the unbatched delta stream.
  util::Rng rng(0xc0117);
  const auto sg = kgd::build_solution(14, 3);
  ASSERT_TRUE(sg);
  const int nodes = sg->num_nodes();

  PipelineSolver solver(verdict_options());
  std::uint64_t fed = 0;
  for (const std::size_t count : {std::size_t{1}, std::size_t{6},
                                  std::size_t{64}, std::size_t{13}}) {
    std::vector<std::uint64_t> masks;
    for (std::size_t i = 0; i < count; ++i) {
      masks.push_back(random_mask(rng, nodes, 4));
    }
    std::vector<SolveStatus> got(count, SolveStatus::kUnknown);
    solver.solve_batch(*sg, masks, got);
    fed += count;
  }
  const SolverCounters c = solver.counters();
  EXPECT_EQ(c.solves, fed);
  EXPECT_EQ(c.patches + c.rebuilds, c.solves);
  // Early-exit lanes (no healthy endpoint) settle before the walk runs.
  EXPECT_LE(c.walk_hits + c.walk_fallbacks, c.solves);
}

TEST(BatchFuzz, CompatKernelIsTheOneKernel) {
  // select_batch_kernel survives only for perfbench: whatever width it
  // is asked for, it hands back the one portable kernel.
  for (int lanes : {0, 1, 4, 8, 16}) {
    const detail::BatchKernel k = detail::select_batch_kernel(lanes);
    EXPECT_EQ(k.fn, &detail::batch_setup);
    EXPECT_EQ(k.width, detail::kBatchLanes);
    EXPECT_EQ(k.isa, detail::KernelIsa::kPortable);
  }
}

TEST(BatchFuzz, LaneSetupCarriesWalkSeedAndStartBit) {
  // The kernel must fill every LaneSetup field exactly as the scalar
  // definitions below do — the seed and start bit feed the walk, so a
  // mismatch would change verdict streams. 67 masks = four full 16-lane
  // passes plus a 3-lane tail.
  util::Rng rng(0x5eedb17);
  const auto sg = kgd::build_solution(10, 3);
  ASSERT_TRUE(sg);
  const int nodes = sg->num_nodes();
  ASSERT_LE(nodes, 64);

  graph::BitAdjacency adj;
  adj.rebuild(sg->graph());
  const std::span<const std::uint64_t> rows = adj.rows64();
  std::uint64_t proc = 0, in = 0, out_m = 0;
  for (Node v = 0; v < nodes; ++v) {
    const std::uint64_t bit = std::uint64_t{1} << v;
    switch (sg->role(v)) {
      case kgd::Role::kProcessor: proc |= bit; break;
      case kgd::Role::kInput: in |= bit; break;
      case kgd::Role::kOutput: out_m |= bit; break;
    }
  }

  std::vector<std::uint64_t> masks;
  for (int i = 0; i < 67; ++i) masks.push_back(random_mask(rng, nodes, 5));

  std::vector<detail::LaneSetup> got(masks.size());
  detail::batch_setup(rows.data(), nodes, proc, in, out_m, masks.data(),
                      masks.size(), got.data());
  for (std::size_t i = 0; i < masks.size(); ++i) {
    const std::uint64_t healthy = ~masks[i];
    const std::uint64_t keep = proc & healthy;
    const std::uint64_t in_ok = in & healthy;
    const std::uint64_t out_ok = out_m & healthy;
    // A start (end) is a healthy processor with a healthy input (output)
    // terminal neighbour.
    std::uint64_t starts = 0, ends = 0;
    for (Node v = 0; v < nodes; ++v) {
      const std::uint64_t bit = std::uint64_t{1} << v;
      if ((keep & bit) == 0) continue;
      if ((rows[v] & in_ok) != 0) starts |= bit;
      if ((rows[v] & out_ok) != 0) ends |= bit;
    }
    const std::uint64_t seed =
        masks[i] * 0x9e3779b97f4a7c15ULL + 0x243f6a8885a308d3ULL;
    const std::uint64_t start_bit =
        starts == 0 ? 0 : std::uint64_t{1} << std::countr_zero(starts);

    EXPECT_EQ(got[i].keep, keep) << "slot " << i;
    EXPECT_EQ(got[i].in_ok, in_ok) << "slot " << i;
    EXPECT_EQ(got[i].out_ok, out_ok) << "slot " << i;
    EXPECT_EQ(got[i].starts, starts) << "slot " << i;
    EXPECT_EQ(got[i].ends, ends) << "slot " << i;
    EXPECT_EQ(got[i].seed, seed) << "slot " << i;
    EXPECT_EQ(got[i].start_bit, start_bit) << "slot " << i;
  }
}

}  // namespace
}  // namespace kgdp::verify
