// Lane-parallel batch setup for the mask fast path. Solving a batch of B
// fault sets splits into (a) a data-parallel phase — per lane, derive the
// healthy-processor set, the legal start/end endpoint masks, the walk
// seed, and the first-restart start bit from the BitAdjacency rows — and
// (b) the per-lane verdict settling. Phase (a) is pure word arithmetic
// over identical control flow, so batch_setup() runs kBatchLanes fault
// masks per pass with the lane loop unrolled that wide; the portable
// body auto-vectorizes at the library's baseline flags.
#pragma once

#include <cstddef>
#include <cstdint>

namespace kgdp::verify::detail {

// Per-lane solve inputs derived from one fault mask (original id space):
// healthy processors, healthy input/output terminals, the endpoint sets
// (healthy processors adjacent to a healthy input resp. output), plus
// the two walk-first seeding values — the deterministic walk seed mixed
// from the fault mask and the lowest start bit (the walk's first-restart
// endpoint selection), both batched here so the walk phase starts with
// no per-set scalar preamble.
struct LaneSetup {
  std::uint64_t keep = 0;
  std::uint64_t in_ok = 0;
  std::uint64_t out_ok = 0;
  std::uint64_t starts = 0;
  std::uint64_t ends = 0;
  std::uint64_t seed = 0;       // walk_seed_mix(fault_mask)
  std::uint64_t start_bit = 0;  // starts & -starts (0 when starts == 0)
};

// Walk seed derived purely from the fault mask (splitmix-style mix), so a
// given (graph, fault set) always walks the same way regardless of batch
// boundaries, chunking or thread schedule — verdict determinism depends
// on it. Shared by the kernel and by the scalar verdict path.
inline std::uint64_t walk_seed_mix(std::uint64_t fault_mask) {
  return fault_mask * 0x9e3779b97f4a7c15ULL + 0x243f6a8885a308d3ULL;
}

// Fault masks the kernel processes per unrolled pass.
inline constexpr int kBatchLanes = 16;

// Fills out[0..count) from fault_masks[0..count) against the rows of an
// n-node (n <= 64) graph with the given role masks. Tail lanes (count
// not a multiple of kBatchLanes) run one at a time through the same
// arithmetic, so every lane's LaneSetup is the same whatever its
// position in the batch.
void batch_setup(const std::uint64_t* rows, int n, std::uint64_t proc_mask,
                 std::uint64_t input_mask, std::uint64_t output_mask,
                 const std::uint64_t* fault_masks, std::size_t count,
                 LaneSetup* out);

// perfbench/ (frozen with the benchmark) is the only reason the names
// below exist: it records select_batch_kernel(0)'s name, width and ISA
// and calls its fn (test_sweep_counters mirrors that replay). Drop them
// with the next benchmark change.
using BatchSetupFn = void (*)(const std::uint64_t* rows, int n,
                              std::uint64_t proc_mask,
                              std::uint64_t input_mask,
                              std::uint64_t output_mask,
                              const std::uint64_t* fault_masks,
                              std::size_t count, LaneSetup* out);
enum class KernelIsa : std::uint8_t { kPortable };
const char* isa_name(KernelIsa isa);
struct BatchKernel {
  BatchSetupFn fn = &batch_setup;
  int width = kBatchLanes;
  const char* name = "w16";
  KernelIsa isa = KernelIsa::kPortable;
};
// Returns the one kernel; the argument is ignored.
BatchKernel select_batch_kernel(int lanes);

}  // namespace kgdp::verify::detail
