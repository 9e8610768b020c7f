// The batch setup kernel. Branchless over lanes so the inner loop
// vectorizes: a node v is a legal start iff it is a healthy processor
// with at least one healthy input-terminal neighbor, and symmetrically
// for ends.
#include "verify/batch_kernels.hpp"

namespace kgdp::verify::detail {

void batch_setup(const std::uint64_t* rows, int n, std::uint64_t proc_mask,
                 std::uint64_t input_mask, std::uint64_t output_mask,
                 const std::uint64_t* fault_masks, std::size_t count,
                 LaneSetup* out) {
  constexpr int W = kBatchLanes;
  std::size_t i = 0;
  for (; i + W <= count; i += W) {
    std::uint64_t keep[W], in_ok[W], out_ok[W], starts[W], ends[W];
    for (int l = 0; l < W; ++l) {
      const std::uint64_t healthy = ~fault_masks[i + l];
      keep[l] = proc_mask & healthy;
      in_ok[l] = input_mask & healthy;
      out_ok[l] = output_mask & healthy;
      starts[l] = 0;
      ends[l] = 0;
    }
    for (int v = 0; v < n; ++v) {
      const std::uint64_t row = rows[v];
      const std::uint64_t bit = std::uint64_t{1} << v;
      for (int l = 0; l < W; ++l) {
        const std::uint64_t has_in =
            -static_cast<std::uint64_t>((row & in_ok[l]) != 0);
        const std::uint64_t has_out =
            -static_cast<std::uint64_t>((row & out_ok[l]) != 0);
        starts[l] |= keep[l] & bit & has_in;
        ends[l] |= keep[l] & bit & has_out;
      }
    }
    // Walk-first seeding, still W-wide and branchless: the splitmix seed
    // is a multiply-add on the fault mask, the first-restart start is
    // the lowest start bit (x & -x).
    for (int l = 0; l < W; ++l) {
      out[i + l] = LaneSetup{keep[l],   in_ok[l],
                             out_ok[l], starts[l],
                             ends[l],   walk_seed_mix(fault_masks[i + l]),
                             starts[l] & (~starts[l] + 1)};
    }
  }
  // Tail lanes, one at a time (same arithmetic, so still bit-identical).
  for (; i < count; ++i) {
    const std::uint64_t healthy = ~fault_masks[i];
    LaneSetup s;
    s.keep = proc_mask & healthy;
    s.in_ok = input_mask & healthy;
    s.out_ok = output_mask & healthy;
    for (int v = 0; v < n; ++v) {
      const std::uint64_t row = rows[v];
      const std::uint64_t bit = std::uint64_t{1} << v;
      if (s.keep & bit) {
        if (row & s.in_ok) s.starts |= bit;
        if (row & s.out_ok) s.ends |= bit;
      }
    }
    s.seed = walk_seed_mix(fault_masks[i]);
    s.start_bit = s.starts & (~s.starts + 1);
    out[i] = s;
  }
}

const char* isa_name(KernelIsa) { return "portable"; }

BatchKernel select_batch_kernel(int) { return {}; }

}  // namespace kgdp::verify::detail
