// Deterministic I/O fault injection for the durable-file layer. Every
// syscall `util::durable_write_file` makes (open/write/fsync/link/
// unlink/rename) is routed through the process-wide FaultInjector,
// which is disarmed by default — one relaxed atomic load and a
// predicted branch per call — and can be armed two ways:
//
//  * programmatically (the chaos tests): `arm(spec)` with
//    `abort_on_crash = false`, where a tripped crash point *simulates*
//    a kill — the tripping op and every later intercepted op fail with
//    EIO and no side effects, freezing the on-disk state exactly as a
//    real SIGKILL at that instruction would — and the caller observes
//    the failure as a thrown write error;
//  * via the environment (`KGDP_IO_FAULTS=seed:spec[,spec...]`), in
//    which case a crash point really does abort the process, so shell
//    drills can kill a live daemon or campaign at a chosen syscall.
//
// Spec grammar (comma-separated items after the decimal seed):
//   crash@N   simulate/abort at the Nth intercepted op (0-based)
//   enospc@N  fail exactly op N with ENOSPC (no side effect)
//   eio@N     fail exactly op N with EIO (no side effect)
//   short@N   op N, if a write, transfers only half its bytes
//   enospc=P / eio=P / short=P
//             per-op probability in [0,1], drawn from the seeded rng
//
// All faults are deterministic given (seed, spec, op sequence), so a
// failing sweep reproduces from its log line.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <mutex>
#include <optional>
#include <string>

#include "util/rng.hpp"

namespace kgdp::util {

// One action name of a "seed:spec" grammar and where its values land:
// `name@N` stores N in *at, `name=P` stores P (in [0,1]) in *prob. A
// nullptr target rejects that form for the name.
struct FaultSpecAction {
  const char* name;
  std::int64_t* at;
  double* prob;
};

// Parses "seed:item[,item...]" — a decimal seed, then comma-separated
// `name@N` / `name=P` items over the given actions — into *seed and the
// action targets. Returns false on any malformed or unknown item. Shared
// by the I/O injector below and net::FaultInjector.
bool parse_fault_spec(const std::string& text, std::uint64_t* seed,
                      std::initializer_list<FaultSpecAction> actions);

struct FaultSpec {
  std::uint64_t seed = 1;
  // One-shot faults by 0-based intercepted-op index; -1 = never.
  std::int64_t crash_at = -1;
  std::int64_t enospc_at = -1;
  std::int64_t eio_at = -1;
  std::int64_t short_at = -1;
  // Per-op probabilities in [0, 1].
  double p_enospc = 0.0;
  double p_eio = 0.0;
  double p_short = 0.0;

  // Parses "seed:spec[,spec...]" (the KGDP_IO_FAULTS grammar). Returns
  // nullopt on any malformed item.
  static std::optional<FaultSpec> parse(const std::string& text);
};

class FaultInjector {
 public:
  // Process-wide instance; the first call arms from KGDP_IO_FAULTS if
  // the variable is set and parses (with abort_on_crash = true).
  static FaultInjector& instance();

  // (Re)arms with the given spec and resets the op counter and rng.
  void arm(const FaultSpec& spec);
  void disarm();
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  // True once a crash point tripped in simulate mode.
  bool crashed() const { return crashed_.load(std::memory_order_relaxed); }
  // Intercepted ops since the last arm().
  std::uint64_t ops() const { return ops_.load(std::memory_order_relaxed); }
  // env-armed crashes abort the process; test-armed crashes simulate.
  void set_abort_on_crash(bool abort_process);

  // Syscall shims: byte-compatible with the POSIX calls they wrap
  // (return -1 and set errno on failure). Disarmed, they pass through.
  int open(const char* path, int flags, unsigned mode);
  ssize_t write(int fd, const void* buf, std::size_t n);
  int fsync(int fd);
  int link(const char* from, const char* to);
  int unlink(const char* path);
  int rename(const char* from, const char* to);

 private:
  FaultInjector() = default;

  // Decides the fate of one intercepted op. Returns 0 to pass through,
  // an errno value to fail the op side-effect-free, or kShort to
  // truncate a write.
  static constexpr int kShort = -1;
  int next_fault(bool is_write);

  std::atomic<bool> enabled_{false};
  std::atomic<bool> crashed_{false};
  std::atomic<std::uint64_t> ops_{0};
  bool abort_on_crash_ = false;
  FaultSpec spec_;
  Rng rng_{1};
  std::mutex mu_;
};

}  // namespace kgdp::util
