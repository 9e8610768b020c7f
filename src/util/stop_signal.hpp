// Process-wide SIGINT/SIGTERM latch on the self-pipe pattern. The
// handler does only async-signal-safe work (set a sig_atomic_t flag,
// WakePipe::poke's one non-blocking write(2)), so both polling callers
// (`kgd_cli campaign run` checks requested() between chunks) and
// poll(2)-based callers (the kgdd event loop watches fd()) share one
// implementation. Signal dispositions are process-global state, hence
// the singleton.
#pragma once

#include <csignal>

#include "util/wake_pipe.hpp"

namespace kgdp::util {

class StopSignal {
 public:
  static StopSignal& instance();

  // Installs the SIGINT and SIGTERM handlers (idempotent). Must be
  // called before relying on requested()/fd().
  void install();

  // True once any handled signal (or request_stop) fired.
  bool requested() const { return flag_ != 0; }

  // Read end of the self-pipe: becomes readable when a signal fires.
  // Level-triggered until drain() is called.
  int fd() const { return pipe_.read_fd(); }

  // Programmatic trigger taking the exact signal-handler path; used by
  // tests and by in-process daemon drains.
  void request_stop();

  // Clears the latch and empties the pipe (tests re-arming the latch).
  void reset();

  // Consumes pending pipe bytes without clearing the flag (event loops
  // that want one wakeup per signal burst).
  void drain_pipe() { pipe_.drain(); }

 private:
  StopSignal() = default;
  StopSignal(const StopSignal&) = delete;
  StopSignal& operator=(const StopSignal&) = delete;

  static void handler(int signum);

  volatile std::sig_atomic_t flag_ = 0;
  WakePipe pipe_;
  bool installed_ = false;
};

}  // namespace kgdp::util
