// Self-pipe for waking a thread blocked in poll(2): poke() from any
// thread — or from a signal handler — makes read_fd() readable until
// the owner drain()s it. Both ends are non-blocking and close-on-exec,
// so poke() never blocks (a full pipe already holds a pending wake) and
// drain() never waits. The owner drains *before* it looks at the shared
// state the poke announces, so a poke that lands after the look is still
// pending at the next poll.
#pragma once

namespace kgdp::util {

class WakePipe {
 public:
  // Aborts when the pipe cannot be created.
  WakePipe();
  ~WakePipe();

  WakePipe(const WakePipe&) = delete;
  WakePipe& operator=(const WakePipe&) = delete;

  int read_fd() const { return fds_[0]; }

  // Exactly one non-blocking write(2) of one byte: async-signal-safe.
  void poke() const;

  // Consumes every pending byte without waiting.
  void drain() const;

 private:
  int fds_[2] = {-1, -1};  // read end, write end
};

}  // namespace kgdp::util
