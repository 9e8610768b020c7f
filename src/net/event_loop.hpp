// Portable poll(2)-based event loop, single-threaded by design: every
// fd callback and every posted task runs on the thread inside run().
// Worker threads hand results back with post(), which is the only
// thread-safe entry point (it wakes the loop through a self-pipe).
// Deliberately simple — a rebuild-the-pollfd-vector-per-iteration loop
// is far below the crossover where epoll wins at the connection counts a
// certification daemon sees, and it runs identically on every POSIX.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <vector>

#include "util/wake_pipe.hpp"

namespace kgdp::net {

class EventLoop {
 public:
  // Receives the poll revents bitmask that fired for the fd.
  using IoCallback = std::function<void(short)>;

  EventLoop() = default;

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Registers fd with the given poll events (POLLIN/POLLOUT). The loop
  // never owns the fd. Loop-thread only (as are set_events/remove).
  void add(int fd, short events, IoCallback cb);
  void set_events(int fd, short events);
  void remove(int fd);
  bool watching(int fd) const { return entries_.count(fd) != 0; }

  // Enqueue fn to run on the loop thread; safe from any thread. Tasks
  // posted from the loop thread itself run later in the same iteration.
  void post(std::function<void()> fn);

  // Runs fn on the loop thread no earlier than delay_ms from now (the
  // poll timeout is bounded by the nearest deadline). Loop-thread only,
  // or before run(). Used for backoff re-arms, not fine-grained timing.
  void post_after(int delay_ms, std::function<void()> fn);

  // Runs until stop(). Dispatches IO, then drained posted tasks.
  void run();

  // Thread-safe: makes run() return after the current iteration.
  void stop();

  bool running() const { return running_; }

 private:
  void run_posted();

  struct Entry {
    short events = 0;
    IoCallback cb;
    bool dead = false;  // removed mid-dispatch; swept after the iteration
  };

  struct Timer {
    std::chrono::steady_clock::time_point when;
    std::function<void()> fn;
  };

  int poll_timeout_ms() const;
  void run_due_timers();

  std::map<int, Entry> entries_;
  std::vector<Timer> timers_;
  util::WakePipe wake_;
  bool running_ = false;
  bool stop_requested_ = false;

  std::mutex post_mu_;
  std::vector<std::function<void()>> posted_;
};

}  // namespace kgdp::net
