#include "net/event_loop.hpp"

#include <poll.h>

#include <algorithm>
#include <chrono>
#include <utility>

namespace kgdp::net {

void EventLoop::add(int fd, short events, IoCallback cb) {
  Entry& e = entries_[fd];
  e.events = events;
  e.cb = std::move(cb);
  e.dead = false;
}

void EventLoop::set_events(int fd, short events) {
  const auto it = entries_.find(fd);
  if (it != entries_.end()) it->second.events = events;
}

void EventLoop::remove(int fd) {
  const auto it = entries_.find(fd);
  if (it != entries_.end()) it->second.dead = true;
}

void EventLoop::post(std::function<void()> fn) {
  {
    std::lock_guard lk(post_mu_);
    posted_.push_back(std::move(fn));
  }
  wake_.poke();
}

void EventLoop::post_after(int delay_ms, std::function<void()> fn) {
  timers_.push_back(Timer{std::chrono::steady_clock::now() +
                              std::chrono::milliseconds(delay_ms),
                          std::move(fn)});
}

int EventLoop::poll_timeout_ms() const {
  if (timers_.empty()) return -1;
  auto earliest = timers_.front().when;
  for (const Timer& t : timers_) earliest = std::min(earliest, t.when);
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      earliest - std::chrono::steady_clock::now());
  return left.count() < 0 ? 0 : static_cast<int>(left.count());
}

void EventLoop::run_due_timers() {
  if (timers_.empty()) return;
  const auto now = std::chrono::steady_clock::now();
  // Collect first, fire second: a timer may post_after another timer.
  std::vector<Timer> due;
  for (auto it = timers_.begin(); it != timers_.end();) {
    if (it->when <= now) {
      due.push_back(std::move(*it));
      it = timers_.erase(it);
    } else {
      ++it;
    }
  }
  for (Timer& t : due) t.fn();
}

void EventLoop::stop() {
  post([this] { stop_requested_ = true; });
}

void EventLoop::run_posted() {
  // Swap under the lock; run outside it (tasks may post more tasks,
  // which land in the next swap).
  while (true) {
    std::vector<std::function<void()>> batch;
    {
      std::lock_guard lk(post_mu_);
      batch.swap(posted_);
    }
    if (batch.empty()) return;
    for (auto& fn : batch) fn();
  }
}

void EventLoop::run() {
  running_ = true;
  stop_requested_ = false;
  std::vector<pollfd> pfds;
  while (!stop_requested_) {
    // Sweep entries removed during the previous dispatch.
    for (auto it = entries_.begin(); it != entries_.end();) {
      it = it->second.dead ? entries_.erase(it) : std::next(it);
    }

    pfds.clear();
    pfds.push_back(pollfd{wake_.read_fd(), POLLIN, 0});
    for (const auto& [fd, entry] : entries_) {
      if (entry.events != 0) pfds.push_back(pollfd{fd, entry.events, 0});
    }

    const int ready = ::poll(pfds.data(), pfds.size(), poll_timeout_ms());
    if (ready < 0) continue;  // EINTR: fall through to the posted queue

    if (pfds[0].revents != 0) wake_.drain();
    for (std::size_t i = 1; i < pfds.size(); ++i) {
      if (pfds[i].revents == 0) continue;
      const auto it = entries_.find(pfds[i].fd);
      if (it == entries_.end() || it->second.dead) continue;
      it->second.cb(pfds[i].revents);
    }
    run_due_timers();
    run_posted();
  }
  running_ = false;
}

}  // namespace kgdp::net
