#include "fleet/worker_pool.hpp"

#include <poll.h>

#include <thread>
#include <utility>

#include "net/client.hpp"
#include "util/wake_pipe.hpp"

namespace kgdp::fleet {

struct WorkerPool::Worker {
  net::Endpoint endpoint;
  std::thread thread;

  mutable std::mutex mu;
  // Poked by send, kick and stop; ends the thread's connected read,
  // backoff sleep or parked wait at once.
  util::WakePipe wake;
  std::deque<std::string> outbox;  // serialized frames, sent in order
  bool stop = false;
  bool kicked = false;
  // Written by the worker thread, read by send()/stats() under mu.
  bool connected = false;
  bool permanently_down = false;
  std::uint64_t connects = 0;
  std::uint64_t disconnects = 0;

  // Sleeps on the wake pipe until stop() or the deadline, whichever
  // comes first; true once stop is set. A poke from send or kick ends
  // the poll early and the sleep resumes.
  bool wait_for_stop(const net::Deadline& deadline) {
    while (true) {
      wake.drain();
      {
        std::lock_guard<std::mutex> lock(mu);
        if (stop) return true;
      }
      if (deadline.expired()) return false;
      pollfd pfd{wake.read_fd(), POLLIN, 0};
      ::poll(&pfd, 1, deadline.remaining_ms());
    }
  }
};

WorkerPool::WorkerPool(std::vector<net::Endpoint> endpoints,
                       WorkerPoolConfig config, Callbacks callbacks)
    : config_(config), callbacks_(std::move(callbacks)) {
  workers_.reserve(endpoints.size());
  for (net::Endpoint& ep : endpoints) {
    auto w = std::make_unique<Worker>();
    w->endpoint = std::move(ep);
    workers_.push_back(std::move(w));
  }
  for (int i = 0; i < size(); ++i) {
    workers_[static_cast<std::size_t>(i)]->thread =
        std::thread([this, i] { run_worker(i); });
  }
}

WorkerPool::~WorkerPool() {
  stop();
  std::vector<Worker*> snapshot;
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    for (auto& w : workers_) snapshot.push_back(w.get());
  }
  for (Worker* w : snapshot) {
    if (w->thread.joinable()) w->thread.join();
  }
}

WorkerPool::Worker* WorkerPool::at(int worker) const {
  std::lock_guard<std::mutex> lock(pool_mu_);
  return workers_.at(static_cast<std::size_t>(worker)).get();
}

int WorkerPool::size() const {
  std::lock_guard<std::mutex> lock(pool_mu_);
  return static_cast<int>(workers_.size());
}

int WorkerPool::add_worker(net::Endpoint ep) {
  std::lock_guard<std::mutex> lock(pool_mu_);
  if (stopped_) return -1;
  auto w = std::make_unique<Worker>();
  w->endpoint = std::move(ep);
  workers_.push_back(std::move(w));
  const int index = static_cast<int>(workers_.size()) - 1;
  workers_.back()->thread = std::thread([this, index] { run_worker(index); });
  return index;
}

const net::Endpoint& WorkerPool::endpoint(int worker) const {
  return at(worker)->endpoint;
}

bool WorkerPool::send(int worker, io::Json frame) {
  Worker& w = *at(worker);
  std::lock_guard<std::mutex> lock(w.mu);
  if (!w.connected || w.stop) return false;
  w.outbox.push_back(frame.dump());
  w.wake.poke();
  return true;
}

void WorkerPool::kick(int worker) {
  Worker& w = *at(worker);
  std::lock_guard<std::mutex> lock(w.mu);
  w.kicked = true;
  w.wake.poke();
}

void WorkerPool::stop() {
  std::vector<Worker*> snapshot;
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    stopped_ = true;
    for (auto& w : workers_) snapshot.push_back(w.get());
  }
  for (Worker* w : snapshot) {
    std::lock_guard<std::mutex> lock(w->mu);
    w->stop = true;
    w->wake.poke();
  }
}

WorkerPool::WorkerStats WorkerPool::stats(int worker) const {
  const Worker& w = *at(worker);
  std::lock_guard<std::mutex> lock(w.mu);
  WorkerStats s;
  s.connects = w.connects;
  s.disconnects = w.disconnects;
  s.connected = w.connected;
  s.permanently_down = w.permanently_down;
  return s;
}

void WorkerPool::run_worker(int worker) {
  Worker& w = *at(worker);
  util::Backoff backoff(config_.reconnect);
  while (true) {
    // --- connect phase, bounded backoff per outage ---
    std::optional<net::Client> client;
    while (true) {
      {
        std::lock_guard<std::mutex> lock(w.mu);
        if (w.stop) return;
        w.kicked = false;
      }
      std::string error;
      int connect_errno = 0;
      client = net::Client::connect(w.endpoint, &error, &connect_errno);
      if (client.has_value()) break;
      int delay_ms = 0;
      if (!backoff.next_delay(&delay_ms)) {
        {
          std::lock_guard<std::mutex> lock(w.mu);
          w.permanently_down = true;
        }
        if (callbacks_.on_down) {
          callbacks_.on_down(
              worker,
              "reconnect budget exhausted after " +
                  std::to_string(backoff.attempts()) + " attempts over " +
                  std::to_string(backoff.elapsed_ms()) + " ms: " + error +
                  " (errno " + std::to_string(connect_errno) + ")",
              /*permanent=*/true);
        }
        // Park until stop: a permanently down worker never resurrects
        // inside one run (the coordinator has re-planned around it).
        w.wait_for_stop(net::Deadline::never());
        return;
      }
      if (w.wait_for_stop(net::Deadline::after_ms(delay_ms))) return;
    }

    {
      std::lock_guard<std::mutex> lock(w.mu);
      w.connected = true;
      w.outbox.clear();  // frames addressed to a previous connection
      ++w.connects;
    }
    backoff.reset();
    if (callbacks_.on_connected) callbacks_.on_connected(worker);

    // --- connected I/O loop ---
    std::string down_reason;
    while (true) {
      // Drain before reading the mailbox: a poke that lands after the
      // swap below stays pending and ends the read at once.
      w.wake.drain();
      std::deque<std::string> to_send;
      {
        std::lock_guard<std::mutex> lock(w.mu);
        if (w.stop) return;
        if (w.kicked) {
          down_reason = "kicked (heartbeat deadline expired)";
          break;
        }
        to_send.swap(w.outbox);
      }
      bool send_failed = false;
      for (const std::string& frame : to_send) {
        std::string error;
        if (!client->send_line(frame, &error)) {
          down_reason = "send failed: " + error;
          send_failed = true;
          break;
        }
      }
      if (send_failed) break;
      net::Client::ReadResult res =
          client->read_frame_by(net::Deadline::never(), w.wake.read_fd());
      if (res.status == net::ReadStatus::kWoken) continue;
      if (res.status != net::ReadStatus::kOk) {
        down_reason = "read failed: " + res.error;
        break;
      }
      io::Json frame;
      try {
        frame = io::Json::parse(res.frame);
      } catch (const io::JsonParseError& e) {
        down_reason = std::string("protocol error: ") + e.what();
        break;
      }
      if (callbacks_.on_frame) callbacks_.on_frame(worker, std::move(frame));
    }

    client.reset();  // close before reporting, so a re-grant can't race us
    {
      std::lock_guard<std::mutex> lock(w.mu);
      w.connected = false;
      w.outbox.clear();
      ++w.disconnects;
      if (w.stop) return;
    }
    if (callbacks_.on_down) {
      callbacks_.on_down(worker, down_reason, /*permanent=*/false);
    }
  }
}

}  // namespace kgdp::fleet
