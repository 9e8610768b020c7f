// Connection keeper for the certification fleet: one thread per remote
// kgdd worker owning a blocking net::Client (connect, send, read all on
// that thread — the client is not thread-safe), with bounded-backoff
// reconnect (util::Backoff) across outages. The pool is transport only:
// it surfaces connects, inbound frames, and losses through callbacks
// and queues outbound frames per worker; every scheduling decision
// (grants, steals, reassignment, heartbeat deadlines) lives in
// fleet::Coordinator, which serializes the callbacks under its own
// lock. Callbacks fire on worker threads. The transport is
// event-driven: a connected thread blocks in one poll(2) on its socket
// and a per-worker wake pipe, so send(), kick() and stop() take effect
// at once instead of at the next read timeout.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "io/json.hpp"
#include "net/socket.hpp"
#include "util/backoff.hpp"

namespace kgdp::fleet {

struct WorkerPoolConfig {
  // Reconnect schedule per outage (reset after each successful
  // connect); exhausting it marks the worker permanently down.
  util::BackoffPolicy reconnect;
};

class WorkerPool {
 public:
  struct Callbacks {
    // All invoked on the worker's own thread; the receiver serializes.
    std::function<void(int worker)> on_connected;
    std::function<void(int worker, io::Json frame)> on_frame;
    // The connection dropped. permanent=false: an outage, the thread is
    // about to retry with backoff. permanent=true: the reconnect budget
    // is spent and the thread has parked for good.
    std::function<void(int worker, const std::string& reason,
                       bool permanent)> on_down;
  };

  WorkerPool(std::vector<net::Endpoint> endpoints, WorkerPoolConfig config,
             Callbacks callbacks);
  ~WorkerPool();  // stop() + join

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int size() const;
  const net::Endpoint& endpoint(int worker) const;

  // Grows the pool live (elastic membership): appends a worker for `ep`
  // and starts its connection thread. Indices are stable — a worker is
  // never removed, only decommissioned by the coordinator — so the
  // returned index is the worker's identity for its lifetime. Returns
  // -1 after stop().
  int add_worker(net::Endpoint ep);

  // Queues one frame on worker w's connection (its thread wakes and
  // sends in order). False when the worker is not currently connected
  // — queued frames never outlive a connection, so the caller must
  // re-plan, not retry blindly.
  bool send(int worker, io::Json frame);

  // Makes worker w's thread drop its connection now — the
  // coordinator's heartbeat-timeout teeth. The thread reconnects
  // with a fresh backoff; on_down(transient) fires as for any outage.
  void kick(int worker);

  // Stops every thread (current connections close; no more callbacks
  // after join). Idempotent; also run by the destructor.
  void stop();

  struct WorkerStats {
    std::uint64_t connects = 0;
    std::uint64_t disconnects = 0;
    bool connected = false;
    bool permanently_down = false;
  };
  WorkerStats stats(int worker) const;

 private:
  struct Worker;
  void run_worker(int worker);
  Worker* at(int worker) const;

  WorkerPoolConfig config_;
  Callbacks callbacks_;
  // Guards the vector's structure (add_worker appends live). Worker
  // objects themselves are behind stable unique_ptrs and carry their
  // own mutex, so callers hold pool_mu_ only to resolve an index.
  mutable std::mutex pool_mu_;
  bool stopped_ = false;
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace kgdp::fleet
