// Fleet coordinator: splits one exhaustive certification (and, via
// campaign::run_campaign_fleet, whole (n, k) grids) into shard leases —
// contiguous orbit-slot ranges fenced by (lease id, epoch) — dispatched
// to remote kgdd workers through the `lease`/`lease.release` wire
// methods, then merges the completed slices bit-identically to a
// single-node run (verify::merge_lease_results).
//
// Control model: WorkerPool threads own the sockets and deliver frames/
// connects/losses as callbacks; the coordinator serializes everything
// under one mutex and makes every scheduling decision (grant, steal,
// requeue, heartbeat kick) in run_instance's pump loop, so the policy
// reads as straight-line code:
//
//   * a dead or silent worker's lease is requeued to resume from its
//     last streamed cursor, under a bumped epoch that fences any frame
//     the old assignment might still emit;
//   * when the queue is dry and a worker sits idle, the lease with the
//     largest unswept remainder is split: the victim truncates at the
//     next chunk boundary (confirmed via lease.release applied:true —
//     never assumed) and the stolen tail becomes a fresh lease;
//   * a worker whose reconnect budget is exhausted is written off; the
//     run fails only when every worker is gone with work outstanding.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/telemetry.hpp"
#include "fleet/worker_pool.hpp"
#include "kgd/labeled_graph.hpp"
#include "service/protocol.hpp"
#include "util/timer.hpp"
#include "verify/check_session.hpp"

namespace kgdp::fleet {

// Thrown by run_instance when every worker is permanently written off
// (or has left) with leases outstanding and no registration listener is
// accepting replacements — the one unrecoverable fleet state. Distinct
// from std::runtime_error so callers can map it to a documented exit
// code instead of a bare throw.
class AllWorkersDeadError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct FleetConfig {
  std::vector<net::Endpoint> workers;
  // Worker-side items per advance (progress/cursor cadence).
  std::uint64_t chunk = 512;
  // Target initial leases per worker; finer grain = cheaper recovery
  // and better load balance, at more per-lease overhead.
  std::uint64_t lease_grain = 4;
  // Never split a remainder smaller than this (steal overhead floor).
  std::uint64_t min_steal_items = 256;
  // An active lease whose worker streams nothing for this long is
  // presumed lost: the connection is kicked and the lease requeued.
  // It is also the pump's only timer: frames leave the moment they are
  // queued, and every other state change wakes the pump directly.
  int heartbeat_timeout_ms = 10000;
  // Per-outage reconnect schedule (exhaustion = worker written off).
  util::BackoffPolicy reconnect;
  // Durable lease-table checkpoint (fleet/checkpoint.hpp), written on
  // every lease-state transition; empty disables. A coordinator
  // restarted on the same path resumes the in-flight instance from it:
  // done leases keep their results, unfinished leases re-enter the
  // queue at their last streamed cursor and are re-fenced at a
  // strictly higher epoch on their next grant.
  std::string checkpoint_path;
  // Test hook: observes every serialized checkpoint payload (called
  // under the coordinator mutex, also when checkpoint_path is empty).
  // Each payload is exactly the state a SIGKILL after that transition
  // would leave on disk, so a resume sweep can replay them all.
  std::function<void(const std::string&)> checkpoint_observer;
  // Registration listener for elastic membership: workers attach with
  // `fleet.join` / detach with `fleet.leave` (schema v5). With a
  // listener the worker list may start empty, and the coordinator
  // waits for joiners instead of declaring the fleet dead.
  std::optional<net::Endpoint> listen;
};

// Per-instance accounting alongside the merged verdict.
struct InstanceOutcome {
  verify::CheckResult result;
  std::uint64_t leases_planned = 0;
  std::uint64_t leases_stolen = 0;      // successful steal splits
  std::uint64_t leases_reassigned = 0;  // requeues of orphaned leases
  std::uint64_t workers_lost = 0;       // connection losses observed
  // Crash-resume: true when the instance was rebuilt from a durable
  // checkpoint; generation counts coordinator incarnations (0 = first).
  bool resumed = false;
  std::uint64_t generation = 0;
  // Per worker (configured + joined): solver invocations / leases done.
  std::vector<std::uint64_t> per_worker_solved;
  std::vector<std::uint64_t> per_worker_leases;
};

class Coordinator {
 public:
  // Telemetry (nullable) receives lease_granted / lease_stolen /
  // worker_dead / merge_done JSONL events; all emits are serialized on
  // the coordinator mutex. Throws std::invalid_argument on an empty
  // worker list.
  explicit Coordinator(FleetConfig config,
                       campaign::TelemetryWriter* telemetry = nullptr);
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  // Certifies GD(sg, max_faults) across the fleet: plans the lease
  // partition (or resumes it from the durable checkpoint), drives it to
  // completion (stealing and reassigning as workers slow down or die),
  // and returns the merged result — bit-identical to run_check on one
  // node with the same prune mode. Throws AllWorkersDeadError when
  // every worker is permanently down with leases outstanding and no
  // listener is open for joiners. Workers persist across calls.
  InstanceOutcome run_instance(const kgd::SolutionGraph& sg, int n, int k,
                               int max_faults, verify::PruneMode prune);

  // Serialized telemetry emit for callers sharing the writer (the
  // fleet campaign runner), so their events never interleave a
  // callback's mid-line.
  void emit_telemetry(const std::string& event, io::JsonObject fields);

  int worker_count() const { return pool_->size(); }
  const net::Endpoint& worker_endpoint(int w) const {
    return pool_->endpoint(w);
  }

  // The registration listener's resolved TCP port (ephemeral binds),
  // -1 without a TCP listener.
  int listen_tcp_port() const { return listen_port_; }

 private:
  enum class LeaseStatus { kQueued, kActive, kDone };

  struct Lease {
    std::uint64_t begin = 0, end = 0;  // end shrinks when stolen from
    std::uint64_t epoch = 0;           // bumped on every grant
    LeaseStatus status = LeaseStatus::kQueued;
    int worker = -1;
    std::string cursor;  // last streamed; the reassignment point
    std::uint64_t items_done = 0;
    bool steal_pending = false;  // a truncation handshake is in flight
    // Loaded from a crash checkpoint and not yet re-granted: the next
    // grant re-fences it (strictly higher epoch) and says so.
    bool refenced = false;
    verify::CheckResult result;  // valid once kDone
    util::Timer last_frame;      // heartbeat age while active
  };

  struct WorkerState {
    bool connected = false;
    bool permanently_down = false;
    // fleet.leave accepted: drains at its next chunk boundary and is
    // never granted to again (indices stay stable; no erasure).
    bool decommissioned = false;
    // Joined live; announce fleet.join to the daemon when connected.
    bool announce_join = false;
    int active_lease = -1;
    std::uint64_t solved = 0;
    std::uint64_t leases_done = 0;
  };

  // WorkerPool callbacks (worker threads; lock mu_).
  void on_connected(int w);
  void on_frame(int w, io::Json frame);
  void on_down(int w, const std::string& reason, bool permanent);

  // Registration listener (elastic membership).
  void run_listener();
  void serve_registration(net::Fd conn);
  io::Json handle_registration_locked(const service::Envelope& env);

  // All _locked helpers require mu_ held.
  void pump_locked();
  bool grant_locked(std::size_t li, int w);
  void requeue_locked(std::size_t li, const char* why);
  void maybe_steal_locked();
  void handle_release_reply_locked(std::size_t li, const io::Json& frame);
  void emit_locked(const std::string& event, io::JsonObject fields);
  std::size_t lease_from_frame_locked(const io::Json& frame, int w,
                                      bool* current);
  bool all_done_locked() const;
  // Milliseconds until the earliest active lease's heartbeat deadline;
  // negative when no lease is active (the pump then waits untimed).
  double heartbeat_wait_ms_locked() const;
  bool all_workers_dead_locked() const;
  // Serializes the lease table and writes it durably (+ observer).
  // Failures set fatal_ instead of throwing: callers sit on worker
  // threads that must not unwind.
  void checkpoint_locked();
  // Rebuilds the lease table from the checkpoint; false = start fresh.
  bool try_resume_locked(const std::string& prune_str, std::uint64_t total);

  FleetConfig config_;
  campaign::TelemetryWriter* telemetry_;
  std::unique_ptr<WorkerPool> pool_;

  // Registration listener (only when config_.listen is set).
  net::Fd listen_fd_;
  std::thread listener_;
  std::atomic<bool> listen_stop_{false};
  int listen_port_ = -1;
  std::uint64_t registrations_ = 0;  // req-id source for replies

  std::mutex mu_;
  std::condition_variable cv_;
  bool run_active_ = false;
  std::string fatal_;
  bool fatal_all_dead_ = false;
  // Grant parameters of the live instance.
  int n_ = 0, k_ = 0, max_faults_ = 0;
  verify::PruneMode prune_ = verify::PruneMode::kAuto;
  std::uint64_t total_ = 0;       // num_orbits (checkpoint identity)
  std::uint64_t generation_ = 0;  // coordinator incarnations
  bool resumed_run_ = false;
  std::vector<Lease> leases_;       // lease id "L<index>"
  std::deque<std::size_t> queue_;   // grantable lease indices
  std::vector<WorkerState> workers_;
  std::uint64_t stolen_ = 0, reassigned_ = 0, lost_ = 0;
};

}  // namespace kgdp::fleet
