#include "fleet/coordinator.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "campaign/checkpoint.hpp"
#include "fault/orbit_enumerator.hpp"
#include "fleet/checkpoint.hpp"
#include "graph/automorphism.hpp"
#include "net/framing.hpp"
#include "util/durable_file.hpp"
#include "util/log.hpp"

// GCC 12 reports -Wrestrict false positives inside libstdc++'s inlined
// std::string operator+ and assignment (GCC bug 105329); the string
// building in this file is ordinary.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wrestrict"
#endif

namespace kgdp::fleet {
namespace {

std::string lease_name(std::size_t li) { return "L" + std::to_string(li); }

// Tags are "g-L<i>-<epoch>" (grant) / "r-L<i>-<epoch>" (release): error
// frames carry no lease body fields, so the tag is the only route back
// to the assignment that failed. Returns false on foreign tags.
bool parse_tag(const std::string& tag, char* op, std::size_t* li,
               std::uint64_t* epoch) {
  if (tag.size() < 6 || tag[1] != '-' || (tag[0] != 'g' && tag[0] != 'r')) {
    return false;
  }
  const std::size_t dash = tag.rfind('-');
  if (dash < 3 || tag[2] != 'L') return false;
  try {
    *li = std::stoull(tag.substr(3, dash - 3));
    *epoch = std::stoull(tag.substr(dash + 1));
  } catch (const std::exception&) {
    return false;
  }
  *op = tag[0];
  return true;
}

std::uint64_t field_u64(const io::Json& frame, const char* key,
                        std::uint64_t fallback = 0) {
  const io::Json* v = frame.find(key);
  if (v == nullptr || !v->is_int()) return fallback;
  const std::int64_t raw = v->as_int();
  return raw < 0 ? fallback : static_cast<std::uint64_t>(raw);
}

std::string field_str(const io::Json& frame, const char* key) {
  const io::Json* v = frame.find(key);
  return (v != nullptr && v->is_string()) ? v->as_string() : std::string();
}

}  // namespace

Coordinator::Coordinator(FleetConfig config,
                         campaign::TelemetryWriter* telemetry)
    : config_(std::move(config)), telemetry_(telemetry) {
  if (config_.workers.empty() && !config_.listen.has_value()) {
    throw std::invalid_argument("fleet: no worker endpoints");
  }
  if (config_.chunk == 0) config_.chunk = 1;
  if (config_.lease_grain == 0) config_.lease_grain = 1;
  if (config_.min_steal_items < 2) config_.min_steal_items = 2;
  workers_.resize(config_.workers.size());
  WorkerPoolConfig pool_config;
  pool_config.reconnect = config_.reconnect;
  WorkerPool::Callbacks callbacks;
  callbacks.on_connected = [this](int w) { on_connected(w); };
  callbacks.on_frame = [this](int w, io::Json&& frame) {
    on_frame(w, std::move(frame));
  };
  callbacks.on_down = [this](int w, const std::string& reason,
                             bool permanent) {
    on_down(w, reason, permanent);
  };
  pool_ = std::make_unique<WorkerPool>(config_.workers, pool_config,
                                       std::move(callbacks));
  if (config_.listen.has_value()) {
    std::string error;
    listen_fd_ = net::listen_endpoint(*config_.listen, 16, &error);
    if (!listen_fd_.valid()) {
      pool_->stop();
      pool_.reset();
      throw std::runtime_error("fleet: registration listener: " + error);
    }
    if (config_.listen->kind == net::Endpoint::Kind::kTcp) {
      listen_port_ = net::local_tcp_port(listen_fd_.get());
    }
    listener_ = std::thread([this] { run_listener(); });
  }
}

Coordinator::~Coordinator() {
  // Stop the listener first (it calls pool_->add_worker and locks mu_),
  // then the pool before members die: callbacks lock mu_ and touch
  // leases_, so no callback may outlive this object.
  listen_stop_.store(true, std::memory_order_relaxed);
  if (listener_.joinable()) listener_.join();
  pool_->stop();
  pool_.reset();
}

void Coordinator::emit_telemetry(const std::string& event,
                                 io::JsonObject fields) {
  std::lock_guard<std::mutex> lock(mu_);
  emit_locked(event, std::move(fields));
}

void Coordinator::emit_locked(const std::string& event,
                              io::JsonObject fields) {
  if (telemetry_ != nullptr) telemetry_->emit(event, std::move(fields));
}

InstanceOutcome Coordinator::run_instance(const kgd::SolutionGraph& sg,
                                          int n, int k, int max_faults,
                                          verify::PruneMode prune) {
  // Plan the initial partition against the same enumeration geometry the
  // workers will build (the lease ranges are orbit-slot indices, so both
  // sides must agree on num_orbits).
  const graph::AutomorphismList autos =
      prune == verify::PruneMode::kAuto ? graph::solution_automorphisms(sg)
                                        : graph::AutomorphismList{};
  const fault::OrbitEnumerator orbits(sg.num_nodes(), max_faults, autos);
  const std::uint64_t total = orbits.num_orbits();

  std::unique_lock<std::mutex> lock(mu_);
  n_ = n;
  k_ = k;
  max_faults_ = max_faults;
  prune_ = prune;
  total_ = total;
  fatal_.clear();
  fatal_all_dead_ = false;
  stolen_ = reassigned_ = lost_ = 0;
  for (WorkerState& ws : workers_) {
    // decommissioned survives across instances: a leaver stays left.
    ws.active_lease = -1;
    ws.solved = 0;
    ws.leases_done = 0;
  }
  const std::string prune_str =
      prune == verify::PruneMode::kAuto ? "auto" : "off";
  resumed_run_ = try_resume_locked(prune_str, total);
  std::uint64_t planned = 0;
  if (resumed_run_) {
    planned = leases_.size();
  } else {
    generation_ = 0;
    leases_.clear();
    queue_.clear();
    // With a registration listener the pool may still be empty; plan
    // for at least one worker so joiners find a queue to drain.
    const std::uint64_t pool_size =
        std::max<std::uint64_t>(1, workers_.size());
    const std::uint64_t want = pool_size * config_.lease_grain;
    planned = std::max<std::uint64_t>(
        1, std::min(want, std::max<std::uint64_t>(total, 1)));
    leases_.resize(planned);
    for (std::uint32_t i = 0; i < planned; ++i) {
      const auto range = verify::CheckSession::shard_range(
          total, i, static_cast<std::uint32_t>(planned));
      leases_[i].begin = range.first;
      leases_[i].end = range.second;
      queue_.push_back(i);
    }
  }
  run_active_ = true;
  // Persist the initial (or re-fenced) table before the first grant:
  // from here on every lease-state transition rewrites it.
  checkpoint_locked();

  while (true) {
    if (!fatal_.empty()) {
      run_active_ = false;
      const std::string why = fatal_;
      const bool all_dead = fatal_all_dead_;
      lock.unlock();
      if (all_dead) throw AllWorkersDeadError(why);
      throw std::runtime_error(why);
    }
    if (all_done_locked()) break;
    pump_locked();
    if (!fatal_.empty()) continue;
    // Every callback that changes what the pump would do notifies cv_;
    // the one timed duty left is the next heartbeat deadline.
    const double wait_ms = heartbeat_wait_ms_locked();
    if (wait_ms < 0) {
      cv_.wait(lock);
    } else {
      cv_.wait_for(lock, std::chrono::duration<double, std::milli>(wait_ms));
    }
  }
  run_active_ = false;

  std::vector<verify::LeaseResult> parts;
  parts.reserve(leases_.size());
  for (Lease& l : leases_) {
    verify::LeaseResult part;
    part.begin = l.begin;
    part.end = l.end;
    part.result = l.result;
    parts.push_back(std::move(part));
  }

  InstanceOutcome out;
  out.leases_planned = planned;
  out.leases_stolen = stolen_;
  out.leases_reassigned = reassigned_;
  out.workers_lost = lost_;
  out.resumed = resumed_run_;
  out.generation = generation_;
  for (const WorkerState& ws : workers_) {
    out.per_worker_solved.push_back(ws.solved);
    out.per_worker_leases.push_back(ws.leases_done);
  }
  out.result =
      verify::merge_lease_results(sg, max_faults, prune, std::move(parts));
  // The instance is merged; a stale lease table must never resurrect
  // it (the campaign checkpoint records the completed result).
  if (!config_.checkpoint_path.empty()) {
    remove_fleet_checkpoint(config_.checkpoint_path);
  }
  io::JsonObject fields;
  fields["n"] = n;
  fields["k"] = k;
  fields["max_faults"] = max_faults;
  fields["leases"] = static_cast<std::uint64_t>(leases_.size());
  fields["stolen"] = stolen_;
  fields["reassigned"] = reassigned_;
  fields["resumed"] = resumed_run_;
  fields["holds"] = out.result.holds;
  emit_locked("merge_done", std::move(fields));
  return out;
}

bool Coordinator::try_resume_locked(const std::string& prune_str,
                                    std::uint64_t total) {
  if (config_.checkpoint_path.empty()) return false;
  std::string why;
  const auto ckpt = load_fleet_checkpoint(config_.checkpoint_path, &why);
  if (!ckpt.has_value()) {
    if (!why.empty()) {
      util::log_warn("fleet: ignoring unusable checkpoint: ", why);
    }
    return false;
  }
  if (ckpt->n != n_ || ckpt->k != k_ || ckpt->max_faults != max_faults_ ||
      ckpt->prune != prune_str || ckpt->total != total ||
      ckpt->leases.empty()) {
    // A different instance's table: the campaign moved on. Start fresh;
    // the first write below replaces it.
    return false;
  }
  std::vector<Lease> loaded(ckpt->leases.size());
  std::deque<std::size_t> queued;
  std::uint64_t refenced = 0;
  for (std::size_t i = 0; i < ckpt->leases.size(); ++i) {
    const LeaseSnapshot& snap = ckpt->leases[i];
    Lease& l = loaded[i];
    l.begin = snap.begin;
    l.end = snap.end;
    l.epoch = snap.epoch;  // the fence floor: the next grant bumps past
    l.items_done = snap.items_done;
    l.cursor = snap.cursor;
    if (snap.status == 2) {
      try {
        std::istringstream text(snap.result_text);
        l.result = campaign::load_result(text);
      } catch (const std::exception& e) {
        util::log_warn("fleet: checkpoint result undecodable, starting "
                       "fresh: ", e.what());
        return false;
      }
      l.status = LeaseStatus::kDone;
    } else {
      // Active-at-crash leases load as queued: the assignment died with
      // the old coordinator, and the persisted cursor is the resume
      // point. The next grant re-fences at a strictly higher epoch.
      l.status = LeaseStatus::kQueued;
      l.refenced = true;
      ++refenced;
      queued.push_back(i);
    }
  }
  leases_ = std::move(loaded);
  queue_ = std::move(queued);
  generation_ = ckpt->generation + 1;
  io::JsonObject fields;
  fields["generation"] = generation_;
  fields["leases"] = static_cast<std::uint64_t>(leases_.size());
  fields["refenced"] = refenced;
  emit_locked("coordinator_resume", std::move(fields));
  return true;
}

void Coordinator::checkpoint_locked() {
  if (config_.checkpoint_path.empty() && !config_.checkpoint_observer) {
    return;
  }
  if (!run_active_) return;
  FleetCheckpoint ckpt;
  ckpt.n = n_;
  ckpt.k = k_;
  ckpt.max_faults = max_faults_;
  ckpt.prune = prune_ == verify::PruneMode::kAuto ? "auto" : "off";
  ckpt.total = total_;
  ckpt.generation = generation_;
  ckpt.leases.reserve(leases_.size());
  for (const Lease& l : leases_) {
    LeaseSnapshot snap;
    snap.begin = l.begin;
    snap.end = l.end;
    snap.epoch = l.epoch;
    snap.items_done = l.items_done;
    snap.cursor = l.cursor;
    switch (l.status) {
      case LeaseStatus::kQueued: snap.status = 0; break;
      case LeaseStatus::kActive: snap.status = 1; break;
      case LeaseStatus::kDone: {
        snap.status = 2;
        std::ostringstream text;
        campaign::save_result(text, l.result);
        snap.result_text = text.str();
        break;
      }
    }
    ckpt.leases.push_back(std::move(snap));
  }
  const std::string payload = ckpt.serialize();
  if (config_.checkpoint_observer) config_.checkpoint_observer(payload);
  if (config_.checkpoint_path.empty()) return;
  try {
    util::durable_write_file(config_.checkpoint_path, payload);
  } catch (const std::exception& e) {
    // Callers sit on worker threads that must not unwind; surface the
    // write failure as the run's fatal instead.
    fatal_ = std::string("fleet: checkpoint write failed: ") + e.what();
    cv_.notify_all();
  }
}

bool Coordinator::all_done_locked() const {
  for (const Lease& l : leases_) {
    if (l.status != LeaseStatus::kDone) return false;
  }
  return true;
}

double Coordinator::heartbeat_wait_ms_locked() const {
  double wait_ms = -1.0;
  for (const Lease& l : leases_) {
    if (l.status != LeaseStatus::kActive) continue;
    const double left = std::max(
        0.0, config_.heartbeat_timeout_ms - l.last_frame.millis());
    if (wait_ms < 0 || left < wait_ms) wait_ms = left;
  }
  return wait_ms;
}

bool Coordinator::all_workers_dead_locked() const {
  // An open registration listener means replacements can still join:
  // the fleet is starved, not dead.
  if (listen_fd_.valid()) return false;
  for (const WorkerState& ws : workers_) {
    if (!ws.permanently_down && !ws.decommissioned) return false;
  }
  return true;
}

void Coordinator::pump_locked() {
  // 1. Heartbeat deadlines: an active lease whose worker has streamed
  // nothing (no accept, progress, or terminal) for the timeout is
  // presumed lost. Kick the connection — the daemon sees the close and
  // cancels its session — and requeue; the epoch bump at the next grant
  // fences any frame the old assignment still manages to emit.
  for (std::size_t li = 0; li < leases_.size(); ++li) {
    Lease& l = leases_[li];
    if (l.status != LeaseStatus::kActive) continue;
    if (l.last_frame.seconds() * 1000.0 <
        static_cast<double>(config_.heartbeat_timeout_ms)) {
      continue;
    }
    const int w = l.worker;
    io::JsonObject fields;
    fields["worker"] = pool_->endpoint(w).to_string();
    fields["reason"] = "heartbeat timeout";
    fields["lease"] = lease_name(li);
    emit_locked("worker_dead", std::move(fields));
    workers_[static_cast<std::size_t>(w)].connected = false;
    workers_[static_cast<std::size_t>(w)].active_lease = -1;
    requeue_locked(li, "heartbeat timeout");
    pool_->kick(w);
  }

  // 2. Grants: queued leases to idle connected workers (a leaver is
  // never granted to again — it is draining toward fleet.leave).
  while (!queue_.empty()) {
    int idle = -1;
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      if (workers_[w].connected && !workers_[w].decommissioned &&
          workers_[w].active_lease < 0) {
        idle = static_cast<int>(w);
        break;
      }
    }
    if (idle < 0) break;
    const std::size_t li = queue_.front();
    queue_.pop_front();
    if (!grant_locked(li, idle)) {
      queue_.push_front(li);
      break;
    }
  }

  // 3. Steals: queue dry, somebody idle — split the largest remainder.
  if (queue_.empty()) maybe_steal_locked();

  // 4. Liveness: every worker written off with work outstanding is the
  // one unrecoverable state.
  if (!all_done_locked() && all_workers_dead_locked()) {
    fatal_ = "fleet: all workers permanently down with leases outstanding";
    fatal_all_dead_ = true;
  }
}

bool Coordinator::grant_locked(std::size_t li, int w) {
  Lease& l = leases_[li];
  l.epoch += 1;
  io::JsonObject params;
  params["n"] = n_;
  params["k"] = k_;
  params["max_faults"] = max_faults_;
  params["prune"] = prune_ == verify::PruneMode::kAuto ? "auto" : "off";
  params["begin"] = l.begin;
  params["end"] = l.end;
  params["chunk"] = config_.chunk;
  params["lease"] = lease_name(li);
  params["epoch"] = l.epoch;
  // Durability provenance: which coordinator incarnation granted this,
  // and whether the grant re-fences a lease recovered from the crash
  // checkpoint. Workers surface both as stats counters.
  params["generation"] = generation_;
  if (l.refenced) params["refenced"] = true;
  const bool resumed = !l.cursor.empty();
  if (resumed) params["cursor"] = l.cursor;
  io::JsonObject frame;
  frame["method"] = "lease";
  frame["params"] = io::Json(std::move(params));
  frame["schema_version"] = io::kSchemaVersion;
  frame["tag"] = "g-" + lease_name(li) + "-" + std::to_string(l.epoch);
  if (!pool_->send(w, io::Json(std::move(frame)))) {
    l.epoch -= 1;  // never went on the wire; nothing to fence
    return false;
  }
  const bool refenced = l.refenced;
  l.refenced = false;  // one re-fence per recovered lease
  l.status = LeaseStatus::kActive;
  l.worker = w;
  l.steal_pending = false;
  l.last_frame.reset();
  workers_[static_cast<std::size_t>(w)].active_lease = static_cast<int>(li);
  checkpoint_locked();
  io::JsonObject fields;
  fields["lease"] = lease_name(li);
  fields["epoch"] = l.epoch;
  fields["worker"] = pool_->endpoint(w).to_string();
  fields["begin"] = l.begin;
  fields["end"] = l.end;
  fields["resumed"] = resumed;
  if (refenced) fields["refenced"] = true;
  emit_locked("lease_granted", std::move(fields));
  return true;
}

void Coordinator::requeue_locked(std::size_t li, const char* why) {
  Lease& l = leases_[li];
  if (l.status != LeaseStatus::kActive) return;
  l.status = LeaseStatus::kQueued;
  l.worker = -1;
  l.steal_pending = false;
  ++reassigned_;
  checkpoint_locked();
  io::JsonObject fields;
  fields["lease"] = lease_name(li);
  fields["epoch"] = l.epoch;
  fields["reason"] = why;
  fields["cursor_items"] = l.items_done;
  emit_locked("lease_requeued", std::move(fields));
  queue_.push_back(li);
  cv_.notify_all();
}

void Coordinator::maybe_steal_locked() {
  int thief = -1;
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (workers_[w].connected && !workers_[w].decommissioned &&
        workers_[w].active_lease < 0) {
      thief = static_cast<int>(w);
      break;
    }
  }
  if (thief < 0) return;
  // Victim: active lease with the largest unswept remainder past the
  // overhead floor and no handshake already in flight.
  std::size_t victim = leases_.size();
  std::uint64_t best_remaining = 0;
  for (std::size_t li = 0; li < leases_.size(); ++li) {
    const Lease& l = leases_[li];
    if (l.status != LeaseStatus::kActive || l.steal_pending) continue;
    const std::uint64_t swept = l.begin + l.items_done;
    const std::uint64_t remaining = l.end > swept ? l.end - swept : 0;
    if (remaining >= config_.min_steal_items && remaining > best_remaining) {
      best_remaining = remaining;
      victim = li;
    }
  }
  if (victim == leases_.size()) return;
  Lease& l = leases_[victim];
  // Ask the victim to surrender the tail half; the split point is a
  // request, not a fact — the worker may have swept past it by the time
  // the release lands, in which case it answers applied:false and no
  // steal happens. Only an applied:true reply creates the stolen lease.
  const std::uint64_t truncate_to = l.end - best_remaining / 2;
  if (truncate_to <= l.begin + l.items_done || truncate_to >= l.end) return;
  io::JsonObject params;
  params["lease"] = lease_name(victim);
  params["epoch"] = l.epoch;
  params["truncate_to"] = truncate_to;
  io::JsonObject frame;
  frame["method"] = "lease.release";
  frame["params"] = io::Json(std::move(params));
  frame["schema_version"] = io::kSchemaVersion;
  frame["tag"] = "r-" + lease_name(victim) + "-" + std::to_string(l.epoch);
  if (!pool_->send(l.worker, io::Json(std::move(frame)))) return;
  l.steal_pending = true;
}

// Maps an inbound lease-bodied frame back to the lease it belongs to.
// *current=false for frames from a superseded epoch or a worker the
// lease no longer lives on — those are late echoes of a fenced
// assignment and must be dropped, never merged.
std::size_t Coordinator::lease_from_frame_locked(const io::Json& frame,
                                                 int w, bool* current) {
  *current = false;
  const std::string name = field_str(frame, "lease");
  if (name.size() < 2 || name[0] != 'L') return leases_.size();
  std::size_t li = 0;
  try {
    li = std::stoull(name.substr(1));
  } catch (const std::exception&) {
    return leases_.size();
  }
  if (li >= leases_.size()) return leases_.size();
  const Lease& l = leases_[li];
  *current = l.status == LeaseStatus::kActive && l.worker == w &&
             field_u64(frame, "epoch") == l.epoch;
  return li;
}

void Coordinator::on_connected(int w) {
  std::lock_guard<std::mutex> lock(mu_);
  WorkerState& ws = workers_[static_cast<std::size_t>(w)];
  ws.connected = true;
  if (ws.announce_join) {
    // Tell the daemon it is now fleet-attached (it counts the join and
    // acks with a result frame the lease router drops harmlessly).
    ws.announce_join = false;
    io::JsonObject frame;
    frame["method"] = "fleet.join";
    frame["params"] = io::Json(io::JsonObject{});
    frame["schema_version"] = io::kSchemaVersion;
    frame["tag"] = "j-w" + std::to_string(w);
    pool_->send(w, io::Json(std::move(frame)));
  }
  cv_.notify_all();  // the pump grants on the run_instance thread
}

void Coordinator::on_down(int w, const std::string& reason, bool permanent) {
  std::lock_guard<std::mutex> lock(mu_);
  WorkerState& ws = workers_[static_cast<std::size_t>(w)];
  ws.connected = false;
  if (permanent) ws.permanently_down = true;
  ++lost_;
  if (run_active_) {
    io::JsonObject fields;
    fields["worker"] = pool_->endpoint(w).to_string();
    fields["reason"] = reason;
    fields["permanent"] = permanent;
    emit_locked("worker_dead", std::move(fields));
  }
  if (ws.active_lease >= 0) {
    const std::size_t li = static_cast<std::size_t>(ws.active_lease);
    ws.active_lease = -1;
    if (run_active_) requeue_locked(li, "worker connection lost");
  }
  cv_.notify_all();
}

void Coordinator::on_frame(int w, io::Json frame) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!run_active_) return;

  const std::string type = field_str(frame, "type");
  if (type == "error") {
    // Errors carry no lease body; the tag names the failed assignment.
    char op = 0;
    std::size_t li = 0;
    std::uint64_t epoch = 0;
    if (!parse_tag(field_str(frame, "tag"), &op, &li, &epoch)) return;
    if (li >= leases_.size()) return;
    Lease& l = leases_[li];
    if (l.status != LeaseStatus::kActive || l.worker != w ||
        l.epoch != epoch) {
      return;  // stale: the assignment was already fenced or resolved
    }
    if (op == 'g') {
      // The grant was refused (draining or overloaded daemon). Requeue
      // and drop this connection: a daemon that just said no would
      // otherwise be handed the same lease again next pump, forever.
      workers_[static_cast<std::size_t>(w)].connected = false;
      workers_[static_cast<std::size_t>(w)].active_lease = -1;
      requeue_locked(li, field_str(frame, "message").c_str());
      pool_->kick(w);
    } else {
      l.steal_pending = false;  // steal aborted; the victim runs on
    }
    cv_.notify_all();
    return;
  }

  bool current = false;
  const std::size_t li = lease_from_frame_locked(frame, w, &current);
  if (li >= leases_.size() || !current) return;
  Lease& l = leases_[li];
  l.last_frame.reset();

  if (frame.find("applied") != nullptr) {
    handle_release_reply_locked(li, frame);
    return;
  }
  if (type == "accepted") return;  // admission ack; heartbeat only
  if (type == "progress") {
    l.items_done = field_u64(frame, "items_done", l.items_done);
    const std::string cursor = field_str(frame, "cursor");
    if (!cursor.empty()) l.cursor = cursor;
    // The cursor is the resume point after a coordinator crash — it
    // must be durable before the next chunk can be considered streamed.
    checkpoint_locked();
    return;
  }
  if (type != "result") return;

  const std::string status = field_str(frame, "status");
  if (status == "done") {
    // The certified range comes from the frame, not our bookkeeping: a
    // truncation applied worker-side after our last look shrinks it.
    l.begin = field_u64(frame, "begin", l.begin);
    l.end = field_u64(frame, "end", l.end);
    try {
      std::istringstream text(field_str(frame, "result"));
      l.result = campaign::load_result(text);
    } catch (const std::exception& e) {
      fatal_ = std::string("fleet: undecodable lease result: ") + e.what();
      cv_.notify_all();
      return;
    }
    l.status = LeaseStatus::kDone;
    l.steal_pending = false;
    WorkerState& ws = workers_[static_cast<std::size_t>(w)];
    ws.active_lease = -1;
    ws.solved += l.result.fault_sets_solved;
    ws.leases_done += 1;
    checkpoint_locked();
    io::JsonObject fields;
    fields["lease"] = lease_name(li);
    fields["epoch"] = l.epoch;
    fields["worker"] = pool_->endpoint(w).to_string();
    fields["begin"] = l.begin;
    fields["end"] = l.end;
    fields["solved"] = l.result.fault_sets_solved;
    emit_locked("lease_done", std::move(fields));
    cv_.notify_all();
    return;
  }
  if (status == "cancelled" || status == "drained") {
    // The worker gave the lease back (drain handoff, or a cancel we did
    // not initiate). Capture the final cursor and reschedule.
    const std::string cursor = field_str(frame, "cursor");
    if (!cursor.empty()) l.cursor = cursor;
    l.items_done = field_u64(frame, "items_done", l.items_done);
    workers_[static_cast<std::size_t>(w)].active_lease = -1;
    requeue_locked(li, status == "drained" ? "worker draining"
                                           : "worker cancelled lease");
    cv_.notify_all();
    return;
  }
}

// --- elastic membership: the registration listener -------------------
//
// Workers attach to a running coordinator by dialing config_.listen and
// sending `fleet.join {endpoint}` (their own serving endpoint, which
// the coordinator dials back through the pool — the transport stays
// dial-out, so a joiner needs no inbound path to the workers).
// `fleet.leave {endpoint}` decommissions a member: it is never granted
// to again, and the daemon is told to drain its lease sessions at the
// next chunk boundary — the drained cursor hands the work back without
// losing a slot, exactly like a confirmed steal. Registration frames
// ride the same v5 envelope as every other kgdd method.

void Coordinator::run_listener() {
  while (!listen_stop_.load(std::memory_order_relaxed)) {
    pollfd pfd{listen_fd_.get(), POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);
    if (ready <= 0) continue;
    net::Fd conn(::accept(listen_fd_.get(), nullptr, nullptr));
    if (!conn.valid()) continue;
    // Registrations are rare and tiny; serving them one at a time off
    // the accept loop keeps the listener a hundred lines, not a server.
    serve_registration(std::move(conn));
  }
}

void Coordinator::serve_registration(net::Fd conn) {
  net::FrameReader reader(1u << 16);
  char buf[4096];
  int idle_ticks = 0;
  while (!listen_stop_.load(std::memory_order_relaxed) && idle_ticks < 20) {
    while (auto frame = reader.next()) {
      idle_ticks = 0;
      service::Envelope env;
      env.req_id = "c" + std::to_string(++registrations_);
      io::Json reply;
      if (service::parse_envelope(*frame, &env, &reply)) {
        std::lock_guard<std::mutex> lock(mu_);
        reply = handle_registration_locked(env);
      }
      std::string wire = reply.dump();
      wire += '\n';
      std::size_t sent = 0;
      while (sent < wire.size()) {
        const ssize_t n = ::send(conn.get(), wire.data() + sent,
                                 wire.size() - sent, MSG_NOSIGNAL);
        if (n < 0) {
          if (errno == EINTR) continue;
          return;
        }
        sent += static_cast<std::size_t>(n);
      }
    }
    if (reader.oversized()) return;
    pollfd pfd{conn.get(), POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (ready == 0) {
      ++idle_ticks;
      continue;
    }
    const ssize_t n = ::read(conn.get(), buf, sizeof buf);
    if (n == 0) return;  // peer done
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    reader.append(buf, static_cast<std::size_t>(n));
  }
}

io::Json Coordinator::handle_registration_locked(
    const service::Envelope& env) {
  const io::Json* params = env.params();
  const std::string ep_text =
      params != nullptr ? field_str(*params, "endpoint") : std::string();
  if (env.method == "fleet.join") {
    const auto ep = net::Endpoint::parse(ep_text);
    if (!ep.has_value()) {
      return env.error(service::ErrorCode::kBadRequest,
                       "fleet.join requires params.endpoint "
                       "(unix:PATH or tcp:HOST:PORT)");
    }
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      if (!workers_[w].decommissioned &&
          pool_->endpoint(static_cast<int>(w)).to_string() ==
              ep->to_string()) {
        io::JsonObject body;
        body["joined"] = true;
        body["worker"] = static_cast<int>(w);
        body["already_member"] = true;
        return env.result(std::move(body));
      }
    }
    const int w = pool_->add_worker(*ep);
    if (w < 0) {
      return env.error(service::ErrorCode::kShuttingDown,
                       "coordinator is stopping");
    }
    workers_.resize(static_cast<std::size_t>(w) + 1);
    workers_[static_cast<std::size_t>(w)].announce_join = true;
    io::JsonObject fields;
    fields["worker"] = ep->to_string();
    emit_locked("worker_joined", std::move(fields));
    cv_.notify_all();  // a joiner is immediately grantable
    io::JsonObject body;
    body["joined"] = true;
    body["worker"] = w;
    return env.result(std::move(body));
  }
  if (env.method == "fleet.leave") {
    int found = -1;
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      if (!workers_[w].decommissioned &&
          pool_->endpoint(static_cast<int>(w)).to_string() == ep_text) {
        found = static_cast<int>(w);
        break;
      }
    }
    if (found < 0) {
      return env.error(service::ErrorCode::kNotFound,
                       "no such fleet member: " + ep_text);
    }
    workers_[static_cast<std::size_t>(found)].decommissioned = true;
    // Ask the daemon to drain its lease sessions at the next chunk
    // boundary; the drained terminal frames hand every cursor back and
    // the leases requeue to the survivors.
    io::JsonObject frame;
    frame["method"] = "fleet.leave";
    frame["params"] = io::Json(io::JsonObject{});
    frame["schema_version"] = io::kSchemaVersion;
    frame["tag"] = "l-w" + std::to_string(found);
    pool_->send(found, io::Json(std::move(frame)));
    io::JsonObject fields;
    fields["worker"] = ep_text;
    emit_locked("worker_left", std::move(fields));
    cv_.notify_all();
    io::JsonObject body;
    body["leaving"] = true;
    body["worker"] = found;
    return env.result(std::move(body));
  }
  return env.error(service::ErrorCode::kUnknownMethod,
                   "the registration listener speaks fleet.join and "
                   "fleet.leave only");
}

void Coordinator::handle_release_reply_locked(std::size_t li,
                                              const io::Json& frame) {
  Lease& l = leases_[li];
  if (!l.steal_pending) return;
  l.steal_pending = false;
  // Either way the reply carries the victim's exact chunk-boundary
  // position, so a retried steal splits what is really left.
  l.items_done = field_u64(frame, "items_done", l.items_done);
  const std::string cursor = field_str(frame, "cursor");
  if (!cursor.empty()) l.cursor = cursor;
  cv_.notify_all();  // the victim is stealable again
  const io::Json* applied = frame.find("applied");
  if (applied == nullptr || !applied->is_bool() || !applied->as_bool()) {
    return;  // the victim had already swept past the split point
  }
  // Confirmed: the victim now ends at the reply's `end`; the surrendered
  // tail becomes a fresh queued lease.
  const std::uint64_t old_end = l.end;
  const std::uint64_t new_end = field_u64(frame, "end", l.end);
  if (new_end >= old_end || new_end < l.begin) return;  // nothing ceded
  l.end = new_end;
  Lease stolen;
  stolen.begin = new_end;
  stolen.end = old_end;
  leases_.push_back(std::move(stolen));
  queue_.push_back(leases_.size() - 1);
  ++stolen_;
  checkpoint_locked();
  io::JsonObject fields;
  fields["victim"] = lease_name(li);
  fields["lease"] = lease_name(leases_.size() - 1);
  fields["begin"] = new_end;
  fields["end"] = old_end;
  emit_locked("lease_stolen", std::move(fields));
}

}  // namespace kgdp::fleet
