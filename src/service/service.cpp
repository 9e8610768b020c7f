#include "service/service.hpp"

#include <dirent.h>

#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <string_view>

#include "campaign/checkpoint.hpp"
#include "campaign/telemetry.hpp"
#include "fault/canonical.hpp"
#include "kgd/factory.hpp"
#include "service/checkpoint.hpp"
#include "sim/campaign.hpp"
#include "util/durable_file.hpp"
#include "util/log.hpp"

namespace kgdp::service {

namespace {

// --- param extraction helpers -------------------------------------------
// Each returns false and fills *error on a missing/ill-typed field.

bool param_int(const io::Json* params, const char* name, bool required,
               std::int64_t def, std::int64_t min, std::int64_t max,
               std::int64_t* out, std::string* error) {
  const io::Json* v = params != nullptr ? params->find(name) : nullptr;
  if (v == nullptr) {
    if (required) {
      *error = std::string("missing required param '") + name + "'";
      return false;
    }
    *out = def;
    return true;
  }
  if (!v->is_int() || v->as_int() < min || v->as_int() > max) {
    *error = std::string("param '") + name + "' must be an integer in [" +
             std::to_string(min) + ", " + std::to_string(max) + "]";
    return false;
  }
  *out = v->as_int();
  return true;
}

bool param_double(const io::Json* params, const char* name, double def,
                  double min, double max, double* out, std::string* error) {
  const io::Json* v = params != nullptr ? params->find(name) : nullptr;
  if (v == nullptr) {
    *out = def;
    return true;
  }
  if (!v->is_number()) {
    *error = std::string("param '") + name + "' must be a number";
    return false;
  }
  const double value = v->as_double();
  if (!(value >= min && value <= max)) {  // negated: NaN fails the range
    *error = std::string("param '") + name + "' must be a number in [" +
             std::to_string(min) + ", " + std::to_string(max) + "]";
    return false;
  }
  *out = value;
  return true;
}

bool param_string(const io::Json* params, const char* name,
                  const std::string& def, std::string* out,
                  std::string* error) {
  const io::Json* v = params != nullptr ? params->find(name) : nullptr;
  if (v == nullptr) {
    *out = def;
    return true;
  }
  if (!v->is_string()) {
    *error = std::string("param '") + name + "' must be a string";
    return false;
  }
  *out = v->as_string();
  return true;
}

// Parses one fault-set JSON array into node ids (range-checked against
// `num_nodes` later, once the graph is known).
bool parse_fault_list(const io::Json& arr, const char* what,
                      std::vector<graph::Node>* out, std::string* error) {
  if (!arr.is_array()) {
    *error = std::string(what) + " must be an array of node ids";
    return false;
  }
  out->clear();
  out->reserve(arr.as_array().size());
  for (const io::Json& v : arr.as_array()) {
    if (!v.is_int() || v.as_int() < 0) {
      *error = std::string(what) + " must contain non-negative integers";
      return false;
    }
    out->push_back(static_cast<graph::Node>(v.as_int()));
  }
  return true;
}

// Largest batch one `route` request may carry; bounds the work a single
// frame can pin on a pool worker.
constexpr std::size_t kMaxRouteBatch = 4096;

// Highest <N> among kgdd-s<N>.kgdp* files (checkpoints, .bak, .corrupt,
// .tmp residue) in `dir`; 0 when none. Session ids seed past this so a
// restarted daemon never mints an id whose checkpoint files a crashed
// predecessor left behind — reusing s1 would overwrite, and on
// completion delete, the dead daemon's only resume data.
std::uint64_t max_checkpoint_session_ordinal(const std::string& dir) {
  std::uint64_t max_ordinal = 0;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return max_ordinal;
  constexpr std::string_view kPrefix = "kgdd-s";
  while (dirent* entry = ::readdir(d)) {
    const std::string_view name = entry->d_name;
    if (name.substr(0, kPrefix.size()) != kPrefix) continue;
    std::size_t i = kPrefix.size();
    std::uint64_t ordinal = 0;
    bool any_digit = false;
    while (i < name.size() && name[i] >= '0' && name[i] <= '9') {
      ordinal = ordinal * 10 + static_cast<std::uint64_t>(name[i] - '0');
      any_digit = true;
      ++i;
    }
    if (!any_digit || name.substr(i, 5) != ".kgdp") continue;
    if (ordinal > max_ordinal) max_ordinal = ordinal;
  }
  ::closedir(d);
  return max_ordinal;
}

const char* instance_status_name(campaign::InstanceStatus s) {
  switch (s) {
    case campaign::InstanceStatus::kPending: return "pending";
    case campaign::InstanceStatus::kRunning: return "running";
    case campaign::InstanceStatus::kDone: return "done";
  }
  return "pending";
}

}  // namespace

Service::Service(net::EventLoop& loop, net::FrameServer& server,
                 ServiceConfig config)
    : loop_(loop),
      server_(server),
      config_(std::move(config)),
      pool_(config_.threads),
      next_session_(max_checkpoint_session_ordinal(config_.drain_dir) + 1) {
  if (config_.cache_entries > 0) {
    verdict_cache_ = std::make_unique<verify::VerdictCache>(
        static_cast<std::size_t>(config_.cache_entries));
  }
  if (config_.atlas_entries > 0) {
    route_atlas_ = std::make_unique<reconfig::RouteAtlas>(
        static_cast<std::size_t>(config_.atlas_entries));
    for (const std::string& path : config_.atlas_paths) {
      std::ifstream in(path);
      if (!in) {
        throw std::runtime_error("cannot open atlas artifact: " + path);
      }
      try {
        const reconfig::RouteAtlasFileInfo info = route_atlas_->load(in);
        util::log_info("atlas: preloaded ", info.entries, " routes for n=",
                       info.n, " k=", info.k, " from ", path);
      } catch (const std::exception& e) {
        throw std::runtime_error("atlas artifact " + path + ": " + e.what());
      }
    }
  } else if (!config_.atlas_paths.empty()) {
    throw std::runtime_error(
        "atlas artifacts given but the atlas is disabled (atlas_entries=0)");
  }
}

Service::~Service() = default;

std::string Service::next_req_id() {
  std::string id = "r";
  id += std::to_string(next_req_++);
  return id;
}

void Service::send(std::uint64_t conn, const io::Json& frame) {
  server_.send(conn, frame.dump());
}

void Service::reply_terminal(std::uint64_t conn, const std::string& method,
                             const io::Json& frame, Outcome outcome,
                             double seconds) {
  metrics_.record(method, outcome, seconds);
  send(conn, frame);
}

bool Service::admit_job() const {
  return pool_.in_flight() <
         static_cast<std::size_t>(pool_.thread_count()) + config_.max_queue;
}

// ---------------------------------------------------------------------------
// Frame entry
// ---------------------------------------------------------------------------

void Service::handle_frame(std::uint64_t conn, std::string frame) {
  util::Timer timer;
  Envelope env;
  env.req_id = next_req_id();

  io::Json reject;
  if (!parse_envelope(frame, &env, &reject)) {
    reply_terminal(conn, env.method.empty() ? "_frame" : env.method, reject,
                   Outcome::kError, timer.seconds());
    return;
  }

  // Control-plane methods stay available while draining.
  if (env.method == "ping") {
    io::JsonObject body;
    body["pong"] = true;
    reply_terminal(conn, env.method, env.result(std::move(body)),
                   Outcome::kOk, timer.seconds());
    return;
  }
  if (env.method == "stats") {
    handle_stats(conn, env);
    return;
  }
  if (env.method == "cancel") {
    handle_cancel(conn, env);
    return;
  }
  if (env.method == "shutdown") {
    io::JsonObject body;
    body["draining"] = true;
    reply_terminal(conn, env.method, env.result(std::move(body)),
                   Outcome::kOk, timer.seconds());
    // Posted so the reply is queued before connections start closing.
    loop_.post([this] { begin_drain(); });
    return;
  }

  if (draining_) {
    reply_terminal(conn, env.method,
                   env.error(ErrorCode::kShuttingDown, "daemon is draining"),
                   Outcome::kError, timer.seconds());
    return;
  }

  if (env.method == "verify") {
    handle_verify(conn, env);
    return;
  }
  if (env.method == "route") {
    handle_route(conn, env);
    return;
  }
  if (env.method == "lease") {
    handle_lease(conn, env);
    return;
  }
  if (env.method == "lease.release") {
    handle_lease_release(conn, env);
    return;
  }
  // Elastic-membership announcements (schema v5). The coordinator sends
  // these over the worker connection: `fleet.join` when this daemon was
  // attached to a live campaign, `fleet.leave` when it was asked to
  // detach — the daemon then drains each lease session at its next
  // chunk boundary (cursor handed back exactly as for a daemon-wide
  // drain) while staying up for other clients.
  if (env.method == "fleet.join") {
    ++fleet_.workers_joined;
    io::JsonObject body;
    body["joined"] = true;
    reply_terminal(conn, env.method, env.result(std::move(body)),
                   Outcome::kOk, timer.seconds());
    return;
  }
  if (env.method == "fleet.leave") {
    ++fleet_.workers_left;
    std::uint64_t draining = 0;
    std::vector<std::string> idle;
    for (auto& [sid, s] : sessions_) {
      if (!s->is_lease || s->leave_drain) continue;
      s->leave_drain = true;
      ++draining;
      if (!s->running_chunk && !s->cancelled) idle.push_back(sid);
    }
    for (const std::string& sid : idle) {
      const auto it = sessions_.find(sid);
      if (it != sessions_.end()) finalize_drained(*it->second);
    }
    io::JsonObject body;
    body["leaving"] = true;
    body["draining"] = draining;
    reply_terminal(conn, env.method, env.result(std::move(body)),
                   Outcome::kOk, timer.seconds());
    return;
  }

  std::string param_error;
  if (env.method == "construct") {
    std::int64_t n = 0, k = 0;
    const io::Json* params = env.params();
    if (!param_int(params, "n", true, 0, 1, 1 << 20, &n, &param_error) ||
        !param_int(params, "k", true, 0, 1, 64, &k, &param_error)) {
      reply_terminal(conn, env.method,
                     env.error(ErrorCode::kBadRequest, param_error),
                     Outcome::kError, timer.seconds());
      return;
    }
    submit_job(conn, env, [n, k]() -> JobReply {
      JobReply r;
      auto built = kgd::build_solution(static_cast<int>(n),
                                       static_cast<int>(k));
      if (!built) {
        r.error_code = ErrorCode::kUnsupported;
        r.error_message = "no construction for n=" + std::to_string(n) +
                          " k=" + std::to_string(k);
        return r;
      }
      r.body["name"] = built->name();
      r.body["method"] = kgd::construction_method(static_cast<int>(n),
                                                  static_cast<int>(k));
      r.body["nodes"] = built->num_nodes();
      r.body["inputs"] = built->num_inputs();
      r.body["outputs"] = built->num_outputs();
      r.body["processors"] = built->num_processors();
      r.body["edges"] = static_cast<std::uint64_t>(
          built->graph().num_edges());
      return r;
    });
    return;
  }

  if (env.method == "sim.run") {
    std::int64_t n = 0, k = 0, seed = 0;
    sim::CampaignConfig sim_config;
    double horizon_mcycles = 10.0;
    const io::Json* params = env.params();
    if (!param_int(params, "n", true, 0, 1, 1 << 20, &n, &param_error) ||
        !param_int(params, "k", true, 0, 1, 64, &k, &param_error) ||
        !param_int(params, "seed", false, 1, 0, INT64_MAX, &seed,
                   &param_error) ||
        // Bounded so a hostile request cannot pin a pool worker on an
        // effectively unbounded simulation (one-shot jobs have no
        // cancellation path).
        !param_double(params, "faults_per_mcycle",
                      sim_config.faults_per_mcycle, 0.0, 1e6,
                      &sim_config.faults_per_mcycle, &param_error) ||
        !param_double(params, "repair_cycles", sim_config.repair_cycles,
                      0.0, 1e12, &sim_config.repair_cycles, &param_error) ||
        !param_double(params, "horizon_mcycles", 10.0, 1e-6, 1e6,
                      &horizon_mcycles, &param_error)) {
      reply_terminal(conn, env.method,
                     env.error(ErrorCode::kBadRequest, param_error),
                     Outcome::kError, timer.seconds());
      return;
    }
    sim_config.horizon_cycles = horizon_mcycles * 1e6;
    sim_config.seed = static_cast<std::uint64_t>(seed);
    submit_job(conn, env, [n, k, sim_config]() -> JobReply {
      JobReply r;
      auto built = kgd::build_solution(static_cast<int>(n),
                                       static_cast<int>(k));
      if (!built) {
        r.error_code = ErrorCode::kUnsupported;
        r.error_message = "no construction for n=" + std::to_string(n) +
                          " k=" + std::to_string(k);
        return r;
      }
      const sim::CampaignResult res =
          sim::run_availability_campaign(*built, sim_config);
      r.body["availability"] = res.availability;
      r.body["mean_utilization"] = res.mean_utilization;
      r.body["faults_injected"] = res.faults_injected;
      r.body["repairs_completed"] = res.repairs_completed;
      r.body["reconfigurations"] = res.reconfigurations;
      r.body["outages"] = res.outages;
      r.body["worst_outage_cycles"] = res.worst_outage_cycles;
      return r;
    });
    return;
  }

  if (env.method == "campaign.status") {
    std::string dir;
    if (!param_string(env.params(), "dir", "", &dir, &param_error) ||
        dir.empty()) {
      reply_terminal(
          conn, env.method,
          env.error(ErrorCode::kBadRequest,
                    param_error.empty() ? "missing required param 'dir'"
                                        : param_error),
          Outcome::kError, timer.seconds());
      return;
    }
    submit_job(conn, env, [dir]() -> JobReply {
      JobReply r;
      campaign::CampaignState state;
      try {
        state = campaign::load_campaign_file(dir + "/checkpoint.kgdp");
      } catch (const util::CheckpointError& e) {
        // Classified: a missing checkpoint is the client's not-found; a
        // truncated/corrupt/unparsable one is server-side damage.
        r.error_code = e.kind() == util::CheckpointErrorKind::kMissing
                           ? ErrorCode::kNotFound
                           : ErrorCode::kInternal;
        r.error_message = e.what();
        return r;
      } catch (const std::exception& e) {
        r.error_code = ErrorCode::kNotFound;
        r.error_message = e.what();
        return r;
      }
      io::JsonArray instances;
      std::int64_t done = 0, failing = 0;
      for (const campaign::InstanceState& inst : state.instances) {
        io::JsonObject f;
        f["n"] = inst.n;
        f["k"] = inst.k;
        f["status"] = instance_status_name(inst.status);
        if (inst.status == campaign::InstanceStatus::kDone) {
          ++done;
          if (!inst.result.holds) ++failing;
          f["result"] = campaign::check_result_to_json(inst.result);
        }
        instances.push_back(io::Json(std::move(f)));
      }
      r.body["n_min"] = state.config.n_min;
      r.body["n_max"] = state.config.n_max;
      r.body["k_min"] = state.config.k_min;
      r.body["k_max"] = state.config.k_max;
      r.body["shard_index"] =
          static_cast<std::int64_t>(state.config.shard_index);
      r.body["shard_count"] =
          static_cast<std::int64_t>(state.config.shard_count);
      r.body["instances"] = std::move(instances);
      r.body["done"] = done;
      r.body["failing"] = failing;
      return r;
    });
    return;
  }

  reply_terminal(conn, env.method,
                 env.error(ErrorCode::kUnknownMethod,
                           "unknown method '" + env.method + "'"),
                 Outcome::kError, timer.seconds());
}

// ---------------------------------------------------------------------------
// One-shot jobs
// ---------------------------------------------------------------------------

void Service::submit_job(std::uint64_t conn, const Envelope& env,
                         std::function<JobReply()> work) {
  util::Timer timer;
  if (!admit_job()) {
    reply_terminal(conn, env.method,
                   env.error(ErrorCode::kOverloaded, "admission queue full"),
                   Outcome::kOverloaded, timer.seconds());
    return;
  }
  ++outstanding_jobs_;
  pool_.submit([this, conn, env, timer, work = std::move(work)] {
    JobReply reply;
    try {
      reply = work();
    } catch (const std::exception& e) {
      reply.error_code = ErrorCode::kInternal;
      reply.error_message = e.what();
    } catch (...) {
      reply.error_code = ErrorCode::kInternal;
      reply.error_message = "unknown error";
    }
    loop_.post([this, conn, env, timer, reply = std::move(reply)] {
      if (reply.error_message.empty()) {
        reply_terminal(conn, env.method, env.result(reply.body),
                       Outcome::kOk, timer.seconds());
      } else {
        reply_terminal(conn, env.method,
                       env.error(reply.error_code, reply.error_message),
                       Outcome::kError, timer.seconds());
      }
      --outstanding_jobs_;
      maybe_finish_drain();
    });
  });
}

// ---------------------------------------------------------------------------
// Control-plane handlers
// ---------------------------------------------------------------------------

void Service::handle_stats(std::uint64_t conn, const Envelope& env) {
  util::Timer timer;
  io::JsonObject body;
  body["metrics"] = metrics_.snapshot();
  body["sessions_active"] = static_cast<std::uint64_t>(sessions_.size());
  body["connections"] =
      static_cast<std::uint64_t>(server_.connection_count());
  io::JsonObject pool;
  pool["threads"] = static_cast<std::int64_t>(pool_.thread_count());
  pool["queue_depth"] = static_cast<std::uint64_t>(pool_.queue_depth());
  pool["in_flight"] = static_cast<std::uint64_t>(pool_.in_flight());
  body["pool"] = io::Json(std::move(pool));
  // Solver engine totals across all retired verify sessions (live
  // sessions are excluded: their counters move off the loop thread).
  io::JsonObject solver;
  solver["solves"] = solver_retired_.solves;
  solver["patches"] = solver_retired_.patches;
  solver["rebuilds"] = solver_retired_.rebuilds;
  solver["search_nodes"] = solver_retired_.search_nodes;
  solver["posa_steps"] = solver_retired_.posa_steps;
  solver["walk_hits"] = solver_retired_.walk_hits;
  solver["walk_fallbacks"] = solver_retired_.walk_fallbacks;
  body["solver"] = io::Json(std::move(solver));
  // Shared verdict-cache totals (global across sessions, live included:
  // the cache's own counters are atomic). All zero when no cache.
  io::JsonObject cache;
  cache["enabled"] = verdict_cache_ != nullptr;
  cache["capacity"] = static_cast<std::uint64_t>(
      verdict_cache_ ? verdict_cache_->capacity() : 0);
  const verify::VerdictCacheStats cs =
      verdict_cache_ ? verdict_cache_->stats() : verify::VerdictCacheStats{};
  cache["hits"] = cs.hits;
  cache["misses"] = cs.misses;
  cache["inserts"] = cs.inserts;
  cache["evictions"] = cs.evictions;
  body["cache"] = io::Json(std::move(cache));
  // Route-atlas totals (atomic counters; live route jobs included).
  io::JsonObject atlas;
  atlas["enabled"] = route_atlas_ != nullptr;
  atlas["capacity"] = static_cast<std::uint64_t>(
      route_atlas_ ? route_atlas_->max_entries() : 0);
  const reconfig::RouteAtlasStats as =
      route_atlas_ ? route_atlas_->stats() : reconfig::RouteAtlasStats{};
  atlas["entries"] = as.entries;
  atlas["hits"] = as.hits;
  atlas["misses"] = as.misses;
  atlas["inserts"] = as.inserts;
  atlas["rejected_full"] = as.rejected_full;
  {
    std::lock_guard<std::mutex> lock(routers_mu_);
    atlas["routers"] = static_cast<std::uint64_t>(routers_.size());
  }
  body["atlas"] = io::Json(std::move(atlas));
  // Fleet worker counters plus the live lease table (items/heartbeat are
  // loop-thread snapshots taken at each progress frame, so reading them
  // here never races a running chunk).
  io::JsonObject fleet;
  fleet["leases_granted"] = fleet_.granted;
  fleet["leases_completed"] = fleet_.completed;
  fleet["leases_resumed"] = fleet_.resumed;
  fleet["leases_truncated"] = fleet_.truncated;
  fleet["leases_released"] = fleet_.released;
  fleet["stale_rejected"] = fleet_.stale_rejected;
  fleet["coordinator_resumes"] = fleet_.coordinator_resumes;
  fleet["leases_refenced"] = fleet_.leases_refenced;
  fleet["workers_joined"] = fleet_.workers_joined;
  fleet["workers_left"] = fleet_.workers_left;
  io::JsonArray active_leases;
  for (const auto& [sid, s] : sessions_) {
    if (!s->is_lease) continue;
    io::JsonObject l;
    l["lease"] = s->lease_id;
    l["session"] = sid;
    l["epoch"] = s->lease_epoch;
    l["items_done"] = s->last_items_done;
    l["items_total"] = s->last_items_total;
    l["heartbeat_age_s"] = s->last_progress.seconds();
    active_leases.push_back(io::Json(std::move(l)));
  }
  fleet["active"] = io::Json(std::move(active_leases));
  body["fleet"] = io::Json(std::move(fleet));
  body["draining"] = draining_;
  if (!config_.metrics_path.empty()) {
    std::ofstream out(config_.metrics_path, std::ios::app);
    if (out) metrics_.dump_jsonl(out);
  }
  reply_terminal(conn, "stats", env.result(std::move(body)), Outcome::kOk,
                 timer.seconds());
}

void Service::handle_cancel(std::uint64_t conn, const Envelope& env) {
  util::Timer timer;
  std::string sid, param_error;
  if (!param_string(env.params(), "session", "", &sid, &param_error) ||
      sid.empty()) {
    reply_terminal(
        conn, "cancel",
        env.error(ErrorCode::kBadRequest,
                  param_error.empty() ? "missing required param 'session'"
                                      : param_error),
        Outcome::kError, timer.seconds());
    return;
  }
  const auto it = sessions_.find(sid);
  io::JsonObject body;
  body["session"] = sid;
  body["found"] = it != sessions_.end();
  if (it != sessions_.end()) {
    Session& s = *it->second;
    s.cancelled = true;
    if (!s.running_chunk) finalize_cancelled(s);
  }
  reply_terminal(conn, "cancel", env.result(std::move(body)), Outcome::kOk,
                 timer.seconds());
}

// ---------------------------------------------------------------------------
// Routing (atlas-served)
// ---------------------------------------------------------------------------

std::shared_ptr<Service::RouterEntry> Service::router_for(int n, int k,
                                                          std::string* error,
                                                          ErrorCode* code) {
  // Serializes first-use construction of a given (n, k) router (graph +
  // automorphism group, milliseconds); steady-state this is one map
  // lookup under an uncontended lock. Pool-worker callable.
  std::lock_guard<std::mutex> lock(routers_mu_);
  const auto it = routers_.find({n, k});
  if (it != routers_.end()) return it->second;
  auto built = kgd::build_solution(n, k);
  if (!built) {
    *code = ErrorCode::kUnsupported;
    *error = "no construction for n=" + std::to_string(n) +
             " k=" + std::to_string(k);
    return nullptr;
  }
  auto entry = std::make_shared<RouterEntry>(std::move(*built),
                                             route_atlas_.get());
  routers_.emplace(std::make_pair(n, k), entry);
  return entry;
}

void Service::handle_route(std::uint64_t conn, const Envelope& env) {
  util::Timer timer;
  std::string param_error;
  std::int64_t n = 0, k = 0;
  const io::Json* params = env.params();
  if (!param_int(params, "n", true, 0, 1, 1 << 20, &n, &param_error) ||
      !param_int(params, "k", true, 0, 1, 64, &k, &param_error)) {
    reply_terminal(conn, env.method,
                   env.error(ErrorCode::kBadRequest, param_error),
                   Outcome::kError, timer.seconds());
    return;
  }
  const io::Json* faults = params != nullptr ? params->find("faults") : nullptr;
  const io::Json* sets = params != nullptr ? params->find("sets") : nullptr;
  if ((faults != nullptr) == (sets != nullptr)) {
    reply_terminal(conn, env.method,
                   env.error(ErrorCode::kBadRequest,
                             "exactly one of 'faults' (one fault set) or "
                             "'sets' (a batch of fault sets) is required"),
                   Outcome::kError, timer.seconds());
    return;
  }
  const bool single = faults != nullptr;
  std::vector<std::vector<graph::Node>> batch;
  if (single) {
    batch.emplace_back();
    if (!parse_fault_list(*faults, "param 'faults'", &batch.back(),
                          &param_error)) {
      reply_terminal(conn, env.method,
                     env.error(ErrorCode::kBadRequest, param_error),
                     Outcome::kError, timer.seconds());
      return;
    }
  } else {
    if (!sets->is_array()) {
      reply_terminal(conn, env.method,
                     env.error(ErrorCode::kBadRequest,
                               "param 'sets' must be an array of fault-set "
                               "arrays"),
                     Outcome::kError, timer.seconds());
      return;
    }
    if (sets->as_array().size() > kMaxRouteBatch) {
      reply_terminal(
          conn, env.method,
          env.error(ErrorCode::kBadRequest,
                    "batch of " + std::to_string(sets->as_array().size()) +
                        " fault sets exceeds the per-request limit of " +
                        std::to_string(kMaxRouteBatch)),
          Outcome::kError, timer.seconds());
      return;
    }
    batch.reserve(sets->as_array().size());
    for (std::size_t i = 0; i < sets->as_array().size(); ++i) {
      batch.emplace_back();
      if (!parse_fault_list(sets->as_array()[i],
                            ("param 'sets[" + std::to_string(i) + "]'")
                                .c_str(),
                            &batch.back(), &param_error)) {
        reply_terminal(conn, env.method,
                       env.error(ErrorCode::kBadRequest, param_error),
                       Outcome::kError, timer.seconds());
        return;
      }
    }
  }

  submit_job(conn, env,
             [this, n, k, single, batch = std::move(batch)]() -> JobReply {
    JobReply r;
    const std::shared_ptr<RouterEntry> entry = router_for(
        static_cast<int>(n), static_cast<int>(k), &r.error_message,
        &r.error_code);
    if (entry == nullptr) return r;
    const int nn = entry->sg.num_nodes();
    // One canonicalizer scratch per pool worker (~160 KiB): route jobs
    // on the same worker reuse it allocation-free.
    static thread_local std::unique_ptr<fault::FaultCanonicalizer::Scratch>
        scratch;
    if (scratch == nullptr) {
      scratch = std::make_unique<fault::FaultCanonicalizer::Scratch>();
    }
    io::JsonArray routes;
    routes.reserve(batch.size());
    for (const std::vector<graph::Node>& nodes : batch) {
      for (const graph::Node v : nodes) {
        if (v >= nn) {
          r.error_code = ErrorCode::kBadRequest;
          r.error_message =
              "fault id " + std::to_string(v) + " out of range: the n=" +
              std::to_string(n) + " k=" + std::to_string(k) + " graph has " +
              std::to_string(nn) + " nodes";
          return r;
        }
      }
      const reconfig::Router::Result res = entry->router.route(
          kgd::FaultSet(nn, nodes), *scratch);
      if (!res.feasible) {
        routes.push_back(io::Json(nullptr));
        continue;
      }
      io::JsonArray path;
      path.reserve(res.pipeline.path.size());
      for (const graph::Node v : res.pipeline.path) path.push_back(v);
      routes.push_back(io::Json(std::move(path)));
    }
    // Reply bodies carry the route alone — never hit/warm provenance —
    // so atlas-on and atlas-off replies are bit-identical.
    if (single) {
      r.body["route"] = std::move(routes.front());
    } else {
      r.body["routes"] = io::Json(std::move(routes));
    }
    return r;
  });
}

// ---------------------------------------------------------------------------
// Streaming verify sessions
// ---------------------------------------------------------------------------

void Service::handle_verify(std::uint64_t conn, const Envelope& env) {
  util::Timer timer;
  std::string param_error;
  const io::Json* params = env.params();

  std::string resume_path;
  if (!param_string(params, "resume", "", &resume_path, &param_error)) {
    reply_terminal(conn, "verify",
                   env.error(ErrorCode::kBadRequest, param_error),
                   Outcome::kError, timer.seconds());
    return;
  }

  auto s = std::make_unique<Session>();
  s->conn = conn;
  s->env = env;
  s->resume_path = resume_path;
  s->chunk = config_.default_chunk;

  if (resume_path.empty()) {
    std::int64_t n = 0, k = 0, max_faults = 0, samples = 0, seed = 0,
                 chunk = 0;
    std::string mode, prune;
    if (!param_int(params, "n", true, 0, 1, 1 << 20, &n, &param_error) ||
        !param_int(params, "k", true, 0, 1, 64, &k, &param_error) ||
        !param_int(params, "max_faults", false, k, 0, 64, &max_faults,
                   &param_error) ||
        !param_int(params, "samples", false, 1000, 0, INT64_MAX, &samples,
                   &param_error) ||
        !param_int(params, "seed", false, 1, 0, INT64_MAX, &seed,
                   &param_error) ||
        !param_int(params, "chunk", false,
                   static_cast<std::int64_t>(config_.default_chunk), 1,
                   INT64_MAX, &chunk, &param_error) ||
        !param_string(params, "mode", "exhaustive", &mode, &param_error) ||
        !param_string(params, "prune", "auto", &prune, &param_error)) {
      reply_terminal(conn, "verify",
                     env.error(ErrorCode::kBadRequest, param_error),
                     Outcome::kError, timer.seconds());
      return;
    }
    if (mode != "exhaustive" && mode != "sampled") {
      reply_terminal(conn, "verify",
                     env.error(ErrorCode::kBadRequest,
                               "param 'mode' must be exhaustive|sampled"),
                     Outcome::kError, timer.seconds());
      return;
    }
    if (prune != "auto" && prune != "off") {
      reply_terminal(conn, "verify",
                     env.error(ErrorCode::kBadRequest,
                               "param 'prune' must be auto|off"),
                     Outcome::kError, timer.seconds());
      return;
    }
    s->n = static_cast<int>(n);
    s->k = static_cast<int>(k);
    s->req.mode = mode == "exhaustive" ? verify::CheckMode::kExhaustive
                                       : verify::CheckMode::kSampled;
    s->req.max_faults = static_cast<int>(max_faults);
    s->req.samples = static_cast<std::uint64_t>(samples);
    s->req.seed = static_cast<std::uint64_t>(seed);
    s->req.options.prune = prune == "auto" ? verify::PruneMode::kAuto
                                           : verify::PruneMode::kOff;
    s->chunk = static_cast<std::uint64_t>(chunk);
  }

  if (sessions_.size() >= config_.max_sessions || !admit_job()) {
    reply_terminal(conn, "verify",
                   env.error(ErrorCode::kOverloaded,
                             sessions_.size() >= config_.max_sessions
                                 ? "session registry full"
                                 : "admission queue full"),
                   Outcome::kOverloaded, timer.seconds());
    return;
  }

  s->id = "s";
  s->id += std::to_string(next_session_++);
  const std::string sid = s->id;
  sessions_.emplace(sid, std::move(s));

  io::JsonObject body;
  body["session"] = sid;
  send(conn, env.event("accepted", std::move(body)));
  // Re-find: send() may have torn the connection down, and the session
  // must never be handed to the pool through a stale reference.
  const auto it = sessions_.find(sid);
  if (it != sessions_.end()) schedule_session_work(*it->second);
}

// ---------------------------------------------------------------------------
// Fleet lease sessions
// ---------------------------------------------------------------------------

void Service::handle_lease(std::uint64_t conn, const Envelope& env) {
  util::Timer timer;
  std::string param_error;
  const io::Json* params = env.params();
  std::int64_t n = 0, k = 0, max_faults = 0, begin = 0, end = 0, epoch = 0,
               chunk = 0, generation = 0;
  std::string prune, lease_id, cursor;
  if (!param_int(params, "n", true, 0, 1, 1 << 20, &n, &param_error) ||
      !param_int(params, "k", true, 0, 1, 64, &k, &param_error) ||
      !param_int(params, "max_faults", false, k, 0, 64, &max_faults,
                 &param_error) ||
      !param_int(params, "begin", true, 0, 0, INT64_MAX, &begin,
                 &param_error) ||
      !param_int(params, "end", true, 0, 0, INT64_MAX, &end, &param_error) ||
      !param_int(params, "epoch", true, 0, 1, INT64_MAX, &epoch,
                 &param_error) ||
      !param_int(params, "chunk", false,
                 static_cast<std::int64_t>(config_.default_chunk), 1,
                 INT64_MAX, &chunk, &param_error) ||
      !param_int(params, "generation", false, 0, 0, INT64_MAX, &generation,
                 &param_error) ||
      !param_string(params, "prune", "auto", &prune, &param_error) ||
      !param_string(params, "lease", "", &lease_id, &param_error) ||
      !param_string(params, "cursor", "", &cursor, &param_error)) {
    reply_terminal(conn, "lease",
                   env.error(ErrorCode::kBadRequest, param_error),
                   Outcome::kError, timer.seconds());
    return;
  }
  if (lease_id.empty() || end < begin || (prune != "auto" && prune != "off")) {
    reply_terminal(conn, "lease",
                   env.error(ErrorCode::kBadRequest,
                             lease_id.empty()
                                 ? "missing required param 'lease'"
                                 : end < begin
                                       ? "param 'end' must be >= 'begin'"
                                       : "param 'prune' must be auto|off"),
                   Outcome::kError, timer.seconds());
    return;
  }

  // Epoch fencing on re-grants: a grant for a lease id this daemon
  // already holds supersedes the old session only with a strictly newer
  // epoch — a replayed or reordered grant can never resurrect a range
  // the coordinator has since reassigned.
  const auto idx = lease_index_.find(lease_id);
  if (idx != lease_index_.end()) {
    const auto old_it = sessions_.find(idx->second);
    if (old_it != sessions_.end()) {
      Session& old = *old_it->second;
      if (static_cast<std::uint64_t>(epoch) <= old.lease_epoch) {
        ++fleet_.stale_rejected;
        reply_terminal(
            conn, "lease",
            env.error(ErrorCode::kBadRequest,
                      "stale lease epoch " + std::to_string(epoch) +
                          " (lease '" + lease_id + "' is at epoch " +
                          std::to_string(old.lease_epoch) + ")"),
            Outcome::kError, timer.seconds());
        return;
      }
      old.cancelled = true;
      if (!old.running_chunk) finalize_cancelled(old);
    }
  }

  if (sessions_.size() >= config_.max_sessions || !admit_job()) {
    reply_terminal(conn, "lease",
                   env.error(ErrorCode::kOverloaded,
                             sessions_.size() >= config_.max_sessions
                                 ? "session registry full"
                                 : "admission queue full"),
                   Outcome::kOverloaded, timer.seconds());
    return;
  }

  auto s = std::make_unique<Session>();
  s->conn = conn;
  s->env = env;
  s->n = static_cast<int>(n);
  s->k = static_cast<int>(k);
  // No verdict cache on lease sessions: a cache hit replaces a solve,
  // shifting fault_sets_solved, and the fleet's acceptance bar is a
  // merged result bit-identical to a cache-less single-node run.
  s->req = verify::CheckRequest::exhaustive_slots(
      static_cast<int>(max_faults), static_cast<std::uint64_t>(begin),
      static_cast<std::uint64_t>(end));
  s->req.options.prune = prune == "auto" ? verify::PruneMode::kAuto
                                         : verify::PruneMode::kOff;
  s->chunk = static_cast<std::uint64_t>(chunk);
  s->is_lease = true;
  s->lease_id = lease_id;
  s->lease_epoch = static_cast<std::uint64_t>(epoch);
  s->resume_cursor = cursor;
  s->last_items_total = static_cast<std::uint64_t>(end - begin);
  ++fleet_.granted;
  if (!cursor.empty()) ++fleet_.resumed;
  // Durable-coordinator markers (optional; absent pre-v5): a strictly
  // higher generation means a restarted coordinator resumed its lease
  // table from the crash checkpoint; refenced marks the one grant that
  // re-fences a recovered lease at its post-resume epoch.
  if (static_cast<std::uint64_t>(generation) > fleet_.last_generation_seen) {
    if (generation > 0) ++fleet_.coordinator_resumes;
    fleet_.last_generation_seen = static_cast<std::uint64_t>(generation);
  }
  const io::Json* refenced = params != nullptr ? params->find("refenced")
                                               : nullptr;
  if (refenced != nullptr && refenced->is_bool() && refenced->as_bool()) {
    ++fleet_.leases_refenced;
  }

  s->id = "s";
  s->id += std::to_string(next_session_++);
  const std::string sid = s->id;
  sessions_.emplace(sid, std::move(s));
  lease_index_[lease_id] = sid;

  io::JsonObject body;
  body["session"] = sid;
  body["lease"] = lease_id;
  body["epoch"] = epoch;
  send(conn, env.event("accepted", std::move(body)));
  const auto it = sessions_.find(sid);
  if (it != sessions_.end()) schedule_session_work(*it->second);
}

void Service::handle_lease_release(std::uint64_t conn, const Envelope& env) {
  util::Timer timer;
  std::string param_error;
  const io::Json* params = env.params();
  std::string lease_id;
  std::int64_t epoch = 0, truncate_to = -1;
  if (!param_string(params, "lease", "", &lease_id, &param_error) ||
      !param_int(params, "epoch", true, 0, 1, INT64_MAX, &epoch,
                 &param_error) ||
      !param_int(params, "truncate_to", false, -1, 0, INT64_MAX,
                 &truncate_to, &param_error) ||
      lease_id.empty()) {
    reply_terminal(conn, "lease.release",
                   env.error(ErrorCode::kBadRequest,
                             param_error.empty()
                                 ? "missing required param 'lease'"
                                 : param_error),
                   Outcome::kError, timer.seconds());
    return;
  }
  const auto idx = lease_index_.find(lease_id);
  const auto it =
      idx == lease_index_.end() ? sessions_.end() : sessions_.find(idx->second);
  if (it == sessions_.end()) {
    reply_terminal(conn, "lease.release",
                   env.error(ErrorCode::kNotFound,
                             "unknown lease '" + lease_id + "'"),
                   Outcome::kError, timer.seconds());
    return;
  }
  Session& s = *it->second;
  if (static_cast<std::uint64_t>(epoch) != s.lease_epoch || conn != s.conn) {
    ++fleet_.stale_rejected;
    reply_terminal(
        conn, "lease.release",
        env.error(ErrorCode::kBadRequest,
                  conn != s.conn
                      ? "lease '" + lease_id + "' is owned by another "
                        "connection"
                      : "stale lease epoch " + std::to_string(epoch) +
                            " (lease '" + lease_id + "' is at epoch " +
                            std::to_string(s.lease_epoch) + ")"),
        Outcome::kError, timer.seconds());
    return;
  }
  const bool has_truncate = truncate_to >= 0;
  if (s.running_chunk) {
    if (s.release_pending) {
      reply_terminal(conn, "lease.release",
                     env.error(ErrorCode::kBadRequest,
                               "a release is already pending for lease '" +
                                   lease_id + "'"),
                     Outcome::kError, timer.seconds());
      return;
    }
    // The chunk in flight owns the sweep; park the release and answer it
    // at the chunk boundary, where truncation is well-defined.
    s.release_pending = true;
    s.release_has_truncate = has_truncate;
    s.release_truncate_to = static_cast<std::uint64_t>(truncate_to);
    s.release_env = env;
    return;
  }
  apply_lease_release(s, env, has_truncate,
                      static_cast<std::uint64_t>(truncate_to));
  // A full release surrenders the lease: its verify stream ends as
  // cancelled (with the final cursor in the release reply above).
  if (s.cancelled && !s.running_chunk) finalize_cancelled(s);
}

void Service::apply_lease_release(Session& s, const Envelope& env,
                                  bool has_truncate,
                                  std::uint64_t truncate_to) {
  // Chunk boundary: the session's compute state is quiescent, so the
  // cursor and truncation below are exact.
  io::JsonObject body;
  body["lease"] = s.lease_id;
  body["epoch"] = s.lease_epoch;
  bool applied = false;
  if (s.session != nullptr) {
    if (has_truncate) {
      // The steal handshake: applied:true means the tail [truncate_to,
      // end) is surrendered and safe to re-grant; applied:false means
      // the sweep already passed the split point and the thief must
      // abort. Either way the reply carries the live range and cursor.
      applied = s.session->truncate(truncate_to);
      if (applied) ++fleet_.truncated;
    } else {
      // Full release: surrender the whole unswept remainder.
      applied = true;
      ++fleet_.released;
      s.cancelled = true;
    }
    body["begin"] = s.session->slot_begin();
    body["end"] = s.session->slot_end();
    body["items_done"] = s.session->items_done();
    std::ostringstream cursor;
    s.session->save(cursor);
    body["cursor"] = cursor.str();
  } else {
    // Creation failed before the sweep existed; nothing to truncate.
    body["items_done"] = std::uint64_t{0};
  }
  body["applied"] = applied;
  reply_terminal(s.conn, "lease.release", env.result(std::move(body)),
                 Outcome::kOk, 0.0);
}

void Service::schedule_session_work(Session& s) {
  s.running_chunk = true;
  const std::string sid = s.id;
  Session* sp = &s;  // stable: owned by sessions_ via unique_ptr
  pool_.submit([this, sid, sp] {
    std::string error;
    ErrorCode code = ErrorCode::kInternal;
    try {
      if (sp->session == nullptr) {
        // First task: build the graph and session (and restore the
        // cursor when resuming a drain checkpoint).
        if (!sp->resume_path.empty()) {
          // The resume path is the client's file, not the daemon's:
          // load it strictly read-only — no quarantine rename, no
          // probing of a sibling `.bak` (to use one, the client names
          // it). The daemon only mutates checkpoints it wrote itself.
          util::CheckpointLoadOptions read_only;
          read_only.try_backup = false;
          read_only.quarantine = false;
          const SessionCheckpoint cp =
              load_session_checkpoint_file(sp->resume_path, read_only);
          sp->n = cp.n;
          sp->k = cp.k;
          sp->req = cp.request();
          sp->chunk = cp.chunk == 0 ? sp->chunk : cp.chunk;
          auto built = kgd::build_solution(cp.n, cp.k);
          if (!built) {
            throw std::runtime_error("checkpoint names unsupported n=" +
                                     std::to_string(cp.n) +
                                     " k=" + std::to_string(cp.k));
          }
          sp->sg.emplace(std::move(*built));
          sp->req.options.cache = verdict_cache_.get();
          sp->session =
              std::make_unique<verify::CheckSession>(*sp->sg, sp->req);
          std::istringstream cursor(cp.cursor);
          sp->session->restore(cursor);
        } else {
          auto built = kgd::build_solution(sp->n, sp->k);
          if (!built) {
            code = ErrorCode::kUnsupported;
            throw std::runtime_error(
                "no construction for n=" + std::to_string(sp->n) +
                " k=" + std::to_string(sp->k));
          }
          sp->sg.emplace(std::move(*built));
          // Lease sessions never attach the shared verdict cache: see
          // handle_lease (bit-identical merge vs a cache-less run).
          if (!sp->is_lease) sp->req.options.cache = verdict_cache_.get();
          sp->session =
              std::make_unique<verify::CheckSession>(*sp->sg, sp->req);
          if (sp->is_lease && !sp->resume_cursor.empty()) {
            // Reassigned lease: pick up at the dead worker's last
            // streamed cursor (fingerprint binds the range's begin, so
            // the cursor survives any truncation of its end).
            std::istringstream cursor(sp->resume_cursor);
            sp->session->restore(cursor);
          }
        }
      } else {
        sp->session->advance(sp->chunk);
      }
      error.clear();
    } catch (const util::CheckpointError& e) {
      // Classified resume failure: a path that names nothing is the
      // client's not-found; a damaged checkpoint is a bad request.
      code = e.kind() == util::CheckpointErrorKind::kMissing
                 ? ErrorCode::kNotFound
                 : ErrorCode::kBadRequest;
      error = e.what();
    } catch (const std::exception& e) {
      if (code == ErrorCode::kInternal && sp->session == nullptr) {
        code = ErrorCode::kBadRequest;  // checkpoint load/restore failure
      }
      error = e.what();
    }
    loop_.post([this, sid, error, code] { chunk_done(sid, error, code); });
  });
}

void Service::chunk_done(const std::string& sid, const std::string& error,
                         ErrorCode code) {
  const auto it = sessions_.find(sid);
  if (it == sessions_.end()) return;  // defensive; should not happen
  Session& s = *it->second;
  s.running_chunk = false;

  if (!error.empty()) {
    // A parked release must not be left unanswered by the error path.
    if (s.release_pending) {
      s.release_pending = false;
      apply_lease_release(s, s.release_env, s.release_has_truncate,
                          s.release_truncate_to);
    }
    finalize_error(s, code, error);
    return;
  }
  if (s.release_pending) {
    // Chunk boundary: apply the parked release now. A truncation can
    // finish the slice (done() below); a full release cancels it.
    s.release_pending = false;
    apply_lease_release(s, s.release_env, s.release_has_truncate,
                        s.release_truncate_to);
  }
  if (s.cancelled) {
    finalize_cancelled(s);
    return;
  }
  if (s.session->done()) {
    finalize_done(s);
    return;
  }
  if (draining_ || s.leave_drain) {
    finalize_drained(s);
    return;
  }

  io::JsonObject body;
  body["session"] = s.id;
  body["items_done"] = s.session->items_done();
  body["items_total"] = s.session->items_total();
  if (s.is_lease) {
    // Lease progress frames carry the fencing pair and the live cursor:
    // the cursor on the coordinator's side IS the lease's recovery
    // point, so worker death costs at most one chunk of re-solving and
    // no disk write on either end.
    s.last_items_done = s.session->items_done();
    s.last_items_total = s.session->items_total();
    s.last_progress.reset();
    body["lease"] = s.lease_id;
    body["epoch"] = s.lease_epoch;
    std::ostringstream cursor;
    s.session->save(cursor);
    body["cursor"] = cursor.str();
  }
  if (!s.is_lease && config_.session_checkpoint_every > 0 &&
      ++s.chunks_since_checkpoint >= config_.session_checkpoint_every) {
    s.chunks_since_checkpoint = 0;
    std::string path, cp_error;
    if (write_session_checkpoint(s, &path, &cp_error)) {
      body["checkpoint"] = path;
    } else {
      // Periodic checkpoints are belt-and-braces; a failed write costs
      // crash protection, not the sweep.
      util::log_warn("session ", s.id,
                     ": periodic checkpoint failed: ", cp_error);
    }
  }
  send(s.conn, s.env.event("progress", std::move(body)));
  // Re-find before scheduling: the send can destroy the connection, and
  // nothing that runs under it may have erased the session.
  const auto again = sessions_.find(sid);
  if (again != sessions_.end()) schedule_session_work(*again->second);
}

std::string Service::session_checkpoint_path(const Session& s) const {
  return config_.drain_dir + "/kgdd-" + s.id + ".kgdp";
}

bool Service::write_session_checkpoint(Session& s, std::string* path,
                                       std::string* error) {
  try {
    SessionCheckpoint cp;
    cp.n = s.n;
    cp.k = s.k;
    cp.mode = s.req.mode;
    cp.max_faults = s.req.max_faults;
    cp.samples = s.req.samples;
    cp.seed = s.req.seed;
    cp.prune = s.req.options.prune;
    cp.chunk = s.chunk;
    std::ostringstream cursor;
    s.session->save(cursor);
    cp.cursor = cursor.str();
    *path = session_checkpoint_path(s);
    write_session_checkpoint_file(*path, cp);
    s.wrote_checkpoint = true;
    return true;
  } catch (const std::exception& e) {
    *error = e.what();
    return false;
  }
}

void Service::remove_session_checkpoints(const Session& s) {
  // Only files this daemon wrote for this session; a client-supplied
  // resume path is never the daemon's to delete.
  if (!s.wrote_checkpoint) return;
  const std::string path = session_checkpoint_path(s);
  std::remove(path.c_str());
  std::remove((path + ".bak").c_str());
}

void Service::finalize_done(Session& s) {
  const std::string sid = s.id;  // reply_terminal's send may erase s
  remove_session_checkpoints(s);
  io::JsonObject body;
  body["session"] = s.id;
  body["status"] = "done";
  body["items_done"] = s.session->items_done();
  body["items_total"] = s.session->items_total();
  if (s.is_lease) {
    ++fleet_.completed;
    body["lease"] = s.lease_id;
    body["epoch"] = s.lease_epoch;
    body["begin"] = s.session->slot_begin();
    body["end"] = s.session->slot_end();
    // The shard verdict rides the campaign result line (bit-cast
    // doubles and all) so the coordinator's merge is exact — JSON
    // number round-tripping would cost the bit-identical guarantee.
    std::ostringstream result;
    campaign::save_result(result, s.session->result());
    body["result"] = result.str();
  } else {
    body["verdict"] = campaign::check_result_to_json(s.session->result());
  }
  reply_terminal(s.conn, s.is_lease ? "lease" : "verify",
                 s.env.result(std::move(body)), Outcome::kOk,
                 s.timer.seconds());
  destroy_session(sid);
}

void Service::finalize_cancelled(Session& s) {
  const std::string sid = s.id;  // reply_terminal's send may erase s
  // A cancelled sweep is abandoned, not suspended: reap its periodic
  // checkpoints so the drain dir holds only resumable state.
  remove_session_checkpoints(s);
  io::JsonObject body;
  body["session"] = s.id;
  body["status"] = "cancelled";
  if (s.session != nullptr) {
    body["items_done"] = s.session->items_done();
    body["items_total"] = s.session->items_total();
  }
  if (s.is_lease) {
    body["lease"] = s.lease_id;
    body["epoch"] = s.lease_epoch;
    if (s.session != nullptr) {
      // Final cursor so a surrendering worker's remainder is resumable.
      std::ostringstream cursor;
      s.session->save(cursor);
      body["cursor"] = cursor.str();
    }
  }
  reply_terminal(s.conn, s.is_lease ? "lease" : "verify",
                 s.env.result(std::move(body)), Outcome::kCancelled,
                 s.timer.seconds());
  destroy_session(sid);
}

void Service::finalize_drained(Session& s) {
  const std::string sid = s.id;  // reply_terminal's send may erase s
  io::JsonObject body;
  body["session"] = s.id;
  body["status"] = "drained";
  if (s.is_lease) {
    // Lease recovery is the coordinator's job, not the disk's: hand the
    // cursor back in the terminal frame and let the lease be re-granted
    // elsewhere, exactly as if this worker had died politely.
    body["lease"] = s.lease_id;
    body["epoch"] = s.lease_epoch;
    body["items_done"] = s.session->items_done();
    body["items_total"] = s.session->items_total();
    std::ostringstream cursor;
    s.session->save(cursor);
    body["cursor"] = cursor.str();
    reply_terminal(s.conn, "lease", s.env.result(std::move(body)),
                   Outcome::kDrained, s.timer.seconds());
    destroy_session(sid);
    return;
  }
  std::string path, cp_error;
  if (!write_session_checkpoint(s, &path, &cp_error)) {
    finalize_error(s, ErrorCode::kInternal,
                   "drain checkpoint failed: " + cp_error);
    return;
  }
  body["checkpoint"] = path;
  body["items_done"] = s.session->items_done();
  body["items_total"] = s.session->items_total();
  reply_terminal(s.conn, "verify", s.env.result(std::move(body)),
                 Outcome::kDrained, s.timer.seconds());
  destroy_session(sid);
}

void Service::finalize_error(Session& s, ErrorCode code,
                             const std::string& what) {
  const std::string sid = s.id;  // reply_terminal's send may erase s
  // Deliberately kept (unlike done/cancel): the last periodic
  // checkpoint is an errored session's only post-mortem resume point,
  // and session-id seeding stops a later boot from overwriting it.
  if (s.wrote_checkpoint) {
    util::log_warn("session ", s.id, ": failed; last checkpoint kept at ",
                   session_checkpoint_path(s));
  }
  reply_terminal(s.conn, s.is_lease ? "lease" : "verify",
                 s.env.error(code, what), Outcome::kError,
                 s.timer.seconds());
  destroy_session(sid);
}

void Service::destroy_session(const std::string& sid) {
  const auto it = sessions_.find(sid);
  if (it != sessions_.end() && it->second->is_lease) {
    // Only unmap the lease id if it still points at this session; an
    // epoch-bumped re-grant has already claimed the mapping otherwise.
    const auto li = lease_index_.find(it->second->lease_id);
    if (li != lease_index_.end() && li->second == sid) lease_index_.erase(li);
  }
  if (it != sessions_.end() && it->second->session != nullptr &&
      !it->second->running_chunk) {
    // Terminal paths all run on the loop thread with no chunk in flight,
    // so the worker counters are quiescent and safe to read.
    const verify::SolverCounters c = it->second->session->solver_totals();
    solver_retired_.solves += c.solves;
    solver_retired_.patches += c.patches;
    solver_retired_.rebuilds += c.rebuilds;
    solver_retired_.search_nodes += c.search_nodes;
    solver_retired_.posa_steps += c.posa_steps;
    solver_retired_.walk_hits += c.walk_hits;
    solver_retired_.walk_fallbacks += c.walk_fallbacks;
  }
  sessions_.erase(sid);
  maybe_finish_drain();
}

// ---------------------------------------------------------------------------
// Connection lifecycle and drain
// ---------------------------------------------------------------------------

void Service::handle_close(std::uint64_t conn) {
  // Orphaned sessions: cancel them so the pool stops burning cycles for
  // a client that is gone. Sends to the dead connection become no-ops.
  std::vector<std::string> to_finalize;
  for (auto& [sid, s] : sessions_) {
    if (s->conn != conn) continue;
    s->cancelled = true;
    if (!s->running_chunk) to_finalize.push_back(sid);
  }
  for (const std::string& sid : to_finalize) {
    const auto it = sessions_.find(sid);
    if (it != sessions_.end()) finalize_cancelled(*it->second);
  }
  maybe_finish_drain();
}

void Service::handle_abuse(std::uint64_t conn, const std::string& what) {
  metrics_.record("_frame", Outcome::kError, 0.0);
  send(conn,
       make_error(next_req_id(), "", ErrorCode::kFrameTooLarge, what));
}

void Service::begin_drain() {
  if (draining_) return;
  draining_ = true;
  server_.stop_accepting();
  std::vector<std::string> idle;
  for (auto& [sid, s] : sessions_) {
    if (!s->running_chunk) idle.push_back(sid);
  }
  for (const std::string& sid : idle) {
    const auto it = sessions_.find(sid);
    if (it != sessions_.end()) finalize_drained(*it->second);
  }
  maybe_finish_drain();
}

void Service::maybe_finish_drain() {
  if (!draining_ || !sessions_.empty() || outstanding_jobs_ != 0) return;
  if (!drain_finalized_) {
    drain_finalized_ = true;
    if (!config_.metrics_path.empty()) {
      std::ofstream out(config_.metrics_path, std::ios::app);
      if (out) metrics_.dump_jsonl(out);
    }
    server_.close_all_after_flush();
  }
  if (server_.connection_count() == 0) loop_.stop();
}

}  // namespace kgdp::service
