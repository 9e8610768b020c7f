#include "campaign/campaign.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "kgd/factory.hpp"
#include "util/timer.hpp"

namespace kgdp::campaign {

namespace {

verify::CheckRequest instance_request(const CampaignConfig& c,
                                      const InstanceState& inst,
                                      util::ThreadPool* pool,
                                      verify::VerdictCache* cache) {
  verify::CheckRequest req;
  req.mode = c.mode;
  req.max_faults = inst.k;
  req.samples = c.samples;
  req.seed = c.seed;
  req.options.prune = c.prune;
  req.options.pool = pool;
  req.options.cache = cache;
  req.shard_index = c.shard_index;
  req.shard_count = c.shard_count;
  return req;
}

kgd::SolutionGraph build_instance(const InstanceState& inst) {
  auto built = kgd::build_solution(inst.n, inst.k);
  if (!built) {
    throw std::runtime_error("campaign: no construction for n=" +
                             std::to_string(inst.n) +
                             " k=" + std::to_string(inst.k));
  }
  return std::move(*built);
}

io::JsonObject instance_fields(const CampaignConfig& c,
                               const InstanceState& inst) {
  io::JsonObject f;
  f["n"] = inst.n;
  f["k"] = inst.k;
  f["shard_index"] = static_cast<std::int64_t>(c.shard_index);
  f["shard_count"] = static_cast<std::int64_t>(c.shard_count);
  return f;
}

// Pulls one "key <u64>" pair out of a serialized cursor, for status
// display only (the session itself re-parses the cursor authoritatively).
bool cursor_field(const std::string& cursor, const std::string& key,
                  std::uint64_t* out) {
  std::istringstream is(cursor);
  std::string token;
  while (is >> token) {
    if (token == key) return static_cast<bool>(is >> *out);
  }
  return false;
}

bool config_compatible(const CampaignConfig& a, const CampaignConfig& b) {
  return a.n_min == b.n_min && a.n_max == b.n_max && a.k_min == b.k_min &&
         a.k_max == b.k_max && a.mode == b.mode && a.samples == b.samples &&
         a.seed == b.seed && a.prune == b.prune &&
         a.shard_count == b.shard_count;
}

}  // namespace

CampaignState make_campaign(const CampaignConfig& config) {
  if (config.n_min < 1 || config.n_min > config.n_max || config.k_min < 1 ||
      config.k_min > config.k_max) {
    throw std::invalid_argument("campaign: bad (n, k) grid");
  }
  if (config.shard_count < 1 || config.shard_index >= config.shard_count) {
    throw std::invalid_argument("campaign: bad shard spec");
  }
  if (config.mode == verify::CheckMode::kSampled && config.shard_count > 1) {
    throw std::invalid_argument(
        "campaign: sampled campaigns cannot be sharded");
  }
  if (config.chunk < 1) {
    throw std::invalid_argument("campaign: chunk must be >= 1");
  }
  CampaignState state;
  state.config = config;
  for (int n = config.n_min; n <= config.n_max; ++n) {
    for (int k = config.k_min; k <= config.k_max; ++k) {
      if (!kgd::is_supported(n, k)) continue;
      InstanceState inst;
      inst.n = n;
      inst.k = k;
      state.instances.push_back(std::move(inst));
    }
  }
  if (state.instances.empty()) {
    throw std::invalid_argument(
        "campaign: no supported (n, k) instances in the grid");
  }
  return state;
}

CampaignRunner::CampaignRunner(CampaignState state,
                               std::string checkpoint_path,
                               TelemetryWriter* telemetry,
                               util::ThreadPool* pool)
    : state_(std::move(state)),
      checkpoint_path_(std::move(checkpoint_path)),
      telemetry_(telemetry),
      pool_(pool) {}

void CampaignRunner::checkpoint() {
  if (checkpoint_path_.empty()) return;
  write_campaign_file(checkpoint_path_, state_);
}

RunOutcome CampaignRunner::run(const RunLimits& limits) {
  RunOutcome out;
  std::uint64_t since_checkpoint = 0;

  auto done_all_hold = [this] {
    bool all = true;
    for (const InstanceState& inst : state_.instances) {
      if (inst.status == InstanceStatus::kDone && !inst.result.holds) {
        all = false;
      }
    }
    return all;
  };

  if (telemetry_ != nullptr) {
    io::JsonObject f;
    f["n_min"] = state_.config.n_min;
    f["n_max"] = state_.config.n_max;
    f["k_min"] = state_.config.k_min;
    f["k_max"] = state_.config.k_max;
    f["mode"] = state_.config.mode == verify::CheckMode::kExhaustive
                    ? "exhaustive"
                    : "sampled";
    f["shard_index"] = static_cast<std::int64_t>(state_.config.shard_index);
    f["shard_count"] = static_cast<std::int64_t>(state_.config.shard_count);
    f["instances"] = static_cast<std::uint64_t>(state_.instances.size());
    telemetry_->emit("run_start", std::move(f));
  }

  for (InstanceState& inst : state_.instances) {
    if (inst.status == InstanceStatus::kDone) continue;
    const kgd::SolutionGraph sg = build_instance(inst);
    verify::CheckSession session(
        sg, instance_request(state_.config, inst, pool_, cache_));
    if (inst.status == InstanceStatus::kRunning) {
      std::istringstream is(inst.cursor);
      session.restore(is);
    }
    inst.status = InstanceStatus::kRunning;

    while (!session.done()) {
      if ((limits.max_chunks != 0 && out.chunks_run >= limits.max_chunks) ||
          (limits.stop && limits.stop())) {
        // Chunk budget exhausted: make the in-flight position durable and
        // hand back an interrupted outcome the caller can resume from.
        std::ostringstream cursor;
        session.save(cursor);
        inst.cursor = cursor.str();
        checkpoint();
        if (telemetry_ != nullptr) {
          io::JsonObject f = instance_fields(state_.config, inst);
          f["items_done"] = session.items_done();
          f["items_total"] = session.items_total();
          f["chunks_run"] = out.chunks_run;
          telemetry_->emit("campaign_interrupted", std::move(f));
        }
        out.complete = false;
        out.all_hold = done_all_hold();
        return out;
      }

      const std::uint64_t solved_before =
          session.result().fault_sets_solved;
      const util::Timer timer;
      session.advance(state_.config.chunk);
      const double seconds = timer.seconds();
      ++out.chunks_run;
      ++since_checkpoint;

      if (telemetry_ != nullptr) {
        const verify::CheckResult snap = session.result();
        io::JsonObject f = instance_fields(state_.config, inst);
        f["items_done"] = session.items_done();
        f["items_total"] = session.items_total();
        f["fault_sets_checked"] = snap.fault_sets_checked;
        f["fault_sets_solved"] = snap.fault_sets_solved;
        f["orbits_pruned"] = snap.orbits_pruned;
        f["steal_count"] = snap.steal_count;
        f["solver_patches"] = snap.solver_patches;
        f["solver_rebuilds"] = snap.solver_rebuilds;
        f["solver_search_nodes"] = snap.solver_search_nodes;
        f["solver_posa_steps"] = snap.solver_posa_steps;
        f["solver_walk_hits"] = snap.solver_walk_hits;
        f["solver_walk_fallbacks"] = snap.solver_walk_fallbacks;
        f["cache_hits"] = snap.cache_hits;
        f["cache_misses"] = snap.cache_misses;
        const std::uint64_t chunk_solved =
            snap.fault_sets_solved - solved_before;
        f["chunk_solved"] = chunk_solved;
        f["chunk_seconds"] = seconds;
        f["solves_per_sec"] =
            seconds > 0.0 ? static_cast<double>(chunk_solved) / seconds : 0.0;
        io::JsonArray worker_seconds;
        for (double s : snap.worker_solve_seconds) worker_seconds.push_back(s);
        f["worker_solve_seconds"] = std::move(worker_seconds);
        telemetry_->emit("chunk", std::move(f));
      }

      if (state_.config.checkpoint_every != 0 &&
          since_checkpoint >= state_.config.checkpoint_every &&
          !session.done()) {
        std::ostringstream cursor;
        session.save(cursor);
        inst.cursor = cursor.str();
        checkpoint();
        since_checkpoint = 0;
        if (telemetry_ != nullptr) {
          io::JsonObject f = instance_fields(state_.config, inst);
          f["items_done"] = session.items_done();
          f["items_total"] = session.items_total();
          f["path"] = checkpoint_path_;
          telemetry_->emit("checkpoint", std::move(f));
        }
      }
    }

    inst.result = session.result();
    inst.status = InstanceStatus::kDone;
    inst.cursor.clear();
    checkpoint();  // instance completion is always made durable
    if (telemetry_ != nullptr) {
      io::JsonObject f = instance_fields(state_.config, inst);
      f["result"] = check_result_to_json(inst.result);
      telemetry_->emit("instance_done", std::move(f));
    }
  }

  out.complete = true;
  out.all_hold = done_all_hold();
  checkpoint();
  if (telemetry_ != nullptr) {
    io::JsonObject f;
    f["complete"] = out.complete;
    f["all_hold"] = out.all_hold;
    f["chunks_run"] = out.chunks_run;
    telemetry_->emit("campaign_done", std::move(f));
  }
  return out;
}

CampaignState merge_shards(const std::vector<CampaignState>& shards) {
  if (shards.empty()) {
    throw std::invalid_argument("merge_shards: no shard files");
  }
  const std::uint32_t count = shards[0].config.shard_count;
  if (shards.size() != count) {
    throw std::invalid_argument(
        "merge_shards: expected " + std::to_string(count) +
        " shard files (shard_count), got " + std::to_string(shards.size()));
  }
  std::vector<const CampaignState*> by_index(count, nullptr);
  for (const CampaignState& shard : shards) {
    if (!config_compatible(shard.config, shards[0].config)) {
      throw std::invalid_argument(
          "merge_shards: shard configs disagree (grid/mode/seed/prune)");
    }
    if (shard.instances.size() != shards[0].instances.size()) {
      throw std::invalid_argument(
          "merge_shards: shard instance lists disagree");
    }
    const std::uint32_t idx = shard.config.shard_index;
    if (by_index[idx] != nullptr) {
      throw std::invalid_argument("merge_shards: duplicate shard " +
                                  std::to_string(idx));
    }
    by_index[idx] = &shard;
    for (const InstanceState& inst : shard.instances) {
      if (inst.status != InstanceStatus::kDone) {
        throw std::invalid_argument(
            "merge_shards: shard " + std::to_string(idx) +
            " has unfinished instances; run or resume it first");
      }
    }
  }

  CampaignState out;
  out.config = shards[0].config;
  out.config.shard_index = 0;
  out.config.shard_count = 1;
  for (std::size_t i = 0; i < shards[0].instances.size(); ++i) {
    InstanceState merged;
    merged.n = shards[0].instances[i].n;
    merged.k = shards[0].instances[i].k;
    merged.status = InstanceStatus::kDone;
    if (count == 1) {
      merged.result = by_index[0]->instances[i].result;
    } else {
      const kgd::SolutionGraph sg = build_instance(merged);
      std::vector<verify::CheckResult> results;
      results.reserve(count);
      for (std::uint32_t s = 0; s < count; ++s) {
        const InstanceState& si = by_index[s]->instances[i];
        if (si.n != merged.n || si.k != merged.k) {
          throw std::invalid_argument(
              "merge_shards: shard instance grids disagree");
        }
        results.push_back(si.result);
      }
      merged.result = verify::merge_shard_results(sg, merged.k,
                                                  out.config.prune, results);
    }
    out.instances.push_back(std::move(merged));
  }
  return out;
}

std::string status_summary(const CampaignState& state) {
  const CampaignConfig& c = state.config;
  std::ostringstream os;
  os << "campaign: grid n=[" << c.n_min << ", " << c.n_max << "] k=["
     << c.k_min << ", " << c.k_max << "], mode "
     << (c.mode == verify::CheckMode::kExhaustive ? "exhaustive" : "sampled")
     << ", prune "
     << (c.prune == verify::PruneMode::kAuto ? "auto" : "off") << ", shard "
     << c.shard_index << "/" << c.shard_count << '\n';
  std::size_t done = 0, running = 0, pending = 0, failing = 0;
  for (const InstanceState& inst : state.instances) {
    os << "  G(" << inst.n << "," << inst.k << "): ";
    switch (inst.status) {
      case InstanceStatus::kPending:
        ++pending;
        os << "pending\n";
        break;
      case InstanceStatus::kRunning: {
        ++running;
        std::uint64_t pos = 0, solved = 0;
        cursor_field(inst.cursor, "pos", &pos);
        cursor_field(inst.cursor, "solved", &solved);
        os << "running (cursor at slot " << pos << ", " << solved
           << " solved)\n";
        break;
      }
      case InstanceStatus::kDone:
        ++done;
        if (!inst.result.holds) ++failing;
        os << (inst.result.holds ? "HOLDS" : "FAILS") << " ("
           << inst.result.fault_sets_checked << " fault sets, "
           << inst.result.fault_sets_solved << " solved, "
           << inst.result.orbits_pruned << " pruned)";
        if (inst.result.counterexample) {
          os << " counterexample " << inst.result.counterexample->to_string();
        }
        os << '\n';
        break;
    }
  }
  os << "  " << done << " done (" << failing << " failing), " << running
     << " running, " << pending << " pending\n";
  return os.str();
}

}  // namespace kgdp::campaign
