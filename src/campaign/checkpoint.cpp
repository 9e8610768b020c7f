#include "campaign/checkpoint.hpp"

#include <bit>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "io/json.hpp"
#include "util/durable_file.hpp"
#include "util/log.hpp"

namespace kgdp::campaign {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("kgdp-campaign parse error: " + what);
}

std::string expect_keyword(std::istream& in, const std::string& keyword) {
  std::string word;
  if (!(in >> word) || word != keyword) {
    fail("expected '" + keyword + "', got '" + word + "'");
  }
  return word;
}

std::uint64_t read_u64(std::istream& in, const std::string& keyword) {
  expect_keyword(in, keyword);
  std::uint64_t v = 0;
  if (!(in >> v)) fail("bad value for " + keyword);
  return v;
}

const char* mode_name(verify::CheckMode m) {
  return m == verify::CheckMode::kExhaustive ? "exhaustive" : "sampled";
}

const char* prune_name(verify::PruneMode m) {
  return m == verify::PruneMode::kAuto ? "auto" : "off";
}

}  // namespace

void save_result(std::ostream& out, const verify::CheckResult& res) {
  out << "result " << (res.holds ? 1 : 0) << ' ' << (res.exhaustive ? 1 : 0)
      << ' ' << res.fault_sets_checked << ' ' << res.fault_sets_solved << ' '
      << res.solver_unknowns << ' ' << res.orbits_pruned << ' '
      << res.automorphism_order << ' ' << res.steal_count;
  out << " solver " << res.solver_patches << ' ' << res.solver_rebuilds << ' '
      << res.solver_search_nodes << ' ' << res.solver_scratch_bytes;
  out << " walk " << res.solver_walk_hits << ' ' << res.solver_walk_fallbacks;
  out << " posa " << res.solver_posa_steps;
  out << " cache " << res.cache_hits << ' ' << res.cache_misses << ' '
      << res.cache_inserts << ' ' << res.cache_evictions;
  out << " workers " << res.worker_solve_seconds.size();
  for (double s : res.worker_solve_seconds) {
    out << ' ' << std::bit_cast<std::uint64_t>(s);
  }
  if (res.counterexample) {
    out << " ce ";
    if (res.counterexample_index) {
      out << *res.counterexample_index;
    } else {
      out << '-';  // sampled counterexamples carry no enumeration index
    }
    out << ' ' << res.counterexample->universe() << ' '
        << res.counterexample->size();
    for (int v : res.counterexample->nodes()) out << ' ' << v;
  } else {
    out << " ce none";
  }
  out << '\n';
}

verify::CheckResult load_result(std::istream& in) {
  verify::CheckResult res;
  expect_keyword(in, "result");
  int holds = 0, exhaustive = 0;
  if (!(in >> holds >> exhaustive >> res.fault_sets_checked >>
        res.fault_sets_solved >> res.solver_unknowns >> res.orbits_pruned >>
        res.automorphism_order >> res.steal_count)) {
    fail("truncated result counters");
  }
  res.holds = holds != 0;
  res.exhaustive = exhaustive != 0;
  // Optional solver-counter block (schema_version >= 2); absent in files
  // written before the zero-allocation engine, which load with zeros.
  std::string word;
  if (!(in >> word)) fail("truncated result");
  if (word == "solver") {
    if (!(in >> res.solver_patches >> res.solver_rebuilds >>
          res.solver_search_nodes >> res.solver_scratch_bytes)) {
      fail("truncated solver counters");
    }
    if (!(in >> word)) fail("truncated result");
  }
  // Optional walk/cache blocks; files written before the batched
  // solver load with zeros.
  if (word == "walk") {
    if (!(in >> res.solver_walk_hits >> res.solver_walk_fallbacks)) {
      fail("truncated walk counters");
    }
    if (!(in >> word)) fail("truncated result");
  }
  if (word == "posa") {
    if (!(in >> res.solver_posa_steps)) fail("truncated Pósa step counter");
    if (!(in >> word)) fail("truncated result");
  }
  if (word == "cache") {
    if (!(in >> res.cache_hits >> res.cache_misses >> res.cache_inserts >>
          res.cache_evictions)) {
      fail("truncated cache counters");
    }
    if (!(in >> word)) fail("truncated result");
  }
  if (word != "workers") fail("expected 'workers', got '" + word + "'");
  std::size_t workers = 0;
  if (!(in >> workers)) fail("bad value for workers");
  res.worker_solve_seconds.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    std::uint64_t bits = 0;
    if (!(in >> bits)) fail("truncated worker seconds");
    res.worker_solve_seconds.push_back(std::bit_cast<double>(bits));
  }
  expect_keyword(in, "ce");
  std::string index_token;
  if (!(in >> index_token)) fail("truncated counterexample");
  if (index_token != "none") {
    if (index_token != "-") {
      try {
        res.counterexample_index = std::stoull(index_token);
      } catch (const std::exception&) {
        fail("bad counterexample index: " + index_token);
      }
    }
    int universe = 0, count = 0;
    if (!(in >> universe >> count) || universe < 1 || count < 0 ||
        count > universe) {
      fail("bad counterexample shape");
    }
    std::vector<int> nodes(count);
    for (int& v : nodes) {
      if (!(in >> v) || v < 0 || v >= universe) {
        fail("bad counterexample node");
      }
    }
    res.counterexample = kgd::FaultSet(universe, nodes);
  }
  return res;
}

void save_campaign(std::ostream& out, const CampaignState& state) {
  const CampaignConfig& c = state.config;
  out << "kgdp-campaign 1\n";
  out << "schema_version " << io::kSchemaVersion << '\n';
  out << "grid " << c.n_min << ' ' << c.n_max << ' ' << c.k_min << ' '
      << c.k_max << '\n';
  out << "mode " << mode_name(c.mode) << '\n';
  out << "samples " << c.samples << '\n';
  out << "seed " << c.seed << '\n';
  out << "prune " << prune_name(c.prune) << '\n';
  out << "shard " << c.shard_index << ' ' << c.shard_count << '\n';
  out << "chunk " << c.chunk << '\n';
  out << "checkpoint_every " << c.checkpoint_every << '\n';
  out << "instances " << state.instances.size() << '\n';
  for (const InstanceState& inst : state.instances) {
    out << "instance " << inst.n << ' ' << inst.k << ' ';
    switch (inst.status) {
      case InstanceStatus::kPending:
        out << "pending\n";
        break;
      case InstanceStatus::kRunning:
        out << "running\n" << inst.cursor;
        if (!inst.cursor.empty() && inst.cursor.back() != '\n') out << '\n';
        break;
      case InstanceStatus::kDone:
        out << "done\n";
        save_result(out, inst.result);
        break;
    }
  }
}

CampaignState load_campaign(std::istream& in) {
  CampaignState state;
  CampaignConfig& c = state.config;
  expect_keyword(in, "kgdp-campaign");
  int version = 0;
  if (!(in >> version) || version != 1) fail("unsupported version");
  const int schema = static_cast<int>(read_u64(in, "schema_version"));
  if (schema < 1) fail("bad schema_version");
  expect_keyword(in, "grid");
  if (!(in >> c.n_min >> c.n_max >> c.k_min >> c.k_max)) fail("bad grid");
  expect_keyword(in, "mode");
  std::string mode;
  if (!(in >> mode)) fail("bad mode");
  if (mode == "exhaustive") {
    c.mode = verify::CheckMode::kExhaustive;
  } else if (mode == "sampled") {
    c.mode = verify::CheckMode::kSampled;
  } else {
    fail("unknown mode: " + mode);
  }
  c.samples = read_u64(in, "samples");
  c.seed = read_u64(in, "seed");
  expect_keyword(in, "prune");
  std::string prune;
  if (!(in >> prune)) fail("bad prune");
  if (prune == "auto") {
    c.prune = verify::PruneMode::kAuto;
  } else if (prune == "off") {
    c.prune = verify::PruneMode::kOff;
  } else {
    fail("unknown prune mode: " + prune);
  }
  expect_keyword(in, "shard");
  if (!(in >> c.shard_index >> c.shard_count) || c.shard_count < 1 ||
      c.shard_index >= c.shard_count) {
    fail("bad shard spec");
  }
  c.chunk = read_u64(in, "chunk");
  c.checkpoint_every = read_u64(in, "checkpoint_every");
  const std::uint64_t count = read_u64(in, "instances");
  state.instances.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    InstanceState inst;
    expect_keyword(in, "instance");
    std::string status;
    if (!(in >> inst.n >> inst.k >> status)) fail("truncated instance");
    if (status == "pending") {
      inst.status = InstanceStatus::kPending;
    } else if (status == "running") {
      inst.status = InstanceStatus::kRunning;
      // The cursor grammar is token-based and "end"-terminated, so
      // re-serializing one token per line preserves its meaning.
      std::string token;
      std::ostringstream cursor;
      while (true) {
        if (!(in >> token)) fail("truncated cursor block");
        cursor << token << '\n';
        if (token == "end") break;
      }
      inst.cursor = cursor.str();
    } else if (status == "done") {
      inst.status = InstanceStatus::kDone;
      inst.result = load_result(in);
    } else {
      fail("unknown instance status: " + status);
    }
    state.instances.push_back(std::move(inst));
  }
  return state;
}

void write_campaign_file(const std::string& path,
                         const CampaignState& state) {
  std::ostringstream out;
  save_campaign(out, state);
  util::durable_write_file(path, out.str());
}

CampaignState load_campaign_file(const std::string& path) {
  CampaignState state;
  util::CheckpointLoadInfo info;
  util::load_checkpoint_file(
      path, [&state](std::istream& in) { state = load_campaign(in); }, &info);
  for (const std::string& q : info.quarantined) {
    util::log_warn("campaign checkpoint quarantined: ", q);
  }
  if (info.from_backup) {
    util::log_warn("campaign checkpoint ", path,
                   ": primary unusable, restored from backup generation");
  }
  return state;
}

}  // namespace kgdp::campaign
