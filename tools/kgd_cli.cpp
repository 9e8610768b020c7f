// Graph explorer CLI: build any covered (n, k), print its properties,
// verify it, export DOT/JSON, certify it, or run resumable certification
// campaigns over an (n, k) grid.
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/fleet_runner.hpp"
#include "fault/canonical.hpp"
#include "fleet/coordinator.hpp"
#include "io/graph_io.hpp"
#include "kgd/factory.hpp"
#include "net/client.hpp"
#include "net/socket.hpp"
#include "reconfig/atlas.hpp"
#include "service/daemon.hpp"
#include "service/protocol.hpp"
#include "util/backoff.hpp"
#include "util/durable_file.hpp"
#include "util/flags.hpp"
#include "util/stop_signal.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "verify/certificate.hpp"
#include "verify/check_session.hpp"
#include "verify/verdict_cache.hpp"
#include "verify/checker.hpp"
#include "verify/optimality.hpp"
#include "verify/pipeline_solver.hpp"

using namespace kgdp;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: kgd_cli <command> ...\n"
      "  build      <n> <k>              construction summary\n"
      "  dot        <n> <k>              DOT to stdout\n"
      "  verify     <n> <k> [--prune=auto|off] [--threads=T] [--json]\n"
      "                     [--batch=B] [--cache=N]\n"
      "                                  exhaustive GD check (--batch=1\n"
      "                                  forces the legacy per-item sweep;\n"
      "                                  --cache sizes a verdict cache)\n"
      "  route      <n> <k> [v ...] [--atlas=FILE] [--no-atlas]\n"
      "                                  pipeline around the given faulty\n"
      "                                  nodes, atlas-accelerated (--atlas\n"
      "                                  preloads a built artifact;\n"
      "                                  --no-atlas computes directly —\n"
      "                                  the output is identical)\n"
      "  atlas build <n> <k> [--max-faults=M] [--out=FILE] [--shard=i/S]\n"
      "                                  precompute the orbit-keyed route\n"
      "                                  atlas (all fault sets of size\n"
      "                                  <= M, default k; shardable)\n"
      "  atlas info  <file>              print an atlas artifact header\n"
      "  atlas merge --out=FILE <shard>...\n"
      "                                  merge shard artifacts (same graph)\n"
      "  save       <n> <k>              kgdp-graph text to stdout\n"
      "  json       <n> <k>              JSON export to stdout\n"
      "  certify    <n> <k>              GD certificate to stdout\n"
      "  check-cert <file>               re-validate a certificate\n"
      "  campaign run    --nmin=A --nmax=B --kmin=C --kmax=D --out=DIR\n"
      "                  [--mode=exhaustive|sampled] [--samples=S]\n"
      "                  [--seed=X] [--prune=auto|off] [--threads=T]\n"
      "                  [--shard=i/S] [--chunk=N] [--checkpoint-every=N]\n"
      "                  [--max-chunks=N] [--cache=N]\n"
      "                  [--fleet=EP[,EP...]] [--fleet-chunk=N]\n"
      "                  [--lease-grain=G] [--min-steal=N]\n"
      "                  [--heartbeat-ms=MS] [--fleet-reconnect-ms=MS]\n"
      "                  [--fleet-listen=EP]\n"
      "                  --fleet dispatches each exhaustive instance as\n"
      "                  shard leases over remote kgdd workers (each EP is\n"
      "                  unix:PATH or tcp:HOST:PORT; excludes --shard,\n"
      "                  sampled mode, --threads, and --cache); the lease\n"
      "                  table is checkpointed to DIR/fleet.kgdp, so a\n"
      "                  killed coordinator resumes mid-instance;\n"
      "                  --fleet-listen accepts live fleet.join/\n"
      "                  fleet.leave registrations (--fleet may then be\n"
      "                  empty); exit 4 = every worker written off\n"
      "  campaign resume --out=DIR [--threads=T] [--max-chunks=N]\n"
      "                  [--cache=N] [--fleet=EP[,EP...] ...]\n"
      "  campaign merge  --out=DIR <shard-checkpoint>...\n"
      "  campaign status --out=DIR\n"
      "  serve      [--unix=PATH] [--tcp=HOST:PORT] [--threads=T]\n"
      "             [--max-queue=N] [--max-sessions=N] [--chunk=N]\n"
      "             [--drain-dir=DIR] [--checkpoint-every=N]\n"
      "             [--metrics=FILE] [--cache=N] [--atlas=N]\n"
      "             [--atlas-load=FILE[,FILE...]]\n"
      "                  run the kgdd daemon (SIGINT/SIGTERM drains;\n"
      "                  --checkpoint-every also snapshots sessions every\n"
      "                  N chunks so SIGKILL loses at most N chunks;\n"
      "                  --atlas sizes the route atlas, 0 disables;\n"
      "                  --atlas-load preloads built atlas artifacts)\n"
      "  request    <method> --connect=unix:PATH|tcp:HOST:PORT\n"
      "             [--params=JSON] [--tag=T] [--timeout=MS]\n"
      "                  send one request (verify|route|construct|sim.run|\n"
      "                  campaign.status|stats|cancel|ping|shutdown|lease|\n"
      "                  lease.release), print every reply frame\n"
      "  worker     --listen=unix:PATH|tcp:HOST:PORT [--threads=T]\n"
      "             [--chunk=N] [--max-sessions=N] [--join=EP]\n"
      "                  run a fleet worker: a kgdd daemon tuned for\n"
      "                  coordinator-dispatched lease duty (no disk\n"
      "                  checkpoints — the coordinator re-leases from\n"
      "                  streamed cursors on loss); --join announces the\n"
      "                  worker to a running coordinator's --fleet-listen\n"
      "                  endpoint (fleet.leave is sent back on drain)\n");
  return 2;
}

int flag_error(const util::FlagParser& flags) {
  std::fprintf(stderr, "%s\n", flags.error().c_str());
  return usage();
}

// Strict positional-integer parse: the whole token must be a decimal
// number in [min, max]. (std::atoi would silently read "12x" as 12 and
// anything unparsable as 0.)
bool parse_int_arg(const std::string& text, std::int64_t min,
                   std::int64_t max, std::int64_t* out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size()) return false;
  if (v < min || v > max) return false;
  *out = v;
  return true;
}

std::unique_ptr<util::ThreadPool> make_pool(std::int64_t threads) {
  return threads > 0
             ? std::make_unique<util::ThreadPool>(
                   static_cast<unsigned>(threads))
             : nullptr;
}

bool parse_prune(const std::string& text, verify::PruneMode* mode) {
  if (text == "auto") {
    *mode = verify::PruneMode::kAuto;
    return true;
  }
  if (text == "off") {
    *mode = verify::PruneMode::kOff;
    return true;
  }
  return false;
}

int cmd_verify(const kgd::SolutionGraph& sg, int k,
               util::FlagParser& flags) {
  verify::CheckOptions opts;
  if (!parse_prune(flags.get("prune", "auto"), &opts.prune)) {
    std::fprintf(stderr, "flag --prune: expected auto|off\n");
    return usage();
  }
  std::int64_t threads = 0, batch = 0, cache_entries = 0;
  if (!flags.get_int("threads", 0, 0, 4096, &threads) ||
      !flags.get_int("batch", 64, 1, 1 << 20, &batch) ||
      !flags.get_int("cache", 0, 0, INT64_MAX, &cache_entries)) {
    return flag_error(flags);
  }
  opts.batch = static_cast<std::uint32_t>(batch);
  std::unique_ptr<verify::VerdictCache> cache;
  if (cache_entries > 0) {
    cache = std::make_unique<verify::VerdictCache>(
        static_cast<std::size_t>(cache_entries));
    opts.cache = cache.get();
  }
  const auto pool = make_pool(threads);
  opts.pool = pool.get();
  util::Timer t;
  const auto res = verify::run_check(sg, verify::CheckRequest::exhaustive(k, opts));
  if (flags.has("json")) {
    std::fputs(campaign::check_result_to_json(res).dump(2).c_str(), stdout);
    std::fputc('\n', stdout);
    return res.holds ? 0 : 1;
  }
  std::printf("GD(%s, %d): %s  [%llu fault sets, %.2fs]\n",
              sg.name().c_str(), k, res.holds ? "HOLDS" : "FAILS",
              static_cast<unsigned long long>(res.fault_sets_checked),
              t.seconds());
  std::printf(
      "  solved %llu representatives, %llu pruned by symmetry "
      "(|Aut| = %llu)\n",
      static_cast<unsigned long long>(res.fault_sets_solved),
      static_cast<unsigned long long>(res.orbits_pruned),
      static_cast<unsigned long long>(res.automorphism_order));
  std::printf("  walk hits %llu, fallbacks %llu\n",
              static_cast<unsigned long long>(res.solver_walk_hits),
              static_cast<unsigned long long>(res.solver_walk_fallbacks));
  if (opts.cache != nullptr) {
    std::printf("  cache hits %llu, misses %llu, inserts %llu, "
                "evictions %llu\n",
                static_cast<unsigned long long>(res.cache_hits),
                static_cast<unsigned long long>(res.cache_misses),
                static_cast<unsigned long long>(res.cache_inserts),
                static_cast<unsigned long long>(res.cache_evictions));
  }
  if (opts.pool != nullptr) {
    std::printf("  %u workers, %llu steals; solve seconds per worker:",
                opts.pool->thread_count(),
                static_cast<unsigned long long>(res.steal_count));
    for (double s : res.worker_solve_seconds) std::printf(" %.3f", s);
    std::printf("\n");
  }
  if (res.counterexample) {
    std::printf("  counterexample: %s\n",
                res.counterexample->to_string().c_str());
  }
  return res.holds ? 0 : 1;
}

std::string checkpoint_path(const std::string& out_dir) {
  return out_dir + "/checkpoint.kgdp";
}

// Shared tail of `campaign run` and `campaign resume`.
int drive_campaign(campaign::CampaignState state, const std::string& out_dir,
                   std::int64_t threads, std::int64_t max_chunks,
                   std::int64_t cache_entries) {
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", out_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  std::ofstream telemetry_out(out_dir + "/telemetry.jsonl", std::ios::app);
  campaign::TelemetryWriter telemetry(&telemetry_out);
  const auto pool = make_pool(threads);
  campaign::CampaignRunner runner(std::move(state), checkpoint_path(out_dir),
                                  &telemetry, pool.get());
  std::unique_ptr<verify::VerdictCache> cache;
  if (cache_entries > 0) {
    cache = std::make_unique<verify::VerdictCache>(
        static_cast<std::size_t>(cache_entries));
    runner.set_verdict_cache(cache.get());
  }
  campaign::RunLimits limits;
  limits.max_chunks =
      max_chunks > 0 ? static_cast<std::uint64_t>(max_chunks) : 0;
  // SIGINT/SIGTERM interrupt between chunks: the runner checkpoints the
  // in-flight cursor and reports an incomplete outcome (exit 3 below).
  util::StopSignal::instance().install();
  limits.stop = [] { return util::StopSignal::instance().requested(); };
  const campaign::RunOutcome outcome = runner.run(limits);
  std::fputs(campaign::status_summary(runner.state()).c_str(), stdout);
  if (!outcome.complete) {
    std::printf("campaign: INTERRUPTED after %llu chunks (resume with "
                "`kgd_cli campaign resume --out=%s`)\n",
                static_cast<unsigned long long>(outcome.chunks_run),
                out_dir.c_str());
    return 3;
  }
  std::printf("campaign: COMPLETE, %s\n",
              outcome.all_hold ? "all instances HOLD"
                               : "some instances FAIL");
  return outcome.all_hold ? 0 : 1;
}

// Comma-separated endpoint list for --fleet; false on any bad spec.
bool parse_fleet_endpoints(const std::string& text,
                           std::vector<net::Endpoint>* out) {
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = text.find(',', pos);
    const std::string one =
        text.substr(pos, comma == std::string::npos ? std::string::npos
                                                    : comma - pos);
    if (!one.empty()) {
      const auto ep = net::Endpoint::parse(one);
      if (!ep) return false;
      out->push_back(*ep);
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return !out->empty();
}

// Fleet tail of `campaign run --fleet=...` and `campaign resume` against
// a fleet: dispatches every exhaustive instance across the workers.
int drive_campaign_fleet(campaign::CampaignState state,
                         const std::string& out_dir,
                         fleet::FleetConfig fleet_config) {
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", out_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  std::ofstream telemetry_out(out_dir + "/telemetry.jsonl", std::ios::app);
  campaign::TelemetryWriter telemetry(&telemetry_out);
  // Durable lease table: a coordinator SIGKILLed mid-instance resumes
  // the in-flight partition from here on the next run/resume.
  fleet_config.checkpoint_path = out_dir + "/fleet.kgdp";
  fleet::Coordinator coordinator(std::move(fleet_config), &telemetry);
  if (coordinator.listen_tcp_port() > 0) {
    std::printf("fleet: registration listener on tcp port %d\n",
                coordinator.listen_tcp_port());
    std::fflush(stdout);
  }
  campaign::FleetCampaignRunner runner(std::move(state),
                                       checkpoint_path(out_dir),
                                       &coordinator);
  util::StopSignal::instance().install();
  campaign::FleetRunOutcome outcome;
  try {
    outcome =
        runner.run([] { return util::StopSignal::instance().requested(); });
  } catch (const fleet::AllWorkersDeadError& e) {
    std::fprintf(stderr, "fleet: %s\n", e.what());
    std::printf("campaign: ALL WORKERS DEAD (restart workers, then resume "
                "with `kgd_cli campaign resume --out=%s --fleet=...`)\n",
                out_dir.c_str());
    return 4;
  }
  std::fputs(campaign::status_summary(runner.state()).c_str(), stdout);
  std::printf("fleet: %llu instances over %d workers (%llu leases, "
              "%llu stolen, %llu reassigned, %llu worker losses)\n",
              static_cast<unsigned long long>(outcome.instances_run),
              coordinator.worker_count(),
              static_cast<unsigned long long>(outcome.leases_planned),
              static_cast<unsigned long long>(outcome.leases_stolen),
              static_cast<unsigned long long>(outcome.leases_reassigned),
              static_cast<unsigned long long>(outcome.workers_lost));
  if (!outcome.complete) {
    std::printf("campaign: INTERRUPTED (resume with "
                "`kgd_cli campaign resume --out=%s --fleet=...`)\n",
                out_dir.c_str());
    return 3;
  }
  std::printf("campaign: COMPLETE, %s\n",
              outcome.all_hold ? "all instances HOLD"
                               : "some instances FAIL");
  return outcome.all_hold ? 0 : 1;
}

int cmd_campaign(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string sub = argv[2];

  util::FlagParser flags;
  flags.flag("out")
      .flag("threads")
      .flag("max-chunks")
      .flag("cache");
  if (sub == "run" || sub == "resume") {
    flags.flag("fleet").flag("fleet-chunk").flag("lease-grain");
    flags.flag("min-steal").flag("heartbeat-ms").flag("fleet-reconnect-ms");
    flags.flag("fleet-listen");
  }
  if (sub == "run") {
    flags.flag("nmin").flag("nmax").flag("kmin").flag("kmax");
    flags.flag("mode").flag("samples").flag("seed").flag("prune");
    flags.flag("shard").flag("chunk").flag("checkpoint-every");
  }
  if (!flags.parse(argc, argv, 3)) return flag_error(flags);

  const std::string out_dir = flags.get("out");
  if (out_dir.empty()) {
    std::fprintf(stderr, "campaign %s: --out=DIR is required\n",
                 sub.c_str());
    return usage();
  }
  std::int64_t threads = 0, max_chunks = 0, cache_entries = 0;
  if (!flags.get_int("threads", 0, 0, 4096, &threads) ||
      !flags.get_int("max-chunks", 0, 0, INT64_MAX, &max_chunks) ||
      !flags.get_int("cache", 0, 0, INT64_MAX, &cache_entries)) {
    return flag_error(flags);
  }

  // Fleet dispatch (run/resume): lease partitioning replaces both local
  // threading and shard specs, so those knobs conflict rather than
  // silently doing nothing.
  const bool fleet_mode = flags.has("fleet") || flags.has("fleet-listen");
  fleet::FleetConfig fleet_config;
  if (fleet_mode) {
    if (flags.has("fleet-listen")) {
      // Elastic membership: workers fleet.join/fleet.leave here, so the
      // initial --fleet list may be empty (the run waits for joiners).
      const auto listen_ep = net::Endpoint::parse(flags.get("fleet-listen"));
      if (!listen_ep) {
        std::fprintf(stderr,
                     "flag --fleet-listen: expected unix:PATH or "
                     "tcp:HOST:PORT\n");
        return usage();
      }
      fleet_config.listen = *listen_ep;
    }
    if (flags.has("fleet") &&
        !parse_fleet_endpoints(flags.get("fleet"), &fleet_config.workers)) {
      std::fprintf(stderr,
                   "flag --fleet: expected a comma-separated list of "
                   "unix:PATH|tcp:HOST:PORT endpoints\n");
      return usage();
    }
    if (threads != 0 || cache_entries != 0 || max_chunks != 0) {
      std::fprintf(stderr,
                   "campaign %s: --threads/--cache/--max-chunks apply to "
                   "local runs, not --fleet (workers own their pools)\n",
                   sub.c_str());
      return usage();
    }
    std::int64_t v = 0;
    if (!flags.get_int("fleet-chunk", 512, 1, INT64_MAX, &v)) {
      return flag_error(flags);
    }
    fleet_config.chunk = static_cast<std::uint64_t>(v);
    if (!flags.get_int("lease-grain", 4, 1, 1 << 20, &v)) {
      return flag_error(flags);
    }
    fleet_config.lease_grain = static_cast<std::uint64_t>(v);
    if (!flags.get_int("min-steal", 256, 2, INT64_MAX, &v)) {
      return flag_error(flags);
    }
    fleet_config.min_steal_items = static_cast<std::uint64_t>(v);
    if (!flags.get_int("heartbeat-ms", 10000, 100, INT32_MAX, &v)) {
      return flag_error(flags);
    }
    fleet_config.heartbeat_timeout_ms = static_cast<int>(v);
    if (!flags.get_int("fleet-reconnect-ms", 10000, 100, INT32_MAX, &v)) {
      return flag_error(flags);
    }
    fleet_config.reconnect.budget_ms = static_cast<int>(v);
    // The attempt cap scales with the budget; the per-sleep clamp keeps
    // probing frequent enough to catch a worker restart promptly.
    fleet_config.reconnect.max_attempts = INT32_MAX;
  }

  try {
    if (sub == "run") {
      campaign::CampaignConfig config;
      std::int64_t v = 0;
      if (!flags.get_int("nmin", 1, 1, 1 << 20, &v)) return flag_error(flags);
      config.n_min = static_cast<int>(v);
      if (!flags.get_int("nmax", config.n_min, 1, 1 << 20, &v)) {
        return flag_error(flags);
      }
      config.n_max = static_cast<int>(v);
      if (!flags.get_int("kmin", 1, 1, 64, &v)) return flag_error(flags);
      config.k_min = static_cast<int>(v);
      if (!flags.get_int("kmax", config.k_min, 1, 64, &v)) {
        return flag_error(flags);
      }
      config.k_max = static_cast<int>(v);
      const std::string mode = flags.get("mode", "exhaustive");
      if (mode == "exhaustive") {
        config.mode = verify::CheckMode::kExhaustive;
      } else if (mode == "sampled") {
        config.mode = verify::CheckMode::kSampled;
      } else {
        std::fprintf(stderr, "flag --mode: expected exhaustive|sampled\n");
        return usage();
      }
      if (!flags.get_int("samples", 1000, 0, INT64_MAX, &v)) {
        return flag_error(flags);
      }
      config.samples = static_cast<std::uint64_t>(v);
      if (!flags.get_int("seed", 1, 0, INT64_MAX, &v)) {
        return flag_error(flags);
      }
      config.seed = static_cast<std::uint64_t>(v);
      if (!parse_prune(flags.get("prune", "auto"), &config.prune)) {
        std::fprintf(stderr, "flag --prune: expected auto|off\n");
        return usage();
      }
      if (flags.has("shard") &&
          !util::FlagParser::parse_shard(flags.get("shard"),
                                         &config.shard_index,
                                         &config.shard_count)) {
        std::fprintf(stderr,
                     "flag --shard: expected i/S with 0 <= i < S\n");
        return usage();
      }
      if (!flags.get_int("chunk", 256, 1, INT64_MAX, &v)) {
        return flag_error(flags);
      }
      config.chunk = static_cast<std::uint64_t>(v);
      if (!flags.get_int("checkpoint-every", 4, 0, INT64_MAX, &v)) {
        return flag_error(flags);
      }
      config.checkpoint_every = static_cast<std::uint64_t>(v);
      if (fleet_mode) {
        if (config.shard_count != 1) {
          std::fprintf(stderr,
                       "campaign run: --shard and --fleet conflict (leases "
                       "already partition each instance)\n");
          return usage();
        }
        if (config.mode != verify::CheckMode::kExhaustive) {
          std::fprintf(stderr,
                       "campaign run: --fleet requires --mode=exhaustive\n");
          return usage();
        }
        return drive_campaign_fleet(campaign::make_campaign(config), out_dir,
                                    std::move(fleet_config));
      }
      return drive_campaign(campaign::make_campaign(config), out_dir,
                            threads, max_chunks, cache_entries);
    }
    if (sub == "resume") {
      // A run killed between open and rename leaks checkpoint temp
      // files; clear them before touching the checkpoint itself.
      for (const std::string& path : util::remove_stale_tmp_files(out_dir)) {
        std::printf("campaign resume: removed stale temp file %s\n",
                    path.c_str());
      }
      if (fleet_mode) {
        return drive_campaign_fleet(
            campaign::load_campaign_file(checkpoint_path(out_dir)), out_dir,
            std::move(fleet_config));
      }
      return drive_campaign(
          campaign::load_campaign_file(checkpoint_path(out_dir)), out_dir,
          threads, max_chunks, cache_entries);
    }
    if (sub == "merge") {
      if (flags.positionals().empty()) {
        std::fprintf(stderr,
                     "campaign merge: list the shard checkpoint files\n");
        return usage();
      }
      std::error_code ec;
      std::filesystem::create_directories(out_dir, ec);
      if (ec) {
        std::fprintf(stderr, "cannot create %s: %s\n", out_dir.c_str(),
                     ec.message().c_str());
        return 1;
      }
      std::ofstream telemetry_out(out_dir + "/telemetry.jsonl",
                                  std::ios::app);
      campaign::TelemetryWriter telemetry(&telemetry_out);
      std::vector<campaign::CampaignState> shards;
      std::size_t skipped = 0;
      for (const std::string& path : flags.positionals()) {
        try {
          shards.push_back(campaign::load_campaign_file(path));
        } catch (const util::CheckpointError& e) {
          // The loader already quarantined the unusable file; record
          // the skip and keep reading the rest instead of throwing the
          // whole merge away.
          io::JsonObject fields;
          fields["path"] = path;
          fields["kind"] = util::to_string(e.kind());
          fields["error"] = std::string(e.what());
          telemetry.emit("merge_shard_skipped", std::move(fields));
          std::fprintf(stderr, "campaign merge: skipping shard %s (%s): %s\n",
                       path.c_str(), util::to_string(e.kind()), e.what());
          ++skipped;
        }
      }
      if (skipped != 0) {
        std::printf(
            "campaign: MERGE INCOMPLETE — skipped %zu of %zu shard "
            "file(s); re-run the skipped shards and merge again\n",
            skipped, flags.positionals().size());
        return 1;
      }
      const campaign::CampaignState merged = campaign::merge_shards(shards);
      campaign::write_campaign_file(checkpoint_path(out_dir), merged);
      std::fputs(campaign::status_summary(merged).c_str(), stdout);
      bool all_hold = true;
      for (const auto& inst : merged.instances) {
        if (!inst.result.holds) all_hold = false;
      }
      std::printf("campaign: MERGED %zu shards, %s\n", shards.size(),
                  all_hold ? "all instances HOLD" : "some instances FAIL");
      return all_hold ? 0 : 1;
    }
    if (sub == "status") {
      const auto state = campaign::load_campaign_file(checkpoint_path(out_dir));
      std::fputs(campaign::status_summary(state).c_str(), stdout);
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign %s: %s\n", sub.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown campaign subcommand: %s\n", sub.c_str());
  return usage();
}

// Builds, inspects, and merges route-atlas artifacts.
int cmd_atlas(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "atlas: give a subcommand (build|info|merge)\n");
    return usage();
  }
  const std::string sub = argv[2];

  if (sub == "info") {
    util::FlagParser flags;
    if (!flags.parse(argc, argv, 3)) return flag_error(flags);
    if (flags.positionals().size() != 1) {
      std::fprintf(stderr, "atlas info: give exactly one artifact file\n");
      return usage();
    }
    const std::string& path = flags.positionals()[0];
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "atlas info: cannot open %s\n", path.c_str());
      return 1;
    }
    try {
      reconfig::RouteAtlas atlas(std::size_t{1} << 22);
      const reconfig::RouteAtlasFileInfo info = atlas.load(in);
      std::printf("atlas: n=%d k=%d fingerprint=%llu entries=%llu\n",
                  info.n, info.k,
                  static_cast<unsigned long long>(info.graph_fp),
                  static_cast<unsigned long long>(info.entries));
      return 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "atlas info: %s: %s\n", path.c_str(), e.what());
      return 1;
    }
  }

  if (sub == "build") {
    util::FlagParser flags;
    flags.flag("max-faults").flag("out").flag("shard");
    if (!flags.parse(argc, argv, 3)) return flag_error(flags);
    if (flags.positionals().size() != 2) {
      std::fprintf(stderr, "atlas build: give <n> <k>\n");
      return usage();
    }
    std::int64_t n = 0, k = 0, max_faults = 0;
    if (!parse_int_arg(flags.positionals()[0], 1, 1 << 20, &n) ||
        !parse_int_arg(flags.positionals()[1], 1, 64, &k)) {
      std::fprintf(stderr,
                   "atlas build: <n> and <k> must be integers (n >= 1, "
                   "1 <= k <= 64), got '%s' '%s'\n",
                   flags.positionals()[0].c_str(),
                   flags.positionals()[1].c_str());
      return usage();
    }
    if (!flags.get_int("max-faults", k, 0, 64, &max_faults)) {
      return flag_error(flags);
    }
    std::uint32_t shard_index = 0, shard_count = 1;
    if (flags.has("shard") &&
        !util::FlagParser::parse_shard(flags.get("shard"), &shard_index,
                                       &shard_count)) {
      std::fprintf(stderr, "flag --shard: expected i/S with 0 <= i < S\n");
      return usage();
    }
    auto built = kgd::build_solution(static_cast<int>(n),
                                     static_cast<int>(k));
    if (!built) {
      std::fprintf(stderr, "atlas build: no construction for n=%lld k=%lld\n",
                   static_cast<long long>(n), static_cast<long long>(k));
      return 1;
    }
    if (built->num_nodes() > 64) {
      std::fprintf(stderr,
                   "atlas build: the n=%lld k=%lld graph has %d nodes; "
                   "graphs over 64 nodes are routed without an atlas\n",
                   static_cast<long long>(n), static_cast<long long>(k),
                   built->num_nodes());
      return 1;
    }
    try {
      reconfig::RouteAtlas atlas(std::size_t{1} << 22);
      reconfig::Router router(*built, &atlas);
      util::Timer t;
      std::uint64_t slots = 0;
      const std::uint64_t inserted = router.build_atlas(
          static_cast<int>(max_faults), shard_index, shard_count, &slots);
      const std::string out_path = flags.get("out");
      if (out_path.empty()) {
        atlas.save(std::cout, router.graph_fp(), static_cast<int>(n),
                   static_cast<int>(k));
      } else {
        std::ofstream out(out_path);
        if (!out) {
          std::fprintf(stderr, "atlas build: cannot write %s\n",
                       out_path.c_str());
          return 1;
        }
        atlas.save(out, router.graph_fp(), static_cast<int>(n),
                   static_cast<int>(k));
      }
      std::fprintf(stderr,
                   "atlas build: %llu routes from %llu orbit slots "
                   "(shard %u/%u, max_faults=%lld) in %.2fs\n",
                   static_cast<unsigned long long>(inserted),
                   static_cast<unsigned long long>(slots), shard_index,
                   shard_count, static_cast<long long>(max_faults),
                   t.seconds());
      return 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "atlas build: %s\n", e.what());
      return 1;
    }
  }

  if (sub == "merge") {
    util::FlagParser flags;
    flags.flag("out");
    if (!flags.parse(argc, argv, 3)) return flag_error(flags);
    const std::string out_path = flags.get("out");
    if (out_path.empty()) {
      std::fprintf(stderr, "atlas merge: --out=FILE is required\n");
      return usage();
    }
    if (flags.positionals().empty()) {
      std::fprintf(stderr, "atlas merge: list the shard artifact files\n");
      return usage();
    }
    try {
      reconfig::RouteAtlas atlas(std::size_t{1} << 22);
      reconfig::RouteAtlasFileInfo first;
      bool have_first = false;
      for (const std::string& path : flags.positionals()) {
        std::ifstream in(path);
        if (!in) {
          std::fprintf(stderr, "atlas merge: cannot open %s\n",
                       path.c_str());
          return 1;
        }
        // Fingerprint pinning: every shard must describe the graph the
        // first one does, or the merged artifact would mix key spaces.
        const reconfig::RouteAtlasFileInfo info =
            atlas.load(in, have_first ? first.graph_fp : 0);
        if (!have_first) {
          first = info;
          have_first = true;
        }
      }
      std::ofstream out(out_path);
      if (!out) {
        std::fprintf(stderr, "atlas merge: cannot write %s\n",
                     out_path.c_str());
        return 1;
      }
      atlas.save(out, first.graph_fp, first.n, first.k);
      std::printf("atlas merge: %llu routes for n=%d k=%d -> %s\n",
                  static_cast<unsigned long long>(atlas.size()), first.n,
                  first.k, out_path.c_str());
      return 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "atlas merge: %s\n", e.what());
      return 1;
    }
  }

  std::fprintf(stderr, "unknown atlas subcommand '%s' (expected build|info|"
               "merge)\n", sub.c_str());
  return usage();
}

int cmd_serve(int argc, char** argv) {
  util::FlagParser flags;
  flags.flag("unix").flag("tcp").flag("threads").flag("max-queue");
  flags.flag("max-sessions").flag("chunk").flag("drain-dir").flag("metrics");
  flags.flag("checkpoint-every").flag("cache").flag("atlas");
  flags.flag("atlas-load");
  if (!flags.parse(argc, argv, 2)) return flag_error(flags);

  service::DaemonConfig config;
  if (flags.has("unix")) {
    config.endpoints.push_back(net::Endpoint::unix_path(flags.get("unix")));
  }
  if (flags.has("tcp")) {
    const auto ep = net::Endpoint::parse("tcp:" + flags.get("tcp"));
    if (!ep) {
      std::fprintf(stderr, "flag --tcp: expected HOST:PORT\n");
      return usage();
    }
    config.endpoints.push_back(*ep);
  }
  if (config.endpoints.empty()) {
    std::fprintf(stderr, "serve: give --unix=PATH and/or --tcp=HOST:PORT\n");
    return usage();
  }
  std::int64_t v = 0;
  if (!flags.get_int("threads", 0, 0, 4096, &v)) return flag_error(flags);
  config.service.threads = static_cast<unsigned>(v);
  if (!flags.get_int("max-queue", 64, 0, 1 << 20, &v)) {
    return flag_error(flags);
  }
  config.service.max_queue = static_cast<std::size_t>(v);
  if (!flags.get_int("max-sessions", 8, 1, 4096, &v)) {
    return flag_error(flags);
  }
  config.service.max_sessions = static_cast<std::size_t>(v);
  if (!flags.get_int("chunk", 512, 1, INT64_MAX, &v)) {
    return flag_error(flags);
  }
  config.service.default_chunk = static_cast<std::uint64_t>(v);
  config.service.drain_dir = flags.get("drain-dir", ".");
  if (!flags.get_int("checkpoint-every", 0, 0, INT64_MAX, &v)) {
    return flag_error(flags);
  }
  config.service.session_checkpoint_every = static_cast<std::uint64_t>(v);
  config.service.metrics_path = flags.get("metrics");
  if (!flags.get_int("cache", 0, 0, INT64_MAX, &v)) {
    return flag_error(flags);
  }
  config.service.cache_entries = static_cast<std::uint64_t>(v);
  if (!flags.get_int("atlas", 1 << 20, 0, INT64_MAX, &v)) {
    return flag_error(flags);
  }
  config.service.atlas_entries = static_cast<std::uint64_t>(v);
  if (flags.has("atlas-load")) {
    // Comma-separated artifact list; the service throws at startup on
    // an unreadable or malformed file.
    std::string paths = flags.get("atlas-load");
    std::size_t pos = 0;
    while (pos <= paths.size()) {
      const std::size_t comma = paths.find(',', pos);
      const std::string one =
          paths.substr(pos, comma == std::string::npos ? std::string::npos
                                                       : comma - pos);
      if (!one.empty()) config.service.atlas_paths.push_back(one);
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  }

  try {
    service::Daemon daemon(std::move(config));
    if (flags.has("unix")) {
      std::printf("kgdd: listening on unix:%s\n", flags.get("unix").c_str());
    }
    if (daemon.tcp_port() != 0) {
      std::printf("kgdd: listening on tcp port %d\n", daemon.tcp_port());
    }
    std::fflush(stdout);
    daemon.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve: %s\n", e.what());
    return 1;
  }
  std::printf("kgdd: drained\n");
  return 0;
}

// A fleet worker is a kgdd daemon with lease-duty defaults: no session
// disk checkpoints (lease recovery is the coordinator's job, from
// streamed cursors) and no verdict cache (cache hits would perturb the
// per-lease solve counters that fleet accounting reports; the service
// never attaches the cache to lease sessions anyway).
// One registration round-trip against a coordinator's --fleet-listen
// endpoint (`fleet.join` on startup, `fleet.leave` on drain): dials with
// a short bounded backoff, sends {method, params:{endpoint}}, and waits
// for the terminal result/error frame. Returns false (with a logged
// reason) on any failure — registration is advisory, so the worker
// keeps serving either way.
bool register_with_coordinator(const net::Endpoint& coordinator,
                               const std::string& method,
                               const std::string& self_endpoint) {
  util::BackoffPolicy policy;
  policy.budget_ms = 10000;
  policy.max_attempts = 20;
  util::Backoff backoff(policy);
  std::optional<net::Client> client;
  std::string error;
  while (true) {
    client = net::Client::connect(coordinator, &error);
    if (client.has_value()) break;
    int delay_ms = 0;
    if (!backoff.next_delay(&delay_ms)) {
      std::fprintf(stderr, "worker: %s: cannot reach coordinator %s: %s\n",
                   method.c_str(), coordinator.to_string().c_str(),
                   error.c_str());
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
  }
  io::JsonObject params;
  params["endpoint"] = self_endpoint;
  io::JsonObject frame;
  frame["method"] = method;
  frame["params"] = io::Json(std::move(params));
  frame["schema_version"] = io::kSchemaVersion;
  if (!client->send_line(io::Json(std::move(frame)).dump(), &error)) {
    std::fprintf(stderr, "worker: %s: send failed: %s\n", method.c_str(),
                 error.c_str());
    return false;
  }
  const net::Client::ReadResult res = client->read_frame(5000);
  if (res.status != net::ReadStatus::kOk) {
    std::fprintf(stderr, "worker: %s: no reply from coordinator (%s)\n",
                 method.c_str(), net::to_string(res.status));
    return false;
  }
  try {
    const io::Json reply = io::Json::parse(res.frame);
    if (const io::Json* type = reply.find("type");
        type != nullptr && type->is_string() && type->as_string() == "error") {
      const io::Json* msg = reply.find("message");
      std::fprintf(stderr, "worker: %s rejected: %s\n", method.c_str(),
                   msg != nullptr && msg->is_string()
                       ? msg->as_string().c_str()
                       : res.frame.c_str());
      return false;
    }
  } catch (const io::JsonParseError& e) {
    std::fprintf(stderr, "worker: %s: bad reply: %s\n", method.c_str(),
                 e.what());
    return false;
  }
  return true;
}

int cmd_worker(int argc, char** argv) {
  util::FlagParser flags;
  flags.flag("listen").flag("threads").flag("chunk").flag("max-sessions");
  flags.flag("join");
  if (!flags.parse(argc, argv, 2)) return flag_error(flags);

  service::DaemonConfig config;
  const auto ep = net::Endpoint::parse(flags.get("listen"));
  if (!ep) {
    std::fprintf(stderr,
                 "worker: --listen=unix:PATH|tcp:HOST:PORT is required\n");
    return usage();
  }
  config.endpoints.push_back(*ep);
  std::int64_t v = 0;
  if (!flags.get_int("threads", 0, 0, 4096, &v)) return flag_error(flags);
  config.service.threads = static_cast<unsigned>(v);
  if (!flags.get_int("chunk", 512, 1, INT64_MAX, &v)) {
    return flag_error(flags);
  }
  config.service.default_chunk = static_cast<std::uint64_t>(v);
  if (!flags.get_int("max-sessions", 8, 1, 4096, &v)) {
    return flag_error(flags);
  }
  config.service.max_sessions = static_cast<std::size_t>(v);
  config.service.session_checkpoint_every = 0;
  config.service.cache_entries = 0;
  config.service.atlas_entries = 0;

  std::optional<net::Endpoint> coordinator;
  if (flags.has("join")) {
    coordinator = net::Endpoint::parse(flags.get("join"));
    if (!coordinator) {
      std::fprintf(stderr,
                   "worker: --join=unix:PATH|tcp:HOST:PORT names the "
                   "coordinator's --fleet-listen endpoint\n");
      return usage();
    }
  }

  try {
    service::Daemon daemon(std::move(config));
    if (ep->kind == net::Endpoint::Kind::kUnix) {
      std::printf("kgdd worker: listening on unix:%s\n", ep->path.c_str());
    }
    if (daemon.tcp_port() != 0) {
      std::printf("kgdd worker: listening on tcp port %d\n",
                  daemon.tcp_port());
    }
    std::fflush(stdout);
    if (coordinator.has_value()) {
      // Elastic membership: announce our serving endpoint (resolving an
      // ephemeral TCP port to the bound one) so the coordinator dials
      // back and starts granting leases.
      net::Endpoint self = *ep;
      if (self.kind == net::Endpoint::Kind::kTcp && self.port == 0) {
        self.port = daemon.tcp_port();
      }
      if (register_with_coordinator(*coordinator, "fleet.join",
                                    self.to_string())) {
        std::printf("kgdd worker: joined fleet at %s\n",
                    coordinator->to_string().c_str());
        std::fflush(stdout);
      }
      daemon.run();
      // Best-effort detach: lease sessions have already drained their
      // cursors back; fleet.leave just spares the coordinator a
      // reconnect storm against a gone worker.
      register_with_coordinator(*coordinator, "fleet.leave",
                                self.to_string());
    } else {
      daemon.run();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "worker: %s\n", e.what());
    return 1;
  }
  std::printf("kgdd worker: drained\n");
  return 0;
}

int cmd_request(int argc, char** argv) {
  util::FlagParser flags;
  flags.flag("connect").flag("params").flag("tag").flag("timeout");
  if (!flags.parse(argc, argv, 2)) return flag_error(flags);
  if (flags.positionals().empty()) {
    std::fprintf(stderr, "request: give the method name\n");
    return usage();
  }
  const auto ep = net::Endpoint::parse(flags.get("connect"));
  if (!ep) {
    std::fprintf(stderr,
                 "request: --connect=unix:PATH|tcp:HOST:PORT is required\n");
    return usage();
  }
  std::int64_t timeout = 0;
  if (!flags.get_int("timeout", 600000, -1, INT32_MAX, &timeout)) {
    return flag_error(flags);
  }

  io::JsonObject request;
  request["method"] = flags.positionals()[0];
  if (flags.has("params")) {
    try {
      request["params"] = io::Json::parse(flags.get("params"));
    } catch (const io::JsonParseError& e) {
      std::fprintf(stderr, "request: bad --params JSON: %s\n", e.what());
      return 2;
    }
  }
  if (flags.has("tag")) request["tag"] = flags.get("tag");

  std::string error;
  std::optional<net::Client> client;
  // A restarting daemon refuses TCP connects (ECONNREFUSED) or has not
  // recreated its unix socket yet (ENOENT); both are transient, so
  // retry with bounded backoff — capped on attempts AND total
  // wall-clock (the old attempt-only loop could stall for the full
  // geometric sum) — and surface the final errno on give-up.
  util::Backoff backoff;
  while (true) {
    int connect_errno = 0;
    client = net::Client::connect(*ep, &error, &connect_errno);
    if (client) break;
    const bool retryable = connect_errno == ECONNREFUSED ||
                           connect_errno == ENOENT ||
                           connect_errno == ECONNRESET;
    int delay_ms = 0;
    if (!retryable || !backoff.next_delay(&delay_ms)) {
      std::fprintf(stderr,
                   "request: cannot connect to %s after %d attempts over "
                   "%d ms: %s (errno %d)\n",
                   ep->to_string().c_str(), backoff.attempts() + 1,
                   backoff.elapsed_ms(), error.c_str(), connect_errno);
      return 1;
    }
    std::fprintf(stderr, "request: %s; retrying in %d ms\n", error.c_str(),
                 delay_ms);
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
  }
  if (!client->send_json(io::Json(std::move(request)), &error)) {
    std::fprintf(stderr, "request: %s\n", error.c_str());
    return 1;
  }
  while (true) {
    net::ReadStatus status = net::ReadStatus::kError;
    const auto frame =
        client->read_json(static_cast<int>(timeout), &error, &status);
    if (!frame) {
      if (status == net::ReadStatus::kClosed) {
        std::fprintf(stderr,
                     "request: server closed connection before a terminal "
                     "frame\n");
      } else if (status == net::ReadStatus::kTimeout) {
        std::fprintf(stderr,
                     "request: timed out after %lld ms waiting for a reply\n",
                     static_cast<long long>(timeout));
      } else {
        std::fprintf(stderr, "request: %s\n", error.c_str());
      }
      return 1;
    }
    std::printf("%s\n", frame->dump().c_str());
    std::fflush(stdout);
    if (service::is_terminal_frame(*frame)) {
      const io::Json* type = frame->find("type");
      return type != nullptr && type->is_string() &&
                     type->as_string() == "result"
                 ? 0
                 : 1;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];

  // Closed command set: anything else fails with a message naming the
  // offender instead of the bare usage fallthrough.
  static const char* const kCommands[] = {
      "build", "dot", "verify", "route", "atlas", "save", "json",
      "certify", "check-cert", "campaign", "serve", "request", "worker"};
  bool known = false;
  for (const char* c : kCommands) known = known || cmd == c;
  if (!known) {
    std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
    return usage();
  }

  if (cmd == "campaign") return cmd_campaign(argc, argv);
  if (cmd == "serve") return cmd_serve(argc, argv);
  if (cmd == "request") return cmd_request(argc, argv);
  if (cmd == "worker") return cmd_worker(argc, argv);
  if (cmd == "atlas") return cmd_atlas(argc, argv);

  if (argc < 3) {
    std::fprintf(stderr, "%s: missing arguments\n", cmd.c_str());
    return usage();
  }

  if (cmd == "check-cert") {
    std::ifstream in(argv[2]);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", argv[2]);
      return 1;
    }
    const auto stats = verify::check_certificate(in);
    std::printf("certificate: %s (%llu entries)\n",
                stats.ok() ? "VALID" : "INVALID",
                static_cast<unsigned long long>(stats.entries));
    if (!stats.ok()) std::printf("  %s\n", stats.error.c_str());
    return stats.ok() ? 0 : 1;
  }

  util::FlagParser flags;
  if (cmd == "verify") {
    flags.flag("prune").flag("threads").flag("json", /*requires_value=*/false);
    flags.flag("batch").flag("cache");
  }
  if (cmd == "route") {
    flags.flag("atlas").flag("no-atlas", /*requires_value=*/false);
  }
  if (!flags.parse(argc, argv, 2)) return flag_error(flags);
  if (flags.positionals().size() < 2) {
    std::fprintf(stderr, "%s: give <n> <k>\n", cmd.c_str());
    return usage();
  }
  std::int64_t n64 = 0, k64 = 0;
  if (!parse_int_arg(flags.positionals()[0], 1, 1 << 20, &n64) ||
      !parse_int_arg(flags.positionals()[1], 1, 64, &k64)) {
    std::fprintf(stderr,
                 "%s: <n> and <k> must be integers (n >= 1, 1 <= k <= 64), "
                 "got '%s' '%s'\n",
                 cmd.c_str(), flags.positionals()[0].c_str(),
                 flags.positionals()[1].c_str());
    return usage();
  }
  const int n = static_cast<int>(n64);
  const int k = static_cast<int>(k64);

  auto built = kgd::build_solution(n, k);
  if (!built) {
    std::fprintf(stderr,
                 "no construction for n=%d k=%d (paper coverage: n<=3 any "
                 "k; k<=3 any n; k>=4 with n>=2k+5)\n",
                 n, k);
    return 1;
  }
  const kgd::SolutionGraph& sg = *built;

  if (cmd == "build") {
    std::printf("%s via %s\n", sg.name().c_str(),
                kgd::construction_method(n, k).c_str());
    std::printf("  nodes: %d (%d inputs, %d outputs, %d processors)\n",
                sg.num_nodes(), sg.num_inputs(), sg.num_outputs(),
                sg.num_processors());
    std::printf("  edges: %zu\n", sg.graph().num_edges());
    const auto rep = verify::certify_optimality(sg);
    std::printf("  %s\n", rep.summary().c_str());
    return 0;
  }
  if (cmd == "dot") {
    std::fputs(sg.to_dot().c_str(), stdout);
    return 0;
  }
  if (cmd == "verify") return cmd_verify(sg, k, flags);
  if (cmd == "save") {
    io::save_solution(std::cout, sg);
    return 0;
  }
  if (cmd == "json") {
    std::fputs(io::solution_to_json(sg).dump(2).c_str(), stdout);
    std::fputc('\n', stdout);
    return 0;
  }
  if (cmd == "certify") {
    try {
      verify::write_certificate(std::cout, sg, k);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cannot certify: %s\n", e.what());
      return 1;
    }
    return 0;
  }
  if (cmd == "route") {
    std::vector<int> faulty;
    for (std::size_t i = 2; i < flags.positionals().size(); ++i) {
      std::int64_t v = 0;
      if (!parse_int_arg(flags.positionals()[i], 0, sg.num_nodes() - 1,
                         &v)) {
        std::fprintf(stderr,
                     "route: faulty node '%s' must be an integer in "
                     "[0, %d) (the n=%d k=%d graph has %d nodes)\n",
                     flags.positionals()[i].c_str(), sg.num_nodes(), n, k,
                     sg.num_nodes());
        return usage();
      }
      faulty.push_back(static_cast<int>(v));
    }
    if (flags.has("atlas") && flags.has("no-atlas")) {
      std::fprintf(stderr, "route: --atlas and --no-atlas conflict\n");
      return usage();
    }
    std::unique_ptr<reconfig::RouteAtlas> atlas;
    if (!flags.has("no-atlas")) {
      atlas = std::make_unique<reconfig::RouteAtlas>(std::size_t{1} << 22);
    }
    reconfig::Router router(sg, atlas.get());
    if (flags.has("atlas")) {
      const std::string path = flags.get("atlas");
      std::ifstream in(path);
      if (!in) {
        std::fprintf(stderr, "route: cannot open atlas artifact %s\n",
                     path.c_str());
        return 1;
      }
      try {
        atlas->load(in, router.graph_fp());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "route: %s: %s\n", path.c_str(), e.what());
        return 1;
      }
    }
    const kgd::FaultSet fs(sg.num_nodes(), faulty);
    auto scratch = std::make_unique<fault::FaultCanonicalizer::Scratch>();
    const reconfig::Router::Result res = router.route(fs, *scratch);
    if (!res.feasible) {
      std::printf("no pipeline with faults %s\n", fs.to_string().c_str());
      return 1;
    }
    std::printf("pipeline (%d processors): %s\n",
                res.pipeline.num_processors(),
                res.pipeline.to_string(sg).c_str());
    return 0;
  }
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  return usage();
}
