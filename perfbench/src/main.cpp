// Repo benchmark program. One run executes one workload:
//
//   kgd_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Every run performs the three user-facing operations — exhaustive
// certification (verify::run_check), routing through an in-process kgdd
// (service::Daemon reached through net::Client) and a fleet campaign
// (campaign::FleetCampaignRunner over fleet::Coordinator) — so every run
// reports every end-to-end metric. A workload names the graph it
// certifies, which runs for at least S seconds; the serving and fleet load
// is the same fixed size on every workload. See perfbench/README.md for
// why each workload exists and which layer metric should move which
// end-to-end metric.
//
// --trace 0 prints the end-to-end metrics; --trace 1 replays the same
// inputs through the public layer functions and prints the per-layer
// metrics. The last stdout line is the JSON result; the line before it
// stamps the host.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "certify.hpp"
#include "common.hpp"
#include "fleet.hpp"
#include "serve.hpp"

namespace perfbench {
namespace {

namespace kgd = kgdp::kgd;
namespace io = kgdp::io;

// A workload is the graph it certifies, which is its focus. Both
// workloads also run the same serving and fleet load at a fixed size.
struct Workload {
  const char* name;
  CertifySpec certify;
};

unsigned pool_threads() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

// Per round: small stream over graphs of <= 64 nodes (atlas-served)
// beside large routes on > 64-node graphs; one campaign over G(10..11,3).
const ServeSpec kServe = {{{8, 2}, {12, 3}, {22, 4}}, {66, 72, 80}, 4, 25, 4000};
// Large routes sent alone before each operation of a round (three bursts
// per round), so their samples are spread over the whole run.
constexpr int kAloneBurst = 35;
const FleetSpec kFleet = {10, 11, 3, 1};

std::vector<Workload> workloads() {
  return {{"certify_walk", {26, 5, pool_threads(), 1}},
          {"certify_fallback", {36, 4, 1, 1}}};
}

// Everything set up before the first timed operation. Socket and
// checkpoint file names start with `prefix`, so two rigs can coexist.
struct Rig {
  Rig(const Workload& w, bool observe, Report& report,
      const std::string& prefix = "")
      : cert_graph(build_graph(w.certify.n, w.certify.k)),
        pool(std::make_unique<kgdp::util::ThreadPool>(w.certify.threads)),
        serve(std::make_unique<ServeRig>(kServe, prefix + "serve.sock", report)),
        fleet(std::make_unique<FleetRig>(kFleet, observe, prefix)) {}
  kgd::SolutionGraph cert_graph;
  std::unique_ptr<kgdp::util::ThreadPool> pool;
  std::unique_ptr<ServeRig> serve;
  std::unique_ptr<FleetRig> fleet;
};

// A run is kRounds rounds of (certify, serve, fleet), so a stretch of
// host contention spoils a share of every metric's samples rather than
// all samples of one metric. The certification focus runs for --seconds
// split evenly over the rounds, and at least one sweep per round.
constexpr int kRounds = 4;

void end_to_end(const Workload& w, std::uint64_t seed, double seconds,
                Report& report) {
  // Set-up is timed on spare rigs, built and torn down at the start of
  // every round, so its median samples the whole run as the other
  // metrics do. The rig that carries the load is built once, untimed.
  constexpr int kSetupsPerRound = 10;
  std::vector<double> setup_s;
  const Rig rig(w, false, report);

  CertifyRun cert;
  ServeLoad serve(*rig.serve, seed, false);
  std::vector<double> campaigns;
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < kSetupsPerRound; ++i) {
      const auto t = Clock::now();
      const Rig spare(w, false, report, "spare-");
      setup_s.push_back(seconds_since(t));
    }
    serve.alone(kAloneBurst, report);
    run_certify(rig.cert_graph, w.certify, rig.pool.get(),
                seconds / kRounds, &cert, report);
    serve.alone(kAloneBurst, report);
    serve.run(kServe.min_small, kServe.min_large, report);
    serve.alone(kAloneBurst, report);
    run_fleet(*rig.fleet, kFleet, &campaigns, report);
  }
  const ServeRun& routes = serve.result();

  report.metric("setup_s", median(setup_s), "s");
  report.metric("certify_s", median(cert.pool_s), "s");
  report.metric("certify_1t_s", median(cert.single_s), "s");
  report.metric("route_large_p50_ms", median(routes.large_alone_ms), "ms");
  report.metric("campaign_s", median(campaigns), "s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// Traced run: one untraced pass of each operation for the counters and
// the end-to-end denominators, then the replays through the layers.
void per_layer(const Workload& w, std::uint64_t seed, Report& report) {
  double build_s = 0.0;
  {
    std::vector<std::pair<int, int>> graphs = kServe.small;
    graphs.emplace_back(w.certify.n, w.certify.k);
    for (int n : kServe.large_n) graphs.emplace_back(n, kServe.large_k);
    for (int n = kFleet.n_min; n <= kFleet.n_max; ++n) {
      graphs.emplace_back(n, kFleet.k);
    }
    for (const auto& [n, k] : graphs) {
      const auto t = Clock::now();
      build_graph(n, k);
      build_s += seconds_since(t);
    }
  }
  Rig rig(w, true, report);

  // Certification: two (pool, single) pairs, the second one used, then
  // the single-threaded replay.
  CertifySpec twice = w.certify;
  twice.min_reps = 2;
  CertifyRun cert;
  run_certify(rig.cert_graph, twice, rig.pool.get(), 0.0, &cert, report);
  const kgdp::verify::CheckResult& single = cert.single_last;
  const kgdp::verify::CheckResult& pooled = cert.pool_last;
  const CertifyTrace ct = trace_certify(rig.cert_graph, w.certify.k);
  report.require(ct.unsolved == 0, "certify replay: a fault set had no pipeline");
  report.require(single.orbits_pruned == 0 &&
                     ct.walk_hits == single.solver_walk_hits &&
                     ct.walk_fallbacks == single.solver_walk_fallbacks &&
                     ct.search_nodes == single.solver_search_nodes,
                 "certify replay: walk hits " + std::to_string(ct.walk_hits) +
                     "/" + std::to_string(single.solver_walk_hits) +
                     ", fallbacks " + std::to_string(ct.walk_fallbacks) + "/" +
                     std::to_string(single.solver_walk_fallbacks) +
                     ", search nodes " + std::to_string(ct.search_nodes) +
                     "/" + std::to_string(single.solver_search_nodes));
  const double single_s = cert.single_s.back();
  const double pool_s = cert.pool_s.back();
  const std::vector<double>& ws = pooled.worker_solve_seconds;
  double ws_max = 0.0, ws_sum = 0.0;
  for (double s : ws) {
    ws_max = std::max(ws_max, s);
    ws_sum += s;
  }

  // Serving: the end-to-end run's serving requests, recorded, then
  // stats, the server probe and the replay.
  ServeLoad load(*rig.serve, seed, true);
  const auto serve_t = Clock::now();
  for (int round = 0; round < kRounds; ++round) {
    load.alone(2 * kAloneBurst, report);
    load.run(kServe.min_small, kServe.min_large, report);
    load.alone(kAloneBurst, report);
  }
  const double serve_s = seconds_since(serve_t);
  const ServeRun& serve = load.result();
  const auto stats = request_stats(rig.serve->small_conn(), report);
  const ServerProbe probe = probe_server(*rig.serve, serve, 1000, report);
  const ServeTrace st = trace_serve(*rig.serve, serve);
  report.require(st.mismatches == 0,
                 "serve replay: " + std::to_string(st.mismatches) +
                     " routes differ from the wire replies");
  double atlas_hits = 0.0, atlas_misses = 0.0, atlas_inserts = 0.0;
  std::uint64_t overloaded = 0;
  if (stats) {
    const io::Json* atlas = stats->find("atlas");
    atlas_hits = static_cast<double>(int_field(atlas, "hits"));
    atlas_misses = static_cast<double>(int_field(atlas, "misses"));
    atlas_inserts = static_cast<double>(int_field(atlas, "inserts"));
    overloaded = route_stats(*stats, "route").overloaded;
  }

  // Fleet: one campaign with stamped telemetry and observed checkpoints.
  rig.fleet->telemetry_lines().take();
  std::vector<double> campaigns;
  run_fleet(*rig.fleet, kFleet, &campaigns, report);
  const double campaign_s = campaigns.empty() ? 0.0 : campaigns.front();
  const FleetTrace ft = analyse_telemetry(rig.fleet->telemetry_lines().take());
  double lease_busy_s = 0.0;
  for (const io::Json& ws_stats : rig.fleet->worker_stats(report)) {
    lease_busy_s += route_stats(ws_stats, "lease").sum_ms / 1e3;
  }
  const Span ckpt = trace_checkpoint_writes(rig.fleet->take_payloads());
  const double local_s = run_local_campaign(*rig.fleet, kFleet, report);
  const double workers = FleetRig::kWorkers;

  const double solves = static_cast<double>(single.fault_sets_solved);
  report.metric("fault.enum_ns_per_set", ct.enumerate.per_item(1e9), "ns");
  report.metric("fault.canon_us", st.canon.per_item(1e6), "us");
  report.metric("verify.solves", solves, "count");
  report.metric("verify.patches", static_cast<double>(single.solver_patches), "count");
  report.metric("verify.rebuilds", static_cast<double>(single.solver_rebuilds), "count");
  report.metric("verify.setup_ns_per_set", ct.setup.per_item(1e9), "ns");
  report.metric("verify.ns_per_solve", ratio(single_s * 1e9, solves), "ns");
  report.metric("verify.walk_hits", static_cast<double>(single.solver_walk_hits), "count");
  report.metric("verify.walk_fallbacks",
                static_cast<double>(single.solver_walk_fallbacks), "count");
  report.metric("verify.walk_hit_ratio",
                ratio(static_cast<double>(single.solver_walk_hits),
                      static_cast<double>(single.solver_walk_hits +
                                          single.solver_walk_fallbacks)),
                "ratio");
  report.metric("graph.walk_ns_per_set", ct.walk.per_item(1e9), "ns");
  report.metric("graph.search_nodes", static_cast<double>(ct.search_nodes), "count");
  report.metric("graph.exact_s", ct.exact.seconds, "s");
  report.metric("graph.exact_ms_per_fallback", ct.exact.per_item(1e3), "ms");
  report.metric("graph.automorphism_ms", st.automorphism_s * 1e3, "ms");
  report.metric("util.steals", static_cast<double>(pooled.steal_count), "count");
  report.metric("util.worker_imbalance",
                ratio(ws_max, ws_sum / static_cast<double>(std::max<std::size_t>(1, ws.size()))),
                "ratio");
  report.metric("util.scaling_eff",
                ratio(single_s, static_cast<double>(w.certify.threads) * pool_s),
                "ratio");
  report.metric("util.ckpt_write_ms", ckpt.per_item(1e3), "ms");
  report.metric("reconfig.atlas_hit_ratio",
                ratio(atlas_hits, atlas_hits + atlas_misses), "ratio");
  report.metric("reconfig.atlas_inserts", atlas_inserts, "count");
  report.metric("reconfig.route_us", st.route.per_item(1e6), "us");
  report.metric("reconfig.large_route_ms", st.large_route.per_item(1e3), "ms");
  // Client-side figures of the mixed phase: measured, but too sensitive
  // to host CPU steal to gate on (see STEADINESS.md).
  report.metric("route_p50_us", quantile(serve.single_us, 0.50), "us");
  report.metric("route_p99_us",
                windowed_quantile(serve.single_us, kSmallWindow, 0.99), "us");
  report.metric("routes_per_s", median(serve.small_window_rate), "1/s");
  report.metric("route_large_p90_ms",
                windowed_quantile(serve.large_ms, kLargeWindow, 0.90), "ms");
  report.metric("route_large_mixed_p50_ms", median(serve.large_ms), "ms");
  report.metric("io.parse_us", st.parse.per_item(1e6), "us");
  report.metric("io.serialize_us", st.serialize.per_item(1e6), "us");
  report.metric("service.route_server_mean_us", probe.server_mean_us, "us");
  report.metric("net.wire_mean_us", probe.client_mean_us - probe.server_mean_us,
                "us");
  report.metric("service.overloaded", static_cast<double>(overloaded), "count");
  report.metric("fleet.leases", static_cast<double>(ft.leases), "count");
  report.metric("fleet.steals", static_cast<double>(ft.steals), "count");
  report.metric("fleet.lease_ms_p50", median(ft.lease_ms), "ms");
  report.metric("fleet.grant_gap_ms_p50", median(ft.grant_gap_ms), "ms");
  report.metric("fleet.worker_busy_share",
                ratio(lease_busy_s, workers * campaign_s), "ratio");
  report.metric("campaign.local_s", local_s, "s");
  report.metric("kgd.build_ms", build_s * 1e3, "ms");
  // Traced layer time of all three replays over the untraced time of the
  // operations replayed: the single-threaded sweep, the serving rounds
  // (wall time; both streams run at once) and the fleet campaign.
  const double traced_s = ct.total_seconds() + st.total_seconds() + ckpt.seconds;
  report.metric("trace.coverage",
                ratio(traced_s, single_s + serve_s + campaign_s), "ratio");
  report.metric("fail_ratio",
                ratio(static_cast<double>(report.failed()),
                      static_cast<double>(report.attempted())),
                "ratio");
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args* args) {
  bool have[4] = {};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have[1] = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have[2] = *end == '\0' && args->seconds > 0.0 && args->seconds <= 600.0;
    } else if (flag == "--trace") {
      args->trace = value == "1";
      have[3] = value == "0" || value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have[0] && have[1] && have[2] && have[3];
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: kgd_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n");
    return 2;
  }
  const std::vector<Workload> all = workloads();
  const auto it = std::find_if(all.begin(), all.end(), [&](const Workload& w) {
    return args.workload == w.name;
  });
  if (it == all.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  // Sockets and checkpoints live in a private directory under the
  // working directory, removed on the way out.
  namespace fs = std::filesystem;
  const fs::path home = fs::current_path();
  const fs::path run_dir =
      home / ".bench_run" / std::to_string(static_cast<long>(::getpid()));

  Report report;
  int rc = 0;
  try {
    fs::create_directories(run_dir);
    fs::current_path(run_dir);
    if (args.trace) {
      per_layer(*it, args.seed, report);
    } else {
      end_to_end(*it, args.seed, args.seconds, report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    rc = 2;
  }
  std::error_code ec;
  fs::current_path(home, ec);
  fs::remove_all(run_dir, ec);
  fs::remove(run_dir.parent_path(), ec);  // only when no other run uses it
  if (rc != 0) return rc;

  std::printf("%s\n%s\n", host_stamp_json().c_str(), report.json().c_str());
  return report.correct() ? 0 : 1;
}
