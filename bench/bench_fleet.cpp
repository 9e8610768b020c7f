// X-FLEET: distributed-certification dispatch overhead and scaling.
// Certifies two unpruned instances through the fleet coordinator
// against 1, 2, and 4 in-process kgdd workers, each pinned to one
// solver thread so the scaling axis is workers, not threads: the
// Figure 14 instance G(22,4) (66,712 fault sets, sub-microsecond
// solves — isolates pure dispatch overhead) and G(36,4) (~50 us
// solves — compute-heavy enough for worker scaling to show, host
// cores permitting). Every fleet verdict is checked bit-identical to
// the single-node sequential sweep before its timing counts.
//
//   bench_fleet [--json=PATH] [--smoke] [--grain=G] [--chunk=N]
//
//   --json=PATH  also record the rows as machine-readable BENCH_fleet.json
//   --smoke      CI gate: a small instance over 1 and 2 workers, hard
//                bit-identity check plus a generous wall budget — a
//                correctness and gross-regression gate, not a scaling
//                measurement (shared runners are far too noisy).
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fleet/coordinator.hpp"
#include "kgd/factory.hpp"
#include "net/socket.hpp"
#include "service/daemon.hpp"
#include "util/timer.hpp"
#include "verify/checker.hpp"

using namespace kgdp;

namespace {

// One in-process kgdd worker with a single solver thread on an
// ephemeral TCP port.
std::unique_ptr<service::Daemon> start_worker() {
  service::DaemonConfig config;
  config.endpoints.push_back(net::Endpoint::tcp("127.0.0.1", 0));
  config.service.threads = 1;
  config.watch_stop_signal = false;
  auto daemon = std::make_unique<service::Daemon>(std::move(config));
  daemon->start_thread();
  return daemon;
}

bool identical(const verify::CheckResult& a, const verify::CheckResult& b) {
  return a.holds == b.holds && a.exhaustive == b.exhaustive &&
         a.fault_sets_checked == b.fault_sets_checked &&
         a.fault_sets_solved == b.fault_sets_solved &&
         a.solver_unknowns == b.solver_unknowns &&
         a.orbits_pruned == b.orbits_pruned &&
         a.automorphism_order == b.automorphism_order &&
         a.counterexample_index == b.counterexample_index;
}

struct FleetRow {
  int workers = 0;
  double seconds = 0.0;
  double sets_per_sec = 0.0;
  double speedup = 1.0;
  std::uint64_t leases = 0;
  std::uint64_t stolen = 0;
};

// Runs GD(G(n,k), m) over `workers` fresh single-thread daemons and
// verifies the merged verdict against `reference`. Exits the process on
// divergence — a wrong answer makes every timing below meaningless.
FleetRow run_fleet(int n, int k, int max_faults, int workers,
                   std::uint64_t chunk, std::uint64_t grain,
                   const verify::CheckResult& reference,
                   const std::string& checkpoint_path = {}) {
  const auto sg = kgd::build_solution(n, k);
  std::vector<std::unique_ptr<service::Daemon>> daemons;
  fleet::FleetConfig config;
  for (int w = 0; w < workers; ++w) {
    daemons.push_back(start_worker());
    config.workers.push_back(
        net::Endpoint::tcp("127.0.0.1", daemons.back()->tcp_port()));
  }
  config.chunk = chunk;
  config.lease_grain = grain;
  config.checkpoint_path = checkpoint_path;
  fleet::Coordinator coordinator(std::move(config));

  const util::Timer t;
  const fleet::InstanceOutcome out =
      coordinator.run_instance(*sg, n, k, max_faults,
                               verify::PruneMode::kOff);
  FleetRow row;
  row.workers = workers;
  row.seconds = t.seconds();
  row.sets_per_sec =
      static_cast<double>(out.result.fault_sets_checked) / row.seconds;
  row.leases = out.leases_planned + out.leases_stolen;
  row.stolen = out.leases_stolen;
  if (!identical(out.result, reference)) {
    std::fprintf(stderr,
                 "FATAL: fleet verdict over %d workers diverged from the "
                 "single-node run\n",
                 workers);
    std::exit(2);
  }
  for (auto& d : daemons) {
    d->begin_drain();
    d->join();
  }
  return row;
}

// Measures one instance over 1/2/4 workers plus the single-node
// sequential baseline; appends printed rows to `json_rows` when given.
int run_instance_table(int n, int k, int max_faults, std::uint64_t chunk,
                       std::uint64_t grain, io::JsonArray* json_rows) {
  const std::string name =
      "G(" + std::to_string(n) + "," + std::to_string(k) + ")";
  const auto sg = kgd::build_solution(n, k);
  verify::CheckOptions off;
  off.prune = verify::PruneMode::kOff;
  const util::Timer t0;
  const verify::CheckResult reference = verify::run_check(
      *sg, verify::CheckRequest::exhaustive(max_faults, off));
  const double local_seconds = t0.seconds();
  if (!reference.holds) {
    std::fprintf(stderr, "FATAL: GD(%s, %d) failed\n", name.c_str(),
                 max_faults);
    return 2;
  }
  std::printf("%s: %llu fault sets, single-node sequential %.2fs "
              "(%.0f sets/s)\n",
              name.c_str(),
              static_cast<unsigned long long>(reference.fault_sets_checked),
              local_seconds,
              static_cast<double>(reference.fault_sets_checked) /
                  local_seconds);

  std::printf("%8s %10s %12s %9s %8s %8s\n", "workers", "seconds",
              "sets/s", "speedup", "leases", "stolen");
  std::vector<FleetRow> rows;
  for (const int workers : {1, 2, 4}) {
    FleetRow row =
        run_fleet(n, k, max_faults, workers, chunk, grain, reference);
    row.speedup = rows.empty() ? 1.0 : rows.front().seconds / row.seconds;
    std::printf("%8d %10.2f %12.0f %8.2fx %8llu %8llu\n", row.workers,
                row.seconds, row.sets_per_sec, row.speedup,
                static_cast<unsigned long long>(row.leases),
                static_cast<unsigned long long>(row.stolen));
    rows.push_back(row);
  }
  std::printf("dispatch overhead vs local sweep (1 worker): %.1f%%\n\n",
              (rows.front().seconds / local_seconds - 1.0) * 100.0);

  if (json_rows != nullptr) {
    for (const FleetRow& row : rows) {
      io::JsonObject r;
      r["instance"] = name;
      r["max_faults"] = max_faults;
      r["fault_sets"] = reference.fault_sets_checked;
      r["local_seconds"] = local_seconds;
      r["workers"] = row.workers;
      r["seconds"] = row.seconds;
      r["sets_per_sec"] = row.sets_per_sec;
      r["speedup"] = row.speedup;
      r["leases"] = row.leases;
      r["stolen"] = row.stolen;
      json_rows->emplace_back(std::move(r));
    }
  }
  return 0;
}

int run_main(std::uint64_t chunk, std::uint64_t grain,
             const std::string& json_path) {
  bench::banner("X-FLEET: fleet dispatch overhead and worker scaling");
  io::JsonArray rows;
  // G(22,4): the Figure 14 instance. Sub-microsecond solves, so this
  // row isolates pure dispatch overhead — any speedup is accidental.
  // G(36,4): ~50 us/solve, where compute can actually amortize the
  // wire and multi-worker scaling is visible (given the cores).
  if (const int rc = run_instance_table(22, 4, 4, chunk, grain, &rows)) {
    return rc;
  }
  if (const int rc = run_instance_table(36, 4, 4, chunk, grain, &rows)) {
    return rc;
  }
  if (!json_path.empty()) {
    io::JsonObject fields;
    fields["chunk"] = chunk;
    fields["lease_grain"] = grain;
    fields["rows"] = std::move(rows);
    if (!bench::write_bench_json(json_path, "bench_fleet", std::move(fields))) {
      std::fprintf(stderr, "FATAL: cannot write %s\n", json_path.c_str());
      return 2;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}

int run_smoke() {
  bench::banner("X-FLEET smoke: G(12,2) over 1 and 2 workers");
  const auto sg = kgd::build_solution(12, 2);
  verify::CheckOptions off;
  off.prune = verify::PruneMode::kOff;
  const verify::CheckResult reference =
      verify::run_check(*sg, verify::CheckRequest::exhaustive(2, off));
  const util::Timer t;
  for (const int workers : {1, 2}) {
    const FleetRow row = run_fleet(12, 2, 2, workers, /*chunk=*/64,
                                   /*grain=*/4, reference);
    std::printf("%d worker(s): %.2fs, %llu leases — verdict identical\n",
                workers, row.seconds,
                static_cast<unsigned long long>(row.leases));
  }
  // run_fleet already exits nonzero on any verdict divergence; the wall
  // budget only catches dispatch pathologies (stuck leases, reconnect
  // storms), so it is deliberately loose for shared CI runners.
  if (t.seconds() > 120.0) {
    std::fprintf(stderr, "SMOKE FAIL: fleet dispatch took %.0fs (> 120s)\n",
                 t.seconds());
    return 1;
  }

  // Checkpoint-overhead gate on the dispatch-bound Figure 14 instance
  // (sub-microsecond solves, so the lease machinery IS the runtime):
  // the durable lease table is written on every lease-state transition,
  // which must stay in the dispatch noise. Budget: 5% over the plain
  // run, plus a flat half-second so a shared runner's scheduling jitter
  // can't fail a short baseline.
  const auto sg22 = kgd::build_solution(22, 4);
  const verify::CheckResult ref22 =
      verify::run_check(*sg22, verify::CheckRequest::exhaustive(4, off));
  const std::string ckpt = "bench_fleet_smoke.kgdp";
  std::remove(ckpt.c_str());
  const util::Timer tp;
  run_fleet(22, 4, 4, /*workers=*/1, /*chunk=*/1024, /*grain=*/8, ref22);
  const double plain = tp.seconds();
  const util::Timer tc;
  run_fleet(22, 4, 4, /*workers=*/1, /*chunk=*/1024, /*grain=*/8, ref22,
            ckpt);
  const double checkpointed = tc.seconds();
  std::remove(ckpt.c_str());
  std::remove((ckpt + ".bak").c_str());
  std::printf("checkpoint overhead: plain %.2fs, durable %.2fs (%+.1f%%)\n",
              plain, checkpointed, (checkpointed / plain - 1.0) * 100.0);
  if (checkpointed > plain * 1.05 + 0.5) {
    std::fprintf(stderr,
                 "SMOKE FAIL: durable lease checkpointing cost %.2fs vs "
                 "%.2fs plain (budget: 5%% + 0.5s)\n",
                 checkpointed, plain);
    return 1;
  }
  std::printf("fleet smoke: OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bool smoke = false;
  std::uint64_t chunk = 1024, grain = 8;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--chunk=", 0) == 0) {
      chunk = std::stoull(arg.substr(8));
    } else if (arg.rfind("--grain=", 0) == 0) {
      grain = std::stoull(arg.substr(8));
    } else {
      std::fprintf(stderr,
                   "usage: bench_fleet [--json=PATH] [--smoke] "
                   "[--chunk=N] [--grain=G]\n");
      return 2;
    }
  }
  if (smoke) return run_smoke();
  return run_main(chunk, grain, json_path);
}
