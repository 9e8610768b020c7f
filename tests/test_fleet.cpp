// Fleet integration tests against real in-process kgdd workers: the
// coordinator's merged verdict must be bit-identical to a single-node
// verify::run_check for every fleet shape — one worker, many workers
// with steals enabled, a fleet with an unreachable member, and a worker
// drained and restarted mid-lease (cursor-resumed reassignment) — and
// dispatch latency under the default configuration. Plus
// the wire-level epoch-fencing contract of `lease`/`lease.release` and
// unit tests for the shared reconnect backoff schedule.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fault/orbit_enumerator.hpp"
#include "fleet/checkpoint.hpp"
#include "fleet/coordinator.hpp"
#include "util/durable_file.hpp"
#include "graph/automorphism.hpp"
#include "io/json.hpp"
#include "kgd/factory.hpp"
#include "net/client.hpp"
#include "net/socket.hpp"
#include "service/daemon.hpp"
#include "util/backoff.hpp"
#include "util/timer.hpp"
#include "verify/checker.hpp"

namespace kgdp {
namespace {

constexpr int kReadTimeoutMs = 120000;

TEST(Backoff, ScheduleIsDeterministic) {
  util::BackoffPolicy policy;
  policy.initial_delay_ms = 100;
  policy.multiplier = 2.0;
  policy.max_delay_ms = 400;
  policy.max_attempts = 5;
  policy.budget_ms = 10000;
  util::Backoff backoff(policy);
  int delay = 0;
  for (const int want : {100, 200, 400, 400, 400}) {
    ASSERT_TRUE(backoff.next_delay(&delay));
    EXPECT_EQ(delay, want);
  }
  EXPECT_FALSE(backoff.next_delay(&delay));  // attempt cap
  EXPECT_EQ(backoff.elapsed_ms(), 1500);
}

TEST(Backoff, BudgetClampsTheFinalSleepThenExhausts) {
  util::BackoffPolicy policy;
  policy.initial_delay_ms = 400;
  policy.multiplier = 2.0;
  policy.max_delay_ms = 10000;
  policy.max_attempts = 100;
  policy.budget_ms = 1000;
  util::Backoff backoff(policy);
  int delay = 0;
  ASSERT_TRUE(backoff.next_delay(&delay));
  EXPECT_EQ(delay, 400);
  ASSERT_TRUE(backoff.next_delay(&delay));
  EXPECT_EQ(delay, 600);  // 800 clamped to the remaining budget
  EXPECT_EQ(backoff.elapsed_ms(), 1000);
  EXPECT_FALSE(backoff.next_delay(&delay));  // budget cap, not attempts
  EXPECT_EQ(backoff.attempts(), 3);
}

TEST(Backoff, ZeroBudgetExhaustsBeforeTheFirstSleep) {
  util::BackoffPolicy policy;
  policy.initial_delay_ms = 100;
  policy.max_attempts = 10;
  policy.budget_ms = 0;
  util::Backoff backoff(policy);
  int delay = -1;
  EXPECT_FALSE(backoff.next_delay(&delay));
  EXPECT_EQ(delay, -1);  // never written
  EXPECT_EQ(backoff.elapsed_ms(), 0);
  EXPECT_EQ(backoff.attempts(), 1);  // the call that exhausted it
}

TEST(Backoff, BudgetSmallerThanTheFirstDelayClampsThenExhausts) {
  util::BackoffPolicy policy;
  policy.initial_delay_ms = 500;
  policy.max_delay_ms = 10000;
  policy.max_attempts = 10;
  policy.budget_ms = 200;
  util::Backoff backoff(policy);
  int delay = 0;
  ASSERT_TRUE(backoff.next_delay(&delay));
  EXPECT_EQ(delay, 200);  // clamped to the whole budget at once
  EXPECT_EQ(backoff.elapsed_ms(), 200);
  EXPECT_FALSE(backoff.next_delay(&delay));
  EXPECT_EQ(backoff.attempts(), 2);
}

TEST(Backoff, ExhaustionAtTheExactBudgetBoundary) {
  util::BackoffPolicy policy;
  policy.initial_delay_ms = 100;
  policy.multiplier = 1.0;
  policy.max_attempts = 10;
  policy.budget_ms = 100;  // first sleep lands exactly on the budget
  util::Backoff backoff(policy);
  int delay = 0;
  ASSERT_TRUE(backoff.next_delay(&delay));
  EXPECT_EQ(delay, 100);
  EXPECT_EQ(backoff.elapsed_ms(), 100);
  EXPECT_FALSE(backoff.next_delay(&delay));  // remaining == 0, no sleep
  EXPECT_EQ(backoff.attempts(), 2);
}

TEST(Backoff, ResetRestoresTheFullSchedule) {
  util::BackoffPolicy policy;
  policy.initial_delay_ms = 50;
  policy.max_attempts = 2;
  policy.budget_ms = 10000;
  util::Backoff backoff(policy);
  int delay = 0;
  ASSERT_TRUE(backoff.next_delay(&delay));
  ASSERT_TRUE(backoff.next_delay(&delay));
  ASSERT_FALSE(backoff.next_delay(&delay));
  backoff.reset();
  EXPECT_EQ(backoff.attempts(), 0);
  EXPECT_EQ(backoff.elapsed_ms(), 0);
  ASSERT_TRUE(backoff.next_delay(&delay));
  EXPECT_EQ(delay, 50);
}

void expect_identical(const verify::CheckResult& a,
                      const verify::CheckResult& b, const std::string& tag) {
  EXPECT_EQ(a.holds, b.holds) << tag;
  EXPECT_EQ(a.exhaustive, b.exhaustive) << tag;
  EXPECT_EQ(a.fault_sets_checked, b.fault_sets_checked) << tag;
  EXPECT_EQ(a.fault_sets_solved, b.fault_sets_solved) << tag;
  EXPECT_EQ(a.solver_unknowns, b.solver_unknowns) << tag;
  EXPECT_EQ(a.orbits_pruned, b.orbits_pruned) << tag;
  EXPECT_EQ(a.automorphism_order, b.automorphism_order) << tag;
  ASSERT_EQ(a.counterexample.has_value(), b.counterexample.has_value())
      << tag;
  if (a.counterexample) {
    EXPECT_EQ(a.counterexample->nodes(), b.counterexample->nodes()) << tag;
  }
  ASSERT_EQ(a.counterexample_index.has_value(),
            b.counterexample_index.has_value())
      << tag;
  if (a.counterexample_index) {
    EXPECT_EQ(*a.counterexample_index, *b.counterexample_index) << tag;
  }
}

// An in-process kgdd worker on the given endpoint (ephemeral TCP or a
// unix socket path), drained in the destructor.
class WorkerDaemon {
 public:
  explicit WorkerDaemon(const net::Endpoint& ep,
                        service::ServiceConfig service = {}) {
    service::DaemonConfig config;
    config.endpoints.push_back(ep);
    config.service = std::move(service);
    config.watch_stop_signal = false;
    daemon_ = std::make_unique<service::Daemon>(std::move(config));
    daemon_->start_thread();
    endpoint_ = ep.kind == net::Endpoint::Kind::kTcp && ep.port == 0
                    ? net::Endpoint::tcp(ep.host, daemon_->tcp_port())
                    : ep;
  }

  ~WorkerDaemon() { drain(); }

  void drain() {
    if (daemon_ == nullptr) return;
    daemon_->begin_drain();
    daemon_->join();
    daemon_.reset();
  }

  const net::Endpoint& endpoint() const { return endpoint_; }

  net::Client connect() {
    std::string error;
    auto client = net::Client::connect(endpoint_, &error);
    EXPECT_TRUE(client.has_value()) << error;
    return std::move(*client);
  }

 private:
  std::unique_ptr<service::Daemon> daemon_;
  net::Endpoint endpoint_;
};

verify::CheckResult local_reference(const kgd::SolutionGraph& sg,
                                    int max_faults) {
  return verify::run_check(sg,
                           verify::CheckRequest::exhaustive(max_faults));
}

TEST(Fleet, SingleWorkerMatchesLocal) {
  const auto sg = kgd::build_solution(3, 4);
  ASSERT_TRUE(sg.has_value());
  WorkerDaemon worker(net::Endpoint::tcp("127.0.0.1", 0));
  fleet::FleetConfig config;
  config.workers = {worker.endpoint()};
  config.chunk = 64;
  config.lease_grain = 3;
  fleet::Coordinator coordinator(std::move(config));
  const fleet::InstanceOutcome out =
      coordinator.run_instance(*sg, 3, 4, 4, verify::PruneMode::kAuto);
  expect_identical(out.result, local_reference(*sg, 4), "single worker");
  EXPECT_EQ(out.leases_planned, 3u);
  ASSERT_EQ(out.per_worker_solved.size(), 1u);
  EXPECT_EQ(out.per_worker_leases[0], 3u + out.leases_stolen);
  EXPECT_EQ(out.per_worker_solved[0], out.result.fault_sets_solved);
}

// Dispatch latency with the configuration users get: a queued grant must
// leave as soon as the pump queues it. Forty sub-millisecond leases run
// back to back on one worker, so a transport that sends only on a
// periodic read tick pays one tick per lease (~4 s at 100 ms); the
// bound leaves a wide margin above event-driven dispatch. Unpruned, so
// no lease spends its time computing automorphisms.
TEST(Fleet, DefaultConfigDispatchesLeasesWithoutTickLatency) {
  const auto sg = kgd::build_solution(10, 3);
  ASSERT_TRUE(sg.has_value());
  WorkerDaemon worker(net::Endpoint::tcp("127.0.0.1", 0));
  fleet::FleetConfig config;
  config.workers = {worker.endpoint()};
  config.lease_grain = 40;
  fleet::Coordinator coordinator(std::move(config));
  const util::Timer timer;
  const fleet::InstanceOutcome out =
      coordinator.run_instance(*sg, 10, 3, 3, verify::PruneMode::kOff);
  const double seconds = timer.seconds();
  verify::CheckOptions off;
  off.prune = verify::PruneMode::kOff;
  expect_identical(out.result,
                   verify::run_check(
                       *sg, verify::CheckRequest::exhaustive(3, off)),
                   "default config");
  EXPECT_EQ(out.leases_planned, 40u);
  ASSERT_EQ(out.per_worker_leases.size(), 1u);
  EXPECT_EQ(out.per_worker_leases[0], 40u + out.leases_stolen);
  EXPECT_LT(seconds, 2.0) << out.leases_planned << " leases";
}

TEST(Fleet, TwoWorkersWithStealsMergeIdentically) {
  const auto sg = kgd::build_solution(3, 4);
  ASSERT_TRUE(sg.has_value());
  WorkerDaemon w0(net::Endpoint::tcp("127.0.0.1", 0));
  WorkerDaemon w1(net::Endpoint::tcp("127.0.0.1", 0));
  fleet::FleetConfig config;
  config.workers = {w0.endpoint(), w1.endpoint()};
  // Tiny chunks and a floor-level steal threshold so idle workers
  // actually split trailing leases; the assertion is merge identity, not
  // steal count — steal timing is load-dependent by design.
  config.chunk = 1;
  config.lease_grain = 1;
  config.min_steal_items = 2;
  fleet::Coordinator coordinator(std::move(config));
  const fleet::InstanceOutcome out =
      coordinator.run_instance(*sg, 3, 4, 4, verify::PruneMode::kAuto);
  expect_identical(out.result, local_reference(*sg, 4), "two workers");
  EXPECT_TRUE(out.result.holds);

  // Workers persist across run_instance calls: the same fleet certifies
  // a second instance (prune off — both sides must agree the slot space
  // is the unpruned enumeration).
  const auto sg2 = kgd::build_solution(6, 2);
  ASSERT_TRUE(sg2.has_value());
  verify::CheckOptions off;
  off.prune = verify::PruneMode::kOff;
  const fleet::InstanceOutcome out2 =
      coordinator.run_instance(*sg2, 6, 2, 2, verify::PruneMode::kOff);
  expect_identical(out2.result,
                   verify::run_check(
                       *sg2, verify::CheckRequest::exhaustive(2, off)),
                   "two workers second instance");
}

TEST(Fleet, UnreachableWorkerIsWrittenOffAndRunCompletes) {
  const auto sg = kgd::build_solution(3, 4);
  ASSERT_TRUE(sg.has_value());
  WorkerDaemon live(net::Endpoint::tcp("127.0.0.1", 0));
  fleet::FleetConfig config;
  // Port 1 never answers; the tight budget writes the worker off fast.
  config.workers = {live.endpoint(), net::Endpoint::tcp("127.0.0.1", 1)};
  config.chunk = 32;
  config.lease_grain = 2;
  config.reconnect.initial_delay_ms = 10;
  config.reconnect.max_attempts = 3;
  config.reconnect.budget_ms = 100;
  fleet::Coordinator coordinator(std::move(config));
  const fleet::InstanceOutcome out =
      coordinator.run_instance(*sg, 3, 4, 4, verify::PruneMode::kAuto);
  expect_identical(out.result, local_reference(*sg, 4),
                   "unreachable member");
  ASSERT_EQ(out.per_worker_solved.size(), 2u);
  EXPECT_EQ(out.per_worker_solved[1], 0u);
  EXPECT_EQ(out.per_worker_solved[0], out.result.fault_sets_solved);
}

TEST(Fleet, AllWorkersDownFailsTheRun) {
  const auto sg = kgd::build_solution(6, 2);
  ASSERT_TRUE(sg.has_value());
  fleet::FleetConfig config;
  config.workers = {net::Endpoint::tcp("127.0.0.1", 1)};
  config.reconnect.initial_delay_ms = 10;
  config.reconnect.max_attempts = 2;
  config.reconnect.budget_ms = 50;
  fleet::Coordinator coordinator(std::move(config));
  // The typed error is the CLI's documented exit-4 path: every endpoint
  // written off with leases outstanding and no listener for joiners.
  EXPECT_THROW(
      coordinator.run_instance(*sg, 6, 2, 2, verify::PruneMode::kAuto),
      fleet::AllWorkersDeadError);
}

// Polls a worker's `stats` until its live lease table shows streamed
// progress (or the deadline passes); returns items_done seen.
std::uint64_t wait_for_lease_progress(WorkerDaemon& worker) {
  net::Client client = worker.connect();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (std::chrono::steady_clock::now() < deadline) {
    io::JsonObject frame;
    frame["method"] = std::string("stats");
    std::string error;
    if (!client.send_json(io::Json(std::move(frame)), &error)) break;
    auto reply = client.read_json(kReadTimeoutMs, &error);
    if (!reply.has_value()) break;
    const io::Json* fleet_block = reply->find("fleet");
    if (fleet_block != nullptr) {
      const io::Json* active = fleet_block->find("active");
      if (active != nullptr && active->is_array()) {
        for (const io::Json& lease : active->as_array()) {
          const io::Json* done = lease.find("items_done");
          if (done != nullptr && done->as_int() > 0) {
            return static_cast<std::uint64_t>(done->as_int());
          }
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return 0;
}

TEST(Fleet, DrainedWorkerIsReassignedAfterRestart) {
  const auto sg = kgd::build_solution(3, 4);
  ASSERT_TRUE(sg.has_value());
  const net::Endpoint ep = net::Endpoint::unix_path(
      ::testing::TempDir() + "kgdp_fleet_restart.sock");
  auto worker = std::make_unique<WorkerDaemon>(ep);

  fleet::FleetConfig config;
  config.workers = {ep};
  config.chunk = 1;  // stream a cursor per item: fine-grained resume
  config.lease_grain = 2;
  fleet::Coordinator coordinator(std::move(config));

  fleet::InstanceOutcome out;
  std::thread run([&] {
    out = coordinator.run_instance(*sg, 3, 4, 4, verify::PruneMode::kAuto);
  });

  // Once the worker has streamed progress, kill it mid-lease and bring
  // a fresh daemon up on the same socket. The coordinator must requeue
  // the orphaned lease and resume it from the drained cursor.
  EXPECT_GT(wait_for_lease_progress(*worker), 0u);
  worker->drain();
  worker = std::make_unique<WorkerDaemon>(ep);
  run.join();

  expect_identical(out.result, local_reference(*sg, 4), "drain restart");
  EXPECT_GE(out.leases_reassigned, 1u);
  EXPECT_GE(out.workers_lost, 1u);
}

// --- Wire-level lease contract -------------------------------------------

io::Json request_frame(const std::string& method, io::JsonObject params,
                       const std::string& tag) {
  io::JsonObject frame;
  frame["method"] = method;
  frame["params"] = io::Json(std::move(params));
  frame["tag"] = tag;
  return io::Json(std::move(frame));
}

// Reads frames until one carries the given tag AND one of the wanted
// types (streamed frames for other requests interleave on the wire).
std::optional<io::Json> read_tagged(net::Client& client,
                                    const std::string& tag,
                                    const std::vector<std::string>& types) {
  std::string error;
  while (true) {
    auto frame = client.read_json(kReadTimeoutMs, &error);
    if (!frame.has_value()) {
      ADD_FAILURE() << "read: " << error;
      return std::nullopt;
    }
    const io::Json* t = frame->find("tag");
    const io::Json* type = frame->find("type");
    if (t == nullptr || !t->is_string() || t->as_string() != tag) continue;
    if (type == nullptr || !type->is_string()) continue;
    for (const std::string& want : types) {
      if (type->as_string() == want) return frame;
    }
  }
}

std::uint64_t orbit_total(const kgd::SolutionGraph& sg, int max_faults) {
  return fault::OrbitEnumerator(sg.num_nodes(), max_faults,
                                graph::solution_automorphisms(sg))
      .num_orbits();
}

TEST(Fleet, EpochFencingOnTheWire) {
  const auto sg = kgd::build_solution(3, 4);
  ASSERT_TRUE(sg.has_value());
  const std::uint64_t total = orbit_total(*sg, 4);
  WorkerDaemon worker(net::Endpoint::tcp("127.0.0.1", 0));
  net::Client a = worker.connect();
  std::string error;

  auto grant_params = [&](std::uint64_t epoch) {
    io::JsonObject p;
    p["n"] = 3;
    p["k"] = 4;
    p["max_faults"] = 4;
    p["begin"] = std::uint64_t{0};
    p["end"] = total;
    p["chunk"] = std::uint64_t{1};  // keep the session alive a while
    p["lease"] = std::string("L0");
    p["epoch"] = epoch;
    return p;
  };

  ASSERT_TRUE(a.send_json(request_frame("lease", grant_params(5), "g5"),
                          &error))
      << error;
  auto accepted = read_tagged(a, "g5", {"accepted", "error"});
  ASSERT_TRUE(accepted.has_value());
  ASSERT_EQ(accepted->find("type")->as_string(), "accepted");

  // A stale-epoch release bounces without touching the session.
  io::JsonObject stale;
  stale["lease"] = std::string("L0");
  stale["epoch"] = std::uint64_t{3};
  ASSERT_TRUE(a.send_json(
      request_frame("lease.release", std::move(stale), "r-stale"), &error));
  auto rejected = read_tagged(a, "r-stale", {"result", "error"});
  ASSERT_TRUE(rejected.has_value());
  EXPECT_EQ(rejected->find("type")->as_string(), "error");
  EXPECT_EQ(rejected->find("code")->as_string(), "bad_request");

  // The right epoch from the wrong connection bounces too.
  net::Client b = worker.connect();
  io::JsonObject wrong_conn;
  wrong_conn["lease"] = std::string("L0");
  wrong_conn["epoch"] = std::uint64_t{5};
  ASSERT_TRUE(b.send_json(
      request_frame("lease.release", std::move(wrong_conn), "r-conn"),
      &error));
  auto other = read_tagged(b, "r-conn", {"result", "error"});
  ASSERT_TRUE(other.has_value());
  EXPECT_EQ(other->find("type")->as_string(), "error");
  EXPECT_EQ(other->find("code")->as_string(), "bad_request");

  // A re-grant with a strictly newer epoch supersedes: the old stream
  // terminates as cancelled on connection A.
  ASSERT_TRUE(b.send_json(request_frame("lease", grant_params(6), "g6"),
                          &error));
  auto accepted6 = read_tagged(b, "g6", {"accepted", "error"});
  ASSERT_TRUE(accepted6.has_value());
  ASSERT_EQ(accepted6->find("type")->as_string(), "accepted");
  auto fenced = read_tagged(a, "g5", {"result", "error"});
  ASSERT_TRUE(fenced.has_value());
  ASSERT_EQ(fenced->find("type")->as_string(), "result");
  EXPECT_EQ(fenced->find("status")->as_string(), "cancelled");

  // ...and a replay of the old epoch can never resurrect it.
  ASSERT_TRUE(a.send_json(request_frame("lease", grant_params(5), "g5b"),
                          &error));
  auto replay = read_tagged(a, "g5b", {"accepted", "error"});
  ASSERT_TRUE(replay.has_value());
  EXPECT_EQ(replay->find("type")->as_string(), "error");
  EXPECT_EQ(replay->find("code")->as_string(), "bad_request");

  // Full release from the owner surrenders the lease deterministically.
  io::JsonObject release;
  release["lease"] = std::string("L0");
  release["epoch"] = std::uint64_t{6};
  ASSERT_TRUE(b.send_json(
      request_frame("lease.release", std::move(release), "r-full"), &error));
  auto released = read_tagged(b, "r-full", {"result", "error"});
  ASSERT_TRUE(released.has_value());
  ASSERT_EQ(released->find("type")->as_string(), "result");
  EXPECT_TRUE(released->find("applied")->as_bool());
  auto surrendered = read_tagged(b, "g6", {"result", "error"});
  ASSERT_TRUE(surrendered.has_value());
  EXPECT_EQ(surrendered->find("status")->as_string(), "cancelled");

  // Releasing an unknown lease is not_found, and the fence counter on
  // `stats` saw exactly the three rejections above.
  io::JsonObject unknown;
  unknown["lease"] = std::string("L404");
  unknown["epoch"] = std::uint64_t{1};
  ASSERT_TRUE(b.send_json(
      request_frame("lease.release", std::move(unknown), "r-404"), &error));
  auto missing = read_tagged(b, "r-404", {"result", "error"});
  ASSERT_TRUE(missing.has_value());
  EXPECT_EQ(missing->find("code")->as_string(), "not_found");

  io::JsonObject stats;
  stats["method"] = std::string("stats");
  stats["tag"] = std::string("st");
  ASSERT_TRUE(b.send_json(io::Json(std::move(stats)), &error));
  auto reply = read_tagged(b, "st", {"result", "error"});
  ASSERT_TRUE(reply.has_value());
  const io::Json* fleet_block = reply->find("fleet");
  ASSERT_NE(fleet_block, nullptr);
  EXPECT_EQ(fleet_block->find("stale_rejected")->as_int(), 3);
  EXPECT_EQ(fleet_block->find("leases_granted")->as_int(), 2);
  EXPECT_EQ(fleet_block->find("leases_released")->as_int(), 1);
}

// --- Crash-resume and elastic membership ---------------------------------

// Reads one integer out of a worker's `stats` fleet block.
std::int64_t fleet_stat(WorkerDaemon& worker, const std::string& field) {
  net::Client client = worker.connect();
  io::JsonObject frame;
  frame["method"] = std::string("stats");
  frame["tag"] = std::string("fs");
  std::string error;
  EXPECT_TRUE(client.send_json(io::Json(std::move(frame)), &error)) << error;
  auto reply = read_tagged(client, "fs", {"result", "error"});
  if (!reply.has_value()) return -1;
  const io::Json* fleet_block = reply->find("fleet");
  if (fleet_block == nullptr) return -1;
  const io::Json* value = fleet_block->find(field);
  return value != nullptr ? value->as_int() : -1;
}

// The ISSUE acceptance drill: checkpoint a clean G(3,6) run, capturing
// the exact bytes a SIGKILL after every lease-state transition would
// leave on disk, then treat each snapshot as a crash site — restore it
// and prove a fresh coordinator resumes to a bit-identical merge.
TEST(Fleet, CrashResumeSweepIsBitIdentical) {
  const auto sg = kgd::build_solution(3, 6);
  ASSERT_TRUE(sg.has_value());
  const verify::CheckResult reference = local_reference(*sg, 6);

  WorkerDaemon worker(net::Endpoint::tcp("127.0.0.1", 0));
  const std::string ckpt =
      ::testing::TempDir() + "kgdp_fleet_resume.kgdp";
  fleet::remove_fleet_checkpoint(ckpt);

  std::vector<std::string> payloads;
  std::mutex payloads_mu;
  auto make_config = [&] {
    fleet::FleetConfig config;
    config.workers = {worker.endpoint()};
    config.chunk = 4096;
    config.lease_grain = 4;
    config.checkpoint_path = ckpt;
    return config;
  };

  {
    fleet::FleetConfig config = make_config();
    config.checkpoint_observer = [&](const std::string& payload) {
      std::lock_guard<std::mutex> lock(payloads_mu);
      payloads.push_back(payload);
    };
    fleet::Coordinator coordinator(std::move(config));
    const fleet::InstanceOutcome out =
        coordinator.run_instance(*sg, 3, 6, 6, verify::PruneMode::kAuto);
    expect_identical(out.result, reference, "checkpointed clean run");
    EXPECT_FALSE(out.resumed);
    EXPECT_EQ(out.generation, 0u);
  }
  // The merge removed its own checkpoint; a stale table must never
  // resurrect leases of a finished instance.
  EXPECT_FALSE(std::ifstream(ckpt).good());
  // Initial plan + at least grant/progress/done per lease.
  ASSERT_GE(payloads.size(), 8u) << "checkpoint cadence collapsed";

  for (std::size_t i = 0; i < payloads.size(); ++i) {
    const std::string tag = "snapshot " + std::to_string(i);
    util::durable_write_file(ckpt, payloads[i]);
    fleet::Coordinator coordinator(make_config());
    const fleet::InstanceOutcome out =
        coordinator.run_instance(*sg, 3, 6, 6, verify::PruneMode::kAuto);
    expect_identical(out.result, reference, tag);
    EXPECT_TRUE(out.resumed) << tag;
    EXPECT_GE(out.generation, 1u) << tag;
    EXPECT_FALSE(std::ifstream(ckpt).good()) << tag;
  }
}

// A checkpoint for a different instance identity is ignored, not
// misapplied: the run starts fresh and still merges correctly.
TEST(Fleet, ForeignCheckpointIsIgnored) {
  const auto sg = kgd::build_solution(6, 2);
  ASSERT_TRUE(sg.has_value());
  const std::string ckpt =
      ::testing::TempDir() + "kgdp_fleet_foreign.kgdp";
  fleet::FleetCheckpoint foreign;
  foreign.n = 3;
  foreign.k = 4;
  foreign.max_faults = 4;
  foreign.prune = "auto";
  foreign.total = 999;
  foreign.generation = 7;
  fleet::save_fleet_checkpoint(ckpt, foreign);

  WorkerDaemon worker(net::Endpoint::tcp("127.0.0.1", 0));
  fleet::FleetConfig config;
  config.workers = {worker.endpoint()};
  config.checkpoint_path = ckpt;
  fleet::Coordinator coordinator(std::move(config));
  const fleet::InstanceOutcome out =
      coordinator.run_instance(*sg, 6, 2, 2, verify::PruneMode::kAuto);
  expect_identical(out.result, local_reference(*sg, 2), "foreign ckpt");
  EXPECT_FALSE(out.resumed);
  EXPECT_EQ(out.generation, 0u);
  fleet::remove_fleet_checkpoint(ckpt);
}

TEST(Fleet, JoinedWorkerCompletesTheRun) {
  const auto sg = kgd::build_solution(3, 4);
  ASSERT_TRUE(sg.has_value());
  WorkerDaemon joiner(net::Endpoint::tcp("127.0.0.1", 0));

  fleet::FleetConfig config;
  // Nobody at launch: with a registration listener open, an empty
  // fleet waits for joiners instead of declaring itself dead.
  config.listen = net::Endpoint::tcp("127.0.0.1", 0);
  config.chunk = 64;
  config.lease_grain = 2;
  fleet::Coordinator coordinator(std::move(config));
  ASSERT_GT(coordinator.listen_tcp_port(), 0);

  fleet::InstanceOutcome out;
  std::thread run([&] {
    out = coordinator.run_instance(*sg, 3, 4, 4, verify::PruneMode::kAuto);
  });
  // Let the campaign go live (and sit idle) before the first member
  // registers — the join provably lands mid-run.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::string error;
  auto reg = net::Client::connect(
      net::Endpoint::tcp("127.0.0.1", coordinator.listen_tcp_port()),
      &error);
  ASSERT_TRUE(reg.has_value()) << error;
  io::JsonObject params;
  params["endpoint"] = joiner.endpoint().to_string();
  ASSERT_TRUE(reg->send_json(
      request_frame("fleet.join", std::move(params), "j0"), &error))
      << error;
  auto joined = read_tagged(*reg, "j0", {"result", "error"});
  ASSERT_TRUE(joined.has_value());
  ASSERT_EQ(joined->find("type")->as_string(), "result");
  EXPECT_TRUE(joined->find("joined")->as_bool());
  EXPECT_EQ(joined->find("worker")->as_int(), 0);

  // Re-joining the same endpoint is idempotent, not a second member.
  io::JsonObject again;
  again["endpoint"] = joiner.endpoint().to_string();
  ASSERT_TRUE(reg->send_json(
      request_frame("fleet.join", std::move(again), "j1"), &error));
  auto dup = read_tagged(*reg, "j1", {"result", "error"});
  ASSERT_TRUE(dup.has_value());
  ASSERT_EQ(dup->find("type")->as_string(), "result");
  EXPECT_TRUE(dup->find("already_member")->as_bool());

  run.join();
  expect_identical(out.result, local_reference(*sg, 4), "joined worker");
  ASSERT_EQ(out.per_worker_solved.size(), 1u);
  EXPECT_EQ(out.per_worker_solved[0], out.result.fault_sets_solved);
  EXPECT_GE(out.per_worker_leases[0], 1u);
  // The daemon heard the coordinator's announce and counted the join.
  EXPECT_EQ(fleet_stat(joiner, "workers_joined"), 1);
}

TEST(Fleet, LeaveDrainsAtTheChunkBoundaryWithoutLosingSlots) {
  const auto sg = kgd::build_solution(3, 4);
  ASSERT_TRUE(sg.has_value());
  WorkerDaemon stay(net::Endpoint::tcp("127.0.0.1", 0));
  WorkerDaemon leaver(net::Endpoint::tcp("127.0.0.1", 0));

  fleet::FleetConfig config;
  config.workers = {stay.endpoint(), leaver.endpoint()};
  config.listen = net::Endpoint::tcp("127.0.0.1", 0);
  config.chunk = 1;  // a cursor per item: the drain hands back mid-lease
  config.lease_grain = 2;
  fleet::Coordinator coordinator(std::move(config));
  ASSERT_GT(coordinator.listen_tcp_port(), 0);

  fleet::InstanceOutcome out;
  std::thread run([&] {
    out = coordinator.run_instance(*sg, 3, 4, 4, verify::PruneMode::kAuto);
  });

  // Wait for the leaver to stream progress on its lease, then ask the
  // coordinator to decommission it mid-lease.
  EXPECT_GT(wait_for_lease_progress(leaver), 0u);
  std::string error;
  auto reg = net::Client::connect(
      net::Endpoint::tcp("127.0.0.1", coordinator.listen_tcp_port()),
      &error);
  ASSERT_TRUE(reg.has_value()) << error;
  io::JsonObject params;
  params["endpoint"] = leaver.endpoint().to_string();
  ASSERT_TRUE(reg->send_json(
      request_frame("fleet.leave", std::move(params), "l0"), &error))
      << error;
  auto leaving = read_tagged(*reg, "l0", {"result", "error"});
  ASSERT_TRUE(leaving.has_value());
  ASSERT_EQ(leaving->find("type")->as_string(), "result");
  EXPECT_TRUE(leaving->find("leaving")->as_bool());

  // Leaving an endpoint that is not a member bounces as not_found.
  io::JsonObject ghost;
  ghost["endpoint"] = std::string("tcp:127.0.0.1:1");
  ASSERT_TRUE(reg->send_json(
      request_frame("fleet.leave", std::move(ghost), "l1"), &error));
  auto missing = read_tagged(*reg, "l1", {"result", "error"});
  ASSERT_TRUE(missing.has_value());
  EXPECT_EQ(missing->find("code")->as_string(), "not_found");

  run.join();
  expect_identical(out.result, local_reference(*sg, 4), "leave drain");
  // The drained lease was handed back at its cursor and finished by the
  // survivor — no slot lost, no slot double-counted.
  EXPECT_GE(out.leases_reassigned, 1u);
  ASSERT_EQ(out.per_worker_solved.size(), 2u);
  EXPECT_EQ(out.per_worker_solved[0] + out.per_worker_solved[1],
            out.result.fault_sets_solved);
  EXPECT_EQ(fleet_stat(leaver, "workers_left"), 1);
}

}  // namespace
}  // namespace kgdp
