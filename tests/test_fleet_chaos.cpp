// Deterministic network-fault chaos: arms net::FaultInjector and sweeps
// every fault action (drop, dup, stall, sever) across every intercepted
// frame op of a fleet certification — client send, client receive,
// server send, server dispatch — proving the lease protocol's epoch
// fence, heartbeat kick, and cursor-resume machinery absorb a lossy,
// repeating, delaying, or disconnecting wire without ever producing a
// wrong or double-counted merge. Runs under the TSan CI lane: the
// injector perturbs thread interleavings as much as frame order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "fleet/coordinator.hpp"
#include "kgd/factory.hpp"
#include "net/client.hpp"
#include "net/fault_inject.hpp"
#include "net/socket.hpp"
#include "service/daemon.hpp"
#include "verify/checker.hpp"

namespace kgdp {
namespace {

TEST(FaultSpec, ParsesTheEnvGrammar) {
  const auto spec = net::FaultSpec::parse("7:drop@3,dup=0.25,sever@11");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->seed, 7u);
  EXPECT_EQ(spec->drop_at, 3);
  EXPECT_EQ(spec->sever_at, 11);
  EXPECT_DOUBLE_EQ(spec->p_dup, 0.25);
  EXPECT_EQ(spec->dup_at, -1);
  EXPECT_DOUBLE_EQ(spec->p_drop, 0.0);

  for (const char* bad :
       {"", "drop@1", "x:drop@1", "5:", "5:drop@", "5:drop=1.5",
        "5:frob@2", "5:drop@-2"}) {
    EXPECT_FALSE(net::FaultSpec::parse(bad).has_value()) << bad;
  }
}

// Every test in this suite leaves the process-wide injector disarmed,
// pass or fail — an armed injector would silently fault every later
// network test in the same binary.
class FleetChaos : public ::testing::Test {
 protected:
  void TearDown() override { net::FaultInjector::instance().disarm(); }
};

class ChaosWorker {
 public:
  ChaosWorker() {
    service::DaemonConfig config;
    config.endpoints.push_back(net::Endpoint::tcp("127.0.0.1", 0));
    config.watch_stop_signal = false;
    daemon_ = std::make_unique<service::Daemon>(std::move(config));
    daemon_->start_thread();
    endpoint_ = net::Endpoint::tcp("127.0.0.1", daemon_->tcp_port());
  }

  ~ChaosWorker() {
    // Disarm before the drain handshake so teardown never faults.
    net::FaultInjector::instance().disarm();
    daemon_->begin_drain();
    daemon_->join();
  }

  const net::Endpoint& endpoint() const { return endpoint_; }

 private:
  std::unique_ptr<service::Daemon> daemon_;
  net::Endpoint endpoint_;
};

fleet::FleetConfig chaos_config(const net::Endpoint& worker) {
  fleet::FleetConfig config;
  config.workers = {worker};
  config.chunk = 16;
  config.lease_grain = 2;
  // A dropped grant or terminal frame is recovered by the heartbeat
  // kick; keep it short so each faulted run converges quickly.
  config.heartbeat_timeout_ms = 700;
  // Severed connections must always be survivable: the budget is the
  // test's, not the protocol's.
  config.reconnect.initial_delay_ms = 10;
  config.reconnect.max_delay_ms = 100;
  config.reconnect.max_attempts = 1000;
  config.reconnect.budget_ms = 60000;
  return config;
}

TEST_F(FleetChaos, EveryFaultAtEveryProtocolOpMergesBitIdentically) {
  const auto sg = kgd::build_solution(6, 2);
  ASSERT_TRUE(sg.has_value());
  const verify::CheckResult reference =
      verify::run_check(*sg, verify::CheckRequest::exhaustive(2));

  ChaosWorker worker;
  net::FaultInjector& injector = net::FaultInjector::instance();

  // Pass 1: a no-fault armed run counts the intercepted frame ops —
  // the sweep space for pass 2.
  injector.arm(net::FaultSpec{});
  {
    fleet::Coordinator coordinator(chaos_config(worker.endpoint()));
    const fleet::InstanceOutcome out =
        coordinator.run_instance(*sg, 6, 2, 2, verify::PruneMode::kAuto);
    EXPECT_EQ(out.result.holds, reference.holds);
    EXPECT_EQ(out.result.fault_sets_solved, reference.fault_sets_solved);
  }
  const std::uint64_t n_ops = injector.ops();
  injector.disarm();
  ASSERT_GT(n_ops, 8u) << "transport stopped routing through the injector";

  // Pass 2: one fault per run, swept across the op sequence. Faulted
  // runs take different op paths than the clean one (retries, replays),
  // so indices near n_ops still land mid-protocol. Stride keeps the
  // sweep inside the suite budget on slow sanitizer lanes while still
  // touching every protocol phase for every action.
  const std::int64_t stride =
      std::max<std::int64_t>(1, static_cast<std::int64_t>(n_ops) / 24);
  struct ActionCase {
    const char* name;
    void (*apply)(net::FaultSpec&, std::int64_t);
  };
  const ActionCase actions[] = {
      {"drop", [](net::FaultSpec& s, std::int64_t at) { s.drop_at = at; }},
      {"dup", [](net::FaultSpec& s, std::int64_t at) { s.dup_at = at; }},
      {"stall", [](net::FaultSpec& s, std::int64_t at) { s.stall_at = at; }},
      {"sever", [](net::FaultSpec& s, std::int64_t at) { s.sever_at = at; }},
  };
  for (const ActionCase& action : actions) {
    for (std::int64_t at = 0; at < static_cast<std::int64_t>(n_ops);
         at += stride) {
      const std::string tag =
          std::string(action.name) + "@" + std::to_string(at);
      net::FaultSpec spec;
      action.apply(spec, at);
      injector.arm(spec);
      fleet::Coordinator coordinator(chaos_config(worker.endpoint()));
      const fleet::InstanceOutcome out =
          coordinator.run_instance(*sg, 6, 2, 2, verify::PruneMode::kAuto);
      injector.disarm();
      EXPECT_EQ(out.result.holds, reference.holds) << tag;
      EXPECT_EQ(out.result.exhaustive, reference.exhaustive) << tag;
      EXPECT_EQ(out.result.fault_sets_checked, reference.fault_sets_checked)
          << tag;
      EXPECT_EQ(out.result.fault_sets_solved, reference.fault_sets_solved)
          << tag;
      EXPECT_EQ(out.result.solver_unknowns, reference.solver_unknowns)
          << tag;
      EXPECT_EQ(out.result.orbits_pruned, reference.orbits_pruned) << tag;
      EXPECT_EQ(out.result.automorphism_order,
                reference.automorphism_order)
          << tag;
    }
  }
}

TEST_F(FleetChaos, ProbabilisticallyLossyWireStillConverges) {
  // Independent low-probability faults on every op — the "bad switch"
  // configuration rather than a single surgical fault. Deterministic
  // given the seed; three seeds cover different interleavings.
  const auto sg = kgd::build_solution(6, 2);
  ASSERT_TRUE(sg.has_value());
  const verify::CheckResult reference =
      verify::run_check(*sg, verify::CheckRequest::exhaustive(2));

  ChaosWorker worker;
  for (const std::uint64_t seed : {11u, 23u, 47u}) {
    net::FaultSpec spec;
    spec.seed = seed;
    spec.p_drop = 0.01;
    spec.p_dup = 0.02;
    spec.p_stall = 0.02;
    net::FaultInjector::instance().arm(spec);
    fleet::Coordinator coordinator(chaos_config(worker.endpoint()));
    const fleet::InstanceOutcome out =
        coordinator.run_instance(*sg, 6, 2, 2, verify::PruneMode::kAuto);
    net::FaultInjector::instance().disarm();
    const std::string tag = "seed " + std::to_string(seed);
    EXPECT_EQ(out.result.holds, reference.holds) << tag;
    EXPECT_EQ(out.result.fault_sets_checked, reference.fault_sets_checked)
        << tag;
    EXPECT_EQ(out.result.fault_sets_solved, reference.fault_sets_solved)
        << tag;
    EXPECT_EQ(out.result.orbits_pruned, reference.orbits_pruned) << tag;
  }
}

}  // namespace
}  // namespace kgdp
