// kgdd integration tests against a real in-process Daemon: concurrent
// mixed-traffic clients (every request must get a terminal reply),
// protocol-abuse rejection, deterministic load shedding, cancel
// mid-sweep, and the SIGTERM-drain checkpoint/resume acceptance
// criterion — a drained-then-resumed verify must reproduce the
// uninterrupted verdict bit-identically on its deterministic fields.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fault/orbit_enumerator.hpp"
#include "graph/automorphism.hpp"
#include "io/json.hpp"
#include "kgd/factory.hpp"
#include "net/client.hpp"
#include "net/socket.hpp"
#include "reconfig/atlas.hpp"
#include "service/checkpoint.hpp"
#include "service/daemon.hpp"
#include "service/protocol.hpp"
#include "util/durable_file.hpp"

namespace kgdp::service {
namespace {

constexpr int kReadTimeoutMs = 120000;  // generous: ASan Debug is slow

// In-process daemon on an ephemeral TCP port, drained in the fixture's
// destructor so a failing test never leaks the loop thread.
class DaemonFixture {
 public:
  explicit DaemonFixture(ServiceConfig service = {},
                         net::FrameServerConfig server = {}) {
    DaemonConfig config;
    config.endpoints.push_back(net::Endpoint::tcp("127.0.0.1", 0));
    config.server = server;
    config.service = std::move(service);
    config.watch_stop_signal = false;
    daemon_ = std::make_unique<Daemon>(std::move(config));
    daemon_->start_thread();
  }

  ~DaemonFixture() {
    if (daemon_ != nullptr) {
      daemon_->begin_drain();
      daemon_->join();
    }
  }

  net::Client connect() {
    std::string error;
    auto client = net::Client::connect(
        net::Endpoint::tcp("127.0.0.1", daemon_->tcp_port()), &error);
    EXPECT_TRUE(client.has_value()) << error;
    return std::move(*client);
  }

  Daemon& daemon() { return *daemon_; }

 private:
  std::unique_ptr<Daemon> daemon_;
};

io::Json request_frame(const std::string& method, io::JsonObject params,
                       const std::string& tag = {}) {
  io::JsonObject frame;
  frame["method"] = method;
  frame["params"] = io::Json(std::move(params));
  if (!tag.empty()) frame["tag"] = tag;
  return io::Json(std::move(frame));
}

// Sends one request and reads frames until the terminal result/error.
// Returns the terminal frame; streams (accepted/progress) are counted
// into *streamed when given.
std::optional<io::Json> roundtrip(net::Client& client, const io::Json& req,
                                  int* streamed = nullptr) {
  std::string error;
  if (!client.send_json(req, &error)) {
    ADD_FAILURE() << "send: " << error;
    return std::nullopt;
  }
  while (true) {
    auto frame = client.read_json(kReadTimeoutMs, &error);
    if (!frame.has_value()) {
      ADD_FAILURE() << "read: " << error;
      return std::nullopt;
    }
    if (is_terminal_frame(*frame)) return frame;
    if (streamed != nullptr) ++*streamed;
  }
}

std::string frame_type(const io::Json& frame) {
  const io::Json* t = frame.find("type");
  return t != nullptr && t->is_string() ? t->as_string() : "";
}

std::string error_code(const io::Json& frame) {
  const io::Json* c = frame.find("code");
  return c != nullptr && c->is_string() ? c->as_string() : "";
}

// The deterministic fields of a verify verdict: everything except the
// timing/scheduling fields (worker_solve_seconds, steal_count).
std::string deterministic_verdict(const io::Json& terminal) {
  const io::Json* v = terminal.find("verdict");
  if (v == nullptr) return "<no verdict>";
  io::JsonObject out;
  for (const char* field :
       {"holds", "exhaustive", "fault_sets_checked", "fault_sets_solved",
        "orbits_pruned", "automorphism_order", "solver_unknowns",
        "counterexample", "counterexample_index"}) {
    if (const io::Json* f = v->find(field)) out[field] = *f;
  }
  return io::Json(std::move(out)).dump();
}

TEST(Service, PingStatsAndSchemaStamping) {
  DaemonFixture fx;
  net::Client client = fx.connect();
  const auto pong =
      roundtrip(client, request_frame("ping", {}, /*tag=*/"t-1"));
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(frame_type(*pong), "result");
  EXPECT_EQ(pong->find("schema_version")->as_int(), io::kSchemaVersion);
  EXPECT_EQ(pong->find("req")->as_string(), "r1");
  EXPECT_EQ(pong->find("tag")->as_string(), "t-1");
  EXPECT_TRUE(pong->find("pong")->as_bool());

  const auto stats = roundtrip(client, request_frame("stats", {}));
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->find("req")->as_string(), "r2");  // ids are monotone
  EXPECT_EQ(stats->find("sessions_active")->as_int(), 0);
  const io::Json* ping_metrics =
      stats->find("metrics")->find("methods")->find("ping");
  ASSERT_NE(ping_metrics, nullptr);
  EXPECT_EQ(ping_metrics->find("count")->as_int(), 1);
  EXPECT_EQ(ping_metrics->find("ok")->as_int(), 1);
}

TEST(Service, StreamingVerifyDeliversProgressThenVerdict) {
  ServiceConfig config;
  config.threads = 2;
  DaemonFixture fx(config);
  net::Client client = fx.connect();
  io::JsonObject params;
  params["n"] = 3;
  params["k"] = 4;
  params["chunk"] = 200;  // G(3,4) sweeps ~2000 items: several chunks
  int streamed = 0;
  const auto verdict =
      roundtrip(client, request_frame("verify", std::move(params)),
                &streamed);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(frame_type(*verdict), "result");
  EXPECT_EQ(verdict->find("status")->as_string(), "done");
  EXPECT_GE(streamed, 2);  // at least `accepted` + one progress frame
  const io::Json* vd = verdict->find("verdict");
  EXPECT_TRUE(vd->find("holds")->as_bool());
  EXPECT_TRUE(vd->find("exhaustive")->as_bool());
  // Since schema v2 the verdict carries the solver engine counters,
  // and every solved representative was exactly one patch or rebuild.
  ASSERT_NE(vd->find("solver_patches"), nullptr);
  ASSERT_NE(vd->find("solver_rebuilds"), nullptr);
  ASSERT_NE(vd->find("solver_search_nodes"), nullptr);
  ASSERT_NE(vd->find("solver_posa_steps"), nullptr);
  EXPECT_GE(vd->find("solver_rebuilds")->as_int(), 1);
  EXPECT_EQ(vd->find("solver_patches")->as_int() +
                vd->find("solver_rebuilds")->as_int(),
            vd->find("fault_sets_solved")->as_int());

  // Once the session retires, `stats` aggregates its engine counters.
  const auto stats = roundtrip(client, request_frame("stats", {}));
  ASSERT_TRUE(stats.has_value());
  const io::Json* solver = stats->find("solver");
  ASSERT_NE(solver, nullptr);
  EXPECT_EQ(solver->find("patches")->as_int(),
            vd->find("solver_patches")->as_int());
  EXPECT_EQ(solver->find("rebuilds")->as_int(),
            vd->find("solver_rebuilds")->as_int());
  EXPECT_EQ(solver->find("search_nodes")->as_int(),
            vd->find("solver_search_nodes")->as_int());
  ASSERT_NE(solver->find("posa_steps"), nullptr);
  EXPECT_EQ(solver->find("posa_steps")->as_int(),
            vd->find("solver_posa_steps")->as_int());
  EXPECT_EQ(solver->find("solves")->as_int(),
            vd->find("fault_sets_solved")->as_int());
}

TEST(Service, EightClientsMixedTrafficZeroDroppedRequests) {
  ServiceConfig config;
  config.threads = 4;
  config.max_queue = 1024;  // shedding is tested separately
  DaemonFixture fx(config);

  constexpr int kClients = 8;
  constexpr int kRequests = 50;
  std::atomic<int> terminal_replies{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      net::Client client = fx.connect();
      for (int i = 0; i < kRequests; ++i) {
        io::Json req;
        switch (i % 7) {
          case 0:
            req = request_frame("ping", {});
            break;
          case 1: {
            io::JsonObject p;
            p["n"] = 8;
            p["k"] = 2;
            req = request_frame("construct", std::move(p));
            break;
          }
          case 2: {
            io::JsonObject p;
            p["n"] = 6;
            p["k"] = 2;
            p["chunk"] = 200;
            std::string tag = "c";
            tag += std::to_string(c);
            tag += '-';
            tag += std::to_string(i);
            req = request_frame("verify", std::move(p), tag);
            break;
          }
          case 3: {
            io::JsonObject p;
            p["n"] = 8;
            p["k"] = 2;
            p["horizon_mcycles"] = 0.2;
            p["seed"] = c * 100 + i;
            req = request_frame("sim.run", std::move(p));
            break;
          }
          case 4: {
            io::JsonObject p;
            p["session"] = "s999999";  // unknown: found=false result
            req = request_frame("cancel", std::move(p));
            break;
          }
          case 5: {
            io::JsonObject p;
            p["n"] = 9999;  // unsupported pair: structured error
            p["k"] = 9;
            req = request_frame("construct", std::move(p));
            break;
          }
          default:
            req = request_frame("no.such.method", {});
            break;
        }
        const auto reply = roundtrip(client, req);
        if (!reply.has_value()) {
          failures.fetch_add(1);
          return;
        }
        const std::string type = frame_type(*reply);
        if (type != "result" && type != "error") {
          failures.fetch_add(1);
          return;
        }
        terminal_replies.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  // Acceptance: every one of the 8 x 50 requests got a terminal reply.
  EXPECT_EQ(terminal_replies.load(), kClients * kRequests);

  net::Client client = fx.connect();
  const auto stats = roundtrip(client, request_frame("stats", {}));
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->find("sessions_active")->as_int(), 0);  // none leaked
  EXPECT_GE(stats->find("metrics")->find("total_requests")->as_int(),
            kClients * kRequests);
}

TEST(Service, MalformedFramesGetStructuredErrorsAndConnectionSurvives) {
  DaemonFixture fx;
  net::Client client = fx.connect();
  std::string error;
  const std::vector<std::pair<std::string, std::string>> abuse = {
      {"this is not json", "bad_frame"},
      {"[1,2,3]", "bad_frame"},
      {"{\"params\":{}}", "bad_request"},       // no method
      {"{\"method\":5}", "bad_request"},        // ill-typed method
      {"{\"method\":\"verify\",\"params\":7}", "bad_request"},
      {"{\"method\":\"verify\",\"params\":{\"n\":\"x\",\"k\":2}}",
       "bad_request"},
      {"{\"method\":\"verify\",\"params\":{\"k\":2}}", "bad_request"},
      {"{\"method\":\"verify\",\"params\":{\"n\":6,\"k\":2,"
       "\"mode\":\"psychic\"}}",
       "bad_request"},
      {"{\"method\":\"cancel\",\"params\":{}}", "bad_request"},
  };
  for (const auto& [frame, want_code] : abuse) {
    ASSERT_TRUE(client.send_line(frame, &error)) << error;
    const auto reply = client.read_json(kReadTimeoutMs, &error);
    ASSERT_TRUE(reply.has_value()) << error << " for " << frame;
    EXPECT_EQ(frame_type(*reply), "error") << frame;
    EXPECT_EQ(error_code(*reply), want_code) << frame;
    EXPECT_NE(reply->find("schema_version"), nullptr);
  }
  // The connection is still healthy after every rejection.
  const auto pong = roundtrip(client, request_frame("ping", {}));
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(frame_type(*pong), "result");
}

TEST(Service, OversizedFrameGetsFrameTooLargeThenClose) {
  net::FrameServerConfig server;
  server.max_frame = 512;
  DaemonFixture fx({}, server);
  net::Client client = fx.connect();
  std::string error;
  ASSERT_TRUE(client.send_line(std::string(4096, 'x'), &error)) << error;
  const auto reply = client.read_json(kReadTimeoutMs, &error);
  ASSERT_TRUE(reply.has_value()) << error;
  EXPECT_EQ(frame_type(*reply), "error");
  EXPECT_EQ(error_code(*reply), "frame_too_large");
  EXPECT_FALSE(client.read_line(kReadTimeoutMs, &error).has_value());
  // The daemon itself is unharmed: a fresh connection works.
  net::Client again = fx.connect();
  const auto pong = roundtrip(again, request_frame("ping", {}));
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(frame_type(*pong), "result");
}

TEST(Service, SessionRegistryFullShedsWithOverloaded) {
  ServiceConfig config;
  config.threads = 1;
  config.max_sessions = 1;
  DaemonFixture fx(config);
  net::Client holder = fx.connect();
  std::string error;
  io::JsonObject slow;
  slow["n"] = 3;
  slow["k"] = 6;
  slow["chunk"] = 10;
  ASSERT_TRUE(
      holder.send_json(request_frame("verify", std::move(slow)), &error))
      << error;
  auto accepted = holder.read_json(kReadTimeoutMs, &error);
  ASSERT_TRUE(accepted.has_value()) << error;
  ASSERT_EQ(frame_type(*accepted), "accepted");
  const std::string session =
      accepted->find("session")->as_string();

  // Registry is full: a second verify is shed, never queued or blocked.
  net::Client second = fx.connect();
  io::JsonObject params;
  params["n"] = 6;
  params["k"] = 2;
  const auto shed =
      roundtrip(second, request_frame("verify", std::move(params)));
  ASSERT_TRUE(shed.has_value());
  EXPECT_EQ(frame_type(*shed), "error");
  EXPECT_EQ(error_code(*shed), "overloaded");

  // Cancel the holder; its terminal frame reports the cancellation and
  // the registry frees up.
  io::JsonObject cancel;
  cancel["session"] = session;
  ASSERT_TRUE(
      holder.send_json(request_frame("cancel", std::move(cancel)), &error))
      << error;
  bool saw_cancelled = false, saw_cancel_ack = false;
  for (int i = 0; i < 10000 && !(saw_cancelled && saw_cancel_ack); ++i) {
    const auto frame = holder.read_json(kReadTimeoutMs, &error);
    ASSERT_TRUE(frame.has_value()) << error;
    if (frame->find("found") != nullptr) {
      EXPECT_TRUE(frame->find("found")->as_bool());
      saw_cancel_ack = true;
    } else if (const io::Json* status = frame->find("status")) {
      EXPECT_EQ(status->as_string(), "cancelled");
      saw_cancelled = true;
    }
  }
  EXPECT_TRUE(saw_cancelled);
  EXPECT_TRUE(saw_cancel_ack);

  const auto retry =
      roundtrip(second, request_frame("verify", [] {
                  io::JsonObject p;
                  p["n"] = 6;
                  p["k"] = 2;
                  return p;
                }()));
  ASSERT_TRUE(retry.has_value());
  EXPECT_EQ(frame_type(*retry), "result");
  EXPECT_EQ(retry->find("status")->as_string(), "done");
}

TEST(Service, BusyPoolShedsOneShotJobsWithOverloaded) {
  ServiceConfig config;
  config.threads = 1;
  config.max_queue = 0;  // a job is shed whenever the worker is busy
  DaemonFixture fx(config);
  net::Client client = fx.connect();
  std::string error;
  // A slow single-task job pins the only worker... (heavy enough that it
  // is still running when the follow-up request below gets dispatched,
  // whatever the solver throughput of the build)
  io::JsonObject slow;
  slow["n"] = 8;
  slow["k"] = 2;
  slow["horizon_mcycles"] = 500.0;
  slow["faults_per_mcycle"] = 1000.0;
  ASSERT_TRUE(
      client.send_json(request_frame("sim.run", std::move(slow)), &error))
      << error;
  // ...so the construct that follows on the same connection (processed
  // strictly after, while the worker is still busy) must be shed.
  io::JsonObject p;
  p["n"] = 8;
  p["k"] = 2;
  ASSERT_TRUE(
      client.send_json(request_frame("construct", std::move(p)), &error))
      << error;
  bool saw_overloaded = false, saw_sim_result = false;
  for (int i = 0; i < 2 && !(saw_overloaded && saw_sim_result); ++i) {
    const auto frame = client.read_json(kReadTimeoutMs, &error);
    ASSERT_TRUE(frame.has_value()) << error;
    if (frame_type(*frame) == "error") {
      EXPECT_EQ(error_code(*frame), "overloaded");
      saw_overloaded = true;
    } else if (frame->find("availability") != nullptr) {
      saw_sim_result = true;
    }
  }
  EXPECT_TRUE(saw_overloaded);
  EXPECT_TRUE(saw_sim_result);
}

TEST(Service, SimRunRejectsOutOfRangeParameters) {
  DaemonFixture fx;
  net::Client client = fx.connect();
  std::string error;
  // Each would otherwise pin a pool worker on an effectively unbounded
  // (or nonsensical) simulation with no cancellation path.
  const std::vector<std::string> bad = {
      "{\"method\":\"sim.run\",\"params\":{\"n\":8,\"k\":2,"
      "\"horizon_mcycles\":1e300}}",
      "{\"method\":\"sim.run\",\"params\":{\"n\":8,\"k\":2,"
      "\"horizon_mcycles\":0}}",
      "{\"method\":\"sim.run\",\"params\":{\"n\":8,\"k\":2,"
      "\"horizon_mcycles\":-5}}",
      "{\"method\":\"sim.run\",\"params\":{\"n\":8,\"k\":2,"
      "\"faults_per_mcycle\":-1}}",
      "{\"method\":\"sim.run\",\"params\":{\"n\":8,\"k\":2,"
      "\"repair_cycles\":-200000}}",
  };
  for (const std::string& frame : bad) {
    ASSERT_TRUE(client.send_line(frame, &error)) << error;
    const auto reply = client.read_json(kReadTimeoutMs, &error);
    ASSERT_TRUE(reply.has_value()) << error << " for " << frame;
    EXPECT_EQ(frame_type(*reply), "error") << frame;
    EXPECT_EQ(error_code(*reply), "bad_request") << frame;
  }
  // An in-range request on the same connection still runs.
  io::JsonObject p;
  p["n"] = 8;
  p["k"] = 2;
  p["horizon_mcycles"] = 0.1;
  const auto ok = roundtrip(client, request_frame("sim.run", std::move(p)));
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(frame_type(*ok), "result");
}

TEST(Service, AbruptDisconnectMidStreamLeavesDaemonServing) {
  ServiceConfig config;
  config.threads = 2;
  DaemonFixture fx(config);
  {
    net::Client dropper = fx.connect();
    std::string error;
    io::JsonObject params;
    params["n"] = 3;
    params["k"] = 6;
    params["chunk"] = 10;  // long sweep: many progress events
    ASSERT_TRUE(
        dropper.send_json(request_frame("verify", std::move(params)),
                          &error))
        << error;
    const auto accepted = dropper.read_json(kReadTimeoutMs, &error);
    ASSERT_TRUE(accepted.has_value()) << error;
    ASSERT_EQ(frame_type(*accepted), "accepted");
    // The client vanishes mid-stream: subsequent progress writes hit a
    // reset socket (EPIPE, which must not be a fatal SIGPIPE) and the
    // close must not tear the session down under the event handler.
  }
  net::Client client = fx.connect();
  const auto pong = roundtrip(client, request_frame("ping", {}));
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(frame_type(*pong), "result");
  // The orphaned session is reaped once its in-flight chunk completes.
  for (int i = 0; i < 600; ++i) {
    const auto stats = roundtrip(client, request_frame("stats", {}));
    ASSERT_TRUE(stats.has_value());
    if (stats->find("sessions_active")->as_int() == 0) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ADD_FAILURE() << "orphaned session never reaped";
}

TEST(Service, CancelMidSweepStopsTheSession) {
  ServiceConfig config;
  config.threads = 1;
  DaemonFixture fx(config);
  net::Client client = fx.connect();
  std::string error;
  io::JsonObject params;
  params["n"] = 3;
  params["k"] = 6;
  params["chunk"] = 10;
  ASSERT_TRUE(
      client.send_json(request_frame("verify", std::move(params)), &error))
      << error;
  const auto accepted = client.read_json(kReadTimeoutMs, &error);
  ASSERT_TRUE(accepted.has_value()) << error;
  ASSERT_EQ(frame_type(*accepted), "accepted");
  io::JsonObject cancel;
  cancel["session"] = accepted->find("session")->as_string();
  ASSERT_TRUE(
      client.send_json(request_frame("cancel", std::move(cancel)), &error))
      << error;
  bool cancelled = false;
  while (!cancelled) {
    const auto frame = client.read_json(kReadTimeoutMs, &error);
    ASSERT_TRUE(frame.has_value()) << error;
    const io::Json* status = frame->find("status");
    if (status != nullptr) {
      EXPECT_EQ(status->as_string(), "cancelled");
      EXPECT_EQ(frame_type(*frame), "result");
      cancelled = true;
    }
  }
  const auto stats = roundtrip(client, request_frame("stats", {}));
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->find("sessions_active")->as_int(), 0);
}

TEST(Service, UnknownSessionCancelReportsNotFoundButSucceeds) {
  DaemonFixture fx;
  net::Client client = fx.connect();
  io::JsonObject cancel;
  cancel["session"] = "s424242";
  const auto reply =
      roundtrip(client, request_frame("cancel", std::move(cancel)));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(frame_type(*reply), "result");
  EXPECT_FALSE(reply->find("found")->as_bool());
}

TEST(Service, DrainedVerifyResumesToBitIdenticalVerdict) {
  const std::string drain_dir =
      "kgdd_drain_" + std::to_string(::getpid());
  std::filesystem::remove_all(drain_dir);
  std::filesystem::create_directories(drain_dir);

  // Phase 1: start a verify, drain mid-sweep, collect the checkpoint.
  std::string checkpoint_path;
  {
    ServiceConfig config;
    config.threads = 2;
    config.drain_dir = drain_dir;
    DaemonFixture fx(config);
    net::Client client = fx.connect();
    std::string error;
    io::JsonObject params;
    params["n"] = 3;
    params["k"] = 6;
    params["chunk"] = 25;
    ASSERT_TRUE(client.send_json(request_frame("verify", std::move(params)),
                                 &error))
        << error;
    // Let the session get genuinely under way (accepted + 2 progress
    // frames), then drain the daemon out from under it.
    for (int i = 0; i < 3; ++i) {
      const auto frame = client.read_json(kReadTimeoutMs, &error);
      ASSERT_TRUE(frame.has_value()) << error;
      ASSERT_FALSE(is_terminal_frame(*frame));
    }
    fx.daemon().begin_drain();
    std::optional<io::Json> terminal;
    while (!terminal.has_value()) {
      auto frame = client.read_json(kReadTimeoutMs, &error);
      ASSERT_TRUE(frame.has_value()) << error;
      if (is_terminal_frame(*frame)) terminal = std::move(frame);
    }
    ASSERT_EQ(frame_type(*terminal), "result");
    ASSERT_EQ(terminal->find("status")->as_string(), "drained");
    checkpoint_path = terminal->find("checkpoint")->as_string();
    EXPECT_GT(terminal->find("items_total")->as_int(), 0);
    fx.daemon().join();  // drain closes every connection and stops
  }
  ASSERT_TRUE(std::filesystem::exists(checkpoint_path)) << checkpoint_path;

  // Phase 2: resume from the checkpoint and run an uninterrupted control
  // sweep; the deterministic verdict fields must match exactly.
  std::string resumed, control;
  {
    ServiceConfig config;
    config.threads = 2;
    DaemonFixture fx(config);
    net::Client client = fx.connect();
    io::JsonObject resume_params;
    resume_params["resume"] = checkpoint_path;
    const auto resumed_terminal = roundtrip(
        client, request_frame("verify", std::move(resume_params)));
    ASSERT_TRUE(resumed_terminal.has_value());
    ASSERT_EQ(frame_type(*resumed_terminal), "result");
    ASSERT_EQ(resumed_terminal->find("status")->as_string(), "done");
    resumed = deterministic_verdict(*resumed_terminal);

    io::JsonObject control_params;
    control_params["n"] = 3;
    control_params["k"] = 6;
    control_params["chunk"] = 25;
    const auto control_terminal = roundtrip(
        client, request_frame("verify", std::move(control_params)));
    ASSERT_TRUE(control_terminal.has_value());
    ASSERT_EQ(frame_type(*control_terminal), "result");
    control = deterministic_verdict(*control_terminal);
  }
  EXPECT_EQ(resumed, control);
  EXPECT_NE(resumed, "<no verdict>");
  std::filesystem::remove_all(drain_dir);
}

TEST(Service, ResumeFromGarbagePathIsAStructuredError) {
  DaemonFixture fx;
  net::Client client = fx.connect();
  // A path that names nothing is the client's mistake: not_found.
  io::JsonObject params;
  params["resume"] = "/nonexistent/kgdd-s1.kgdp";
  const auto reply =
      roundtrip(client, request_frame("verify", std::move(params)));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(frame_type(*reply), "error");
  EXPECT_EQ(error_code(*reply), "not_found");
}

// The resume corruption corpus: every damaged kgdd-<sid>.kgdp variant
// must come back as a classified bad_request error — never an internal
// error from deep inside the parser, never a wedged session.
TEST(Service, ResumeFromCorruptCheckpointCorpusIsClassified) {
  const std::string dir = "kgdd_corrupt_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  // A genuine checkpoint to mutate.
  SessionCheckpoint cp;
  cp.n = 3;
  cp.k = 4;
  cp.max_faults = 4;
  cp.chunk = 100;
  cp.cursor = "exhaustive 0 0 end\n";
  const std::string good = dir + "/kgdd-good.kgdp";
  write_session_checkpoint_file(good, cp);
  std::string bytes;
  {
    std::ifstream in(good, std::ios::binary);
    ASSERT_TRUE(in.good());
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 32u);

  const auto write_variant = [&](const std::string& name,
                                 const std::string& content) {
    const std::string path = dir + "/" + name;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(content.data(),
              static_cast<std::streamsize>(content.size()));
    return path;
  };
  std::string flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x40;  // payload bit flip: CRC catches it
  std::vector<std::string> corpus = {
      write_variant("kgdd-zero.kgdp", ""),
      write_variant("kgdd-trunc.kgdp", bytes.substr(0, bytes.size() / 2)),
      write_variant("kgdd-flip.kgdp", flipped),
  };
  // Valid envelope around a wrong-version payload: a parse error, not a
  // framing error — still bad_request to the client.
  const std::string wrongver = dir + "/kgdd-wrongver.kgdp";
  util::durable_write_file(wrongver, "kgdp-check-session 99\nn 3\nk 4\n");
  corpus.push_back(wrongver);

  // A corrupt primary with a pristine `.bak` sibling: the daemon must
  // not silently probe a backup it does not own — still a structured
  // error pointing at the file the client actually named.
  const std::string pair = write_variant("kgdd-pair.kgdp", flipped);
  write_session_checkpoint_file(pair + ".bak", cp);
  corpus.push_back(pair);

  DaemonFixture fx;
  net::Client client = fx.connect();
  for (const std::string& path : corpus) {
    io::JsonObject params;
    params["resume"] = path;
    const auto reply =
        roundtrip(client, request_frame("verify", std::move(params)));
    ASSERT_TRUE(reply.has_value()) << path;
    EXPECT_EQ(frame_type(*reply), "error") << path;
    EXPECT_EQ(error_code(*reply), "bad_request") << path;
  }
  // Client-supplied resume paths are read-only: none of the damaged
  // files may have been quarantined (renamed to <name>.corrupt).
  for (const std::string& path : corpus) {
    EXPECT_TRUE(std::filesystem::exists(path)) << path;
    EXPECT_FALSE(std::filesystem::exists(path + ".corrupt")) << path;
  }
  // The daemon survived the whole corpus.
  const auto pong = roundtrip(client, request_frame("ping", {}));
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(frame_type(*pong), "result");
  std::filesystem::remove_all(dir);
}

// Periodic session checkpoints (--checkpoint-every): a mid-sweep
// snapshot taken at a chunk boundary resumes in a fresh daemon to the
// bit-identical verdict, and a completed session cleans its own
// checkpoint up.
TEST(Service, PeriodicSessionCheckpointResumesBitIdentically) {
  const std::string dir1 = "kgdd_period1_" + std::to_string(::getpid());
  const std::string dir2 = "kgdd_period2_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir1);
  std::filesystem::remove_all(dir2);
  std::filesystem::create_directories(dir1);
  std::filesystem::create_directories(dir2);

  // Phase 1: run with checkpoint-every=1 until a progress frame reports
  // a checkpoint write, copy the snapshot aside, then cancel (a
  // cancelled session reaps its own checkpoint files, so the copy is
  // what phase 2 resumes).
  std::string checkpoint_path;
  {
    ServiceConfig config;
    config.threads = 2;
    config.drain_dir = dir1;
    config.session_checkpoint_every = 1;
    DaemonFixture fx(config);
    net::Client client = fx.connect();
    std::string error;
    io::JsonObject params;
    params["n"] = 3;
    params["k"] = 6;
    params["chunk"] = 25;
    ASSERT_TRUE(client.send_json(request_frame("verify", std::move(params)),
                                 &error))
        << error;
    std::string session;
    while (checkpoint_path.empty()) {
      const auto frame = client.read_json(kReadTimeoutMs, &error);
      ASSERT_TRUE(frame.has_value()) << error;
      ASSERT_FALSE(is_terminal_frame(*frame)) << "sweep finished before "
                                                 "any periodic checkpoint";
      if (const io::Json* sid = frame->find("session")) {
        session = sid->as_string();
      }
      if (const io::Json* path = frame->find("checkpoint")) {
        checkpoint_path = path->as_string();
      }
    }
    EXPECT_TRUE(std::filesystem::exists(checkpoint_path));
    const std::string saved = dir1 + "/saved-snapshot.kgdp";
    std::filesystem::copy_file(checkpoint_path, saved);
    io::JsonObject cancel;
    cancel["session"] = session;
    ASSERT_TRUE(
        client.send_json(request_frame("cancel", std::move(cancel)), &error))
        << error;
    bool cancelled = false;
    while (!cancelled) {
      const auto frame = client.read_json(kReadTimeoutMs, &error);
      ASSERT_TRUE(frame.has_value()) << error;
      const io::Json* status = frame->find("status");
      if (status != nullptr && status->as_string() == "cancelled") {
        cancelled = true;
      }
    }
    // The cancelled session reaped its own checkpoint and backup.
    EXPECT_FALSE(std::filesystem::exists(checkpoint_path));
    EXPECT_FALSE(std::filesystem::exists(checkpoint_path + ".bak"));
    checkpoint_path = saved;
  }
  ASSERT_TRUE(std::filesystem::exists(checkpoint_path)) << checkpoint_path;

  // Phase 2: resume the snapshot in a fresh daemon; verdict must match
  // an uninterrupted control sweep, and the resumed session's own
  // periodic checkpoint must be removed once it completes.
  {
    ServiceConfig config;
    config.threads = 2;
    config.drain_dir = dir2;
    config.session_checkpoint_every = 1;
    DaemonFixture fx(config);
    net::Client client = fx.connect();
    io::JsonObject resume_params;
    resume_params["resume"] = checkpoint_path;
    const auto resumed_terminal = roundtrip(
        client, request_frame("verify", std::move(resume_params)));
    ASSERT_TRUE(resumed_terminal.has_value());
    ASSERT_EQ(frame_type(*resumed_terminal), "result");
    ASSERT_EQ(resumed_terminal->find("status")->as_string(), "done");

    io::JsonObject control_params;
    control_params["n"] = 3;
    control_params["k"] = 6;
    control_params["chunk"] = 25;
    const auto control_terminal = roundtrip(
        client, request_frame("verify", std::move(control_params)));
    ASSERT_TRUE(control_terminal.has_value());
    EXPECT_EQ(deterministic_verdict(*resumed_terminal),
              deterministic_verdict(*control_terminal));
    EXPECT_NE(deterministic_verdict(*resumed_terminal), "<no verdict>");
    // Completed sessions reap their own checkpoints (primary + backup).
    EXPECT_FALSE(std::filesystem::exists(dir2 + "/kgdd-s1.kgdp"));
    EXPECT_FALSE(std::filesystem::exists(dir2 + "/kgdd-s1.kgdp.bak"));
  }
  std::filesystem::remove_all(dir1);
  std::filesystem::remove_all(dir2);
}

// Restart safety: a daemon started over a drain dir holding a dead
// predecessor's kgdd-s1.kgdp seeds its session ids past it, so a new
// session's periodic checkpoints neither overwrite the leftover nor
// (on completion) delete it — the crashed boot's resume data survives.
TEST(Service, RestartDoesNotClobberPredecessorCheckpoints) {
  const std::string dir = "kgdd_seed_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  SessionCheckpoint cp;
  cp.n = 3;
  cp.k = 4;
  cp.max_faults = 4;
  cp.chunk = 100;
  cp.cursor = "exhaustive 0 0 end\n";
  const std::string leftover = dir + "/kgdd-s1.kgdp";
  write_session_checkpoint_file(leftover, cp);
  const auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  const std::string before = slurp(leftover);
  ASSERT_FALSE(before.empty());

  {
    ServiceConfig config;
    config.threads = 2;
    config.drain_dir = dir;
    config.session_checkpoint_every = 1;
    DaemonFixture fx(config);
    net::Client client = fx.connect();
    io::JsonObject params;
    params["n"] = 3;
    params["k"] = 6;
    params["chunk"] = 25;
    const auto terminal =
        roundtrip(client, request_frame("verify", std::move(params)));
    ASSERT_TRUE(terminal.has_value());
    ASSERT_EQ(frame_type(*terminal), "result");
    ASSERT_EQ(terminal->find("status")->as_string(), "done");
  }
  // The new session checkpointed every chunk and completed — and still
  // the predecessor's file is byte-identical and its .bak untouched.
  EXPECT_EQ(slurp(leftover), before);
  EXPECT_FALSE(std::filesystem::exists(leftover + ".bak"));
  std::filesystem::remove_all(dir);
}

// Startup hygiene: a daemon whose predecessor died between open and
// rename sweeps the leaked *.kgdp.tmp from its drain dir before
// serving.
TEST(Service, DaemonStartupSweepsStaleTempFiles) {
  const std::string dir = "kgdd_sweep_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    std::ofstream out(dir + "/kgdd-s7.kgdp.tmp");
    out << "half-written checkpoint";
  }
  {
    std::ofstream out(dir + "/keep.txt");
    out << "unrelated";
  }
  ServiceConfig config;
  config.drain_dir = dir;
  DaemonFixture fx(config);
  net::Client client = fx.connect();
  const auto pong = roundtrip(client, request_frame("ping", {}));
  ASSERT_TRUE(pong.has_value());
  EXPECT_FALSE(std::filesystem::exists(dir + "/kgdd-s7.kgdp.tmp"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/keep.txt"));
  std::filesystem::remove_all(dir);
}

TEST(Service, ShutdownMethodDrainsAndDumpsMetrics) {
  const std::string metrics_path =
      "kgdd_metrics_" + std::to_string(::getpid()) + ".jsonl";
  std::filesystem::remove(metrics_path);
  {
    ServiceConfig config;
    config.metrics_path = metrics_path;
    DaemonFixture fx(config);
    net::Client client = fx.connect();
    const auto pong = roundtrip(client, request_frame("ping", {}));
    ASSERT_TRUE(pong.has_value());
    const auto reply = roundtrip(client, request_frame("shutdown", {}));
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(frame_type(*reply), "result");
    EXPECT_TRUE(reply->find("draining")->as_bool());
    // Drain closes the connection once everything flushed.
    std::string error;
    EXPECT_FALSE(client.read_line(kReadTimeoutMs, &error).has_value());
    fx.daemon().join();
  }
  std::ifstream in(metrics_path);
  ASSERT_TRUE(in.good());
  std::string line;
  bool saw_ping_metrics = false;
  while (std::getline(in, line)) {
    const io::Json event = io::Json::parse(line);  // every line is JSON
    const io::Json* method = event.find("method");
    if (method != nullptr && method->as_string() == "ping") {
      saw_ping_metrics = true;
      EXPECT_GE(event.find("count")->as_int(), 1);
    }
  }
  EXPECT_TRUE(saw_ping_metrics);
  std::filesystem::remove(metrics_path);
}

TEST(Service, RequestsDuringDrainAreRejectedAsShuttingDown) {
  const std::string drain_dir =
      "kgdd_drain2_" + std::to_string(::getpid());
  std::filesystem::create_directories(drain_dir);
  ServiceConfig config;
  config.threads = 1;
  config.drain_dir = drain_dir;
  DaemonFixture fx(config);
  net::Client client = fx.connect();
  std::string error;
  // Hold the daemon open with a long verify so drain cannot finish
  // before our post-drain request lands.
  io::JsonObject params;
  params["n"] = 3;
  params["k"] = 6;
  params["chunk"] = 10;
  ASSERT_TRUE(
      client.send_json(request_frame("verify", std::move(params)), &error))
      << error;
  const auto accepted = client.read_json(kReadTimeoutMs, &error);
  ASSERT_TRUE(accepted.has_value()) << error;
  ASSERT_EQ(frame_type(*accepted), "accepted");

  const auto drain_reply = roundtrip(client, request_frame("shutdown", {}));
  ASSERT_TRUE(drain_reply.has_value());
  ASSERT_TRUE(client.send_json(request_frame("construct", [] {
                                 io::JsonObject p;
                                 p["n"] = 8;
                                 p["k"] = 2;
                                 return p;
                               }()),
                               &error))
      << error;
  bool saw_shutting_down = false;
  while (!saw_shutting_down) {
    const auto frame = client.read_json(kReadTimeoutMs, &error);
    if (!frame.has_value()) break;  // connection closed by the drain
    if (frame_type(*frame) == "error" &&
        error_code(*frame) == "shutting_down") {
      saw_shutting_down = true;
    }
  }
  EXPECT_TRUE(saw_shutting_down);
  fx.daemon().join();  // let the drain finish before removing its dir
  std::filesystem::remove_all(drain_dir);
}

// ---------------------------------------------------------------------------
// route: atlas-served reconfiguration
// ---------------------------------------------------------------------------

TEST(Service, RouteSingleAndBatchServedFromTheAtlas) {
  DaemonFixture fx;  // default config: atlas on
  net::Client client = fx.connect();

  const auto make_route = [] (io::Json faults) {
    io::JsonObject p;
    p["n"] = 8;
    p["k"] = 2;
    p["faults"] = std::move(faults);
    return request_frame("route", std::move(p));
  };

  // Cold miss: computed, warmed in place, and a valid route comes back.
  const auto first = roundtrip(client, make_route(io::JsonArray{0, 11}));
  ASSERT_TRUE(first.has_value());
  ASSERT_EQ(frame_type(*first), "result") << first->dump();
  const io::Json* route = first->find("route");
  ASSERT_NE(route, nullptr);
  ASSERT_TRUE(route->is_array());
  EXPECT_GE(route->as_array().size(), 2u);  // two terminals at least

  // Warm hit: the reply body is byte-identical to the cold miss.
  const auto second = roundtrip(client, make_route(io::JsonArray{0, 11}));
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->find("route")->dump(), second->find("route")->dump());

  // Batch: one reply, per-set routes in request order; the repeated set
  // matches the single-route answer.
  io::JsonObject p;
  p["n"] = 8;
  p["k"] = 2;
  p["sets"] = io::JsonArray{io::JsonArray{0, 11}, io::JsonArray{},
                            io::JsonArray{3}};
  const auto batch = roundtrip(client, request_frame("route", std::move(p)));
  ASSERT_TRUE(batch.has_value());
  ASSERT_EQ(frame_type(*batch), "result") << batch->dump();
  const io::Json* routes = batch->find("routes");
  ASSERT_NE(routes, nullptr);
  ASSERT_EQ(routes->as_array().size(), 3u);
  EXPECT_EQ(routes->as_array()[0].dump(), first->find("route")->dump());
  for (const io::Json& r : routes->as_array()) {
    EXPECT_TRUE(r.is_array() || r.is_null());
  }

  // The stats surface proves the atlas actually served: entries were
  // warmed, at least one lookup hit, and exactly one router was built.
  const auto stats = roundtrip(client, request_frame("stats", {}));
  ASSERT_TRUE(stats.has_value());
  const io::Json* atlas = stats->find("atlas");
  ASSERT_NE(atlas, nullptr);
  EXPECT_TRUE(atlas->find("enabled")->as_bool());
  EXPECT_GE(atlas->find("entries")->as_int(), 1);
  EXPECT_GE(atlas->find("hits")->as_int(), 1);
  EXPECT_GE(atlas->find("inserts")->as_int(), 1);
  EXPECT_EQ(atlas->find("routers")->as_int(), 1);
}

TEST(Service, RouteRepliesBitIdenticalWithAtlasOnAndOff) {
  ServiceConfig off_config;
  off_config.atlas_entries = 0;
  DaemonFixture with_atlas;
  DaemonFixture without_atlas(off_config);
  net::Client on = with_atlas.connect();
  net::Client off = without_atlas.connect();

  // A mixed batch: within the certified budget, past it (3 > k), and
  // the empty set — and a repeat, so the atlas daemon answers it once
  // cold and once warm. All four replies must carry identical bodies.
  io::JsonObject p;
  p["n"] = 8;
  p["k"] = 2;
  p["sets"] = io::JsonArray{io::JsonArray{0, 11}, io::JsonArray{1, 2, 3},
                            io::JsonArray{}, io::JsonArray{0, 11}};
  const io::Json req = request_frame("route", std::move(p));
  const auto on1 = roundtrip(on, req);
  const auto on2 = roundtrip(on, req);
  const auto off1 = roundtrip(off, req);
  ASSERT_TRUE(on1.has_value() && on2.has_value() && off1.has_value());
  ASSERT_EQ(frame_type(*on1), "result") << on1->dump();
  const std::string want = on1->find("routes")->dump();
  EXPECT_EQ(on2->find("routes")->dump(), want);
  EXPECT_EQ(off1->find("routes")->dump(), want);

  const auto off_stats = roundtrip(off, request_frame("stats", {}));
  ASSERT_TRUE(off_stats.has_value());
  EXPECT_FALSE(off_stats->find("atlas")->find("enabled")->as_bool());
}

TEST(Service, RoutePreloadedArtifactServesHitsImmediately) {
  // Build a full n=8 k=2 atlas artifact the way `kgd_cli atlas build`
  // does, then boot a daemon that preloads it.
  const std::string path =
      "kgdd_atlas_" + std::to_string(::getpid()) + ".kgdp";
  std::uint64_t built_entries = 0;
  {
    auto sg = kgd::build_solution(8, 2);
    ASSERT_TRUE(sg.has_value());
    reconfig::RouteAtlas atlas(std::size_t{1} << 20);
    reconfig::Router router(*sg, &atlas);
    built_entries = router.build_atlas(sg->k(), 0, 1);
    std::ofstream out(path);
    atlas.save(out, router.graph_fp(), sg->n(), sg->k());
  }
  ASSERT_GT(built_entries, 0u);

  ServiceConfig config;
  config.atlas_paths.push_back(path);
  DaemonFixture fx(config);
  net::Client client = fx.connect();
  io::JsonObject p;
  p["n"] = 8;
  p["k"] = 2;
  p["faults"] = io::JsonArray{0, 11};
  const auto reply = roundtrip(client, request_frame("route", std::move(p)));
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(frame_type(*reply), "result") << reply->dump();

  const auto stats = roundtrip(client, request_frame("stats", {}));
  ASSERT_TRUE(stats.has_value());
  const io::Json* atlas = stats->find("atlas");
  EXPECT_EQ(atlas->find("entries")->as_int(),
            static_cast<std::int64_t>(built_entries));
  EXPECT_GE(atlas->find("hits")->as_int(), 1);  // served without warming
  EXPECT_EQ(atlas->find("misses")->as_int(), 0);
  std::filesystem::remove(path);
}

TEST(Service, RouteValidationErrorsArePrecise) {
  DaemonFixture fx;
  net::Client client = fx.connect();

  const auto expect_bad_request = [&](io::JsonObject params,
                                      const std::string& needle) {
    const auto reply =
        roundtrip(client, request_frame("route", std::move(params)));
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(frame_type(*reply), "error");
    EXPECT_EQ(error_code(*reply), "bad_request");
    EXPECT_NE(reply->find("message")->as_string().find(needle),
              std::string::npos)
        << reply->dump();
  };

  {
    io::JsonObject p;  // missing n
    p["k"] = 2;
    p["faults"] = io::JsonArray{0};
    expect_bad_request(std::move(p), "param 'n'");
  }
  {
    io::JsonObject p;  // both faults and sets
    p["n"] = 8;
    p["k"] = 2;
    p["faults"] = io::JsonArray{0};
    p["sets"] = io::JsonArray{io::JsonArray{0}};
    expect_bad_request(std::move(p), "exactly one of");
  }
  {
    io::JsonObject p;  // neither faults nor sets
    p["n"] = 8;
    p["k"] = 2;
    expect_bad_request(std::move(p), "exactly one of");
  }
  {
    io::JsonObject p;  // fault id past the graph
    p["n"] = 8;
    p["k"] = 2;
    p["faults"] = io::JsonArray{999};
    expect_bad_request(std::move(p), "out of range");
  }
  {
    io::JsonObject p;  // batch over the per-request limit
    p["n"] = 8;
    p["k"] = 2;
    p["sets"] = io::Json(io::JsonArray(4097, io::Json(io::JsonArray{})));
    expect_bad_request(std::move(p), "per-request limit");
  }
  {
    io::JsonObject p;  // unsupported construction
    p["n"] = 8;
    p["k"] = 4;
    p["faults"] = io::JsonArray{0};
    const auto reply =
        roundtrip(client, request_frame("route", std::move(p)));
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(frame_type(*reply), "error");
    EXPECT_EQ(error_code(*reply), "unsupported");
  }

  // A misspelled method names the server's vocabulary, not a crash.
  const auto unknown = roundtrip(client, request_frame("rout", {}));
  ASSERT_TRUE(unknown.has_value());
  EXPECT_EQ(frame_type(*unknown), "error");
  EXPECT_EQ(error_code(*unknown), "unknown_method");
}

TEST(Service, RequestSchemaVersionSkew) {
  DaemonFixture fx;
  net::Client client = fx.connect();

  const auto ping_with_version = [](io::Json version) {
    io::JsonObject frame;
    frame["method"] = "ping";
    frame["schema_version"] = std::move(version);
    return io::Json(std::move(frame));
  };

  // Every version the server speaks is accepted, and the reply is
  // always stamped with the *server's* version — v1/v2 clients keep
  // working across the v3 bump.
  for (int v = 1; v <= io::kSchemaVersion; ++v) {
    const auto reply = roundtrip(client, ping_with_version(io::Json(v)));
    ASSERT_TRUE(reply.has_value()) << "v" << v;
    EXPECT_EQ(frame_type(*reply), "result") << reply->dump();
    EXPECT_EQ(reply->find("schema_version")->as_int(), io::kSchemaVersion);
  }

  // Future, ancient, and mistyped versions are rejected up front with a
  // message that names the supported range.
  for (const io::Json& v :
       {io::Json(0), io::Json(io::kSchemaVersion + 1), io::Json("2")}) {
    const auto reply = roundtrip(client, ping_with_version(v));
    ASSERT_TRUE(reply.has_value()) << v.dump();
    EXPECT_EQ(frame_type(*reply), "error");
    EXPECT_EQ(error_code(*reply), "bad_request");
    EXPECT_NE(reply->find("message")->as_string().find(
                  "unsupported schema_version"),
              std::string::npos);
  }

  // The connection survives the rejects.
  const auto pong = roundtrip(client, request_frame("ping", {}));
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(frame_type(*pong), "result");
}

TEST(Service, FleetMembershipAndResumeCountersOnStats) {
  DaemonFixture fx;
  net::Client client = fx.connect();

  const auto sg = kgd::build_solution(6, 2);
  ASSERT_TRUE(sg.has_value());
  const std::uint64_t total =
      fault::OrbitEnumerator(sg->num_nodes(), 2,
                             graph::solution_automorphisms(*sg))
          .num_orbits();

  // Runs a whole lease to its `done` terminal, carrying the resume
  // bookkeeping params a generation-N coordinator would stamp.
  auto grant = [&](const std::string& lease, std::int64_t generation,
                   bool refenced) {
    io::JsonObject p;
    p["n"] = 6;
    p["k"] = 2;
    p["max_faults"] = 2;
    p["begin"] = std::uint64_t{0};
    p["end"] = total;
    p["chunk"] = std::uint64_t{512};
    p["lease"] = lease;
    p["epoch"] = std::uint64_t{1};
    p["generation"] = generation;
    if (refenced) p["refenced"] = true;
    const auto done = roundtrip(client, request_frame("lease", std::move(p)));
    ASSERT_TRUE(done.has_value()) << lease;
    ASSERT_EQ(frame_type(*done), "result") << done->dump();
    EXPECT_EQ(done->find("status")->as_string(), "done") << lease;
  };

  // A restarted coordinator shows up as a generation bump; replays of
  // the same or an older generation must not count twice.
  grant("L0", 2, true);   // resumes -> 1, refenced -> 1
  grant("L1", 2, false);  // same generation: no new resume
  grant("L2", 1, false);  // older: a replayed pre-crash grant
  grant("L3", 3, true);   // next incarnation: resumes -> 2, refenced -> 2

  const auto joined =
      roundtrip(client, request_frame("fleet.join", {}, "j"));
  ASSERT_TRUE(joined.has_value());
  ASSERT_EQ(frame_type(*joined), "result");
  EXPECT_TRUE(joined->find("joined")->as_bool());

  // A leave with no lease sessions open acknowledges with nothing to
  // drain.
  const auto idle_leave =
      roundtrip(client, request_frame("fleet.leave", {}, "l"));
  ASSERT_TRUE(idle_leave.has_value());
  ASSERT_EQ(frame_type(*idle_leave), "result");
  EXPECT_TRUE(idle_leave->find("leaving")->as_bool());
  EXPECT_EQ(idle_leave->find("draining")->as_int(), 0);

  const auto stats = roundtrip(client, request_frame("stats", {}));
  ASSERT_TRUE(stats.has_value());
  const io::Json* fleet = stats->find("fleet");
  ASSERT_NE(fleet, nullptr);
  EXPECT_EQ(fleet->find("leases_granted")->as_int(), 4);
  EXPECT_EQ(fleet->find("coordinator_resumes")->as_int(), 2);
  EXPECT_EQ(fleet->find("leases_refenced")->as_int(), 2);
  EXPECT_EQ(fleet->find("workers_joined")->as_int(), 1);
  EXPECT_EQ(fleet->find("workers_left")->as_int(), 1);
}

TEST(Service, FleetLeaveDrainsOpenLeaseSessionsAtTheChunkBoundary) {
  DaemonFixture fx;
  net::Client worker = fx.connect();

  // A long lease at a one-item chunk: ~29k boundaries, so the leave
  // lands mid-sweep with enormous margin.
  const auto sg = kgd::build_solution(3, 6);
  ASSERT_TRUE(sg.has_value());
  const std::uint64_t total =
      fault::OrbitEnumerator(sg->num_nodes(), 6,
                             graph::solution_automorphisms(*sg))
          .num_orbits();
  io::JsonObject p;
  p["n"] = 3;
  p["k"] = 6;
  p["max_faults"] = 6;
  p["begin"] = std::uint64_t{0};
  p["end"] = total;
  p["chunk"] = std::uint64_t{1};
  p["lease"] = std::string("LD");
  p["epoch"] = std::uint64_t{1};
  std::string error;
  ASSERT_TRUE(worker.send_json(request_frame("lease", std::move(p), "g"),
                               &error))
      << error;

  // Wait until the sweep has streamed progress, then ask it to leave
  // from a second connection.
  net::Client observer = fx.connect();
  bool streaming = false;
  for (int i = 0; i < 6000 && !streaming; ++i) {
    const auto stats = roundtrip(observer, request_frame("stats", {}));
    ASSERT_TRUE(stats.has_value());
    const io::Json* active = stats->find("fleet")->find("active");
    if (active != nullptr && active->is_array()) {
      for (const io::Json& lease : active->as_array()) {
        const io::Json* done = lease.find("items_done");
        if (done != nullptr && done->as_int() > 0) streaming = true;
      }
    }
    if (!streaming) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(streaming) << "lease never streamed progress";

  const auto leave =
      roundtrip(observer, request_frame("fleet.leave", {}, "l"));
  ASSERT_TRUE(leave.has_value());
  ASSERT_EQ(frame_type(*leave), "result") << leave->dump();
  EXPECT_EQ(leave->find("draining")->as_int(), 1);

  // The lease stream ends `drained` at the next chunk boundary, cursor
  // attached so the coordinator re-grants the remainder elsewhere.
  while (true) {
    auto frame = worker.read_json(kReadTimeoutMs, &error);
    ASSERT_TRUE(frame.has_value()) << error;
    if (!is_terminal_frame(*frame)) continue;
    ASSERT_EQ(frame_type(*frame), "result") << frame->dump();
    EXPECT_EQ(frame->find("status")->as_string(), "drained");
    EXPECT_FALSE(frame->find("cursor")->as_string().empty());
    EXPECT_LT(frame->find("items_done")->as_int(),
              frame->find("items_total")->as_int());
    break;
  }
}

}  // namespace
}  // namespace kgdp::service
