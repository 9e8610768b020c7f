// Transport-layer tests: frame splitting (including the per-frame byte
// cap), endpoint grammar, event-loop post/stop semantics, the blocking
// Client's wake fd (frames before wakes, partial frames kept, one fault
// op per inbound frame), and a real loopback echo through FrameServer +
// the blocking Client on both TCP and a Unix-domain socket.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/event_loop.hpp"
#include "net/fault_inject.hpp"
#include "net/framing.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "util/wake_pipe.hpp"

namespace kgdp::net {
namespace {

std::vector<std::string> drain(FrameReader& r) {
  std::vector<std::string> out;
  while (auto f = r.next()) out.push_back(std::move(*f));
  return out;
}

TEST(FrameReader, SplitsNewlineDelimitedFrames) {
  FrameReader r(1024);
  ASSERT_TRUE(r.append("a\nbb\nccc", 8));
  EXPECT_EQ(drain(r), (std::vector<std::string>{"a", "bb"}));
  ASSERT_TRUE(r.append("\n", 1));
  EXPECT_EQ(drain(r), (std::vector<std::string>{"ccc"}));
}

TEST(FrameReader, StripsOptionalCarriageReturn) {
  FrameReader r(1024);
  ASSERT_TRUE(r.append("x\r\ny\n", 5));
  EXPECT_EQ(drain(r), (std::vector<std::string>{"x", "y"}));
}

TEST(FrameReader, EmptyFramesAreFrames) {
  FrameReader r(1024);
  ASSERT_TRUE(r.append("\n\nz\n", 4));
  EXPECT_EQ(drain(r), (std::vector<std::string>{"", "", "z"}));
}

TEST(FrameReader, PoisonsOnOversizedCompleteLine) {
  // A terminated over-long line is accepted by append() (the tail after
  // its newline is empty) and caught when next() reaches it.
  FrameReader r(4);
  EXPECT_TRUE(r.append("ok\n", 3));
  EXPECT_TRUE(r.append("abcdefgh\n", 9));
  // Frames before the offender are still handed out; the offender
  // itself poisons the reader instead of being returned.
  EXPECT_EQ(drain(r), (std::vector<std::string>{"ok"}));
  EXPECT_TRUE(r.oversized());
  // Poisoned: new bytes are refused.
  EXPECT_FALSE(r.append("x\n", 2));
}

TEST(FrameReader, PoisonsOnUnterminatedOversizedTail) {
  // A giant line that never ends must poison the reader even though an
  // earlier newline exists in the buffer.
  FrameReader r(8);
  ASSERT_TRUE(r.append("ok\n", 3));
  const std::string flood(9, 'x');  // no newline, over the cap
  EXPECT_FALSE(r.append(flood.data(), flood.size()));
  EXPECT_TRUE(r.oversized());
  EXPECT_EQ(drain(r), (std::vector<std::string>{"ok"}));
}

TEST(FrameReader, ByteAtATimeDeliveryRecoversEveryFrame) {
  FrameReader r(64);
  std::string stream;
  std::vector<std::string> want;
  for (int i = 0; i < 50; ++i) {
    want.push_back("frame-" + std::to_string(i));
    stream += want.back() + "\n";
  }
  std::vector<std::string> got;
  for (char c : stream) {
    ASSERT_TRUE(r.append(&c, 1));
    for (auto f = r.next(); f; f = r.next()) got.push_back(std::move(*f));
  }
  EXPECT_EQ(got, want);
  EXPECT_EQ(r.buffered(), 0u);
}

TEST(Endpoint, ParsesUnixAndTcpSpecs) {
  const auto u = Endpoint::parse("unix:/tmp/kgdd.sock");
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(u->kind, Endpoint::Kind::kUnix);
  EXPECT_EQ(u->path, "/tmp/kgdd.sock");
  EXPECT_EQ(u->to_string(), "unix:/tmp/kgdd.sock");

  const auto t = Endpoint::parse("tcp:127.0.0.1:8080");
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->kind, Endpoint::Kind::kTcp);
  EXPECT_EQ(t->host, "127.0.0.1");
  EXPECT_EQ(t->port, 8080);
  EXPECT_EQ(t->to_string(), "tcp:127.0.0.1:8080");

  EXPECT_FALSE(Endpoint::parse("").has_value());
  EXPECT_FALSE(Endpoint::parse("bogus").has_value());
  EXPECT_FALSE(Endpoint::parse("tcp:hostonly").has_value());
  EXPECT_FALSE(Endpoint::parse("tcp:h:notaport").has_value());
}

TEST(EventLoop, PostedTasksRunOnLoopThreadAndStopEnds) {
  EventLoop loop;
  int hits = 0;
  std::thread::id loop_thread;
  loop.post([&] {
    ++hits;
    loop_thread = std::this_thread::get_id();
    loop.post([&] {
      ++hits;  // posted from the loop thread: runs, then stop
      loop.stop();
    });
  });
  loop.run();
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(loop_thread, std::this_thread::get_id());
}

TEST(EventLoop, CrossThreadPostWakesPoll) {
  EventLoop loop;
  bool ran = false;
  std::thread poster([&] {
    // The loop is (very likely) already blocked in poll(-1); the post
    // must wake it via the self-pipe.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    loop.post([&] {
      ran = true;
      loop.stop();
    });
  });
  loop.run();
  poster.join();
  EXPECT_TRUE(ran);
}

TEST(EventLoop, PostAfterFiresAfterItsDelay) {
  EventLoop loop;
  const auto start = std::chrono::steady_clock::now();
  bool chained = false;
  loop.post_after(30, [&] {
    // Timers may arm further timers (the accept-backoff re-arm path).
    loop.post_after(10, [&] {
      chained = true;
      loop.stop();
    });
  });
  loop.run();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_TRUE(chained);
  EXPECT_GE(elapsed.count(), 35);
}

TEST(EventLoop, WatchedFdCallbackFires) {
  EventLoop loop;
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  char received = 0;
  loop.add(fds[0], POLLIN, [&](short) {
    ASSERT_EQ(::read(fds[0], &received, 1), 1);
    loop.remove(fds[0]);
    loop.stop();
  });
  ASSERT_EQ(::write(fds[1], "z", 1), 1);
  loop.run();
  EXPECT_EQ(received, 'z');
  ::close(fds[0]);
  ::close(fds[1]);
}

// A blocking Client wired to a raw server-side socket the test writes
// bytes into directly, so frame boundaries land exactly where a case
// wants them.
struct RawConnection {
  std::string path;
  Fd server;
  std::optional<Client> client;

  explicit RawConnection(const std::string& name)
      : path(::testing::TempDir() + name + "_" +
             std::to_string(::getpid()) + ".sock") {
    std::string error;
    Fd listener = listen_endpoint(Endpoint::unix_path(path), 1, &error);
    EXPECT_TRUE(listener.valid()) << error;
    client = Client::connect(Endpoint::unix_path(path), &error);
    EXPECT_TRUE(client.has_value()) << error;
    pollfd pfd{listener.get(), POLLIN, 0};
    EXPECT_EQ(::poll(&pfd, 1, 10000), 1);
    server = Fd(::accept(listener.get(), nullptr, nullptr));
    EXPECT_TRUE(server.valid());
  }
  ~RawConnection() { ::unlink(path.c_str()); }

  void write(const std::string& bytes) {
    ASSERT_EQ(::write(server.get(), bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
  }
};

TEST(ClientWake, BufferedFramesAreReturnedBeforeAPendingWake) {
  RawConnection conn("test_net_wake_order");
  util::WakePipe wake;
  conn.write("one\ntwo\n");
  wake.poke();
  // Both frames arrive in one read; each is handed out before the wake.
  auto first = conn.client->read_frame_by(Deadline::after_ms(10000),
                                          wake.read_fd());
  ASSERT_EQ(first.status, ReadStatus::kOk) << first.error;
  EXPECT_EQ(first.frame, "one");
  auto second = conn.client->read_frame_by(Deadline::after_ms(10000),
                                           wake.read_fd());
  ASSERT_EQ(second.status, ReadStatus::kOk) << second.error;
  EXPECT_EQ(second.frame, "two");
  // Nothing buffered now: the still-pending wake ends the read.
  EXPECT_EQ(conn.client
                ->read_frame_by(Deadline::after_ms(10000), wake.read_fd())
                .status,
            ReadStatus::kWoken);
}

TEST(ClientWake, WakeWithoutDataReturnsPromptlyAndLeavesTheNextFrame) {
  RawConnection conn("test_net_wake_idle");
  util::WakePipe wake;
  wake.poke();
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(conn.client
                ->read_frame_by(Deadline::after_ms(10000), wake.read_fd())
                .status,
            ReadStatus::kWoken);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(5));
  wake.drain();
  conn.write("after\n");
  auto res = conn.client->read_frame_by(Deadline::after_ms(10000),
                                        wake.read_fd());
  ASSERT_EQ(res.status, ReadStatus::kOk) << res.error;
  EXPECT_EQ(res.frame, "after");
  // Drained and idle: the read now waits out its deadline.
  EXPECT_EQ(conn.client->read_frame_by(Deadline::after_ms(20), wake.read_fd())
                .status,
            ReadStatus::kTimeout);
}

TEST(ClientWake, PartialFrameStraddlingAWakeIsReassembled) {
  RawConnection conn("test_net_wake_partial");
  util::WakePipe wake;
  conn.write("hel");
  wake.poke();
  EXPECT_EQ(conn.client
                ->read_frame_by(Deadline::after_ms(10000), wake.read_fd())
                .status,
            ReadStatus::kWoken);
  wake.drain();
  conn.write("lo\n");
  auto res = conn.client->read_frame_by(Deadline::after_ms(10000),
                                        wake.read_fd());
  ASSERT_EQ(res.status, ReadStatus::kOk) << res.error;
  EXPECT_EQ(res.frame, "hello");
}

TEST(ClientWake, FaultInjectorSeesOneOpPerInboundFrameAcrossWakes) {
  RawConnection conn("test_net_wake_faults");
  util::WakePipe wake;
  FaultInjector& faults = FaultInjector::instance();

  FaultSpec dup;
  dup.dup_at = 0;
  faults.arm(dup);
  conn.write("twice\n");
  wake.poke();
  for (int i = 0; i < 2; ++i) {
    auto res = conn.client->read_frame_by(Deadline::after_ms(10000),
                                          wake.read_fd());
    ASSERT_EQ(res.status, ReadStatus::kOk) << res.error;
    EXPECT_EQ(res.frame, "twice");
  }
  EXPECT_EQ(conn.client
                ->read_frame_by(Deadline::after_ms(10000), wake.read_fd())
                .status,
            ReadStatus::kWoken);
  EXPECT_EQ(faults.ops(), 1u);  // the replay and the wake are not ops

  FaultSpec drop;
  drop.drop_at = 0;
  faults.arm(drop);
  conn.write("gone\nkept\n");
  auto res = conn.client->read_frame_by(Deadline::after_ms(10000),
                                        wake.read_fd());
  ASSERT_EQ(res.status, ReadStatus::kOk) << res.error;
  EXPECT_EQ(res.frame, "kept");
  EXPECT_EQ(conn.client
                ->read_frame_by(Deadline::after_ms(10000), wake.read_fd())
                .status,
            ReadStatus::kWoken);
  EXPECT_EQ(faults.ops(), 2u);
  faults.disarm();
}

// Runs an echo FrameServer on a background thread and exercises it with
// the blocking client over the given endpoint.
void echo_roundtrip(const Endpoint& listen_ep, const Endpoint& connect_ep) {
  EventLoop loop;
  FrameServerConfig config;
  config.max_frame = 1 << 16;
  FrameServer server(loop, config);
  server.set_frame_handler([&](std::uint64_t conn, std::string frame) {
    server.send(conn, "echo:" + frame);
  });
  std::string error;
  Fd listener = listen_endpoint(listen_ep, 16, &error);
  ASSERT_TRUE(listener.valid()) << error;
  server.add_listener(std::move(listener));

  std::thread loop_thread([&] { loop.run(); });
  auto client = Client::connect(connect_ep, &error);
  ASSERT_TRUE(client.has_value()) << error;
  for (int i = 0; i < 200; ++i) {
    const std::string msg = "ping-" + std::to_string(i);
    ASSERT_TRUE(client->send_line(msg, &error)) << error;
    const auto reply = client->read_line(10000, &error);
    ASSERT_TRUE(reply.has_value()) << error;
    EXPECT_EQ(*reply, "echo:" + msg);
  }
  loop.stop();
  loop_thread.join();
}

TEST(Loopback, TcpEchoRoundTrips) {
  // Bind an ephemeral port, then connect to the resolved port.
  EventLoop loop;
  FrameServer server(loop, FrameServerConfig{});
  server.set_frame_handler([&](std::uint64_t conn, std::string frame) {
    server.send(conn, "echo:" + frame);
  });
  std::string error;
  Fd listener = listen_endpoint(Endpoint::tcp("127.0.0.1", 0), 16, &error);
  ASSERT_TRUE(listener.valid()) << error;
  const int port = local_tcp_port(listener.get());
  ASSERT_GT(port, 0);
  server.add_listener(std::move(listener));
  std::thread loop_thread([&] { loop.run(); });

  auto client = Client::connect(Endpoint::tcp("127.0.0.1", port), &error);
  ASSERT_TRUE(client.has_value()) << error;
  for (int i = 0; i < 200; ++i) {
    const std::string msg = "ping-" + std::to_string(i);
    ASSERT_TRUE(client->send_line(msg, &error)) << error;
    const auto reply = client->read_line(10000, &error);
    ASSERT_TRUE(reply.has_value()) << error;
    ASSERT_EQ(*reply, "echo:" + msg);
  }
  loop.stop();
  loop_thread.join();
}

TEST(Loopback, UnixSocketEchoRoundTrips) {
  const std::string path =
      "test_net_echo_" + std::to_string(::getpid()) + ".sock";
  echo_roundtrip(Endpoint::unix_path(path), Endpoint::unix_path(path));
  ::unlink(path.c_str());
}

TEST(Loopback, StaleUnixSocketIsReplacedOnListen) {
  const std::string path =
      "test_net_stale_" + std::to_string(::getpid()) + ".sock";
  std::string error;
  {
    Fd first = listen_endpoint(Endpoint::unix_path(path), 4, &error);
    ASSERT_TRUE(first.valid()) << error;
  }
  // The socket file is still on disk; a second bind must unlink and win.
  Fd second = listen_endpoint(Endpoint::unix_path(path), 4, &error);
  EXPECT_TRUE(second.valid()) << error;
  ::unlink(path.c_str());
}

TEST(Loopback, OversizedClientFrameGetsAbuseReplyThenClose) {
  EventLoop loop;
  FrameServerConfig config;
  config.max_frame = 64;
  FrameServer server(loop, config);
  server.set_frame_handler([&](std::uint64_t conn, std::string frame) {
    server.send(conn, "echo:" + frame);
  });
  server.set_abuse_handler([&](std::uint64_t conn, const std::string&) {
    server.send(conn, "abuse");
  });
  std::string error;
  Fd listener = listen_endpoint(Endpoint::tcp("127.0.0.1", 0), 16, &error);
  ASSERT_TRUE(listener.valid()) << error;
  const int port = local_tcp_port(listener.get());
  server.add_listener(std::move(listener));
  std::thread loop_thread([&] { loop.run(); });

  auto client = Client::connect(Endpoint::tcp("127.0.0.1", port), &error);
  ASSERT_TRUE(client.has_value()) << error;
  ASSERT_TRUE(client->send_line(std::string(500, 'x'), &error)) << error;
  const auto reply = client->read_line(10000, &error);
  ASSERT_TRUE(reply.has_value()) << error;
  EXPECT_EQ(*reply, "abuse");
  // The server closes after flushing the abuse frame: next read is EOF.
  EXPECT_FALSE(client->read_line(10000, &error).has_value());
  loop.stop();
  loop_thread.join();
}

}  // namespace
}  // namespace kgdp::net
