// Small blocking client for the kgdd wire protocol, shared by
// `kgd_cli request`, the integration tests, and bench_service. One
// connection, newline-delimited frames, poll(2)-based read timeouts;
// JSON convenience wrappers parse/serialize through io::Json.
#pragma once

#include <chrono>
#include <optional>
#include <string>

#include "io/json.hpp"
#include "net/framing.hpp"
#include "net/socket.hpp"

namespace kgdp::net {

// An absolute point in time a blocking read must finish by. The plain
// read_frame(timeout_ms) restarts its full timeout every time bytes
// trickle in, so "a frame within T" silently becomes "no silence longer
// than T" — fine for heartbeats, wrong for deadlines. A Deadline is
// fixed at creation; each poll round computes the true remaining
// budget, so a sequence of reads shares one wall-clock bound (what the
// fleet coordinator's lease deadlines and bounded reconnect loops need).
class Deadline {
 public:
  // Expires `ms` from now (ms <= 0 = already expired).
  static Deadline after_ms(int ms);
  // Never expires: remaining_ms() is -1, the poll(2) "wait forever".
  static Deadline never();

  bool expired() const { return !unbounded_ && remaining_ms() == 0; }
  // Milliseconds left, clamped to 0 once past; -1 when unbounded.
  int remaining_ms() const;

 private:
  Deadline() = default;
  std::chrono::steady_clock::time_point at_{};
  bool unbounded_ = false;
};

// Why a frame read failed — callers react differently to a server
// that closed the connection (reconnect/resume) than to one that is
// merely slow (wait longer), so the distinction is first-class. kWoken
// is not a failure: the caller's wake fd fired (read_frame_by).
enum class ReadStatus { kOk, kTimeout, kClosed, kOversized, kError, kWoken };
const char* to_string(ReadStatus status);

class Client {
 public:
  // Blocking connect. Returns nullopt and sets *error on failure; when
  // errno_out is non-null it receives the connect errno (0 if none) so
  // callers can retry ECONNREFUSED/ENOENT while a daemon restarts.
  static std::optional<Client> connect(const Endpoint& ep,
                                       std::string* error,
                                       int* errno_out = nullptr);

  // Sends one frame (newline appended). False + *error on a broken pipe.
  bool send_line(const std::string& frame, std::string* error);

  struct ReadResult {
    ReadStatus status = ReadStatus::kError;
    std::string frame;  // one complete frame when status == kOk
    std::string error;  // human-readable detail otherwise
  };
  // Blocks up to timeout_ms (-1 = forever) for one complete frame and
  // reports *why* it stopped: kTimeout (deadline, connection intact),
  // kClosed (orderly EOF from the server), kOversized (frame exceeds
  // the client cap), or kError (socket-level failure).
  ReadResult read_frame(int timeout_ms);

  // Deadline-aware variant: kTimeout once the absolute deadline passes,
  // no matter how the bytes trickled in before it. A wake_fd >= 0 is
  // polled alongside the socket: once it is readable and no complete
  // frame is buffered, the read returns kWoken so a thread that also
  // has frames to send is never stuck in a read. A buffered frame is
  // always returned first, and a wake never consumes socket bytes — a
  // partial frame stays buffered for the next call. The wake fd is
  // only polled, never read; draining it is the caller's job.
  ReadResult read_frame_by(const Deadline& deadline, int wake_fd = -1);

  // Legacy wrapper over read_frame: nullopt on any non-kOk status,
  // *error says which.
  std::optional<std::string> read_line(int timeout_ms, std::string* error);

  // JSON wrappers for the kgdd protocol. read_json surfaces the read
  // status through *status when non-null (kError also covers a frame
  // that fails to parse as JSON).
  bool send_json(const io::Json& frame, std::string* error);
  std::optional<io::Json> read_json(int timeout_ms, std::string* error,
                                    ReadStatus* status = nullptr);
  std::optional<io::Json> read_json_by(const Deadline& deadline,
                                       std::string* error,
                                       ReadStatus* status = nullptr);

  int fd() const { return fd_.get(); }

 private:
  Client(Fd fd, std::size_t max_frame) : fd_(std::move(fd)), reader_(max_frame) {}

  Fd fd_;
  FrameReader reader_;
  // A received frame net::FaultInjector chose to duplicate; handed out
  // by the next read before the socket is touched again.
  std::string dup_frame_;
  bool has_dup_ = false;
};

}  // namespace kgdp::net
