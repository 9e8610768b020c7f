#include "net/client.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "net/fault_inject.hpp"

#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif

namespace kgdp::net {

namespace {
// Client-side frames can carry large verdicts; cap generously (the
// server enforces its own inbound cap independently).
constexpr std::size_t kClientMaxFrame = 8u << 20;
}  // namespace

Deadline Deadline::after_ms(int ms) {
  Deadline d;
  d.at_ = std::chrono::steady_clock::now() +
          std::chrono::milliseconds(std::max(ms, 0));
  return d;
}

Deadline Deadline::never() {
  Deadline d;
  d.unbounded_ = true;
  return d;
}

int Deadline::remaining_ms() const {
  if (unbounded_) return -1;
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      at_ - std::chrono::steady_clock::now());
  return left.count() > 0 ? static_cast<int>(left.count()) : 0;
}

const char* to_string(ReadStatus status) {
  switch (status) {
    case ReadStatus::kOk:
      return "ok";
    case ReadStatus::kTimeout:
      return "timeout";
    case ReadStatus::kClosed:
      return "closed";
    case ReadStatus::kOversized:
      return "oversized";
    case ReadStatus::kError:
      return "error";
    case ReadStatus::kWoken:
      return "woken";
  }
  return "error";
}

std::optional<Client> Client::connect(const Endpoint& ep,
                                      std::string* error,
                                      int* errno_out) {
  // A server that drops the connection mid-write must surface as an
  // EPIPE send error, not kill the client process.
  ignore_sigpipe();
  Fd fd = connect_endpoint(ep, error, errno_out);
  if (!fd.valid()) return std::nullopt;
  return Client(std::move(fd), kClientMaxFrame);
}

bool Client::send_line(const std::string& frame, std::string* error) {
  std::string wire = frame;
  wire += '\n';
  // One intercepted op per outbound frame (see net/fault_inject.hpp):
  // drop swallows the frame while reporting success — exactly what a
  // lossy link does to a fire-and-forget sender.
  if (FaultInjector::instance().enabled()) {
    switch (FaultInjector::instance().next_action()) {
      case FaultAction::kDrop:
        return true;
      case FaultAction::kDup:
        wire += frame;
        wire += '\n';
        break;
      case FaultAction::kStall:
        std::this_thread::sleep_for(
            std::chrono::milliseconds(FaultInjector::kStallMs));
        break;
      case FaultAction::kSever:
        fd_ = Fd();
        if (error != nullptr) {
          *error = "send: connection severed (fault injection)";
        }
        return false;
      case FaultAction::kNone:
        break;
    }
  }
  std::size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = ::send(fd_.get(), wire.data() + sent,
                             wire.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (error != nullptr) {
        *error = std::string("send: ") + std::strerror(errno);
      }
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

Client::ReadResult Client::read_frame(int timeout_ms) {
  // One fixed budget for the whole call (buffered partial bytes do not
  // restart it); -1 keeps the traditional block-forever contract.
  return read_frame_by(timeout_ms < 0 ? Deadline::never()
                                      : Deadline::after_ms(timeout_ms));
}

Client::ReadResult Client::read_frame_by(const Deadline& deadline,
                                          int wake_fd) {
  ReadResult res;
  if (has_dup_) {
    has_dup_ = false;
    res.status = ReadStatus::kOk;
    res.frame = std::move(dup_frame_);
    dup_frame_.clear();
    return res;
  }
  while (true) {
    if (auto frame = reader_.next()) {
      // One intercepted op per complete inbound frame: drop discards it
      // and keeps reading, dup replays it on the next call, sever cuts
      // the connection as if the peer vanished mid-stream.
      if (FaultInjector::instance().enabled()) {
        switch (FaultInjector::instance().next_action()) {
          case FaultAction::kDrop:
            continue;
          case FaultAction::kDup:
            dup_frame_ = *frame;
            has_dup_ = true;
            break;
          case FaultAction::kStall:
            std::this_thread::sleep_for(
                std::chrono::milliseconds(FaultInjector::kStallMs));
            break;
          case FaultAction::kSever:
            fd_ = Fd();
            res.status = ReadStatus::kClosed;
            res.error = "connection severed (fault injection)";
            return res;
          case FaultAction::kNone:
            break;
        }
      }
      res.status = ReadStatus::kOk;
      res.frame = std::move(*frame);
      return res;
    }
    if (reader_.oversized()) {
      res.status = ReadStatus::kOversized;
      res.error = "frame exceeds the client size limit";
      return res;
    }
    pollfd pfds[2] = {{fd_.get(), POLLIN, 0}, {wake_fd, POLLIN, 0}};
    const int ready =
        ::poll(pfds, wake_fd >= 0 ? 2 : 1, deadline.remaining_ms());
    if (ready == 0) {
      res.status = ReadStatus::kTimeout;
      res.error = "timeout";
      return res;
    }
    if (ready < 0) {
      if (errno == EINTR) continue;
      res.status = ReadStatus::kError;
      res.error = std::string("poll: ") + std::strerror(errno);
      return res;
    }
    if (pfds[0].revents == 0) {
      // Only the wake fired; any partial frame stays in reader_.
      res.status = ReadStatus::kWoken;
      return res;
    }
    char buf[16384];
    const ssize_t n = ::read(fd_.get(), buf, sizeof buf);
    if (n == 0) {
      res.status = ReadStatus::kClosed;
      res.error = "connection closed by server";
      return res;
    }
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      res.status = ReadStatus::kError;
      res.error = std::string("read: ") + std::strerror(errno);
      return res;
    }
    reader_.append(buf, static_cast<std::size_t>(n));
  }
}

std::optional<std::string> Client::read_line(int timeout_ms,
                                             std::string* error) {
  ReadResult res = read_frame(timeout_ms);
  if (res.status == ReadStatus::kOk) return std::move(res.frame);
  if (error != nullptr) *error = res.error;
  return std::nullopt;
}

bool Client::send_json(const io::Json& frame, std::string* error) {
  return send_line(frame.dump(), error);
}

namespace {
std::optional<io::Json> parse_read(Client::ReadResult res, std::string* error,
                                   ReadStatus* status) {
  if (status != nullptr) *status = res.status;
  if (res.status != ReadStatus::kOk) {
    if (error != nullptr) *error = res.error;
    return std::nullopt;
  }
  try {
    return io::Json::parse(res.frame);
  } catch (const io::JsonParseError& e) {
    if (status != nullptr) *status = ReadStatus::kError;
    if (error != nullptr) *error = std::string("bad frame: ") + e.what();
    return std::nullopt;
  }
}
}  // namespace

std::optional<io::Json> Client::read_json(int timeout_ms,
                                          std::string* error,
                                          ReadStatus* status) {
  return parse_read(read_frame(timeout_ms), error, status);
}

std::optional<io::Json> Client::read_json_by(const Deadline& deadline,
                                             std::string* error,
                                             ReadStatus* status) {
  return parse_read(read_frame_by(deadline), error, status);
}

}  // namespace kgdp::net
