// POSIX socket plumbing shared by the kgdd daemon and the blocking
// client: a move-only fd owner, the "unix:PATH" / "tcp:HOST:PORT"
// endpoint grammar, and listen/connect helpers that report errors as
// strings instead of errno spelunking at every call site.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

namespace kgdp::net {

// Move-only owner of a file descriptor; closes on destruction.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }

  Fd(Fd&& other) noexcept : fd_(other.release()) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.release();
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  bool valid() const { return fd_ >= 0; }
  int get() const { return fd_; }

  int release() { return std::exchange(fd_, -1); }
  void reset();

 private:
  int fd_ = -1;
};

// A parsed listen/connect address. The textual grammar is
//   unix:/path/to/socket
//   tcp:HOST:PORT            (HOST may be a name or numeric address)
struct Endpoint {
  enum class Kind { kUnix, kTcp };
  Kind kind = Kind::kUnix;
  std::string path;  // unix
  std::string host;  // tcp
  int port = 0;      // tcp; 0 asks the kernel for an ephemeral port

  static std::optional<Endpoint> parse(const std::string& spec);
  static Endpoint unix_path(std::string p);
  static Endpoint tcp(std::string host, int port);
  std::string to_string() const;
};

// Creates a bound, listening, non-blocking, close-on-exec socket. A
// pre-existing unix socket file at the path is unlinked first (stale
// sockets from a killed daemon would otherwise block every restart).
// Returns an invalid Fd and sets *error on failure.
Fd listen_endpoint(const Endpoint& ep, int backlog, std::string* error);

// Blocking connect (the client side); close-on-exec, TCP_NODELAY on TCP.
// On failure *errno_out (when non-null) receives the connect(2)/name
//-resolution errno — 0 when the failure had none — so callers can
// treat ECONNREFUSED/ENOENT (daemon restarting) as retryable.
Fd connect_endpoint(const Endpoint& ep, std::string* error,
                    int* errno_out = nullptr);

// The port a bound TCP socket actually got (resolves port 0).
int local_tcp_port(int fd);

bool set_nonblocking(int fd);

// Sets SIGPIPE to SIG_IGN process-wide (idempotent). A peer that
// disconnects mid-stream turns the next write into SIGPIPE, whose
// default action kills the process; ignoring it lets the EPIPE error
// path close just the one connection. Called by the daemon and the
// blocking client; MSG_NOSIGNAL on the send paths covers the same hole
// where the platform has it.
void ignore_sigpipe();

// Disables Nagle on a TCP socket; a no-op (harmless failure) on other
// socket families. Without this, the server's multi-frame reply streams
// (accepted -> progress -> result as separate writes) interact with
// delayed ACKs for ~40ms stalls per request on loopback.
void set_tcp_nodelay(int fd);

}  // namespace kgdp::net
