#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>

namespace kgdp::net {

namespace {

std::string errno_string(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

bool set_cloexec(int fd) {
  const int flags = ::fcntl(fd, F_GETFD);
  return flags >= 0 && ::fcntl(fd, F_SETFD, flags | FD_CLOEXEC) == 0;
}

// Fills a sockaddr_un; fails when the path exceeds sun_path.
bool fill_unix_addr(const std::string& path, sockaddr_un* addr,
                    std::string* error) {
  std::memset(addr, 0, sizeof *addr);
  addr->sun_family = AF_UNIX;
  if (path.size() >= sizeof addr->sun_path) {
    *error = "unix socket path too long: " + path;
    return false;
  }
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return true;
}

struct ResolvedAddr {
  sockaddr_storage storage = {};
  socklen_t len = 0;
};

bool resolve_tcp(const std::string& host, int port, ResolvedAddr* out,
                 std::string* error) {
  addrinfo hints = {};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(),
                               &hints, &res);
  if (rc != 0 || res == nullptr) {
    *error = "cannot resolve " + host + ": " + ::gai_strerror(rc);
    return false;
  }
  std::memcpy(&out->storage, res->ai_addr, res->ai_addrlen);
  out->len = static_cast<socklen_t>(res->ai_addrlen);
  ::freeaddrinfo(res);
  return true;
}

}  // namespace

void Fd::reset() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

std::optional<Endpoint> Endpoint::parse(const std::string& spec) {
  if (spec.rfind("unix:", 0) == 0) {
    const std::string path = spec.substr(5);
    if (path.empty()) return std::nullopt;
    return unix_path(path);
  }
  if (spec.rfind("tcp:", 0) == 0) {
    const std::string rest = spec.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0) return std::nullopt;
    const std::string port_text = rest.substr(colon + 1);
    if (port_text.empty() ||
        port_text.find_first_not_of("0123456789") != std::string::npos) {
      return std::nullopt;
    }
    const long port = std::strtol(port_text.c_str(), nullptr, 10);
    if (port < 0 || port > 65535) return std::nullopt;
    return tcp(rest.substr(0, colon), static_cast<int>(port));
  }
  return std::nullopt;
}

Endpoint Endpoint::unix_path(std::string p) {
  Endpoint ep;
  ep.kind = Kind::kUnix;
  ep.path = std::move(p);
  return ep;
}

Endpoint Endpoint::tcp(std::string host, int port) {
  Endpoint ep;
  ep.kind = Kind::kTcp;
  ep.host = std::move(host);
  ep.port = port;
  return ep;
}

std::string Endpoint::to_string() const {
  return kind == Kind::kUnix ? "unix:" + path
                             : "tcp:" + host + ":" + std::to_string(port);
}

Fd listen_endpoint(const Endpoint& ep, int backlog, std::string* error) {
  if (ep.kind == Endpoint::Kind::kUnix) {
    sockaddr_un addr;
    if (!fill_unix_addr(ep.path, &addr, error)) return Fd();
    Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!fd.valid()) {
      *error = errno_string("socket(AF_UNIX)");
      return Fd();
    }
    ::unlink(ep.path.c_str());
    if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
        0) {
      *error = errno_string("bind " + ep.path);
      return Fd();
    }
    if (::listen(fd.get(), backlog) != 0) {
      *error = errno_string("listen " + ep.path);
      return Fd();
    }
    if (!set_nonblocking(fd.get()) || !set_cloexec(fd.get())) {
      *error = errno_string("fcntl " + ep.path);
      return Fd();
    }
    return fd;
  }

  ResolvedAddr addr;
  if (!resolve_tcp(ep.host, ep.port, &addr, error)) return Fd();
  Fd fd(::socket(addr.storage.ss_family, SOCK_STREAM, 0));
  if (!fd.valid()) {
    *error = errno_string("socket(TCP)");
    return Fd();
  }
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr.storage),
             addr.len) != 0) {
    *error = errno_string("bind " + ep.to_string());
    return Fd();
  }
  if (::listen(fd.get(), backlog) != 0) {
    *error = errno_string("listen " + ep.to_string());
    return Fd();
  }
  if (!set_nonblocking(fd.get()) || !set_cloexec(fd.get())) {
    *error = errno_string("fcntl " + ep.to_string());
    return Fd();
  }
  return fd;
}

Fd connect_endpoint(const Endpoint& ep, std::string* error,
                    int* errno_out) {
  if (errno_out != nullptr) *errno_out = 0;
  if (ep.kind == Endpoint::Kind::kUnix) {
    sockaddr_un addr;
    if (!fill_unix_addr(ep.path, &addr, error)) return Fd();
    Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!fd.valid()) {
      if (errno_out != nullptr) *errno_out = errno;
      *error = errno_string("socket(AF_UNIX)");
      return Fd();
    }
    if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                  sizeof addr) != 0) {
      if (errno_out != nullptr) *errno_out = errno;
      *error = errno_string("connect " + ep.path);
      return Fd();
    }
    set_cloexec(fd.get());
    return fd;
  }

  ResolvedAddr addr;
  if (!resolve_tcp(ep.host, ep.port, &addr, error)) return Fd();
  Fd fd(::socket(addr.storage.ss_family, SOCK_STREAM, 0));
  if (!fd.valid()) {
    if (errno_out != nullptr) *errno_out = errno;
    *error = errno_string("socket(TCP)");
    return Fd();
  }
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr.storage),
                addr.len) != 0) {
    if (errno_out != nullptr) *errno_out = errno;
    *error = errno_string("connect " + ep.to_string());
    return Fd();
  }
  set_tcp_nodelay(fd.get());
  set_cloexec(fd.get());
  return fd;
}

int local_tcp_port(int fd) {
  sockaddr_storage addr = {};
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return 0;
  }
  if (addr.ss_family == AF_INET) {
    return ntohs(reinterpret_cast<sockaddr_in*>(&addr)->sin_port);
  }
  if (addr.ss_family == AF_INET6) {
    return ntohs(reinterpret_cast<sockaddr_in6*>(&addr)->sin6_port);
  }
  return 0;
}

void ignore_sigpipe() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = SIG_IGN;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGPIPE, &sa, nullptr);
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void set_tcp_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

}  // namespace kgdp::net
