#include "util/wake_pipe.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>

namespace kgdp::util {

WakePipe::WakePipe() {
  if (::pipe(fds_) != 0) {
    std::perror("kgdp: wake pipe");
    std::abort();
  }
  for (const int fd : fds_) {
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    ::fcntl(fd, F_SETFD, ::fcntl(fd, F_GETFD) | FD_CLOEXEC);
  }
}

WakePipe::~WakePipe() {
  for (const int fd : fds_) ::close(fd);
}

void WakePipe::poke() const {
  // A full pipe already guarantees a pending wake; dropping is fine.
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(fds_[1], &byte, 1);
}

void WakePipe::drain() const {
  char buf[256];
  while (::read(fds_[0], buf, sizeof buf) > 0) {
  }
}

}  // namespace kgdp::util
