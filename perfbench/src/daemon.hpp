// An in-process kgdd that runs on its own thread from construction and
// drains and joins when it goes away, on exception paths too.
#pragma once

#include <utility>

#include "service/daemon.hpp"

namespace perfbench {

class RunningDaemon {
 public:
  explicit RunningDaemon(kgdp::service::DaemonConfig config)
      : daemon_(std::move(config)) {
    daemon_.start_thread();
  }
  ~RunningDaemon() {
    daemon_.begin_drain();
    daemon_.join();
  }
  RunningDaemon(const RunningDaemon&) = delete;
  RunningDaemon& operator=(const RunningDaemon&) = delete;

 private:
  kgdp::service::Daemon daemon_;
};

}  // namespace perfbench
