#include "util/stop_signal.hpp"

namespace kgdp::util {

StopSignal& StopSignal::instance() {
  // Never destroyed: a signal landing during static destruction must
  // still find the pipe open.
  static StopSignal* const s = new StopSignal;
  return *s;
}

void StopSignal::handler(int /*signum*/) {
  StopSignal& s = instance();
  s.flag_ = 1;
  s.pipe_.poke();
}

void StopSignal::install() {
  if (installed_) return;
  installed_ = true;
  struct sigaction sa = {};
  sa.sa_handler = &StopSignal::handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

void StopSignal::request_stop() { handler(0); }

void StopSignal::reset() {
  flag_ = 0;
  drain_pipe();
}

}  // namespace kgdp::util
