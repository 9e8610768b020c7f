#include "util/fault_inject.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/log.hpp"

namespace kgdp::util {

namespace {

bool parse_u64(const std::string& s, std::uint64_t* out) {
  if (s.empty()) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

bool parse_prob(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == nullptr || *end != '\0' || v < 0.0 || v > 1.0) return false;
  *out = v;
  return true;
}

}  // namespace

bool parse_fault_spec(const std::string& text, std::uint64_t* seed,
                      std::initializer_list<FaultSpecAction> actions) {
  const std::size_t colon = text.find(':');
  if (colon == std::string::npos) return false;
  if (!parse_u64(text.substr(0, colon), seed)) return false;
  std::size_t pos = colon + 1;
  while (pos <= text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string item = text.substr(pos, comma - pos);
    pos = comma + 1;
    const bool positional = item.find('@') != std::string::npos;
    const std::size_t sep = item.find(positional ? '@' : '=');
    if (sep == std::string::npos) return false;
    const std::string name = item.substr(0, sep);
    const std::string value = item.substr(sep + 1);
    const FaultSpecAction* action = nullptr;
    for (const FaultSpecAction& a : actions) {
      if (name == a.name) action = &a;
    }
    if (action == nullptr) return false;
    if (positional) {
      std::uint64_t at = 0;
      if (action->at == nullptr || !parse_u64(value, &at)) return false;
      *action->at = static_cast<std::int64_t>(at);
    } else if (action->prob == nullptr || !parse_prob(value, action->prob)) {
      return false;
    }
  }
  return true;
}

std::optional<FaultSpec> FaultSpec::parse(const std::string& text) {
  FaultSpec spec;
  if (!parse_fault_spec(text, &spec.seed,
                        {{"crash", &spec.crash_at, nullptr},
                         {"enospc", &spec.enospc_at, &spec.p_enospc},
                         {"eio", &spec.eio_at, &spec.p_eio},
                         {"short", &spec.short_at, &spec.p_short}})) {
    return std::nullopt;
  }
  return spec;
}

FaultInjector& FaultInjector::instance() {
  static FaultInjector* injector = [] {
    auto* fi = new FaultInjector();
    if (const char* env = std::getenv("KGDP_IO_FAULTS")) {
      if (auto spec = FaultSpec::parse(env)) {
        fi->arm(*spec);
        fi->set_abort_on_crash(true);
        log_warn("fault injection armed from KGDP_IO_FAULTS: ", env);
      } else {
        log_warn("ignoring malformed KGDP_IO_FAULTS: ", env);
      }
    }
    return fi;
  }();
  return *injector;
}

void FaultInjector::arm(const FaultSpec& spec) {
  std::lock_guard<std::mutex> lock(mu_);
  spec_ = spec;
  rng_ = Rng(spec.seed);
  ops_.store(0, std::memory_order_relaxed);
  crashed_.store(false, std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_relaxed);
}

void FaultInjector::disarm() {
  std::lock_guard<std::mutex> lock(mu_);
  enabled_.store(false, std::memory_order_relaxed);
  crashed_.store(false, std::memory_order_relaxed);
}

void FaultInjector::set_abort_on_crash(bool abort_process) {
  std::lock_guard<std::mutex> lock(mu_);
  abort_on_crash_ = abort_process;
}

int FaultInjector::next_fault(bool is_write) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!enabled_.load(std::memory_order_relaxed)) return 0;
  const auto op =
      static_cast<std::int64_t>(ops_.fetch_add(1, std::memory_order_relaxed));
  // A tripped crash is sticky: the process is "dead", so every later
  // op fails with no side effects and the on-disk state stays frozen.
  if (crashed_.load(std::memory_order_relaxed)) return EIO;
  if (spec_.crash_at >= 0 && op >= spec_.crash_at) {
    if (abort_on_crash_) {
      std::fprintf(stderr, "kgdp: KGDP_IO_FAULTS crash point at op %lld\n",
                   static_cast<long long>(op));
      std::abort();
    }
    crashed_.store(true, std::memory_order_relaxed);
    return EIO;
  }
  if (op == spec_.enospc_at) return ENOSPC;
  if (op == spec_.eio_at) return EIO;
  if (is_write && op == spec_.short_at) return kShort;
  if (spec_.p_enospc > 0.0 && rng_.next_double() < spec_.p_enospc) {
    return ENOSPC;
  }
  if (spec_.p_eio > 0.0 && rng_.next_double() < spec_.p_eio) return EIO;
  if (is_write && spec_.p_short > 0.0 &&
      rng_.next_double() < spec_.p_short) {
    return kShort;
  }
  return 0;
}

int FaultInjector::open(const char* path, int flags, unsigned mode) {
  if (enabled()) {
    const int fault = next_fault(false);
    if (fault > 0) {
      errno = fault;
      return -1;
    }
  }
  return ::open(path, flags, static_cast<mode_t>(mode));
}

ssize_t FaultInjector::write(int fd, const void* buf, std::size_t n) {
  std::size_t count = n;
  if (enabled()) {
    const int fault = next_fault(true);
    if (fault > 0) {
      errno = fault;
      return -1;
    }
    // A short write still makes progress (>= 1 byte), so retry loops
    // terminate; it just exercises them.
    if (fault == kShort && n > 1) count = n / 2;
  }
  return ::write(fd, buf, count);
}

int FaultInjector::fsync(int fd) {
  if (enabled()) {
    const int fault = next_fault(false);
    if (fault > 0) {
      errno = fault;
      return -1;
    }
  }
  return ::fsync(fd);
}

int FaultInjector::link(const char* from, const char* to) {
  if (enabled()) {
    const int fault = next_fault(false);
    if (fault > 0) {
      errno = fault;
      return -1;
    }
  }
  return ::link(from, to);
}

int FaultInjector::unlink(const char* path) {
  if (enabled()) {
    const int fault = next_fault(false);
    if (fault > 0) {
      errno = fault;
      return -1;
    }
  }
  return ::unlink(path);
}

int FaultInjector::rename(const char* from, const char* to) {
  if (enabled()) {
    const int fault = next_fault(false);
    if (fault > 0) {
      errno = fault;
      return -1;
    }
  }
  return ::rename(from, to);
}

}  // namespace kgdp::util
