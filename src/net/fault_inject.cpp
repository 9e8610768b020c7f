#include "net/fault_inject.hpp"

#include <cstdlib>

#include "util/fault_inject.hpp"
#include "util/log.hpp"

namespace kgdp::net {

const char* to_string(FaultAction action) {
  switch (action) {
    case FaultAction::kNone: return "none";
    case FaultAction::kDrop: return "drop";
    case FaultAction::kDup: return "dup";
    case FaultAction::kStall: return "stall";
    case FaultAction::kSever: return "sever";
  }
  return "?";
}

std::optional<FaultSpec> FaultSpec::parse(const std::string& text) {
  FaultSpec spec;
  if (!util::parse_fault_spec(text, &spec.seed,
                              {{"drop", &spec.drop_at, &spec.p_drop},
                               {"dup", &spec.dup_at, &spec.p_dup},
                               {"stall", &spec.stall_at, &spec.p_stall},
                               {"sever", &spec.sever_at, &spec.p_sever}})) {
    return std::nullopt;
  }
  return spec;
}

FaultInjector& FaultInjector::instance() {
  static FaultInjector* injector = [] {
    auto* fi = new FaultInjector();
    if (const char* env = std::getenv("KGDP_NET_FAULTS")) {
      if (auto spec = FaultSpec::parse(env)) {
        fi->arm(*spec);
        util::log_warn("network fault injection armed from KGDP_NET_FAULTS: ",
                       env);
      } else {
        util::log_warn("ignoring malformed KGDP_NET_FAULTS: ", env);
      }
    }
    return fi;
  }();
  return *injector;
}

void FaultInjector::arm(const FaultSpec& spec) {
  std::lock_guard<std::mutex> lock(mu_);
  spec_ = spec;
  rng_ = util::Rng(spec.seed);
  ops_.store(0, std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_relaxed);
}

void FaultInjector::disarm() {
  std::lock_guard<std::mutex> lock(mu_);
  enabled_.store(false, std::memory_order_relaxed);
}

FaultAction FaultInjector::next_action() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!enabled_.load(std::memory_order_relaxed)) return FaultAction::kNone;
  const auto op =
      static_cast<std::int64_t>(ops_.fetch_add(1, std::memory_order_relaxed));
  if (op == spec_.drop_at) return FaultAction::kDrop;
  if (op == spec_.dup_at) return FaultAction::kDup;
  if (op == spec_.stall_at) return FaultAction::kStall;
  if (op == spec_.sever_at) return FaultAction::kSever;
  if (spec_.p_drop > 0.0 && rng_.next_double() < spec_.p_drop) {
    return FaultAction::kDrop;
  }
  if (spec_.p_dup > 0.0 && rng_.next_double() < spec_.p_dup) {
    return FaultAction::kDup;
  }
  if (spec_.p_stall > 0.0 && rng_.next_double() < spec_.p_stall) {
    return FaultAction::kStall;
  }
  if (spec_.p_sever > 0.0 && rng_.next_double() < spec_.p_sever) {
    return FaultAction::kSever;
  }
  return FaultAction::kNone;
}

}  // namespace kgdp::net
