#include "fleet.hpp"

#include <algorithm>
#include <climits>
#include <map>
#include <stdexcept>

#include "campaign/campaign.hpp"
#include "campaign/fleet_runner.hpp"
#include "net/client.hpp"
#include "util/durable_file.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace io = kgdp::io;
namespace campaign = kgdp::campaign;

std::vector<StampedLines::Line> StampedLines::take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(lines_, {});
}

StampedLines::int_type StampedLines::overflow(int_type ch) {
  if (ch != traits_type::eof()) {
    std::lock_guard<std::mutex> lock(mu_);
    put(traits_type::to_char_type(ch));
  }
  return traits_type::not_eof(ch);
}

std::streamsize StampedLines::xsputn(const char* s, std::streamsize n) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::streamsize i = 0; i < n; ++i) put(s[i]);
  return n;
}

void StampedLines::put(char c) {
  if (c != '\n') {
    partial_ += c;
    return;
  }
  lines_.push_back({Clock::now(), std::move(partial_)});
  partial_.clear();
}

namespace {

campaign::CampaignState make_grid(const FleetSpec& spec) {
  campaign::CampaignConfig config;  // chunk / checkpoint cadence: CLI defaults
  config.n_min = spec.n_min;
  config.n_max = spec.n_max;
  config.k_min = spec.k;
  config.k_max = spec.k;
  return campaign::make_campaign(config);
}

// Every instance done, holding, with the closed-form fault-set count.
void check_grid(const FleetRig& rig, const campaign::CampaignState& state,
                const char* what, Report& report) {
  for (const campaign::InstanceState& inst : state.instances) {
    const bool ok = inst.status == campaign::InstanceStatus::kDone &&
                    inst.result.holds && inst.result.exhaustive &&
                    inst.result.fault_sets_checked ==
                        fault_set_count(rig.nodes(inst.n), inst.k);
    report.op(ok, true,
              std::string(what) + " G(" + std::to_string(inst.n) + "," +
                  std::to_string(inst.k) + "): wrong verdict or count");
  }
}

}  // namespace

FleetRig::FleetRig(const FleetSpec& spec, bool observe,
                   const std::string& prefix)
    : n_min_(spec.n_min) {
  for (int n = spec.n_min; n <= spec.n_max; ++n) {
    nodes_.push_back(build_graph(n, spec.k).num_nodes());
  }
  kgdp::fleet::FleetConfig config;
  const char* const kSockets[kWorkers] = {"w0.sock", "w1.sock"};
  for (int w = 0; w < kWorkers; ++w) {
    // As `kgd_cli worker --threads=1`: no atlas, no verdict cache.
    kgdp::service::DaemonConfig dc;
    const std::string path = prefix + kSockets[w];
    dc.endpoints.push_back(kgdp::net::Endpoint::unix_path(path));
    dc.service.threads = 1;
    dc.service.atlas_entries = 0;
    dc.watch_stop_signal = false;
    workers_.push_back(std::make_unique<RunningDaemon>(std::move(dc)));
    config.workers.push_back(kgdp::net::Endpoint::unix_path(path));
  }
  // `kgd_cli campaign run --fleet` defaults.
  config.reconnect.budget_ms = 10000;
  config.reconnect.max_attempts = INT32_MAX;
  config.checkpoint_path = prefix + "fleet.kgdp";
  if (observe) {
    config.checkpoint_observer = [this](const std::string& payload) {
      std::lock_guard<std::mutex> lock(payloads_mu_);
      payloads_.push_back(payload);
    };
  }
  coordinator_ =
      std::make_unique<kgdp::fleet::Coordinator>(std::move(config), &telemetry_);
}

std::vector<std::string> FleetRig::take_payloads() {
  std::lock_guard<std::mutex> lock(payloads_mu_);
  return std::exchange(payloads_, {});
}

std::vector<io::Json> FleetRig::worker_stats(Report& report) {
  std::vector<io::Json> out;
  for (int w = 0; w < kWorkers; ++w) {
    std::string why;
    auto conn = kgdp::net::Client::connect(
        coordinator_->worker_endpoint(w), &why);
    std::optional<io::Json> reply;
    if (conn && conn->send_line("{\"method\":\"stats\"}", &why)) {
      reply = conn->read_json(60000, &why);
    }
    report.op(reply.has_value(), false, "worker stats: " + why);
    if (reply) out.push_back(std::move(*reply));
  }
  return out;
}

void run_fleet(FleetRig& rig, const FleetSpec& spec,
               std::vector<double>* walls, Report& report) {
  for (int rep = 0; rep < spec.min_reps; ++rep) {
    campaign::FleetCampaignRunner runner(make_grid(spec), "checkpoint.kgdp",
                                         &rig.coordinator());
    const auto t = Clock::now();
    campaign::FleetRunOutcome outcome;
    try {
      outcome = runner.run();
    } catch (const std::exception& e) {
      report.op(false, false, std::string("fleet campaign: ") + e.what());
      return;
    }
    walls->push_back(seconds_since(t));
    report.op(outcome.complete && outcome.all_hold, true,
              "fleet campaign: incomplete or failing");
    check_grid(rig, runner.state(), "fleet", report);
  }
}

double run_local_campaign(const FleetRig& rig, const FleetSpec& spec,
                          Report& report) {
  kgdp::util::ThreadPool pool(2);
  campaign::CampaignRunner runner(make_grid(spec), "local.kgdp", nullptr,
                                  &pool);
  const auto t = Clock::now();
  const campaign::RunOutcome outcome = runner.run();
  const double s = seconds_since(t);
  report.op(outcome.complete && outcome.all_hold, true,
            "local campaign: incomplete or failing");
  check_grid(rig, runner.state(), "local", report);
  return s;
}

FleetTrace analyse_telemetry(const std::vector<StampedLines::Line>& lines) {
  FleetTrace tr;
  std::map<std::string, Clock::time_point> granted;  // lease#epoch -> t
  std::map<std::string, Clock::time_point> last_done;  // worker -> t
  auto ms = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
  };
  for (const StampedLines::Line& line : lines) {
    const io::Json j = io::Json::parse(line.text);
    const std::string event = str_field(&j, "event");
    if (event == "lease_stolen") ++tr.steals;
    if (event != "lease_granted" && event != "lease_done") continue;
    const std::string key = str_field(&j, "lease") + "#" +
                            std::to_string(int_field(&j, "epoch"));
    const std::string worker = str_field(&j, "worker");
    if (event == "lease_granted") {
      ++tr.leases;
      granted[key] = line.at;
      if (const auto it = last_done.find(worker); it != last_done.end()) {
        tr.grant_gap_ms.push_back(ms(it->second, line.at));
        last_done.erase(it);
      }
    } else {
      if (const auto it = granted.find(key); it != granted.end()) {
        tr.lease_ms.push_back(ms(it->second, line.at));
        granted.erase(it);
      }
      last_done[worker] = line.at;
    }
  }
  return tr;
}

Span trace_checkpoint_writes(const std::vector<std::string>& payloads) {
  constexpr std::size_t kBlock = 16;
  Span span;
  for (std::size_t base = 0; base < payloads.size(); base += kBlock) {
    const std::size_t end = std::min(payloads.size(), base + kBlock);
    const auto t = Clock::now();
    for (std::size_t i = base; i < end; ++i) {
      kgdp::util::durable_write_file("replay.kgdp", payloads[i]);
    }
    span.add(t, end - base);
  }
  return span;
}

}  // namespace perfbench
