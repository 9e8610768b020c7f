// Fleet phase: the exhaustive G(n,k) grid campaign through
// campaign::FleetCampaignRunner over a fleet::Coordinator and two
// in-process single-threaded kgdd workers, with campaign and fleet
// checkpoints on as `kgd_cli campaign run --fleet` writes them.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "campaign/telemetry.hpp"
#include "common.hpp"
#include "daemon.hpp"
#include "fleet/coordinator.hpp"
#include "io/json.hpp"

namespace perfbench {

struct FleetSpec {
  int n_min = 0;
  int n_max = 0;
  int k = 0;
  int min_reps = 1;  // campaigns per call
};

// A streambuf that stamps each complete line with its arrival time; the
// coordinator's TelemetryWriter writes into it.
class StampedLines : public std::streambuf {
 public:
  struct Line {
    Clock::time_point at;
    std::string text;
  };
  std::vector<Line> take();

 protected:
  int_type overflow(int_type ch) override;
  std::streamsize xsputn(const char* s, std::streamsize n) override;

 private:
  void put(char c);
  std::mutex mu_;
  std::string partial_;
  std::vector<Line> lines_;
};

class FleetRig {
 public:
  static constexpr int kWorkers = 2;
  // `observe` keeps a copy of every fleet checkpoint payload. Socket and
  // fleet checkpoint file names start with `prefix`.
  FleetRig(const FleetSpec& spec, bool observe, const std::string& prefix);
  FleetRig(const FleetRig&) = delete;
  FleetRig& operator=(const FleetRig&) = delete;

  kgdp::fleet::Coordinator& coordinator() { return *coordinator_; }
  StampedLines& telemetry_lines() { return lines_; }
  std::vector<std::string> take_payloads();
  // `stats` reply bodies of every worker.
  std::vector<kgdp::io::Json> worker_stats(Report& report);
  // Nodes of G(n, k), for the expected fault-set counts.
  int nodes(int n) const { return nodes_[static_cast<std::size_t>(n - n_min_)]; }

 private:
  int n_min_ = 0;
  std::vector<int> nodes_;
  // Members go in reverse order: the coordinator (last) closes its
  // worker connections before the workers drain.
  std::vector<std::unique_ptr<RunningDaemon>> workers_;
  StampedLines lines_;
  std::ostream telemetry_out_{&lines_};
  kgdp::campaign::TelemetryWriter telemetry_{&telemetry_out_};
  std::mutex payloads_mu_;
  std::vector<std::string> payloads_;
  std::unique_ptr<kgdp::fleet::Coordinator> coordinator_;
};

// Appends the wall times of spec.min_reps grid campaigns to `walls`.
// Every instance must hold with the closed-form fault-set count.
void run_fleet(FleetRig& rig, const FleetSpec& spec,
               std::vector<double>* walls, Report& report);

// The same grid in-process (campaign::CampaignRunner on a 2-thread pool).
double run_local_campaign(const FleetRig& rig, const FleetSpec& spec,
                          Report& report);

struct FleetTrace {
  std::uint64_t leases = 0;  // lease_granted events
  std::uint64_t steals = 0;  // lease_stolen events
  std::vector<double> lease_ms;      // granted -> done, per lease epoch
  std::vector<double> grant_gap_ms;  // worker's lease_done -> next grant
};

FleetTrace analyse_telemetry(const std::vector<StampedLines::Line>& lines);

// Re-writes every observed checkpoint payload through
// util::durable_write_file; spans cover 16 writes each.
Span trace_checkpoint_writes(const std::vector<std::string>& payloads);

}  // namespace perfbench
