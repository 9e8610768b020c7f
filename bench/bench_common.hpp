// Shared helpers for the table-printing benchmark harnesses.
#pragma once

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "fault/enumerator.hpp"
#include "io/json.hpp"
#include "kgd/labeled_graph.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "verify/checker.hpp"

namespace kgdp::bench {

inline void banner(const std::string& title) {
  std::printf("\n=== %s ===\n\n", title.c_str());
}

// Host description embedded in every bench record so the perf trajectory
// is comparable across runs and machines: CPU model (best-effort from
// /proc/cpuinfo) and logical core count.
inline io::JsonObject machine_info() {
  io::JsonObject m;
  std::string model = "unknown";
#if defined(__linux__)
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    const auto pos = line.find(':');
    if (pos != std::string::npos &&
        line.compare(0, 10, "model name") == 0) {
      const auto start = line.find_first_not_of(" \t", pos + 1);
      if (start != std::string::npos) model = line.substr(start);
      break;
    }
  }
#endif
  m["cpu_model"] = model;
  m["cores"] = static_cast<std::int64_t>(
      std::max(1u, std::thread::hardware_concurrency()));
  return m;
}

// Machine-readable benchmark record (BENCH_*.json): pretty-printed,
// schema_version-stamped, tagged with the bench name and host metadata,
// written atomically enough for CI consumption (whole-string single
// write). Returns false on I/O failure.
inline bool write_bench_json(const std::string& path,
                             const std::string& bench_name,
                             io::JsonObject fields) {
  fields["schema_version"] = io::kSchemaVersion;
  fields["bench_name"] = bench_name;
  fields["machine"] = machine_info();
  std::ofstream out(path);
  if (!out) return false;
  out << io::Json(std::move(fields)).dump(2) << '\n';
  return static_cast<bool>(out);
}

// Exhaustively verify when the fault-set space is below `cap`, otherwise
// sample; returns a short verdict string for table cells.
inline std::string verify_cell(const kgd::SolutionGraph& sg, int k,
                               std::uint64_t cap = 200000,
                               std::uint64_t samples = 400) {
  const std::uint64_t space =
      fault::FaultEnumerator(sg.num_nodes(), k).total();
  util::Timer t;
  if (space <= cap) {
    const auto res = verify::run_check(sg, verify::CheckRequest::exhaustive(k));
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s (all %llu, %.0fms)",
                  res.holds ? "OK" : "FAIL",
                  static_cast<unsigned long long>(res.fault_sets_checked),
                  t.millis());
    return buf;
  }
  const auto res = verify::run_check(sg, verify::CheckRequest::sampled(k, samples, 42));
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s (sampled %llu)",
                res.holds ? "OK" : "FAIL",
                static_cast<unsigned long long>(res.fault_sets_checked));
  return buf;
}

}  // namespace kgdp::bench
