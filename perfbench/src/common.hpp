// Shared pieces of the repo benchmark: timing, order statistics, traced
// spans, the result report and the host stamp.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "io/json.hpp"
#include "kgd/labeled_graph.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v);
// Nearest-rank quantile: the ceil(q * n)-th smallest value.
double quantile(std::vector<double> v, double q);
// Median over consecutive windows of `window` samples of each window's
// q-quantile (a pause that spoils one window moves the result little);
// the plain quantile when there is no complete window.
double windowed_quantile(const std::vector<double>& v, std::size_t window,
                         double q);

// Time spent in one layer during a traced replay. Each add() covers a
// batch of calls into the layer (never a single solve), `items` counts
// the calls inside it.
struct Span {
  double seconds = 0.0;
  std::uint64_t items = 0;
  void add(Clock::time_point t0, std::uint64_t n) {
    seconds += seconds_since(t0);
    items += n;
  }
  double per_item(double scale) const {
    return items == 0 ? 0.0 : seconds * scale / static_cast<double>(items);
  }
};

// Everything one run prints. Metrics keep insertion order.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  // One checked operation: counts towards `attempted`, and towards
  // `failed` when !ok. `wrong_output` marks a failed correctness check
  // (wrong verdict, invalid route, replay mismatch) as opposed to a
  // refused or timed-out request; it clears `correct`.
  void op(bool ok, bool wrong_output, const std::string& what);
  // A correctness check that is not an operation (e.g. replay counters).
  void require(bool ok, const std::string& what);
  // Folds in the operations another (per-thread) report counted.
  void merge(const Report& other);

  bool correct() const { return correct_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  // The result line, printed last on stdout.
  std::string json() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
  int logged_ = 0;
};

// The host as bench::machine_info() describes it (CPU model, cores, the
// runnable kernel ISAs) and the auto-selected batch kernel, as one JSON
// line (printed before the result line).
std::string host_stamp_json();

// Peak resident set of this process, in MiB.
double peak_rss_mb();

// Fields of a JSON object read from the program's replies: 0 or "" when
// the object or field is missing or of another type.
std::int64_t int_field(const kgdp::io::Json* obj, const char* key);
std::string str_field(const kgdp::io::Json* obj, const char* key);

// kgd::build_solution(n, k), throwing when there is no construction.
kgdp::kgd::SolutionGraph build_graph(int n, int k);

// Σ_{i=0..k} C(nodes, i): the number of fault sets an exhaustive check
// of k faults over `nodes` nodes must report.
std::uint64_t fault_set_count(int nodes, int k);

}  // namespace perfbench
