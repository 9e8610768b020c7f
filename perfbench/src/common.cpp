#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "bench_common.hpp"
#include "io/json.hpp"
#include "kgd/factory.hpp"
#include "util/combinatorics.hpp"
#include "verify/batch_kernels.hpp"

namespace perfbench {

namespace io = kgdp::io;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : (v[h - 1] + v[h]) / 2.0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i =
      rank < 1.0 ? 0 : std::min(v.size(), static_cast<std::size_t>(rank)) - 1;
  return v[i];
}

double windowed_quantile(const std::vector<double>& v, std::size_t window,
                         double q) {
  if (v.size() < window) return quantile(v, q);
  std::vector<double> per_window;
  for (std::size_t b = 0; b + window <= v.size(); b += window) {
    per_window.push_back(quantile(
        std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(b),
                            v.begin() + static_cast<std::ptrdiff_t>(b + window)),
        q));
  }
  return median(std::move(per_window));
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::op(bool ok, bool wrong_output, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (wrong_output) correct_ = false;
  // Keep stderr readable when a whole stream fails.
  if (logged_++ < 20) std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
}

void Report::require(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::fprintf(stderr, "perfbench: CHECK FAILED %s\n", what.c_str());
}

void Report::merge(const Report& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  correct_ = correct_ && other.correct_;
}

namespace {

// Shortest decimal that round-trips, so no measured digit is dropped.
std::string number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

}  // namespace

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i > 0) out += ", ";
    out += io::Json(m.name).dump() + ": {\"value\": " + number(m.value) +
           ", \"unit\": " + io::Json(m.unit).dump() + "}";
  }
  out += "}}";
  return out;
}

std::string host_stamp_json() {
  io::JsonObject host = kgdp::bench::machine_info();
  const kgdp::verify::detail::BatchKernel kernel =
      kgdp::verify::detail::select_batch_kernel(0);
  host["batch_kernel"] = std::string(kernel.name);
  host["batch_kernel_width"] = static_cast<std::int64_t>(kernel.width);
  host["batch_kernel_isa"] =
      std::string(kgdp::verify::detail::isa_name(kernel.isa));
  io::JsonObject line;
  line["host"] = io::Json(std::move(host));
  return io::Json(std::move(line)).dump();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::int64_t int_field(const io::Json* obj, const char* key) {
  const io::Json* v = obj != nullptr ? obj->find(key) : nullptr;
  return v != nullptr && v->is_int() ? v->as_int() : 0;
}

std::string str_field(const io::Json* obj, const char* key) {
  const io::Json* v = obj != nullptr ? obj->find(key) : nullptr;
  return v != nullptr && v->is_string() ? v->as_string() : std::string();
}

kgdp::kgd::SolutionGraph build_graph(int n, int k) {
  auto sg = kgdp::kgd::build_solution(n, k);
  if (!sg) {
    throw std::runtime_error("no construction for G(" + std::to_string(n) +
                             "," + std::to_string(k) + ")");
  }
  return std::move(*sg);
}

std::uint64_t fault_set_count(int nodes, int k) {
  std::uint64_t total = 0;
  for (int i = 0; i <= k; ++i) {
    total += kgdp::util::binomial(static_cast<unsigned>(nodes),
                                  static_cast<unsigned>(i));
  }
  return total;
}

}  // namespace perfbench
