// Serving phase: an in-process kgdd on a unix socket driven closed loop
// by two client connections (`small` and `large`), the end-of-run
// `stats` collection, and the traced replay of the recorded requests
// through Router::route and io::Json.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "daemon.hpp"
#include "io/json.hpp"
#include "kgd/labeled_graph.hpp"
#include "net/client.hpp"

namespace perfbench {

struct ServeSpec {
  std::vector<std::pair<int, int>> small;  // (n, k), each <= 64 nodes
  std::vector<int> large_n;                // G(n, large_k), > 64 nodes
  int large_k = 4;
  int min_large = 0;                // large round trips per round
  std::uint64_t min_small = 0;      // small single-set round trips per round
};

// The daemon (2-thread pool, cold atlas), both connections, the client's
// own copies of every graph (to re-check routes) and every daemon router
// built by one empty-fault route per graph.
class ServeRig {
 public:
  ServeRig(const ServeSpec& spec, const std::string& socket_path,
           Report& report);

  kgdp::net::Client& small_conn() { return *small_; }
  kgdp::net::Client& large_conn() { return *large_; }
  const std::vector<kgdp::kgd::SolutionGraph>& small_graphs() const {
    return small_graphs_;
  }
  const std::vector<kgdp::kgd::SolutionGraph>& large_graphs() const {
    return large_graphs_;
  }

 private:
  std::vector<kgdp::kgd::SolutionGraph> small_graphs_;
  std::vector<kgdp::kgd::SolutionGraph> large_graphs_;
  // Declared before the connections, so they close before it drains.
  std::optional<RunningDaemon> daemon_;
  std::optional<kgdp::net::Client> small_;
  std::optional<kgdp::net::Client> large_;
};

// One route request as sent, and the paths the wire returned for it.
struct RouteRecord {
  std::size_t graph = 0;  // index into small_graphs() or large_graphs()
  std::vector<std::vector<int>> sets;
  std::string frame;
  std::vector<std::vector<int>> wire_paths;
};

// Window sizes for the per-window statistics: each small window holds
// kSmallWindow single-set round trips (so its p99 has 20 beyond it), each
// large window kLargeWindow round trips (its p90 has 10 beyond it).
inline constexpr std::size_t kSmallWindow = 2000;
inline constexpr std::size_t kLargeWindow = 100;

struct ServeRun {
  std::vector<double> single_us;  // small single-set round trips
  std::vector<double> large_ms;   // large round trips beside `small`
  std::vector<double> large_alone_ms;  // large round trips from alone()
  std::vector<double> small_window_rate;  // sets/s per small window
  std::vector<RouteRecord> small_log;  // filled when recording
  std::vector<RouteRecord> large_log;
};

class SmallStream;
class LargeStream;

// The two seeded request streams, continued across rounds, and all that
// was measured so far. Every reply is re-checked with
// kgd::check_pipeline against its fault set.
class ServeLoad {
 public:
  ServeLoad(ServeRig& rig, std::uint64_t seed, bool record);
  ~ServeLoad();
  ServeLoad(const ServeLoad&) = delete;
  ServeLoad& operator=(const ServeLoad&) = delete;

  // One round: both streams run concurrently until `small` has sent
  // `min_small` single-set requests and `large` `min_large` requests. The
  // round is sized by request count, not time, so the atlas population
  // (and with it memory and the hit/miss mix) does not depend on speed.
  void run(std::uint64_t min_small, int min_large, Report& report);
  // `count` requests of the large stream with `small` idle: they share the
  // event loop and the pool with nothing, so they time the large route
  // and the wire rather than how the host schedules five busy threads.
  void alone(int count, Report& report);
  const ServeRun& result() const { return run_; }

 private:
  // Sends the next request of `stream` on the large connection; its
  // round trip goes to `samples`. False when the connection broke.
  bool large_route(LargeStream& stream, std::vector<double>& samples,
                   Report& report);

  ServeRig& rig_;
  bool record_;
  std::unique_ptr<SmallStream> small_;
  std::unique_ptr<LargeStream> large_;
  // alone() draws from a stream of its own, so the requests it sends do
  // not depend on how far the mixed rounds got into `large_`.
  std::unique_ptr<LargeStream> alone_;
  ServeRun run_;
};

// Sends `stats` and returns the reply body, or nullopt.
std::optional<kgdp::io::Json> request_stats(kgdp::net::Client& conn,
                                            Report& report);

struct RouteMethodStats {
  std::uint64_t count = 0;
  double sum_ms = 0.0;
  std::uint64_t overloaded = 0;
};
RouteMethodStats route_stats(const kgdp::io::Json& stats, const char* method);

// Re-sends up to `count` recorded single-set small requests (cycling)
// between two `stats` calls: the server-side mean from the stats delta
// and the client mean over the same requests.
struct ServerProbe {
  double server_mean_us = 0.0;
  double client_mean_us = 0.0;
};
ServerProbe probe_server(ServeRig& rig, const ServeRun& run,
                         std::size_t count, Report& report);

struct ServeTrace {
  Span parse;        // io::Json::parse on request frames
  Span canon;        // FaultCanonicalizer::canonical_mask_transport
  Span route;        // Router::route, small stream
  Span serialize;    // reply body + envelope dump
  Span large_route;  // Router::route, large stream
  double automorphism_s = 0.0;  // graph::solution_automorphisms, all graphs
  std::uint64_t mismatches = 0;  // replay path != wire path
  // The request-path layers; the automorphism build is set-up.
  double total_seconds() const {
    return parse.seconds + canon.seconds + route.seconds + serialize.seconds +
           large_route.seconds;
  }
};

ServeTrace trace_serve(const ServeRig& rig, const ServeRun& run);

}  // namespace perfbench
