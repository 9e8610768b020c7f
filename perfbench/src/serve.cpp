#include "serve.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>

#include "fault/canonical.hpp"
#include "fault/enumerator.hpp"
#include "graph/automorphism.hpp"
#include "kgd/pipeline.hpp"
#include "reconfig/atlas.hpp"
#include "service/protocol.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace io = kgdp::io;
namespace kgd = kgdp::kgd;
namespace net = kgdp::net;

namespace {

constexpr int kReplyTimeoutMs = 60000;
constexpr std::size_t kBatchSets = 64;  // sets in a small-stream batch
constexpr int kBatchEvery = 8;          // every 8th small request

std::string set_json(const std::vector<int>& set) {
  std::string out = "[";
  for (std::size_t i = 0; i < set.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(set[i]);
  }
  return out + "]";
}

std::string route_frame(const kgd::SolutionGraph& sg,
                        const std::vector<std::vector<int>>& sets,
                        bool batch) {
  std::string out = "{\"method\":\"route\",\"params\":{\"n\":" +
                    std::to_string(sg.n()) + ",\"k\":" +
                    std::to_string(sg.k());
  if (!batch) return out + ",\"faults\":" + set_json(sets.front()) + "}}";
  out += ",\"sets\":[";
  for (std::size_t i = 0; i < sets.size(); ++i) {
    if (i > 0) out += ',';
    out += set_json(sets[i]);
  }
  return out + "]}}";
}

// Sends one frame and reads its terminal reply; a reply of type "error"
// or a transport failure yields nullopt with `why` set.
std::optional<io::Json> round_trip(net::Client& conn, const std::string& frame,
                                   std::string* why) {
  if (!conn.send_line(frame, why)) return std::nullopt;
  auto reply = conn.read_json(kReplyTimeoutMs, why);
  if (!reply) return std::nullopt;
  const io::Json* type = reply->find("type");
  if (type == nullptr || !type->is_string() || type->as_string() != "result") {
    *why = "reply " + reply->dump();
    return std::nullopt;
  }
  return reply;
}

bool path_from_json(const io::Json& j, std::vector<int>* path) {
  if (!j.is_array()) return false;
  path->clear();
  for (const io::Json& v : j.as_array()) {
    if (!v.is_int()) return false;
    path->push_back(static_cast<int>(v.as_int()));
  }
  return true;
}

// Checks a route reply against its request: one valid pipeline per set.
// Fills `paths` with the wire paths.
bool check_reply(const kgd::SolutionGraph& sg,
                 const std::vector<std::vector<int>>& sets, bool batch,
                 const io::Json& reply,
                 std::vector<std::vector<int>>* paths, std::string* why) {
  paths->assign(sets.size(), {});
  std::vector<const io::Json*> routes;
  if (batch) {
    const io::Json* arr = reply.find("routes");
    if (arr == nullptr || !arr->is_array() ||
        arr->as_array().size() != sets.size()) {
      *why = "malformed batch reply";
      return false;
    }
    for (const io::Json& r : arr->as_array()) routes.push_back(&r);
  } else {
    routes.push_back(reply.find("route"));
  }
  for (std::size_t i = 0; i < sets.size(); ++i) {
    if (routes[i] == nullptr || !path_from_json(*routes[i], &(*paths)[i])) {
      *why = "no route for fault set " + set_json(sets[i]);
      return false;
    }
    const kgd::FaultSet faults(sg.num_nodes(), sets[i]);
    const kgd::PipelineCheck check =
        kgd::check_pipeline(sg, faults, (*paths)[i]);
    if (!check.ok) {
      *why = "invalid route for " + set_json(sets[i]) + ": " + check.error;
      return false;
    }
  }
  return true;
}

bool is_batch(const RouteRecord& r) { return r.sets.size() > 1; }

}  // namespace

// Seeded small stream: uniform graph choice, uniform fault set among all
// <= k sets of that graph; every kBatchEvery-th request is a batch.
class SmallStream {
 public:
  SmallStream(const std::vector<kgd::SolutionGraph>& graphs,
              std::uint64_t seed)
      : graphs_(graphs), rng_(seed) {
    for (const kgd::SolutionGraph& sg : graphs) {
      enums_.emplace_back(sg.num_nodes(), sg.k());
    }
  }
  RouteRecord next() {
    RouteRecord r;
    r.graph = static_cast<std::size_t>(rng_.next_below(graphs_.size()));
    const bool batch = ++count_ % kBatchEvery == 0;
    const kgdp::fault::FaultEnumerator& en = enums_[r.graph];
    const std::size_t sets = batch ? kBatchSets : 1;
    for (std::size_t i = 0; i < sets; ++i) {
      r.sets.push_back(en.nodes_at(rng_.next_below(en.total())));
    }
    r.frame = route_frame(graphs_[r.graph], r.sets, batch);
    return r;
  }

 private:
  const std::vector<kgd::SolutionGraph>& graphs_;
  kgdp::util::Rng rng_;
  std::vector<kgdp::fault::FaultEnumerator> enums_;
  std::uint64_t count_ = 0;
};

// Seeded large stream: uniform graph, 0..k uniformly chosen faults.
class LargeStream {
 public:
  LargeStream(const std::vector<kgd::SolutionGraph>& graphs,
              std::uint64_t seed)
      : graphs_(graphs), rng_(seed) {}
  RouteRecord next() {
    RouteRecord r;
    r.graph = static_cast<std::size_t>(rng_.next_below(graphs_.size()));
    const kgd::SolutionGraph& sg = graphs_[r.graph];
    const int faults = static_cast<int>(rng_.next_below(
        static_cast<std::uint64_t>(sg.k()) + 1));
    std::vector<int> set = rng_.sample_without_replacement(sg.num_nodes(), faults);
    std::sort(set.begin(), set.end());
    r.sets.push_back(std::move(set));
    r.frame = route_frame(sg, r.sets, false);
    return r;
  }

 private:
  const std::vector<kgd::SolutionGraph>& graphs_;
  kgdp::util::Rng rng_;
};

ServeRig::ServeRig(const ServeSpec& spec, const std::string& socket_path,
                   Report& report) {
  for (const auto& [n, k] : spec.small) {
    small_graphs_.push_back(build_graph(n, k));
    if (small_graphs_.back().num_nodes() > 64) {
      throw std::invalid_argument("small-stream graph over 64 nodes");
    }
  }
  for (int n : spec.large_n) large_graphs_.push_back(build_graph(n, spec.large_k));

  kgdp::service::DaemonConfig config;
  config.endpoints.push_back(net::Endpoint::unix_path(socket_path));
  config.service.threads = 2;
  config.watch_stop_signal = false;
  daemon_.emplace(std::move(config));
  std::string error;
  small_ = net::Client::connect(net::Endpoint::unix_path(socket_path), &error);
  large_ = net::Client::connect(net::Endpoint::unix_path(socket_path), &error);
  if (!small_ || !large_) {
    throw std::runtime_error("cannot connect to kgdd: " + error);
  }
  // One empty-fault route per graph builds the daemon's routers
  // (construction + automorphism group) before anything is timed.
  auto warm = [&](net::Client& conn, const kgd::SolutionGraph& sg) {
    const std::vector<std::vector<int>> sets = {{}};
    std::string why;
    std::vector<std::vector<int>> paths;
    const auto reply = round_trip(conn, route_frame(sg, sets, false), &why);
    report.op(reply && check_reply(sg, sets, false, *reply, &paths, &why),
              reply.has_value(), "warm-up route: " + why);
  };
  for (const kgd::SolutionGraph& sg : small_graphs_) warm(*small_, sg);
  for (const kgd::SolutionGraph& sg : large_graphs_) warm(*large_, sg);
}

ServeLoad::ServeLoad(ServeRig& rig, std::uint64_t seed, bool record)
    : rig_(rig),
      record_(record),
      small_(std::make_unique<SmallStream>(rig.small_graphs(), seed * 2 + 1)),
      large_(std::make_unique<LargeStream>(rig.large_graphs(), seed * 2 + 2)),
      alone_(std::make_unique<LargeStream>(rig.large_graphs(), ~(seed * 2 + 2))) {}

ServeLoad::~ServeLoad() = default;

void ServeLoad::run(std::uint64_t min_small, int min_large, Report& report) {
  // Both streams run until both have met their minimums, so they
  // overlap for the whole round.
  std::atomic<bool> small_done{false};
  std::atomic<bool> stop{false};
  // Operations are counted per thread and folded into the report after
  // the join; Report itself is not thread-safe.
  Report small_report;
  ServeRun& run = run_;

  std::thread small_thread([&] {
    std::uint64_t singles = 0;
    std::uint64_t window_sets = 0;
    auto window_start = Clock::now();
    while (!stop.load(std::memory_order_relaxed)) {
      if (singles >= min_small) {
        small_done.store(true, std::memory_order_relaxed);
      }
      RouteRecord r = small_->next();
      const bool batch = is_batch(r);
      std::string why;
      const auto sent = Clock::now();
      const auto reply = round_trip(rig_.small_conn(), r.frame, &why);
      const double rtt = seconds_since(sent);
      const bool ok =
          reply && check_reply(rig_.small_graphs()[r.graph], r.sets, batch,
                               *reply, &r.wire_paths, &why);
      small_report.op(ok, reply.has_value(), "small route: " + why);
      if (!reply) {  // a broken connection cannot recover
        small_done.store(true, std::memory_order_relaxed);
        break;
      }
      window_sets += r.sets.size();
      if (!batch) {
        run.single_us.push_back(rtt * 1e6);
        if (++singles % kSmallWindow == 0) {
          run.small_window_rate.push_back(
              static_cast<double>(window_sets) / seconds_since(window_start));
          window_sets = 0;
          window_start = Clock::now();
        }
      }
      if (record_) run.small_log.push_back(std::move(r));
    }
  });

  for (int large = 0;
       large < min_large || !small_done.load(std::memory_order_relaxed);
       ++large) {
    if (!large_route(*large_, run.large_ms, report)) break;
  }
  stop.store(true, std::memory_order_relaxed);
  small_thread.join();
  report.merge(small_report);
}

void ServeLoad::alone(int count, Report& report) {
  for (int i = 0;
       i < count && large_route(*alone_, run_.large_alone_ms, report); ++i) {
  }
}

bool ServeLoad::large_route(LargeStream& stream, std::vector<double>& samples,
                            Report& report) {
  RouteRecord r = stream.next();
  std::string why;
  const auto sent = Clock::now();
  const auto reply = round_trip(rig_.large_conn(), r.frame, &why);
  const double rtt = seconds_since(sent);
  const bool ok = reply && check_reply(rig_.large_graphs()[r.graph], r.sets,
                                       false, *reply, &r.wire_paths, &why);
  report.op(ok, reply.has_value(), "large route: " + why);
  if (!reply) return false;
  samples.push_back(rtt * 1e3);
  if (record_) run_.large_log.push_back(std::move(r));
  return true;
}

std::optional<io::Json> request_stats(net::Client& conn, Report& report) {
  std::string why;
  auto reply = round_trip(conn, "{\"method\":\"stats\"}", &why);
  report.op(reply.has_value(), false, "stats: " + why);
  return reply;
}

RouteMethodStats route_stats(const io::Json& stats, const char* method) {
  const io::Json* metrics = stats.find("metrics");
  const io::Json* methods = metrics ? metrics->find("methods") : nullptr;
  const io::Json* m = methods ? methods->find(method) : nullptr;
  const io::Json* mean_ms = m ? m->find("mean_ms") : nullptr;
  RouteMethodStats out;
  out.count = static_cast<std::uint64_t>(int_field(m, "count"));
  out.overloaded = static_cast<std::uint64_t>(int_field(m, "overloaded"));
  if (mean_ms != nullptr && mean_ms->is_number()) {
    out.sum_ms = mean_ms->as_double() * static_cast<double>(out.count);
  }
  return out;
}

ServerProbe probe_server(ServeRig& rig, const ServeRun& run,
                         std::size_t count, Report& report) {
  std::vector<const RouteRecord*> singles;
  for (const RouteRecord& r : run.small_log) {
    if (!is_batch(r)) singles.push_back(&r);
  }
  ServerProbe probe;
  if (singles.empty()) return probe;
  const auto before = request_stats(rig.small_conn(), report);
  double client_s = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    const RouteRecord& r = *singles[i % singles.size()];
    std::string why;
    std::vector<std::vector<int>> paths;
    const auto sent = Clock::now();
    const auto reply = round_trip(rig.small_conn(), r.frame, &why);
    client_s += seconds_since(sent);
    report.op(reply && check_reply(rig.small_graphs()[r.graph], r.sets, false,
                                   *reply, &paths, &why),
              reply.has_value(), "probe route: " + why);
  }
  const auto after = request_stats(rig.small_conn(), report);
  if (!before || !after) return probe;
  const RouteMethodStats a = route_stats(*before, "route");
  const RouteMethodStats b = route_stats(*after, "route");
  if (b.count > a.count) {
    probe.server_mean_us =
        (b.sum_ms - a.sum_ms) * 1e3 / static_cast<double>(b.count - a.count);
  }
  probe.client_mean_us = client_s * 1e6 / static_cast<double>(count);
  return probe;
}

ServeTrace trace_serve(const ServeRig& rig, const ServeRun& run) {
  ServeTrace tr;
  for (const auto* graphs : {&rig.small_graphs(), &rig.large_graphs()}) {
    for (const kgd::SolutionGraph& sg : *graphs) {
      const auto t = Clock::now();
      const auto autos = kgdp::graph::solution_automorphisms(sg);
      tr.automorphism_s += seconds_since(t);
    }
  }
  // Replay routers over their own cold atlas, as the daemon started.
  kgdp::reconfig::RouteAtlas atlas(std::size_t{1} << 20);
  std::vector<std::unique_ptr<kgdp::reconfig::Router>> small_routers;
  std::vector<kgdp::fault::FaultCanonicalizer> canons;
  for (const kgd::SolutionGraph& sg : rig.small_graphs()) {
    small_routers.push_back(
        std::make_unique<kgdp::reconfig::Router>(sg, &atlas));
  }
  for (const auto& router : small_routers) {
    canons.emplace_back(&router->automorphisms());
  }
  auto scratch = std::make_unique<kgdp::fault::FaultCanonicalizer::Scratch>();

  constexpr std::size_t kBlock = 64;  // requests per span
  const std::vector<RouteRecord>& log = run.small_log;
  std::vector<kgd::Pipeline> paths;
  for (std::size_t base = 0; base < log.size(); base += kBlock) {
    const std::size_t end = std::min(log.size(), base + kBlock);
    std::size_t sets = 0;
    for (std::size_t i = base; i < end; ++i) sets += log[i].sets.size();

    auto t = Clock::now();
    for (std::size_t i = base; i < end; ++i) io::Json::parse(log[i].frame);
    tr.parse.add(t, end - base);

    t = Clock::now();
    for (std::size_t i = base; i < end; ++i) {
      const int nodes = rig.small_graphs()[log[i].graph].num_nodes();
      for (const std::vector<int>& set : log[i].sets) {
        std::uint64_t mask = 0;
        for (int v : set) mask |= std::uint64_t{1} << v;
        std::uint64_t canon = 0;
        kgdp::graph::Permutation sigma;
        canons[log[i].graph].canonical_mask_transport(mask, nodes, *scratch,
                                                      &canon, &sigma);
      }
    }
    tr.canon.add(t, sets);

    t = Clock::now();
    paths.clear();
    for (std::size_t i = base; i < end; ++i) {
      const kgd::SolutionGraph& sg = rig.small_graphs()[log[i].graph];
      for (const std::vector<int>& set : log[i].sets) {
        paths.push_back(small_routers[log[i].graph]
                            ->route(kgd::FaultSet(sg.num_nodes(), set), *scratch)
                            .pipeline);
      }
    }
    tr.route.add(t, sets);

    t = Clock::now();
    std::size_t p = 0;
    for (std::size_t i = base; i < end; ++i) {
      io::JsonArray routes;
      for (std::size_t s = 0; s < log[i].sets.size(); ++s, ++p) {
        io::JsonArray path(paths[p].path.begin(), paths[p].path.end());
        routes.push_back(io::Json(std::move(path)));
      }
      io::JsonObject body;
      if (is_batch(log[i])) {
        body["routes"] = io::Json(std::move(routes));
      } else {
        body["route"] = std::move(routes.front());
      }
      kgdp::service::make_result("r1", "", std::move(body)).dump();
    }
    tr.serialize.add(t, end - base);

    p = 0;
    for (std::size_t i = base; i < end; ++i) {
      for (const std::vector<int>& wire : log[i].wire_paths) {
        const std::vector<kgdp::graph::Node>& mine = paths[p++].path;
        if (!std::equal(mine.begin(), mine.end(), wire.begin(), wire.end())) {
          ++tr.mismatches;
        }
      }
    }
  }

  std::vector<std::unique_ptr<kgdp::reconfig::Router>> large_routers;
  for (const kgd::SolutionGraph& sg : rig.large_graphs()) {
    large_routers.push_back(
        std::make_unique<kgdp::reconfig::Router>(sg, &atlas));
  }
  constexpr std::size_t kLargeBlock = 8;
  const std::vector<RouteRecord>& large = run.large_log;
  for (std::size_t base = 0; base < large.size(); base += kLargeBlock) {
    const std::size_t end = std::min(large.size(), base + kLargeBlock);
    const auto t = Clock::now();
    paths.clear();
    for (std::size_t i = base; i < end; ++i) {
      const kgd::SolutionGraph& sg = rig.large_graphs()[large[i].graph];
      paths.push_back(large_routers[large[i].graph]
                          ->route(kgd::FaultSet(sg.num_nodes(), large[i].sets[0]),
                                  *scratch)
                          .pipeline);
    }
    tr.large_route.add(t, end - base);
    for (std::size_t i = base; i < end; ++i) {
      const std::vector<kgdp::graph::Node>& mine = paths[i - base].path;
      const std::vector<int>& wire = large[i].wire_paths[0];
      if (!std::equal(mine.begin(), mine.end(), wire.begin(), wire.end())) {
        ++tr.mismatches;
      }
    }
  }
  return tr;
}

}  // namespace perfbench
