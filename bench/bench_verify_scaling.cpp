// X-VERIFY: exhaustive-verification throughput (fault sets per second)
// and thread-pool scaling of the GD checker. On a single-core host the
// parallel numbers simply match sequential; the shape to look for is
// fault-sets/sec and its growth with instance size.
//
// Besides the google-benchmark suite, this binary has a perf-tracking
// mode (X-SOLVER): with no gbench filter flags it measures the Figure 14
// instance single-core and, given --json=PATH, records the result as
// machine-readable BENCH_verify.json; --threads=1,2,4 additionally runs
// the multi-core batch sweep at each listed thread count and emits one
// `mt` JSON row per point (--pin pins workers to cores for the sweep);
// --smoke=BUDGET.json compares the measurement against a checked-in
// budget and exits nonzero on regression beyond --tolerance (a
// multiplier; default 1.25, use a generous value on shared/noisy
// runners), replaying a 2-thread sweep against the budget's mt rows
// under --mt-tolerance. The sweep's deterministic work counters (exact-
// search nodes, walk hits, walk fallbacks) must equal the budget's
// exactly, at any tolerance: they are host-independent, so that gate can
// fail on every machine. A missing or unparsable budget exits 4 — a
// distinct code so CI can tell "stale checkout" from "perf regression".
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "kgd/factory.hpp"
#include "kgd/small_n.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "verify/check_session.hpp"
#include "verify/checker.hpp"

using namespace kgdp;

namespace {

verify::CheckOptions prune_opts(bool prune) {
  verify::CheckOptions opts;
  opts.prune = prune ? verify::PruneMode::kAuto : verify::PruneMode::kOff;
  return opts;
}

void BM_ExhaustiveCheckSequential(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int k = 2;
  const auto sg = kgd::build_solution(n, k);
  std::uint64_t sets = 0;
  for (auto _ : state) {
    const auto res = verify::run_check(*sg, verify::CheckRequest::exhaustive(k));
    benchmark::DoNotOptimize(res);
    sets += res.fault_sets_checked;
    if (!res.holds) state.SkipWithError("GD failed");
  }
  state.counters["fault_sets/s"] = benchmark::Counter(
      static_cast<double>(sets), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ExhaustiveCheckSequential)->Arg(6)->Arg(9)->Arg(12);

void BM_ExhaustiveCheckParallel(benchmark::State& state) {
  const unsigned threads = static_cast<unsigned>(state.range(0));
  const auto sg = kgd::build_solution(12, 2);
  util::ThreadPool pool(threads);
  verify::CheckOptions opts;
  opts.pool = &pool;
  std::uint64_t sets = 0;
  for (auto _ : state) {
    const auto res = verify::run_check(*sg, verify::CheckRequest::exhaustive(2, opts));
    benchmark::DoNotOptimize(res);
    sets += res.fault_sets_checked;
  }
  state.counters["fault_sets/s"] = benchmark::Counter(
      static_cast<double>(sets), benchmark::Counter::kIsRate);
  state.SetLabel("n=12 k=2, threads=" + std::to_string(threads));
}
// Wall-clock rate: worker time is off the benchmark thread, so CPU-time
// rates would be meaningless.
BENCHMARK(BM_ExhaustiveCheckParallel)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_AsymptoticExhaustive(benchmark::State& state) {
  // The Figure 14 instance: 66712 fault sets, 26-processor Ham instances.
  const auto sg = kgd::build_solution(22, 4);
  for (auto _ : state) {
    const auto res = verify::run_check(*sg, verify::CheckRequest::exhaustive(4));
    benchmark::DoNotOptimize(res);
    if (!res.holds) state.SkipWithError("GD failed");
    state.counters["fault_sets"] =
        static_cast<double>(res.fault_sets_checked);
  }
}
BENCHMARK(BM_AsymptoticExhaustive)->Unit(benchmark::kMillisecond)
    ->Iterations(3);

// Symmetry pruning on the §3.2 families: G(3,k) (clique minus matching —
// the circulant-core small-n construction) and G(1,k)/G(2,k) (cliques).
// arg0 = k, arg1 = prune (0 = off, 1 = auto). The off/auto pair at equal
// k is the speedup the orbit engine buys; the checker stays exact either
// way (same verdict, summed orbit sizes = full quantifier domain).
void BM_ExhaustiveG3kPrune(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const bool prune = state.range(1) != 0;
  const auto sg = kgd::make_g3k(k);
  const auto opts = prune_opts(prune);
  std::uint64_t sets = 0, solved = 0;
  for (auto _ : state) {
    const auto res = verify::run_check(sg, verify::CheckRequest::exhaustive(k, opts));
    benchmark::DoNotOptimize(res);
    if (!res.holds) state.SkipWithError("GD failed");
    sets += res.fault_sets_checked;
    solved += res.fault_sets_solved;
  }
  state.counters["fault_sets/s"] = benchmark::Counter(
      static_cast<double>(sets), benchmark::Counter::kIsRate);
  state.counters["solved/s"] = benchmark::Counter(
      static_cast<double>(solved), benchmark::Counter::kIsRate);
  state.SetLabel("G(3," + std::to_string(k) + ") prune=" +
                 (prune ? "auto" : "off"));
}
BENCHMARK(BM_ExhaustiveG3kPrune)
    ->Args({4, 0})->Args({4, 1})
    ->Args({5, 0})->Args({5, 1})
    ->Args({6, 0})->Args({6, 1})
    ->Unit(benchmark::kMillisecond);

void BM_ExhaustiveCliquePrune(benchmark::State& state) {
  const int small_n = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  const bool prune = state.range(2) != 0;
  const auto sg = small_n == 1 ? kgd::make_g1k(k) : kgd::make_g2k(k);
  const auto opts = prune_opts(prune);
  std::uint64_t solved = 0;
  for (auto _ : state) {
    const auto res = verify::run_check(sg, verify::CheckRequest::exhaustive(k, opts));
    benchmark::DoNotOptimize(res);
    if (!res.holds) state.SkipWithError("GD failed");
    solved += res.fault_sets_solved;
  }
  state.counters["solved/s"] = benchmark::Counter(
      static_cast<double>(solved), benchmark::Counter::kIsRate);
  state.SetLabel("G(" + std::to_string(small_n) + "," + std::to_string(k) +
                 ") prune=" + (prune ? "auto" : "off"));
}
BENCHMARK(BM_ExhaustiveCliquePrune)
    ->Args({1, 5, 0})->Args({1, 5, 1})
    ->Args({2, 5, 0})->Args({2, 5, 1})
    ->Unit(benchmark::kMillisecond);

// Negative control: the asymptotic instance has a trivial label-
// respecting group, so prune=auto must degrade to the plain sweep with
// only the (cheap) group computation as overhead.
void BM_ExhaustivePruneTrivialGroup(benchmark::State& state) {
  const bool prune = state.range(0) != 0;
  const auto sg = kgd::build_solution(22, 4);
  const auto opts = prune_opts(prune);
  for (auto _ : state) {
    const auto res = verify::run_check(*sg, verify::CheckRequest::exhaustive(4, opts));
    benchmark::DoNotOptimize(res);
    if (!res.holds) state.SkipWithError("GD failed");
    if (res.orbits_pruned != 0) state.SkipWithError("expected no pruning");
  }
  state.SetLabel(std::string("G(22,4) trivial Aut, prune=") +
                 (prune ? "auto" : "off"));
}
BENCHMARK(BM_ExhaustivePruneTrivialGroup)
    ->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_SampledCheck(benchmark::State& state) {
  const auto sg = kgd::build_solution(40, 4);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    const auto res = verify::run_check(*sg, verify::CheckRequest::sampled(4, 200, ++seed));
    benchmark::DoNotOptimize(res);
  }
  state.SetLabel("n=40 k=4, 200 samples + adversarial suite");
}
BENCHMARK(BM_SampledCheck)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// X-SOLVER perf-tracking mode (custom main below)
// ---------------------------------------------------------------------------

struct Fig14Measurement {
  double best_seconds = 0.0;  // fastest repetition (noise-resistant)
  verify::CheckResult result; // counters from the fastest repetition
};

// The Figure 14 instance: G(22,4), 66,712 fault sets, trivial label-
// respecting group (no orbit pruning). threads == 1 runs the single-core
// sequential sweep — the purest measure of raw solver throughput;
// threads > 1 runs the work-stealing batched sweep over a pool of that
// size (optionally pinned), which is what the thread-scaling rows
// measure. Verdicts are thread-count-independent, so every point
// certifies the same instance.
Fig14Measurement measure_figure14(int reps, unsigned threads, bool pin) {
  const auto sg = kgd::build_solution(22, 4);
  verify::CheckRequest req;
  req.mode = verify::CheckMode::kExhaustive;
  req.max_faults = 4;
  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 1) {
    pool = std::make_unique<util::ThreadPool>(threads, pin);
    req.options.pool = pool.get();
  }
  Fig14Measurement m;
  for (int r = 0; r < reps; ++r) {
    verify::CheckSession session(*sg, req);
    const util::Timer t;
    session.run();
    const double secs = t.seconds();
    const verify::CheckResult res = session.result();
    if (!res.holds) {
      std::fprintf(stderr, "FATAL: GD(G(22,4), 4) failed\n");
      std::exit(2);
    }
    if (r == 0 || secs < m.best_seconds) {
      m.best_seconds = secs;
      m.result = res;
    }
  }
  return m;
}

struct MtPoint {
  unsigned threads = 1;
  double seconds = 0.0;
  double ns_per_solve = 0.0;
  double throughput = 0.0;  // fault sets (incl. pruned) per second
  double solves_per_s = 0.0;
};

MtPoint measure_mt_point(int reps, unsigned threads, bool pin) {
  const Fig14Measurement m = measure_figure14(reps, threads, pin);
  MtPoint p;
  p.threads = threads;
  p.seconds = m.best_seconds;
  p.ns_per_solve =
      m.best_seconds * 1e9 / static_cast<double>(m.result.fault_sets_solved);
  p.throughput =
      static_cast<double>(m.result.fault_sets_checked) / m.best_seconds;
  p.solves_per_s =
      static_cast<double>(m.result.fault_sets_solved) / m.best_seconds;
  return p;
}

// Distinct exit code for "the checked-in budget is missing or not JSON":
// CI must be able to tell a stale/fresh checkout from a genuine perf
// regression (exit 1) or a measurement failure (exit 2).
constexpr int kBadBudgetExit = 4;

// Work counters gated exactly against the budget (same on every host).
struct ExactCounter {
  const char* name;
  std::uint64_t verify::CheckResult::*field;
};
constexpr ExactCounter kExactCounters[] = {
    {"solver_search_nodes", &verify::CheckResult::solver_search_nodes},
    {"solver_walk_hits", &verify::CheckResult::solver_walk_hits},
    {"solver_walk_fallbacks", &verify::CheckResult::solver_walk_fallbacks},
    {"solver_posa_steps", &verify::CheckResult::solver_posa_steps},
};

int run_perf_mode(const std::string& json_path, const std::string& smoke_path,
                  double tolerance, double mt_tolerance, int reps,
                  const std::vector<unsigned>& thread_sweep, bool pin) {
  // Load and validate the smoke budget before measuring anything: a
  // missing or corrupt checkout should fail in milliseconds with the
  // distinct exit code, not after a multi-second sweep.
  io::Json budget;
  if (!smoke_path.empty()) {
    std::ifstream in(smoke_path);
    std::stringstream buf;
    buf << in.rdbuf();
    if (!in) {
      std::fprintf(stderr,
                   "FATAL: perf budget %s is missing or unreadable — "
                   "run `bench_verify_scaling --json=%s` to regenerate it\n",
                   smoke_path.c_str(), smoke_path.c_str());
      return kBadBudgetExit;
    }
    try {
      budget = io::Json::parse(buf.str());
    } catch (const std::exception& e) {
      std::fprintf(stderr,
                   "FATAL: perf budget %s is not valid JSON (%s) — "
                   "run `bench_verify_scaling --json=%s` to regenerate it\n",
                   smoke_path.c_str(), e.what(), smoke_path.c_str());
      return kBadBudgetExit;
    }
    const io::Json* budget_ns = budget.find("ns_per_solve");
    if (budget_ns == nullptr || !budget_ns->is_number()) {
      std::fprintf(stderr,
                   "FATAL: perf budget %s lacks a numeric ns_per_solve — "
                   "run `bench_verify_scaling --json=%s` to regenerate it\n",
                   smoke_path.c_str(), smoke_path.c_str());
      return kBadBudgetExit;
    }
    for (const ExactCounter& c : kExactCounters) {
      const io::Json* v = budget.find(c.name);
      if (v == nullptr || !v->is_int()) {
        std::fprintf(stderr,
                     "FATAL: perf budget %s lacks an integer %s — "
                     "run `bench_verify_scaling --json=%s` to regenerate it\n",
                     smoke_path.c_str(), c.name, smoke_path.c_str());
        return kBadBudgetExit;
      }
    }
  }

  const Fig14Measurement m = measure_figure14(reps, 1, false);
  const double ns_per_solve =
      m.best_seconds * 1e9 / static_cast<double>(m.result.fault_sets_solved);
  const double throughput =
      static_cast<double>(m.result.fault_sets_checked) / m.best_seconds;
  std::printf("X-SOLVER figure-14 G(22,4): %llu fault sets, %.0f ns/solve, "
              "%.0f fault-sets/s (best of %d)\n",
              static_cast<unsigned long long>(m.result.fault_sets_checked),
              ns_per_solve, throughput, reps);

  std::vector<MtPoint> mt;
  for (const unsigned t : thread_sweep) {
    const MtPoint p = measure_mt_point(reps, t, pin);
    mt.push_back(p);
    std::printf("X-SOLVER-MT threads=%u%s: %.3fs, %.0f ns/solve, "
                "%.0f solves/s, %.0f fault-sets/s\n",
                p.threads, pin ? " (pinned)" : "", p.seconds, p.ns_per_solve,
                p.solves_per_s, p.throughput);
  }

  if (!json_path.empty()) {
    io::JsonObject fields;
    fields["instance"] = std::string("G(22,4)");
    fields["fault_sets"] = m.result.fault_sets_checked;
    fields["solves"] = m.result.fault_sets_solved;
    fields["ns_per_solve"] = ns_per_solve;
    fields["throughput"] = throughput;
    fields["solver_patches"] = m.result.solver_patches;
    fields["solver_rebuilds"] = m.result.solver_rebuilds;
    fields["solver_search_nodes"] = m.result.solver_search_nodes;
    fields["solver_walk_hits"] = m.result.solver_walk_hits;
    fields["solver_walk_fallbacks"] = m.result.solver_walk_fallbacks;
    fields["solver_posa_steps"] = m.result.solver_posa_steps;
    if (!mt.empty()) {
      io::JsonArray rows;
      for (const MtPoint& p : mt) {
        io::JsonObject row;
        row["threads"] = static_cast<std::int64_t>(p.threads);
        row["pinned"] = pin;
        row["seconds"] = p.seconds;
        row["ns_per_solve"] = p.ns_per_solve;
        row["throughput"] = p.throughput;
        row["solves_per_s"] = p.solves_per_s;
        rows.push_back(std::move(row));
      }
      fields["mt"] = std::move(rows);
    }
    if (!bench::write_bench_json(json_path, "bench_verify_scaling",
                                 std::move(fields))) {
      std::fprintf(stderr, "FATAL: cannot write %s\n", json_path.c_str());
      return 2;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (!smoke_path.empty()) {
    bool counters_match = true;
    for (const ExactCounter& c : kExactCounters) {
      const auto want =
          static_cast<std::uint64_t>(budget.find(c.name)->as_int());
      const std::uint64_t got = m.result.*c.field;
      if (got != want) {
        std::fprintf(stderr,
                     "COUNTER MISMATCH: %s = %llu, budget records %llu\n",
                     c.name, static_cast<unsigned long long>(got),
                     static_cast<unsigned long long>(want));
        counters_match = false;
      }
    }
    if (!counters_match) return 1;
    std::printf("perf smoke: work counters match the budget exactly\n");
    const io::Json* budget_ns = budget.find("ns_per_solve");
    const double allowed = budget_ns->as_double() * tolerance;
    std::printf("perf smoke: %.0f ns/solve measured vs %.0f budget "
                "(%.0f allowed at tolerance %.2f)\n",
                ns_per_solve, budget_ns->as_double(), allowed, tolerance);
    if (ns_per_solve > allowed) {
      std::fprintf(stderr, "PERF REGRESSION: ns/solve above budget\n");
      return 1;
    }
    // 2-thread replay against the budget's mt rows, under its own
    // tolerance (thread scheduling is noisier than a sequential sweep).
    // Budgets written before the mt rows existed skip the replay.
    const io::Json* budget_mt = budget.find("mt");
    const io::Json* mt2 = nullptr;
    if (budget_mt != nullptr && budget_mt->is_array()) {
      for (const io::Json& row : budget_mt->as_array()) {
        const io::Json* t = row.find("threads");
        if (t != nullptr && t->is_int() && t->as_int() == 2) {
          mt2 = row.find("ns_per_solve");
          break;
        }
      }
    }
    if (mt2 != nullptr && mt2->is_number()) {
      const MtPoint p = measure_mt_point(reps, 2, pin);
      const double mt_allowed = mt2->as_double() * mt_tolerance;
      std::printf("perf smoke (2-thread): %.0f ns/solve measured vs %.0f "
                  "budget (%.0f allowed at tolerance %.2f)\n",
                  p.ns_per_solve, mt2->as_double(), mt_allowed, mt_tolerance);
      if (p.ns_per_solve > mt_allowed) {
        std::fprintf(stderr,
                     "PERF REGRESSION: 2-thread ns/solve above budget\n");
        return 1;
      }
    } else {
      std::printf("perf smoke: budget has no 2-thread mt row; replay "
                  "skipped\n");
    }
    std::printf("perf smoke: OK\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path, smoke_path;
  double tolerance = 1.25;
  double mt_tolerance = 3.0;
  int reps = 3;
  std::vector<unsigned> thread_sweep;
  bool pin = false;
  // Strip our flags before handing the rest to google-benchmark.
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg.rfind("--smoke=", 0) == 0) {
      smoke_path = arg.substr(8);
    } else if (arg.rfind("--tolerance=", 0) == 0) {
      tolerance = std::stod(arg.substr(12));
    } else if (arg.rfind("--mt-tolerance=", 0) == 0) {
      mt_tolerance = std::stod(arg.substr(15));
    } else if (arg.rfind("--reps=", 0) == 0) {
      reps = std::stoi(arg.substr(7));
    } else if (arg.rfind("--threads=", 0) == 0) {
      // Comma-separated thread counts, e.g. --threads=1,2,4,8.
      std::stringstream list(arg.substr(10));
      std::string item;
      while (std::getline(list, item, ',')) {
        const int t = std::stoi(item);
        if (t < 1) {
          std::fprintf(stderr, "FATAL: bad thread count '%s'\n",
                       item.c_str());
          return 2;
        }
        thread_sweep.push_back(static_cast<unsigned>(t));
      }
    } else if (arg == "--pin") {
      pin = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  if (!json_path.empty() || !smoke_path.empty() || !thread_sweep.empty()) {
    return run_perf_mode(json_path, smoke_path, tolerance, mt_tolerance, reps,
                         thread_sweep, pin);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
