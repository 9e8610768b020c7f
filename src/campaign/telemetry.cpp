#include "campaign/telemetry.hpp"

#include <ostream>

namespace kgdp::campaign {

void TelemetryWriter::emit(const std::string& event, io::JsonObject fields) {
  if (out_ == nullptr) return;
  fields["event"] = event;
  fields["seq"] = seq_++;
  fields["schema_version"] = io::kSchemaVersion;
  *out_ << io::Json(std::move(fields)).dump() << '\n';
  out_->flush();
}

io::Json check_result_to_json(const verify::CheckResult& res) {
  io::JsonObject o;
  o["schema_version"] = io::kSchemaVersion;
  o["holds"] = res.holds;
  o["exhaustive"] = res.exhaustive;
  o["fault_sets_checked"] = res.fault_sets_checked;
  o["fault_sets_solved"] = res.fault_sets_solved;
  o["solver_unknowns"] = res.solver_unknowns;
  o["orbits_pruned"] = res.orbits_pruned;
  o["automorphism_order"] = res.automorphism_order;
  o["steal_count"] = res.steal_count;
  // Solver engine counters (schema_version >= 2). Schedule-dependent
  // observability: patches vs rebuilds depend on chunking and stealing.
  o["solver_patches"] = res.solver_patches;
  o["solver_rebuilds"] = res.solver_rebuilds;
  o["solver_search_nodes"] = res.solver_search_nodes;
  o["solver_posa_steps"] = res.solver_posa_steps;
  o["solver_scratch_bytes"] = res.solver_scratch_bytes;
  // Batched-solver walk split and verdict-cache traffic (all zero when
  // the walk never ran / no cache was attached).
  o["solver_walk_hits"] = res.solver_walk_hits;
  o["solver_walk_fallbacks"] = res.solver_walk_fallbacks;
  o["cache_hits"] = res.cache_hits;
  o["cache_misses"] = res.cache_misses;
  o["cache_inserts"] = res.cache_inserts;
  o["cache_evictions"] = res.cache_evictions;
  io::JsonArray seconds;
  for (double s : res.worker_solve_seconds) seconds.push_back(s);
  o["worker_solve_seconds"] = std::move(seconds);
  if (res.counterexample) {
    io::JsonArray nodes;
    for (int v : res.counterexample->nodes()) nodes.push_back(v);
    o["counterexample"] = std::move(nodes);
    if (res.counterexample_index) {
      o["counterexample_index"] = *res.counterexample_index;
    }
  } else {
    o["counterexample"] = nullptr;
  }
  return io::Json(std::move(o));
}

}  // namespace kgdp::campaign
