// The certification campaign engine end to end: grid expansion,
// checkpoint file round-trips, the acceptance drill (an interrupted and
// resumed campaign over G(3, 4..5) and a 4-way sharded + merged campaign
// both reproduce the uninterrupted single-session run bit-identically),
// telemetry schema, and the merge rejection paths.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/checkpoint.hpp"
#include "campaign/telemetry.hpp"
#include "fault/enumerator.hpp"
#include "io/json.hpp"
#include "kgd/factory.hpp"
#include "util/durable_file.hpp"
#include "verify/check_session.hpp"

namespace kgdp::campaign {
namespace {

RunLimits chunk_limit(std::uint64_t n) {
  RunLimits limits;
  limits.max_chunks = n;
  return limits;
}

CampaignConfig acceptance_config() {
  CampaignConfig c;
  c.n_min = 3;
  c.n_max = 3;
  c.k_min = 4;
  c.k_max = 5;
  c.chunk = 200;
  c.checkpoint_every = 1;
  return c;
}

void expect_identical(const verify::CheckResult& a,
                      const verify::CheckResult& b, const std::string& tag) {
  EXPECT_EQ(a.holds, b.holds) << tag;
  EXPECT_EQ(a.exhaustive, b.exhaustive) << tag;
  EXPECT_EQ(a.fault_sets_checked, b.fault_sets_checked) << tag;
  EXPECT_EQ(a.fault_sets_solved, b.fault_sets_solved) << tag;
  EXPECT_EQ(a.solver_unknowns, b.solver_unknowns) << tag;
  EXPECT_EQ(a.orbits_pruned, b.orbits_pruned) << tag;
  EXPECT_EQ(a.automorphism_order, b.automorphism_order) << tag;
  EXPECT_EQ(a.steal_count, b.steal_count) << tag;
  ASSERT_EQ(a.counterexample.has_value(), b.counterexample.has_value()) << tag;
  if (a.counterexample) {
    EXPECT_EQ(a.counterexample->nodes(), b.counterexample->nodes()) << tag;
  }
  ASSERT_EQ(a.counterexample_index.has_value(),
            b.counterexample_index.has_value())
      << tag;
  if (a.counterexample_index) {
    EXPECT_EQ(*a.counterexample_index, *b.counterexample_index) << tag;
  }
}

TEST(Campaign, GridExpansionKeepsSupportedPairsInOrder) {
  CampaignConfig c;
  c.n_min = 1;
  c.n_max = 8;
  c.k_min = 1;
  c.k_max = 2;
  const CampaignState state = make_campaign(c);
  ASSERT_FALSE(state.instances.empty());
  int prev_n = 0, prev_k = 0;
  for (const InstanceState& inst : state.instances) {
    EXPECT_TRUE(kgd::is_supported(inst.n, inst.k));
    EXPECT_EQ(inst.status, InstanceStatus::kPending);
    // Row-major (n outer, k inner) grid order.
    EXPECT_TRUE(inst.n > prev_n || (inst.n == prev_n && inst.k > prev_k));
    prev_n = inst.n;
    prev_k = inst.k;
  }
  std::size_t supported = 0;
  for (int n = 1; n <= 8; ++n) {
    for (int k = 1; k <= 2; ++k) {
      if (kgd::is_supported(n, k)) ++supported;
    }
  }
  EXPECT_EQ(state.instances.size(), supported);
}

TEST(Campaign, MakeCampaignRejectsBadConfigs) {
  CampaignConfig inverted = acceptance_config();
  inverted.n_max = inverted.n_min - 1;
  EXPECT_THROW(make_campaign(inverted), std::invalid_argument);

  CampaignConfig bad_shard = acceptance_config();
  bad_shard.shard_index = 2;
  bad_shard.shard_count = 2;
  EXPECT_THROW(make_campaign(bad_shard), std::invalid_argument);

  CampaignConfig sharded_sampled = acceptance_config();
  sharded_sampled.mode = verify::CheckMode::kSampled;
  sharded_sampled.shard_count = 2;
  EXPECT_THROW(make_campaign(sharded_sampled), std::invalid_argument);

  CampaignConfig zero_chunk = acceptance_config();
  zero_chunk.chunk = 0;
  EXPECT_THROW(make_campaign(zero_chunk), std::invalid_argument);

  CampaignConfig empty = acceptance_config();
  empty.n_min = empty.n_max = 8;  // (8, 4) and (8, 5) have no construction
  empty.k_min = 4;
  empty.k_max = 5;
  ASSERT_FALSE(kgd::is_supported(8, 4));
  ASSERT_FALSE(kgd::is_supported(8, 5));
  EXPECT_THROW(make_campaign(empty), std::invalid_argument);
}

TEST(Campaign, ResultSerializationRoundTripsExactly) {
  verify::CheckResult res;
  res.holds = false;
  res.exhaustive = true;
  res.fault_sets_checked = 12345;
  res.fault_sets_solved = 678;
  res.solver_unknowns = 0;
  res.orbits_pruned = 11667;
  res.automorphism_order = 24;
  res.steal_count = 9;
  res.solver_posa_steps = 834'608;
  res.worker_solve_seconds = {0.1, 3.14159265358979, 0.0};
  res.counterexample = kgd::FaultSet(7, {1, 3, 6});
  res.counterexample_index = 42;

  std::stringstream buf;
  save_result(buf, res);
  const verify::CheckResult back = load_result(buf);
  expect_identical(res, back, "failing result");
  EXPECT_EQ(back.solver_posa_steps, res.solver_posa_steps);
  ASSERT_EQ(back.worker_solve_seconds.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    // Bit-exact double round-trip, not printf-precision.
    EXPECT_EQ(back.worker_solve_seconds[i], res.worker_solve_seconds[i]);
  }

  // A sampled counterexample has no enumeration index ("-" on disk).
  res.counterexample_index.reset();
  std::stringstream buf2;
  save_result(buf2, res);
  expect_identical(res, load_result(buf2), "indexless result");

  // Holding result, no counterexample.
  verify::CheckResult ok;
  ok.holds = true;
  ok.exhaustive = true;
  ok.fault_sets_checked = 99;
  std::stringstream buf3;
  save_result(buf3, ok);
  expect_identical(ok, load_result(buf3), "holding result");
}

TEST(Campaign, CampaignFileRoundTripIsStable) {
  CampaignConfig c = acceptance_config();
  CampaignRunner partial(make_campaign(c), /*checkpoint_path=*/"");
  const RunOutcome out = partial.run(chunk_limit(3));
  ASSERT_FALSE(out.complete);  // mid-sweep: one instance carries a cursor

  std::stringstream first;
  save_campaign(first, partial.state());
  const CampaignState loaded = load_campaign(first);
  std::stringstream second;
  save_campaign(second, loaded);
  const CampaignState reloaded = load_campaign(second);
  std::stringstream third;
  save_campaign(third, reloaded);
  // save -> load normalizes the embedded cursor once; after that the
  // round-trip must be byte-identical.
  EXPECT_EQ(second.str(), third.str());
  ASSERT_EQ(loaded.instances.size(), partial.state().instances.size());
  for (std::size_t i = 0; i < loaded.instances.size(); ++i) {
    EXPECT_EQ(loaded.instances[i].status, partial.state().instances[i].status);
  }
}

// Every damaged campaign file must load as a classified
// util::CheckpointError — never undefined behaviour, never an uncaught
// deep parse error the operator can't act on.
TEST(Campaign, CorruptFileCorpusLoadsAsClassifiedErrors) {
  const std::string dir =
      testing::TempDir() + "kgdp_corpus_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto sub = [&](const std::string& name) { return dir + "/" + name; };

  CampaignConfig c = acceptance_config();
  const std::string good = sub("good.kgdp");
  write_campaign_file(good, make_campaign(c));
  std::string bytes;
  {
    std::ifstream in(good, std::ios::binary);
    ASSERT_TRUE(in.good());
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 32u);
  const auto write_raw = [&](const std::string& name,
                             const std::string& content) {
    const std::string path = sub(name);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(content.data(),
              static_cast<std::streamsize>(content.size()));
    return path;
  };
  const auto expect_kind = [](const std::string& path,
                              util::CheckpointErrorKind kind) {
    try {
      load_campaign_file(path);
      ADD_FAILURE() << path << ": expected a CheckpointError";
    } catch (const util::CheckpointError& e) {
      EXPECT_EQ(util::to_string(e.kind()), util::to_string(kind))
          << path << ": " << e.what();
    }
  };

  expect_kind(sub("missing.kgdp"), util::CheckpointErrorKind::kMissing);
  expect_kind(write_raw("zero.kgdp", ""),
              util::CheckpointErrorKind::kTruncated);
  expect_kind(write_raw("trunc.kgdp", bytes.substr(0, bytes.size() / 2)),
              util::CheckpointErrorKind::kTruncated);
  std::string flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x10;
  expect_kind(write_raw("flip.kgdp", flipped),
              util::CheckpointErrorKind::kCorrupt);
  const std::string wrongver = sub("wrongver.kgdp");
  util::durable_write_file(wrongver, "kgdp-campaign 99\nschema_version 1\n");
  expect_kind(wrongver, util::CheckpointErrorKind::kParse);
  // Bad candidates were quarantined, not left in place to fail again.
  EXPECT_TRUE(std::filesystem::exists(sub("flip.kgdp.corrupt")));
  EXPECT_FALSE(std::filesystem::exists(sub("flip.kgdp")));

  // Legacy pre-envelope files (plain text, no magic) still load.
  std::ostringstream legacy_text;
  save_campaign(legacy_text, make_campaign(c));
  const std::string legacy = write_raw("legacy.kgdp", legacy_text.str());
  EXPECT_NO_THROW(load_campaign_file(legacy));

  // A corrupt primary falls back to the previous good `.bak`
  // generation; the primary itself is quarantined.
  const std::string pair = write_raw("pair.kgdp", flipped);
  write_raw("pair.kgdp.bak", bytes);
  const CampaignState recovered = load_campaign_file(pair);
  EXPECT_EQ(recovered.config.n_min, c.n_min);
  EXPECT_TRUE(std::filesystem::exists(pair + ".corrupt"));
  std::filesystem::remove_all(dir);
}

TEST(Campaign, LoadRejectsMalformedFiles) {
  std::stringstream bad_magic("kgdp-graph 1\n");
  EXPECT_THROW(load_campaign(bad_magic), std::runtime_error);
  std::stringstream truncated(
      "kgdp-campaign 1\nschema_version 1\ngrid 3 3 4 5\nmode exhaustive\n");
  EXPECT_THROW(load_campaign(truncated), std::runtime_error);
  std::stringstream bad_mode(
      "kgdp-campaign 1\nschema_version 1\ngrid 3 3 4 5\nmode maybe\n");
  EXPECT_THROW(load_campaign(bad_mode), std::runtime_error);
}

// Acceptance drill 1: kill/resume. A campaign over G(3, 4..5) interrupted
// every few chunks and resumed from its checkpoint file — as a fresh
// process would — must reproduce the uninterrupted run bit-identically.
TEST(Campaign, InterruptedAndResumedMatchesUninterrupted) {
  const CampaignConfig c = acceptance_config();

  CampaignRunner fresh(make_campaign(c), /*checkpoint_path=*/"");
  const RunOutcome fresh_out = fresh.run();
  ASSERT_TRUE(fresh_out.complete);
  ASSERT_TRUE(fresh_out.all_hold);

  const std::string path = testing::TempDir() + "kgdp_resume.kgdp";
  write_campaign_file(path, make_campaign(c));
  int restarts = 0;
  while (true) {
    // Each iteration reloads from disk, exactly like a fresh process.
    CampaignRunner runner(load_campaign_file(path), path);
    const RunOutcome out = runner.run(chunk_limit(3));
    if (out.complete) {
      ASSERT_TRUE(out.all_hold);
      const CampaignState& resumed = runner.state();
      ASSERT_EQ(resumed.instances.size(), fresh.state().instances.size());
      for (std::size_t i = 0; i < resumed.instances.size(); ++i) {
        const InstanceState& a = fresh.state().instances[i];
        const InstanceState& b = resumed.instances[i];
        EXPECT_EQ(b.status, InstanceStatus::kDone);
        expect_identical(a.result, b.result,
                         "G(" + std::to_string(a.n) + "," +
                             std::to_string(a.k) + ") after " +
                             std::to_string(restarts) + " restarts");
      }
      break;
    }
    ++restarts;
    ASSERT_LT(restarts, 100) << "campaign failed to make progress";
  }
  EXPECT_GT(restarts, 1);  // the drill actually interrupted mid-sweep

  // And the campaign results equal a direct uninterrupted CheckSession.
  for (const InstanceState& inst : fresh.state().instances) {
    const auto sg = kgd::build_solution(inst.n, inst.k);
    ASSERT_TRUE(sg);
    verify::CheckRequest req;
    req.max_faults = inst.k;
    verify::CheckSession session(*sg, req);
    session.run();
    expect_identical(session.result(), inst.result,
                     "direct session G(" + std::to_string(inst.n) + "," +
                         std::to_string(inst.k) + ")");
  }
}

// Acceptance drill 2: shard/merge. The same grid split across 4 shard
// campaigns and merged must tile the fault space exactly and reproduce
// the unsharded run bit-identically.
TEST(Campaign, FourShardMergeMatchesUnsharded) {
  const CampaignConfig base = acceptance_config();
  CampaignRunner unsharded(make_campaign(base), /*checkpoint_path=*/"");
  ASSERT_TRUE(unsharded.run().complete);

  std::vector<CampaignState> shards;
  for (std::uint32_t i = 0; i < 4; ++i) {
    CampaignConfig c = base;
    c.shard_index = i;
    c.shard_count = 4;
    CampaignRunner runner(make_campaign(c), /*checkpoint_path=*/"");
    const RunOutcome out = runner.run();
    ASSERT_TRUE(out.complete) << "shard " << i;
    shards.push_back(runner.state());
  }

  const CampaignState merged = merge_shards(shards);
  EXPECT_EQ(merged.config.shard_count, 1u);
  ASSERT_EQ(merged.instances.size(), unsharded.state().instances.size());
  for (std::size_t i = 0; i < merged.instances.size(); ++i) {
    const InstanceState& a = unsharded.state().instances[i];
    const InstanceState& b = merged.instances[i];
    const std::string tag =
        "G(" + std::to_string(a.n) + "," + std::to_string(a.k) + ")";
    expect_identical(a.result, b.result, tag);
    // Per-shard counters tile the quantifier domain exactly.
    const std::uint64_t domain =
        fault::FaultEnumerator(kgd::build_solution(a.n, a.k)->num_nodes(),
                               a.k)
            .total();
    std::uint64_t checked = 0, solved = 0, pruned = 0;
    for (const CampaignState& shard : shards) {
      checked += shard.instances[i].result.fault_sets_checked;
      solved += shard.instances[i].result.fault_sets_solved;
      pruned += shard.instances[i].result.orbits_pruned;
    }
    EXPECT_EQ(checked, domain) << tag;
    EXPECT_EQ(solved + pruned, domain) << tag;
  }
}

TEST(Campaign, MergeRejectsInconsistentShards) {
  CampaignConfig c = acceptance_config();
  c.k_max = 4;  // one small instance keeps this test cheap
  c.shard_count = 2;

  std::vector<CampaignState> shards;
  for (std::uint32_t i = 0; i < 2; ++i) {
    CampaignConfig ci = c;
    ci.shard_index = i;
    CampaignRunner runner(make_campaign(ci), "");
    ASSERT_TRUE(runner.run().complete);
    shards.push_back(runner.state());
  }

  EXPECT_THROW(merge_shards({}), std::invalid_argument);
  // Wrong shard count: one file for a 2-shard campaign.
  EXPECT_THROW(merge_shards({shards[0]}), std::invalid_argument);
  // Duplicate shard index.
  EXPECT_THROW(merge_shards({shards[0], shards[0]}), std::invalid_argument);
  // Config drift between files.
  CampaignState drifted = shards[1];
  drifted.config.seed ^= 1;
  EXPECT_THROW(merge_shards({shards[0], drifted}), std::invalid_argument);
  // Unfinished instance.
  CampaignState unfinished = shards[1];
  unfinished.instances[0].status = InstanceStatus::kRunning;
  EXPECT_THROW(merge_shards({shards[0], unfinished}), std::invalid_argument);
  // The untampered pair still merges.
  const CampaignState merged = merge_shards(shards);
  EXPECT_TRUE(merged.instances[0].result.holds);
}

TEST(Campaign, TelemetryEventsAreVersionedJsonl) {
  CampaignConfig c = acceptance_config();
  c.k_max = 4;
  c.chunk = 500;
  std::ostringstream sink;
  TelemetryWriter telemetry(&sink);
  CampaignRunner runner(make_campaign(c), "", &telemetry);
  ASSERT_TRUE(runner.run().complete);

  std::istringstream lines(sink.str());
  std::string line;
  std::uint64_t seq = 0;
  bool saw_run_start = false, saw_chunk = false, saw_instance_done = false,
       saw_campaign_done = false;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
    EXPECT_NE(line.find("\"schema_version\":" +
                        std::to_string(io::kSchemaVersion)),
              std::string::npos)
        << line;
    EXPECT_NE(line.find("\"seq\":" + std::to_string(seq)), std::string::npos)
        << line;
    ++seq;
    saw_run_start |= line.find("\"event\":\"run_start\"") != std::string::npos;
    saw_chunk |= line.find("\"event\":\"chunk\"") != std::string::npos;
    saw_instance_done |=
        line.find("\"event\":\"instance_done\"") != std::string::npos;
    saw_campaign_done |=
        line.find("\"event\":\"campaign_done\"") != std::string::npos;
  }
  EXPECT_TRUE(saw_run_start);
  EXPECT_TRUE(saw_chunk);
  EXPECT_TRUE(saw_instance_done);
  EXPECT_TRUE(saw_campaign_done);
  EXPECT_GE(seq, 4u);
  // The instance_done event embeds the shared check_result_to_json view.
  EXPECT_NE(sink.str().find("\"fault_sets_checked\""), std::string::npos);
}

TEST(Campaign, StatusSummaryShowsProgress) {
  const CampaignConfig c = acceptance_config();
  CampaignRunner runner(make_campaign(c), "");
  const std::string pending = status_summary(runner.state());
  EXPECT_NE(pending.find("G(3,4): pending"), std::string::npos) << pending;

  runner.run(chunk_limit(3));
  const std::string running = status_summary(runner.state());
  EXPECT_NE(running.find("running (cursor at slot"), std::string::npos)
      << running;

  runner.run();
  const std::string done = status_summary(runner.state());
  EXPECT_NE(done.find("G(3,4): HOLDS"), std::string::npos) << done;
  EXPECT_NE(done.find("G(3,5): HOLDS"), std::string::npos) << done;
  EXPECT_NE(done.find("2 done (0 failing), 0 running, 0 pending"),
            std::string::npos)
      << done;
}

}  // namespace
}  // namespace kgdp::campaign
