// Checkpoint/resume invariant and the crash/stall scenario registry.
//
// The central contract under test: a search killed after any round and
// resumed from its checkpoint file emits the byte-identical
// ReproductionScript — and the same total round count — as the
// uninterrupted search at the same seed, at every thread count.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "src/explorer/checkpoint.h"
#include "src/explorer/explorer.h"
#include "src/explorer/strategy.h"
#include "src/systems/common.h"
#include "tests/test_util.h"

namespace anduril::explorer {
namespace {

// --- serialization round-trip ---------------------------------------------------

TEST(CheckpointTest, SerializeParseRoundTripIsLossless) {
  SearchCheckpoint snap;
  snap.program_fingerprint = 0xdeadbeefcafef00dull;
  snap.base_seed = (1ull << 63) + 17;  // exercises the >2^53 string encoding
  snap.rounds_completed = 42;
  snap.retry_rng_draws = 7;
  snap.experiment.completed_rounds = 30;
  snap.experiment.crashed_rounds = 6;
  snap.experiment.hung_rounds = 5;
  snap.experiment.budget_exceeded_rounds = 1;
  snap.experiment.partitioned_stuck_rounds = 2;
  snap.experiment.transient_retries = 3;
  snap.experiment.total_run_wall_seconds = 1.25;
  snap.experiment.max_round_wall_seconds = 0.5;
  snap.network_candidates = true;
  snap.partition_heal_ms = 750;
  snap.network_delay_ms = 400;
  snap.pinned.push_back(interp::InjectionCandidate{3, 9, 2, interp::FaultKind::kException});
  snap.pinned.push_back(
      interp::InjectionCandidate{5, 1, ir::kInvalidId, interp::FaultKind::kCrash});
  snap.pinned.push_back(
      interp::InjectionCandidate{6, 2, ir::kInvalidId, interp::FaultKind::kPartition});
  snap.strategy_name = "full-order";
  snap.strategy.window_size = 20;
  snap.strategy.exhausted = false;
  snap.strategy.observable_priorities = {4, 0, -2, 100};
  snap.strategy.tried.push_back(
      interp::InjectionCandidate{1, 2, 3, interp::FaultKind::kException});
  snap.strategy.tried.push_back(
      interp::InjectionCandidate{8, 4, ir::kInvalidId, interp::FaultKind::kStall});
  snap.strategy.tried.push_back(
      interp::InjectionCandidate{9, 1, ir::kInvalidId, interp::FaultKind::kDrop});
  snap.strategy.tried.push_back(
      interp::InjectionCandidate{9, 2, ir::kInvalidId, interp::FaultKind::kDelay});
  snap.strategy.tried.push_back(
      interp::InjectionCandidate{9, 3, ir::kInvalidId, interp::FaultKind::kDuplicate});
  snap.strategy.demotions.push_back(
      {interp::InjectionCandidate{8, 4, ir::kInvalidId, interp::FaultKind::kStall}, 2});
  // v3 chain block: an accepted two-step prefix mid-search.
  snap.chain.steps.push_back(FaultChainStep{
      interp::InjectionCandidate{3, 9, 2, interp::FaultKind::kException},
      (1ull << 62) + 5,
      20,
      {"ERROR append failed", "WARN retry queued"}});
  snap.chain.steps.push_back(FaultChainStep{
      interp::InjectionCandidate{5, 1, ir::kInvalidId, interp::FaultKind::kCrash}, 1, 13, {}});
  snap.chain.phase = 2;
  snap.chain.rounds_before_phase = 33;
  snap.chain.stitched_sites = {7, 11};
  snap.chain.round_candidates.push_back(ChainRoundCandidate{
      interp::InjectionCandidate{9, 3, ir::kInvalidId, interp::FaultKind::kDelay}, 4, 17});
  // Engine block: the candidate-space shape the ranking engine saw.
  snap.engine_candidates = 100000;
  snap.engine_observables = 40;

  std::string text = SerializeCheckpoint(snap);
  SearchCheckpoint parsed;
  std::string error;
  ASSERT_TRUE(ParseCheckpoint(text, &parsed, &error)) << error;

  EXPECT_EQ(parsed.version, kCheckpointVersion);
  EXPECT_EQ(parsed.program_fingerprint, snap.program_fingerprint);
  EXPECT_EQ(parsed.base_seed, snap.base_seed);
  EXPECT_EQ(parsed.rounds_completed, snap.rounds_completed);
  EXPECT_EQ(parsed.retry_rng_draws, snap.retry_rng_draws);
  EXPECT_EQ(parsed.experiment.completed_rounds, snap.experiment.completed_rounds);
  EXPECT_EQ(parsed.experiment.crashed_rounds, snap.experiment.crashed_rounds);
  EXPECT_EQ(parsed.experiment.hung_rounds, snap.experiment.hung_rounds);
  EXPECT_EQ(parsed.experiment.budget_exceeded_rounds,
            snap.experiment.budget_exceeded_rounds);
  EXPECT_EQ(parsed.experiment.partitioned_stuck_rounds,
            snap.experiment.partitioned_stuck_rounds);
  EXPECT_EQ(parsed.network_candidates, snap.network_candidates);
  EXPECT_EQ(parsed.partition_heal_ms, snap.partition_heal_ms);
  EXPECT_EQ(parsed.network_delay_ms, snap.network_delay_ms);
  EXPECT_EQ(parsed.experiment.transient_retries, snap.experiment.transient_retries);
  EXPECT_DOUBLE_EQ(parsed.experiment.total_run_wall_seconds,
                   snap.experiment.total_run_wall_seconds);
  EXPECT_EQ(parsed.pinned, snap.pinned);
  EXPECT_EQ(parsed.strategy_name, snap.strategy_name);
  EXPECT_EQ(parsed.strategy.window_size, snap.strategy.window_size);
  EXPECT_EQ(parsed.strategy.exhausted, snap.strategy.exhausted);
  EXPECT_EQ(parsed.strategy.observable_priorities, snap.strategy.observable_priorities);
  EXPECT_EQ(parsed.strategy.tried, snap.strategy.tried);
  ASSERT_EQ(parsed.strategy.demotions.size(), 1u);
  EXPECT_EQ(parsed.strategy.demotions[0].candidate, snap.strategy.demotions[0].candidate);
  EXPECT_EQ(parsed.strategy.demotions[0].count, snap.strategy.demotions[0].count);
  EXPECT_EQ(parsed.chain, snap.chain);
  EXPECT_EQ(parsed.chain_signature_hash, ChainSignatureHash(snap.chain));
  EXPECT_EQ(parsed.engine_candidates, snap.engine_candidates);
  EXPECT_EQ(parsed.engine_observables, snap.engine_observables);

  // Serialization is canonical: re-serializing the parse is byte-identical.
  EXPECT_EQ(SerializeCheckpoint(parsed), text);
}

TEST(CheckpointTest, ParseRejectsMalformedAndWrongVersion) {
  SearchCheckpoint out;
  std::string error;
  EXPECT_FALSE(ParseCheckpoint("not json at all", &out, &error));
  EXPECT_FALSE(error.empty());
  error.clear();
  EXPECT_FALSE(ParseCheckpoint("{\"version\": 999}", &out, &error));
  EXPECT_FALSE(error.empty());
}

TEST(CheckpointTest, RejectsVersion1FileWithActionableError) {
  // A pre-network-model checkpoint (schema v1: no network object, no
  // partitioned_stuck count). It must be refused with an error that names
  // both versions and tells the user what to do — not half-parsed into a
  // search with a silently different candidate space.
  const char* v1_text = R"({
    "version": 1,
    "program_fingerprint": "12345",
    "base_seed": "1",
    "rounds_completed": 7,
    "retry_rng_draws": "0",
    "experiment": {"completed_rounds": 7},
    "pinned": [],
    "strategy": {"window_size": 10, "exhausted": false,
                 "observable_priorities": [], "tried": [], "demotions": []}
  })";
  SearchCheckpoint out;
  std::string error;
  EXPECT_FALSE(ParseCheckpoint(v1_text, &out, &error));
  EXPECT_NE(error.find("version 1"), std::string::npos) << error;
  EXPECT_NE(error.find("version 6"), std::string::npos) << error;
  EXPECT_NE(error.find("delete"), std::string::npos)
      << "error must be actionable: " << error;
}

TEST(CheckpointTest, RejectsVersion3FileWithActionableError) {
  // A pre-engine checkpoint (schema v3: chain block but no engine block).
  // Resuming it would skip the candidate-space validation, so it must be
  // refused with an error naming both versions.
  const char* v3_text = R"({
    "version": 3,
    "program_fingerprint": "12345",
    "base_seed": "1",
    "rounds_completed": 7,
    "retry_rng_draws": "0",
    "experiment": {"completed_rounds": 7},
    "network": {"candidates": false, "partition_heal_ms": 0, "delay_ms": 0},
    "pinned": [],
    "strategy": {"window_size": 10, "exhausted": false,
                 "observable_priorities": [], "tried": [], "demotions": []},
    "chain": {"steps": [], "phase": 0, "rounds_before_phase": 0,
              "stitched_sites": [], "round_candidates": []}
  })";
  SearchCheckpoint out;
  std::string error;
  EXPECT_FALSE(ParseCheckpoint(v3_text, &out, &error));
  EXPECT_NE(error.find("version 3"), std::string::npos) << error;
  EXPECT_NE(error.find("version 6"), std::string::npos) << error;
  EXPECT_NE(error.find("delete"), std::string::npos)
      << "error must be actionable: " << error;
}

TEST(CheckpointTest, RejectsVersion4FileWithActionableError) {
  // A schema-v4 checkpoint, whose engine block still names the stage-1
  // ranker ("kind"). It must be refused with an error naming both versions,
  // not resumed with the field silently ignored.
  const char* v4_text = R"({
    "version": 4,
    "program_fingerprint": "12345",
    "base_seed": "1",
    "rounds_completed": 7,
    "retry_rng_draws": "0",
    "experiment": {"completed_rounds": 7},
    "network": {"candidates": false, "partition_heal_ms": 0, "delay_ms": 0},
    "pinned": [],
    "strategy": {"window_size": 10, "exhausted": false,
                 "observable_priorities": [], "tried": [], "demotions": []},
    "chain": {"steps": [], "phase": 0, "rounds_before_phase": 0,
              "stitched_sites": [], "round_candidates": []},
    "engine": {"kind": "incremental", "candidates": 0, "observables": 0}
  })";
  SearchCheckpoint out;
  std::string error;
  EXPECT_FALSE(ParseCheckpoint(v4_text, &out, &error));
  EXPECT_NE(error.find("version 4"), std::string::npos) << error;
  EXPECT_NE(error.find("version 6"), std::string::npos) << error;
  EXPECT_NE(error.find("delete"), std::string::npos)
      << "error must be actionable: " << error;
}

TEST(CheckpointTest, RejectsVersion5FileWithActionableError) {
  // A schema-v5 checkpoint: no strategy name, so nothing stops it from
  // resuming under a different strategy. Refused with both versions named.
  const char* v5_text = R"({
    "version": 5,
    "program_fingerprint": "12345",
    "base_seed": "1",
    "rounds_completed": 7,
    "retry_rng_draws": "0",
    "experiment": {"completed_rounds": 7},
    "network": {"candidates": false, "partition_heal_ms": 0, "delay_ms": 0},
    "pinned": [],
    "strategy": {"window_size": 10, "exhausted": false,
                 "observable_priorities": [], "tried": [], "demotions": []},
    "chain": {"steps": [], "phase": 0, "rounds_before_phase": 0,
              "stitched_sites": [], "round_candidates": []},
    "engine": {"candidates": 0, "observables": 0}
  })";
  SearchCheckpoint out;
  std::string error;
  EXPECT_FALSE(ParseCheckpoint(v5_text, &out, &error));
  EXPECT_NE(error.find("version 5"), std::string::npos) << error;
  EXPECT_NE(error.find("version 6"), std::string::npos) << error;
  EXPECT_NE(error.find("delete"), std::string::npos)
      << "error must be actionable: " << error;
}

TEST(CheckpointTest, RejectsFileWithoutStrategyName) {
  SearchCheckpoint snap;
  std::string text = SerializeCheckpoint(snap);
  const std::string key = "\"name\": \"\",";
  size_t begin = text.find(key);
  ASSERT_NE(begin, std::string::npos) << text;
  text.erase(begin, key.size());
  SearchCheckpoint out;
  std::string error;
  EXPECT_FALSE(ParseCheckpoint(text, &out, &error));
  EXPECT_NE(error.find("no name"), std::string::npos) << error;
}

TEST(CheckpointTest, RejectsFileWithoutEngineBlock) {
  // A current-version file with the engine object stripped: refuse rather
  // than resume without the candidate-space check.
  SearchCheckpoint snap;
  std::string text = SerializeCheckpoint(snap);
  const std::string key = "\"engine\": {";
  size_t begin = text.find(key);
  ASSERT_NE(begin, std::string::npos);
  size_t end = text.find('}', begin);
  ASSERT_NE(end, std::string::npos);
  // Erase back through the comma after the previous member so the JSON stays
  // well-formed (the engine object is the last member of the root).
  size_t comma = text.rfind(',', begin);
  ASSERT_NE(comma, std::string::npos);
  text.erase(comma, end + 1 - comma);
  SearchCheckpoint out;
  std::string error;
  EXPECT_FALSE(ParseCheckpoint(text, &out, &error));
  EXPECT_NE(error.find("no engine object"), std::string::npos) << error;
}

TEST(CheckpointTest, RejectsVersion2FileWithChainStateWithActionableError) {
  // A pre-release chain build that wrote chain state without bumping the
  // schema version. Resuming it as plain v2 would silently drop the accepted
  // chain prefix, so the parser must refuse with a chain-specific message —
  // not the generic version mismatch.
  SearchCheckpoint out;
  std::string error;
  EXPECT_FALSE(ParseCheckpoint(R"({"version": 2, "chain": {"steps": []}})", &out, &error));
  EXPECT_NE(error.find("version 2"), std::string::npos) << error;
  EXPECT_NE(error.find("fault-chain state"), std::string::npos) << error;
  EXPECT_NE(error.find("delete"), std::string::npos)
      << "error must be actionable: " << error;
}

TEST(CheckpointTest, RejectsTamperedChainSignatureHash) {
  SearchCheckpoint snap;
  snap.chain.steps.push_back(FaultChainStep{
      interp::InjectionCandidate{3, 9, 2, interp::FaultKind::kException}, 1, 20, {"obs"}});
  std::string text = SerializeCheckpoint(snap);
  // Flip one digit of the recorded hash: the chain state no longer matches.
  const std::string key = "\"chain_signature_hash\": \"";
  size_t pos = text.find(key);
  ASSERT_NE(pos, std::string::npos);
  pos += key.size();
  text[pos] = text[pos] == '1' ? '2' : '1';
  SearchCheckpoint out;
  std::string error;
  EXPECT_FALSE(ParseCheckpoint(text, &out, &error));
  EXPECT_NE(error.find("chain signature hash mismatch"), std::string::npos) << error;
  EXPECT_NE(error.find("delete"), std::string::npos) << error;
}

TEST(CheckpointTest, RejectsTamperedChainStep) {
  // Editing the chain block itself (not the hash) must fail the same check:
  // the recomputed hash diverges from the recorded one.
  SearchCheckpoint snap;
  snap.chain.steps.push_back(FaultChainStep{
      interp::InjectionCandidate{3, 777, 2, interp::FaultKind::kException}, 1, 20, {}});
  std::string text = SerializeCheckpoint(snap);
  size_t pos = text.find("777");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 3, "778");
  SearchCheckpoint out;
  std::string error;
  EXPECT_FALSE(ParseCheckpoint(text, &out, &error));
  EXPECT_NE(error.find("chain signature hash mismatch"), std::string::npos) << error;
}

TEST(CheckpointTest, ParseRejectsUnknownFaultKind) {
  SearchCheckpoint snap;
  snap.pinned.push_back(
      interp::InjectionCandidate{1, 1, ir::kInvalidId, interp::FaultKind::kDrop});
  std::string text = SerializeCheckpoint(snap);
  // Corrupt the well-formed checkpoint with a kind string no build emits.
  std::string bad = text;
  size_t pos = bad.find("\"drop\"");
  ASSERT_NE(pos, std::string::npos);
  bad.replace(pos, 6, "\"teleport\"");
  SearchCheckpoint out;
  std::string error;
  EXPECT_FALSE(ParseCheckpoint(bad, &out, &error));
  EXPECT_NE(error.find("teleport"), std::string::npos) << error;
}

TEST(CheckpointTest, SaveAndLoadFileRoundTrip) {
  SearchCheckpoint snap;
  snap.program_fingerprint = 123;
  snap.base_seed = 456;
  snap.rounds_completed = 3;
  std::string path = TempPath("save_load_roundtrip.json");
  ASSERT_TRUE(SaveCheckpointFile(path, snap));
  SearchCheckpoint loaded;
  std::string error;
  ASSERT_TRUE(LoadCheckpointFile(path, &loaded, &error)) << error;
  EXPECT_EQ(SerializeCheckpoint(loaded), SerializeCheckpoint(snap));
  std::remove(path.c_str());
}

TEST(CheckpointTest, LoadRejectsDeeplyNestedFile) {
  std::string path = TempPath("deeply_nested.json");
  {
    FILE* file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    std::string text = "{\"version\": 4, \"rounds\": " + std::string(1'000'000, '[');
    std::fwrite(text.data(), 1, text.size(), file);
    std::fclose(file);
  }
  SearchCheckpoint loaded;
  std::string error;
  EXPECT_FALSE(LoadCheckpointFile(path, &loaded, &error));
  EXPECT_NE(error.find("checkpoint parse error: nesting deeper than 64 levels"),
            std::string::npos)
      << error;
  std::remove(path.c_str());
}

// --- resume preconditions -------------------------------------------------------
//
// Explorer::ResumeError names every precondition a checkpoint must meet
// before a search resumes from it. One case per field: a checkpoint of a
// three-round hd-4233 search with that one field changed (or, for the chain
// length, the resuming search's cap) is refused with an error naming the
// field and both values; the unchanged checkpoint resumes.

struct ResumeField {
  const char* name;
  // Breaks the precondition on a copy of the checkpoint or on the resuming
  // search's checkpoint config.
  void (*mutate)(SearchCheckpoint* snap, CheckpointConfig* config, ChainState* chain);
  const char* expected;  // substrings of the error
  const char* expected_values;
};

class ResumeErrorTest : public ::testing::TestWithParam<ResumeField> {
 protected:
  static void SetUpTestSuite() {
    const systems::FailureCase* failure_case = systems::FindCase("hd-4233");
    ASSERT_NE(failure_case, nullptr);
    built_ = new systems::BuiltCase(systems::BuildCase(*failure_case));
    options_ = new ExplorerOptions(OptionsForCase(*failure_case, 1));
    ExplorerOptions truncated = *options_;
    truncated.max_rounds = 3;
    const std::string path = TempPath("resume_error_hd4233.json");
    RunSearch(*built_, truncated, CheckpointConfig{path, nullptr});
    snap_ = new SearchCheckpoint;
    std::string error;
    ASSERT_TRUE(LoadCheckpointFile(path, snap_, &error)) << error;
    std::remove(path.c_str());
  }
  static void TearDownTestSuite() {
    delete snap_;
    delete options_;
    delete built_;
  }

  static std::string ResumeErrorOf(const SearchCheckpoint& snap,
                                   const CheckpointConfig& config) {
    Explorer explorer(built_->spec, *options_);
    std::unique_ptr<InjectionStrategy> strategy = MakeFullFeedbackStrategy();
    return explorer.ResumeError(snap, strategy.get(), config);
  }

  static systems::BuiltCase* built_;
  static ExplorerOptions* options_;
  static SearchCheckpoint* snap_;
};

systems::BuiltCase* ResumeErrorTest::built_ = nullptr;
ExplorerOptions* ResumeErrorTest::options_ = nullptr;
SearchCheckpoint* ResumeErrorTest::snap_ = nullptr;

TEST_F(ResumeErrorTest, UnchangedCheckpointResumes) {
  EXPECT_EQ(ResumeErrorOf(*snap_, CheckpointConfig{}), "");
}

TEST_P(ResumeErrorTest, MismatchedFieldIsNamedWithBothValues) {
  SearchCheckpoint snap = *snap_;
  CheckpointConfig config;
  ChainState chain;
  GetParam().mutate(&snap, &config, &chain);
  const std::string error = ResumeErrorOf(snap, config);
  EXPECT_NE(error.find(GetParam().expected), std::string::npos) << error;
  EXPECT_NE(error.find(GetParam().expected_values), std::string::npos) << error;
}

INSTANTIATE_TEST_SUITE_P(
    Fields, ResumeErrorTest,
    ::testing::Values(
        ResumeField{"Version",
                    [](SearchCheckpoint* s, CheckpointConfig*, ChainState*) { s->version = 5; },
                    "checkpoint version", "is 5, this search has 6"},
        ResumeField{"ProgramFingerprint",
                    [](SearchCheckpoint* s, CheckpointConfig*, ChainState*) {
                      s->program_fingerprint = 12345;
                    },
                    "checkpoint program_fingerprint", "is 12345, this search has "},
        ResumeField{"BaseSeed",
                    [](SearchCheckpoint* s, CheckpointConfig*, ChainState*) {
                      s->base_seed = 99;
                    },
                    "checkpoint base_seed", "is 99, this search has 1"},
        ResumeField{"PinnedFaults",
                    [](SearchCheckpoint* s, CheckpointConfig*, ChainState*) {
                      s->pinned.push_back(
                          interp::InjectionCandidate{0, 2, 0, interp::FaultKind::kException});
                    },
                    "checkpoint pinned faults",
                    "is [exception site 0 occurrence 2], this search has []"},
        ResumeField{"NetworkCandidates",
                    [](SearchCheckpoint* s, CheckpointConfig*, ChainState*) {
                      s->network_candidates = true;
                    },
                    "checkpoint network.candidates", "is true, this search has false"},
        ResumeField{"PartitionHealMs",
                    [](SearchCheckpoint* s, CheckpointConfig*, ChainState*) {
                      s->partition_heal_ms += 7;
                    },
                    "checkpoint network.partition_heal_ms", ", this search has "},
        ResumeField{"NetworkDelayMs",
                    [](SearchCheckpoint* s, CheckpointConfig*, ChainState*) {
                      s->network_delay_ms += 7;
                    },
                    "checkpoint network.network_delay_ms", ", this search has "},
        ResumeField{"EngineCandidates",
                    [](SearchCheckpoint* s, CheckpointConfig*, ChainState*) {
                      s->engine_candidates = 100000;
                    },
                    "checkpoint engine.candidates", "is 100000, this search has "},
        ResumeField{"EngineObservables",
                    [](SearchCheckpoint* s, CheckpointConfig*, ChainState*) {
                      s->engine_observables = 1000;
                    },
                    "checkpoint engine.observables", "is 1000, this search has "},
        ResumeField{"StrategyName",
                    [](SearchCheckpoint* s, CheckpointConfig*, ChainState*) {
                      s->strategy_name = "full-sum";
                    },
                    "checkpoint strategy.name", "is 'full-sum', this search has 'full'"},
        ResumeField{"ChainState",
                    [](SearchCheckpoint* s, CheckpointConfig*, ChainState*) {
                      s->chain.phase = 1;
                    },
                    "checkpoint chain", "is phase 1 with steps [], 0 earlier rounds"},
        ResumeField{"ChainLength",
                    [](SearchCheckpoint* s, CheckpointConfig* config, ChainState* chain) {
                      *chain = s->chain;
                      config->chain = chain;
                      config->max_chain_length = 0;
                    },
                    "checkpoint chain has 0 accepted steps",
                    "max_chain_length 0 leaves no phase"},
        ResumeField{"StrategyState",
                    [](SearchCheckpoint* s, CheckpointConfig*, ChainState*) {
                      s->strategy.observable_priorities.pop_back();
                    },
                    "checkpoint strategy state", "does not restore into strategy 'full'"}),
    [](const ::testing::TestParamInfo<ResumeField>& info) { return info.param.name; });

// --- kill-and-resume invariant --------------------------------------------------

// Runs `case_id` uninterrupted, then again with the round budget cut short
// and a checkpoint file, then resumes a fresh explorer from that file, and
// asserts the resumed search is indistinguishable from the uninterrupted one.
void ExpectResumeMatchesUninterrupted(const std::string& case_id, int threads) {
  SCOPED_TRACE(case_id + " @" + std::to_string(threads) + " threads");
  const systems::FailureCase* failure_case = systems::FindCase(case_id);
  ASSERT_NE(failure_case, nullptr);
  systems::BuiltCase built = systems::BuildCase(*failure_case);
  ExplorerOptions options = OptionsForCase(*failure_case, threads);

  ExploreResult baseline = RunSearch(built, options);
  ASSERT_TRUE(baseline.reproduced);
  ASSERT_TRUE(baseline.script.has_value());
  ASSERT_GT(baseline.rounds, 1) << "need at least two rounds to interrupt between";

  // Interrupted search: stop one round before success, checkpointing.
  std::string path =
      TempPath("resume_" + case_id + "_" + std::to_string(threads) + ".json");
  ExplorerOptions truncated = options;
  truncated.max_rounds = baseline.rounds - 1;
  ExploreResult interrupted = RunSearch(built, truncated, CheckpointConfig{path, nullptr});
  EXPECT_FALSE(interrupted.reproduced);

  // Resume in a brand-new explorer + strategy, rebuilt from the file alone.
  SearchCheckpoint snap;
  std::string error;
  ASSERT_TRUE(LoadCheckpointFile(path, &snap, &error)) << error;
  EXPECT_EQ(snap.rounds_completed, baseline.rounds - 1);
  systems::BuiltCase rebuilt = systems::BuildCase(*failure_case);
  Explorer resumed_explorer(rebuilt.spec, options);
  std::unique_ptr<InjectionStrategy> strategy = MakeFullFeedbackStrategy();
  ExploreResult resumed =
      resumed_explorer.Explore(strategy.get(), CheckpointConfig{"", &snap});

  ASSERT_TRUE(resumed.reproduced);
  ASSERT_TRUE(resumed.script.has_value());
  // Byte-identical script, identical seed, identical total round count.
  EXPECT_EQ(resumed.script->ToText(*rebuilt.spec.program),
            baseline.script->ToText(*built.spec.program));
  EXPECT_EQ(resumed.script->seed, baseline.script->seed);
  EXPECT_EQ(resumed.rounds, baseline.rounds);
  // The resumed accounting includes the pre-checkpoint rounds.
  EXPECT_EQ(resumed.experiment.total_rounds(), baseline.experiment.total_rounds());
  std::remove(path.c_str());
}

TEST(CheckpointResumeTest, Zk2247SerialResumeIsByteIdentical) {
  ExpectResumeMatchesUninterrupted("zk-2247", 1);
}

TEST(CheckpointResumeTest, Zk2247EightThreadResumeIsByteIdentical) {
  ExpectResumeMatchesUninterrupted("zk-2247", 8);
}

TEST(CheckpointResumeTest, Hd4233SerialResumeIsByteIdentical) {
  ExpectResumeMatchesUninterrupted("hd-4233", 1);
}

TEST(CheckpointResumeTest, Hd4233EightThreadResumeIsByteIdentical) {
  ExpectResumeMatchesUninterrupted("hd-4233", 8);
}

// Network-rooted cases exercise the v2 fields: the checkpoint records the
// widened candidate space plus the cluster's partition/delay knobs, and the
// resumed search must replay them byte-identically (zk-net-1's search also
// passes through partitioned-stuck rounds before it succeeds).
TEST(CheckpointResumeTest, ZkNet1PartitionSerialResumeIsByteIdentical) {
  ExpectResumeMatchesUninterrupted("zk-net-1", 1);
}

TEST(CheckpointResumeTest, HdNet1DropEightThreadResumeIsByteIdentical) {
  ExpectResumeMatchesUninterrupted("hd-net-1", 8);
}

// Storm-scale case: a mid-search kill/resume over a ~6×10⁴-instance
// candidate space must land on the identical script — the incremental
// engine's restored state (F_i / k*_i / untried budgets recomputed from the
// checkpoint's priorities + tried set) has to agree with the uninterrupted
// engine at full scale, not just on the Table 5 registry.
TEST(CheckpointResumeTest, CaStorm1SerialResumeIsByteIdentical) {
  ExpectResumeMatchesUninterrupted("ca-storm-1", 1);
}

TEST(CheckpointResumeTest, NetworkConfigIsPersistedInCheckpoint) {
  const systems::FailureCase* failure_case = systems::FindCase("hd-net-2");
  ASSERT_NE(failure_case, nullptr);
  systems::BuiltCase built = systems::BuildCase(*failure_case);
  ExplorerOptions options = OptionsForCase(*failure_case, 1);
  options.max_rounds = 2;
  std::string path = TempPath("network_config.json");
  RunSearch(built, options, CheckpointConfig{path, nullptr});
  SearchCheckpoint snap;
  std::string error;
  ASSERT_TRUE(LoadCheckpointFile(path, &snap, &error)) << error;
  EXPECT_TRUE(snap.network_candidates);
  EXPECT_EQ(snap.partition_heal_ms, built.cluster.partition_heal_ms);
  EXPECT_EQ(snap.network_delay_ms, built.cluster.network_delay_ms);
  std::remove(path.c_str());
}

TEST(CheckpointResumeTest, CheckpointWrittenAfterEveryFinishedRound) {
  const systems::FailureCase* failure_case = systems::FindCase("zk-2247");
  ASSERT_NE(failure_case, nullptr);
  systems::BuiltCase built = systems::BuildCase(*failure_case);
  ExplorerOptions options = OptionsForCase(*failure_case, 1);
  options.max_rounds = 2;
  std::string path = TempPath("every_round.json");
  RunSearch(built, options, CheckpointConfig{path, nullptr});
  SearchCheckpoint snap;
  std::string error;
  ASSERT_TRUE(LoadCheckpointFile(path, &snap, &error)) << error;
  EXPECT_EQ(snap.rounds_completed, 2);
  EXPECT_EQ(snap.program_fingerprint, ProgramFingerprint(*built.spec.program));
  EXPECT_EQ(snap.base_seed, built.spec.base_seed);
  std::remove(path.c_str());
}

// --- crash/stall scenario registry ---------------------------------------------

TEST(CrashStallScenarioTest, RegistryIsSeparateFromTable5Set) {
  EXPECT_EQ(systems::AllCases().size(), 22u);
  ASSERT_GE(systems::CrashStallCases().size(), 2u);
  bool has_crash = false;
  bool has_stall = false;
  for (const systems::FailureCase& failure_case : systems::CrashStallCases()) {
    has_crash |= failure_case.root_kind == interp::FaultKind::kCrash;
    has_stall |= failure_case.root_kind == interp::FaultKind::kStall;
    // Reachable through FindCase like every other case.
    EXPECT_EQ(systems::FindCase(failure_case.id), &failure_case);
  }
  EXPECT_TRUE(has_crash);
  EXPECT_TRUE(has_stall);
}

TEST(CrashStallScenarioTest, ScenariosReproduceAndReplayDeterministically) {
  for (const systems::FailureCase& failure_case : systems::CrashStallCases()) {
    SCOPED_TRACE(failure_case.id);
    systems::BuiltCase built = systems::BuildCase(failure_case);
    ExplorerOptions options = OptionsForCase(failure_case, 1);
    ASSERT_TRUE(options.crash_stall_candidates);
    ExploreResult result = RunSearch(built, options);
    ASSERT_TRUE(result.reproduced);
    ASSERT_TRUE(result.script.has_value());
    EXPECT_NE(result.script->kind, interp::FaultKind::kException)
        << "reachable only via crash/stall by construction";
    // The search visited crash and hang outcomes on the way.
    EXPECT_GT(result.experiment.crashed_rounds, 0);
    EXPECT_GT(result.experiment.hung_rounds, 0);
    // The emitted script replays deterministically.
    EXPECT_TRUE(Explorer::Replay(built.spec, *result.script));
  }
}

TEST(CrashStallScenarioTest, ExceptionOnlySearchCannotReachCrashScenarios) {
  // Without crash_stall_candidates the candidate space contains no crash or
  // stall instances, so the oracle can never be satisfied.
  for (const systems::FailureCase& failure_case : systems::CrashStallCases()) {
    SCOPED_TRACE(failure_case.id);
    systems::BuiltCase built = systems::BuildCase(failure_case);
    ExplorerOptions options;
    options.num_threads = 1;
    options.crash_stall_candidates = false;
    options.max_rounds = 150;  // bounded: this search is expected to fail
    ExploreResult result = RunSearch(built, options);
    EXPECT_FALSE(result.reproduced);
  }
}

}  // namespace
}  // namespace anduril::explorer
