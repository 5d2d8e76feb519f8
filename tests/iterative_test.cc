// Tests for the extension features: pinned faults (multi-fault workloads),
// the independent multi-fault search (§3/§6), combined runs per round (§6),
// and the §5.2.3/§5.2.4 design-alternative strategies.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "src/explorer/checkpoint.h"
#include "src/explorer/iterative.h"
#include "src/interp/log_entry.h"
#include "src/interp/simulator.h"
#include "src/ir/builder.h"
#include "tests/golden_digests.h"

namespace anduril::explorer {
namespace {

using ir::Expr;
using ir::LogLevel;
using ir::MethodBuilder;
using ir::Program;

// Replicated pair: the symptom needs BOTH a disk fault on the primary copy
// and a network fault on the mirror copy.
class MultiFaultTest : public ::testing::Test {
 protected:
  void Build() {
    program_.DefineException("IOException");
    program_.DefineException("SocketException", "IOException");
    {
      MethodBuilder b(&program_, "pair.store");
      b.TryCatch(
          [&] {
            b.External("pair.disk", {"IOException"});
            b.Assign("stored", b.Plus("stored", 1));
          },
          {{"IOException",
            [&] {
              b.LogExc(LogLevel::kWarn, "pair", "primary copy lost");
              b.Assign("diskMisses", b.Plus("diskMisses", 1));
            }}});
      b.TryCatch(
          [&] {
            b.External("pair.net", {"SocketException"});
            b.Assign("mirrored", b.Plus("mirrored", 1));
          },
          {{"SocketException",
            [&] {
              b.LogExc(LogLevel::kWarn, "pair", "mirror copy lost");
              b.Assign("netMisses", b.Plus("netMisses", 1));
            }}});
      b.If(b.Gt("diskMisses", 0), [&] {
        b.If(b.Gt("netMisses", 0), [&] {
          b.Log(LogLevel::kError, "pair", "both copies lost, data gone");
        });
      });
    }
    {
      MethodBuilder b(&program_, "pair.client");
      b.While(b.Lt("ops", 8), [&] {
        b.Assign("ops", b.Plus("ops", 1));
        b.Send("pair.store", "server", ir::SendOpts{.payload = b.V("ops")});
        b.Sleep(5);
      });
    }
    program_.Finalize();
    cluster_.AddNode("server");
    cluster_.AddNode("client");
    cluster_.AddTask("client", "main", program_.FindMethod("pair.client"));

    disk_ = Site("pair.disk");
    net_ = Site("pair.net");
    io_ = program_.FindException("IOException");
    socket_ = program_.FindException("SocketException");

    // Production incident: both faults.
    interp::FaultRuntime runtime(&program_);
    runtime.SetPinned({interp::InjectionCandidate{disk_, 3, io_}});
    runtime.SetWindow({interp::InjectionCandidate{net_, 5, socket_}});
    interp::Simulator simulator(&program_, &cluster_, 777, &runtime);
    interp::RunResult incident = simulator.Run();
    ASSERT_TRUE(MakeOracle()(program_, incident));

    spec_.program = &program_;
    spec_.cluster = &cluster_;
    spec_.failure_log_text = interp::FormatLogFile(incident.log);
    spec_.oracle = MakeOracle();
  }

  static Oracle MakeOracle() {
    return [](const ir::Program&, const interp::RunResult& run) {
      return run.HasLogContaining(ir::LogLevel::kError, "both copies lost");
    };
  }

  ir::FaultSiteId Site(const std::string& prefix) const {
    for (const ir::FaultSite& site : program_.fault_sites()) {
      if (site.name.find(prefix + "@") == 0) {
        return site.id;
      }
    }
    return ir::kInvalidId;
  }

  Program program_;
  interp::ClusterSpec cluster_;
  ExperimentSpec spec_;
  ir::FaultSiteId disk_ = ir::kInvalidId;
  ir::FaultSiteId net_ = ir::kInvalidId;
  ir::ExceptionTypeId io_ = ir::kInvalidId;
  ir::ExceptionTypeId socket_ = ir::kInvalidId;
};

// --- pinned faults in the runtime ---------------------------------------------------

TEST_F(MultiFaultTest, PinnedFaultsFireEveryRun) {
  Build();
  interp::FaultRuntime runtime(&program_);
  runtime.SetPinned({interp::InjectionCandidate{disk_, 2, io_}});
  interp::Simulator simulator(&program_, &cluster_, 1, &runtime);
  interp::RunResult run = simulator.Run();
  EXPECT_EQ(run.NodeVar(program_, "server", "diskMisses"), 1);
  // Pinned faults do not count as the window injection.
  EXPECT_FALSE(run.injected.has_value());
}

TEST_F(MultiFaultTest, PinnedPlusWindowBothFire) {
  Build();
  interp::FaultRuntime runtime(&program_);
  runtime.SetPinned({interp::InjectionCandidate{disk_, 2, io_}});
  runtime.SetWindow({interp::InjectionCandidate{net_, 4, socket_}});
  interp::Simulator simulator(&program_, &cluster_, 1, &runtime);
  interp::RunResult run = simulator.Run();
  EXPECT_EQ(run.NodeVar(program_, "server", "diskMisses"), 1);
  EXPECT_EQ(run.NodeVar(program_, "server", "netMisses"), 1);
  ASSERT_TRUE(run.injected.has_value());
  EXPECT_EQ(run.injected->site, net_);
}

// --- iterative search ------------------------------------------------------------------

TEST_F(MultiFaultTest, SingleFaultSearchCannotReproduce) {
  Build();
  ExplorerOptions options;
  options.max_rounds = 100;
  Explorer explorer(spec_, options);
  auto strategy = MakeFullFeedbackStrategy();
  EXPECT_FALSE(explorer.Explore(strategy.get()).reproduced);
}

ChainResult IndependentSearch(const ExperimentSpec& spec, const ExplorerOptions& options,
                              int max_faults, const CheckpointConfig& checkpoint = {}) {
  ChainExplorer iterative(spec, options, ChainExplorer::Policy::kIndependent);
  return iterative.Explore(max_faults, checkpoint);
}

TEST_F(MultiFaultTest, IterativeSearchReproducesWithTwoFaults) {
  Build();
  ExplorerOptions options;
  options.max_rounds = 100;
  ChainResult result = IndependentSearch(spec_, options, /*max_faults=*/2);
  ASSERT_TRUE(result.reproduced);
  EXPECT_EQ(result.phases, 2);
  ASSERT_EQ(result.chain.steps.size(), 2u);
  // One fault per site, in either order.
  EXPECT_NE(result.chain.steps[0].candidate.site, result.chain.steps[1].candidate.site);
  EXPECT_TRUE(ChainExplorer::Replay(spec_, result));
}

TEST_F(MultiFaultTest, IterativeWithOneFaultBudgetFails) {
  Build();
  ExplorerOptions options;
  options.max_rounds = 60;
  ChainResult result = IndependentSearch(spec_, options, /*max_faults=*/1);
  EXPECT_FALSE(result.reproduced);
  EXPECT_EQ(result.phases, 1);
}

TEST_F(MultiFaultTest, ReplayRejectsEmptyResult) {
  Build();
  ChainResult empty;
  EXPECT_FALSE(ChainExplorer::Replay(spec_, empty));
}

// The independent policy resumes like the cascade one: killed inside phase 1
// or at the phase boundary (pick not yet made), the resumed search rebuilds
// the shared context over the search's own spec and re-makes the same pick.
TEST_F(MultiFaultTest, IterativeKillResumeIsByteIdentical) {
  Build();
  ExplorerOptions options;
  options.max_rounds = 100;
  ChainResult baseline = IndependentSearch(spec_, options, 2);
  ASSERT_TRUE(baseline.reproduced);
  const int phase1_rounds = baseline.chain.steps.front().rounds;
  ASSERT_GE(phase1_rounds, 2);

  for (int kill_after : {phase1_rounds - 1, phase1_rounds}) {
    SCOPED_TRACE(kill_after);
    const std::string path = ::testing::TempDir() + "/iterative_resume.json";
    ExplorerOptions truncated = options;
    truncated.max_total_rounds = kill_after;
    ChainResult killed =
        IndependentSearch(spec_, truncated, 2, CheckpointConfig{path, nullptr});
    ASSERT_FALSE(killed.reproduced);
    SearchCheckpoint snap;
    std::string error;
    ASSERT_TRUE(LoadCheckpointFile(path, &snap, &error)) << error;
    EXPECT_FALSE(snap.chain.round_candidates.empty());
    ChainResult resumed = IndependentSearch(spec_, options, 2, CheckpointConfig{"", &snap});
    EXPECT_EQ(resumed.chain, baseline.chain);
    EXPECT_EQ(resumed.total_rounds, baseline.total_rounds);
    EXPECT_EQ(resumed.phases, baseline.phases);
    std::remove(path.c_str());
  }
}

// Pins both pair searches above in tests/golden/multifault_digests.txt
// (result fields only, without per-step rounds).
TEST_F(MultiFaultTest, IterativeSearchesMatchGoldenDigests) {
  Build();
  std::vector<std::pair<std::string, uint64_t>> lines;
  for (auto [max_faults, max_rounds] : {std::pair{2, 100}, std::pair{1, 60}}) {
    ExplorerOptions options;
    options.max_rounds = max_rounds;
    lines.emplace_back(
        "independent pair f" + std::to_string(max_faults),
        MultiFaultDigest(IndependentSearch(spec_, options, max_faults),
                         /*with_step_rounds=*/false));
  }
  CheckGoldenDigests("multifault_digests.txt", "iterative_test", lines,
                     "# Multi-fault search digests (FNV-1a over reproduced, phases, total rounds,\n"
                     "# demoted chain candidates and each step's candidate, seed, rounds and stitched\n"
                     "# observables; cascade lines add the metrics and trace dumps). One line per\n"
                     "# <owner test> <search> <digest>; refresh with scripts/update_trace_golden.sh.\n");
}

// --- combined runs per round ------------------------------------------------------------

TEST_F(MultiFaultTest, RunsPerRoundStillReproducesSingleFaultCases) {
  Build();
  // Make a single-fault variant: the oracle only needs the disk-side WARN
  // and an ERROR we synthesize via the pinned incident... simpler: require
  // only the mirror-loss message, reproducible with one injection.
  ExperimentSpec single = spec_;
  single.oracle = [](const ir::Program&, const interp::RunResult& run) {
    return run.HasLogContaining(ir::LogLevel::kWarn, "mirror copy lost");
  };
  // Regenerate the failure log with just the net fault.
  interp::FaultRuntime runtime(&program_);
  runtime.SetWindow({interp::InjectionCandidate{net_, 3, socket_}});
  interp::Simulator simulator(&program_, &cluster_, 99, &runtime);
  interp::RunResult incident = simulator.Run();
  single.failure_log_text = interp::FormatLogFile(incident.log);

  ExplorerOptions options;
  options.max_rounds = 100;
  options.runs_per_round = 3;
  Explorer explorer(single, options);
  auto strategy = MakeFullFeedbackStrategy();
  ExploreResult result = explorer.Explore(strategy.get());
  ASSERT_TRUE(result.reproduced);
  EXPECT_TRUE(Explorer::Replay(single, *result.script));
}

// --- design-alternative strategies --------------------------------------------------------

TEST_F(MultiFaultTest, DesignAlternativeStrategiesAreWellFormed) {
  Build();
  for (const char* name : {"full-sum", "full-order"}) {
    auto strategy = MakeStrategy(name);
    EXPECT_EQ(strategy->name(), name);
    EXPECT_TRUE(strategy->WantsLogFeedback());
  }
}

TEST_F(MultiFaultTest, DesignAlternativesReproduceSimpleCase) {
  Build();
  ExperimentSpec single = spec_;
  single.oracle = [](const ir::Program&, const interp::RunResult& run) {
    return run.HasLogContaining(ir::LogLevel::kWarn, "primary copy lost");
  };
  interp::FaultRuntime runtime(&program_);
  runtime.SetWindow({interp::InjectionCandidate{disk_, 2, io_}});
  interp::Simulator simulator(&program_, &cluster_, 99, &runtime);
  single.failure_log_text = interp::FormatLogFile(simulator.Run().log);

  for (const char* name : {"full-sum", "full-order"}) {
    ExplorerOptions options;
    options.max_rounds = 150;
    Explorer explorer(single, options);
    auto strategy = MakeStrategy(name);
    EXPECT_TRUE(explorer.Explore(strategy.get()).reproduced) << name;
  }
}

}  // namespace
}  // namespace anduril::explorer
