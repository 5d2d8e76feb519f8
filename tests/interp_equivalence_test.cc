// Golden-digest semantics check for the interpreter. Every registered
// scenario is run on a fixed set of inputs and each run is reduced to one
// FNV-1a digest per field group (outcome and limits, step and event counts,
// log, fault-instance trace, thread end states, node variables, crashed
// nodes, network stats, partition events, injection counters). The digests
// are checked in under tests/golden/interp_digests.txt, so any change in
// observable run semantics fails here with the case, input and field that
// moved.
//
// Inputs per case: the fault-free exploration workload at explore_seed,
// explore_seed + 1 and explore_seed + 17; the ground truth armed on the
// production workload (with a cascade's earlier chain steps pinned); and,
// for cascades, each proper chain prefix pinned alone. Two whole searches
// (zk-2247, hd-net-1) are digested as well.
//
// decision_nanos is the one RunResult field left out: it is host wall-clock.
// The host wall-clock watchdog is disabled for the same reason, so a slow
// (e.g. sanitizer) build cannot cut a run short.
//
// To refresh the digests after an intentional semantic change:
//   scripts/update_trace_golden.sh
// (runs this binary with ANDURIL_UPDATE_GOLDENS=1, which rewrites the file
// in the source tree instead of comparing).

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/explorer/explorer.h"
#include "src/interp/log_entry.h"
#include "src/interp/simulator.h"
#include "src/ir/flatten.h"
#include "src/obs/metrics.h"
#include "src/systems/common.h"
#include "src/util/hash.h"
#include "tests/golden_digests.h"
#include "tests/test_util.h"

namespace anduril {
namespace {

// One golden line: "<case> <input> <field> <digest>".
struct DigestLine {
  std::string case_id;
  std::string input;
  std::string field;
  uint64_t digest = 0;

  std::string Key() const { return case_id + " " + input + " " + field; }
};

using DigestSink = std::vector<DigestLine>;

void MixCandidate(Fnv1aHasher* h, const interp::InjectionCandidate& candidate) {
  h->MixInt(candidate.site);
  h->MixInt(candidate.occurrence);
  h->MixInt(candidate.type);
  h->MixInt(static_cast<int64_t>(candidate.kind));
  h->MixSeparator();
}

// `metrics` holds the run's "sim.*" flush: step and event counts are not in
// the RunResult, but they drive the step limit and every metrics golden.
void DigestRun(const interp::RunResult& run, const obs::MetricsRegistry& metrics,
               const std::string& case_id, const std::string& input, DigestSink* sink) {
  auto add = [&](const char* field, const Fnv1aHasher& h) {
    sink->push_back(DigestLine{case_id, input, field, h.hash()});
  };
  {
    Fnv1aHasher h;
    h.MixInt(static_cast<int64_t>(run.outcome));
    h.MixInt(run.end_time_ms);
    h.MixInt(run.hit_time_limit);
    h.MixInt(run.hit_step_limit);
    h.MixInt(run.hit_wall_budget);
    add("outcome", h);
  }
  {
    Fnv1aHasher h;
    h.MixInt(metrics.histogram("sim.steps").sum);
    h.MixInt(metrics.histogram("sim.events").sum);
    add("steps", h);
  }
  {
    Fnv1aHasher h;
    h.MixStr(interp::FormatLogFile(run.log));
    for (const interp::LogEntry& entry : run.log) {
      h.MixInt(entry.log_clock);
      h.MixInt(entry.tmpl);
      h.MixInt(entry.source.method);
      h.MixInt(entry.source.stmt);
      h.MixInt(entry.uncaught_method);
    }
    add("log", h);
  }
  {
    Fnv1aHasher h;
    for (const interp::FaultInstanceEvent& event : run.trace) {
      h.MixInt(event.site);
      h.MixInt(event.occurrence);
      h.MixInt(event.log_clock);
      h.MixInt(event.time_ms);
      h.MixInt(event.thread_id);
      h.MixSeparator();
    }
    add("trace", h);
  }
  {
    Fnv1aHasher h;
    for (const interp::ThreadSummary& thread : run.threads) {
      h.MixStr(thread.node);
      h.MixStr(thread.name);
      h.MixInt(static_cast<int64_t>(thread.state));
      h.MixInt(thread.blocked_at.method);
      h.MixInt(thread.blocked_at.stmt);
      h.MixInt(thread.current_method);
      h.MixInt(thread.death_exception);
      h.MixSeparator();
    }
    add("threads", h);
  }
  {
    // Unordered maps: digest in (node name, var id) order.
    std::map<std::string, std::map<ir::VarId, int64_t>> ordered;
    for (const auto& [node, vars] : run.node_vars) {
      ordered[node].insert(vars.begin(), vars.end());
    }
    Fnv1aHasher h;
    for (const auto& [node, vars] : ordered) {
      h.MixStr(node);
      for (const auto& [var, value] : vars) {
        h.MixInt(var);
        h.MixInt(value);
      }
      h.MixSeparator();
    }
    add("node_vars", h);
  }
  {
    Fnv1aHasher h;
    for (const std::string& node : run.crashed_nodes) {
      h.MixStr(node);
    }
    add("crashed_nodes", h);
  }
  {
    const interp::NetworkStats& n = run.network;
    Fnv1aHasher h;
    for (int64_t value : {n.messages_sent, n.dropped_by_fault, n.dropped_by_partition,
                          n.dropped_to_crashed, n.delayed, n.duplicated,
                          n.partitions_severed, n.partitions_healed}) {
      h.MixInt(value);
    }
    add("network", h);
  }
  {
    Fnv1aHasher h;
    for (const interp::PartitionTransition& event : run.partition_events) {
      h.MixInt(event.time_ms);
      h.MixStr(event.node_a);
      h.MixStr(event.node_b);
      h.MixInt(event.sever);
    }
    add("partition_events", h);
  }
  {
    Fnv1aHasher h;
    h.MixInt(run.injection_requests);
    h.MixInt(run.pinned_fired);
    h.MixInt(run.injected.has_value());
    if (run.injected.has_value()) {
      MixCandidate(&h, *run.injected);
    }
    for (const interp::InjectionCandidate& candidate : run.preempted_window) {
      MixCandidate(&h, candidate);
    }
    add("injection", h);
  }
}

// One run on the production engine, self-lowered, borrowing the case's
// pooled scratch (so stale state leaking between recycled runs would show up
// as a digest change).
interp::RunResult RunInput(const systems::BuiltCase& built, const interp::ClusterSpec& cluster,
                           uint64_t seed, const std::vector<interp::InjectionCandidate>& window,
                           const std::vector<interp::InjectionCandidate>& pinned,
                           interp::RunScratch* scratch, obs::MetricsRegistry* metrics) {
  interp::FaultRuntime runtime(built.program.get());
  runtime.SetWindow(window);
  runtime.SetPinned(pinned);
  interp::Simulator simulator(built.program.get(), &cluster, seed, &runtime,
                              /*flat=*/nullptr, scratch);
  simulator.set_metrics(metrics);
  return simulator.Run();
}

void DigestCase(const systems::FailureCase& failure_case, DigestSink* sink) {
  systems::BuiltCase built = systems::BuildCase(failure_case, /*verify=*/false);
  built.cluster.wall_budget_ms = 0;
  built.failure_cluster.wall_budget_ms = 0;
  interp::RunScratch scratch;
  auto digest = [&](const std::string& input, const interp::ClusterSpec& cluster,
                    uint64_t seed, const std::vector<interp::InjectionCandidate>& window,
                    const std::vector<interp::InjectionCandidate>& pinned) {
    obs::MetricsRegistry metrics;
    interp::RunResult run = RunInput(built, cluster, seed, window, pinned, &scratch, &metrics);
    DigestRun(run, metrics, failure_case.id, input, sink);
    scratch.Recycle(std::move(run));
  };

  for (uint64_t offset : {0, 1, 17}) {
    uint64_t seed = failure_case.explore_seed + offset;
    digest("fault-free@" + std::to_string(seed), built.cluster, seed, {}, {});
  }
  const std::vector<interp::InjectionCandidate>& chain = built.ground_truth_chain;
  std::vector<interp::InjectionCandidate> earlier_steps;
  if (!chain.empty()) {
    earlier_steps.assign(chain.begin(), chain.end() - 1);
  }
  digest("ground-truth", built.failure_cluster, failure_case.failure_seed,
         {built.ground_truth}, earlier_steps);
  for (size_t k = 1; k < chain.size(); ++k) {
    digest("chain-prefix-" + std::to_string(k), built.failure_cluster,
           failure_case.failure_seed, {},
           std::vector<interp::InjectionCandidate>(chain.begin(), chain.begin() + k));
  }
}

void DigestSearch(const std::string& case_id, DigestSink* sink) {
  const systems::FailureCase* failure_case = systems::FindCase(case_id);
  ASSERT_NE(failure_case, nullptr);
  systems::BuiltCase built = systems::BuildCase(*failure_case, /*verify=*/false);
  built.cluster.wall_budget_ms = 0;
  explorer::ExploreResult result = RunSearch(built, OptionsForCase(*failure_case));

  Fnv1aHasher outcome;
  outcome.MixInt(result.reproduced);
  outcome.MixInt(result.rounds);
  sink->push_back(DigestLine{case_id, "search", "result", outcome.hash()});
  Fnv1aHasher script;
  script.MixInt(result.script.has_value());
  if (result.script.has_value()) {
    script.MixInt(result.script->site);
    script.MixInt(result.script->occurrence);
    script.MixInt(result.script->type);
    script.MixInt(static_cast<int64_t>(result.script->kind));
    script.MixInt(static_cast<int64_t>(result.script->seed));
  }
  sink->push_back(DigestLine{case_id, "search", "script", script.hash()});
}

void CompareOrUpdate(const DigestSink& sink) {
  std::vector<std::pair<std::string, uint64_t>> lines;
  for (const DigestLine& line : sink) {
    lines.emplace_back(line.Key(), line.digest);
  }
  explorer::CheckGoldenDigests(
      "interp_digests.txt", "", lines,
      "# Interpreter RunResult digests (FNV-1a per field group), one line per\n"
      "# <case> <input> <field> <digest>. Written by interp_equivalence_test;\n"
      "# refresh with scripts/update_trace_golden.sh.\n");
}

TEST(InterpEquivalence, RunResultsMatchGoldenDigests) {
  DigestSink sink;
  int cases = 0;
  for (const auto* registry :
       {&systems::AllCases(), &systems::CrashStallCases(), &systems::NetworkCases(),
        &systems::CascadeCases(), &systems::StormCases()}) {
    for (const systems::FailureCase& failure_case : *registry) {
      DigestCase(failure_case, &sink);
      ++cases;
    }
  }
  DigestSearch("zk-2247", &sink);
  DigestSearch("hd-net-1", &sink);
  // 33 cases x 4 inputs, plus one chain prefix per two-step cascade, at 10
  // field groups each; plus 2 searches x 2 groups.
  EXPECT_EQ(cases, 33);
  EXPECT_EQ(sink.size(), 135u * 10 + 4);
  CompareOrUpdate(sink);
}

// The shared, context-cached FlatProgram must behave exactly like a
// per-simulator self-lowered one.
TEST(InterpEquivalence, SharedFlatProgramMatchesSelfLowered) {
  const systems::FailureCase* failure_case = systems::FindCase("zk-2247");
  ASSERT_NE(failure_case, nullptr);
  systems::BuiltCase built = systems::BuildCase(*failure_case, /*verify=*/false);
  ir::FlatProgram flat(*built.program);

  interp::FaultRuntime shared_runtime(built.program.get());
  interp::Simulator shared_sim(built.program.get(), &built.cluster,
                               failure_case->explore_seed, &shared_runtime, &flat);
  obs::MetricsRegistry shared_metrics;
  shared_sim.set_metrics(&shared_metrics);
  interp::RunScratch scratch;
  obs::MetricsRegistry self_metrics;
  DigestSink shared;
  DigestSink self_lowered;
  DigestRun(shared_sim.Run(), shared_metrics, "zk-2247", "shared", &shared);
  DigestRun(RunInput(built, built.cluster, failure_case->explore_seed, {}, {}, &scratch,
                     &self_metrics),
            self_metrics, "zk-2247", "shared", &self_lowered);
  ASSERT_EQ(shared.size(), self_lowered.size());
  for (size_t i = 0; i < shared.size(); ++i) {
    EXPECT_EQ(shared[i].digest, self_lowered[i].digest)
        << "field " << shared[i].field;
  }
}

}  // namespace
}  // namespace anduril
