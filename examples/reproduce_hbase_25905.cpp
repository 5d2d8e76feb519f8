// Reproduces the paper's motivating example (§2.1): HBase-25905, where a
// transient HDFS stream fault at exactly the wrong moment wedges the
// AsyncFSWAL consumer so that the log roller blocks forever at
// waitForSafePoint and region flushes time out.
//
// This walks the full ANDURIL workflow on the simulated HBase and narrates
// what the tool sees at each step: relevant observables from the per-thread
// log diff, the causal graph, and the feedback-driven search.

#include <cstdio>

#include "src/explorer/explorer.h"
#include "src/systems/common.h"

using namespace anduril;

int main() {
  const systems::FailureCase* failure_case = systems::FindCase("hb-25905");
  if (failure_case == nullptr) {
    std::printf("case registry is missing hb-25905\n");
    return 1;
  }
  std::printf("Case: %s — %s\n\n", failure_case->id.c_str(), failure_case->title.c_str());

  // BuildCase assembles the system, the workload, and a production failure
  // log (generated from the documented ground truth, exactly like the paper
  // does for tickets without an attached log).
  systems::BuiltCase built = systems::BuildCase(*failure_case);
  std::printf("System: %zu methods, %zu static fault sites, failure log of %zu bytes\n",
              built.program->method_count(), built.program->fault_sites().size(),
              built.failure_log_text.size());

  explorer::ExplorerOptions options;
  options.track_site = built.ground_truth.site;  // only for narration
  explorer::Explorer anduril_explorer(built.spec, options);

  const explorer::ExplorerContext& context = anduril_explorer.context();
  std::printf("\nRelevant observables (%zu) from the per-thread log diff:\n",
              context.observables().size());
  for (const explorer::ObservableInfo& observable : context.observables()) {
    std::printf("  %s\n", observable.key.substr(0, 100).c_str());
  }
  std::printf("\nCausal graph: %zu nodes, %zu injectable candidates\n",
              context.graph().node_count(), context.candidates().size());

  auto strategy = explorer::MakeFullFeedbackStrategy();
  explorer::ExploreResult result = anduril_explorer.Explore(strategy.get());

  std::printf("\nSearch trace (rank of the true root-cause site per trial):\n");
  for (const explorer::RoundRecord& record : result.records) {
    std::printf("  trial %2d: window=%d rank=%d %s\n", record.round, record.window_size,
                record.tracked_rank, record.success ? "<- reproduced!" : "");
  }

  if (!result.reproduced) {
    std::printf("\nNOT reproduced\n");
    return 1;
  }
  std::printf("\nReproduced in %d trials.\n", result.rounds);
  std::printf("Root cause: %s\n", result.script->ToText(*built.program).c_str());
  std::printf("Ground truth was: %s at occurrence %lld\n",
              built.program->fault_site(built.ground_truth.site).name.c_str(),
              static_cast<long long>(built.ground_truth.occurrence));
  const bool deterministic = explorer::Explorer::Replay(built.spec, *result.script);
  std::printf("Deterministic replay: %s\n", deterministic ? "ok" : "FLAKY");
  return deterministic ? 0 : 1;
}
