// Table 8 — cascading fault chains: rounds-to-reproduce of the ordered
// chain search against the single-fault and independent-iterative modes on
// every CascadeCases() scenario, plus the cost of replaying the emitted
// fault signature against re-running the full search. Emits BENCH_chain.json.
//
// Part 1 is the separation claim: the doomed searches (single fault,
// independent multi-fault) are capped at kDoomedRounds and MUST fail — a
// cascade that reproduces without ordered stitching fails the bench loudly —
// while the chain search must reproduce within the same per-phase budget.
//
// Part 2 measures what the signature buys: wall clock of one zero-search
// replay of the minimized signature vs the full chain search that found it,
// and the size of the minimized artifact (steps / tasks / IR methods).

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/explorer/iterative.h"
#include "src/explorer/signature.h"
#include "src/util/check.h"
#include "src/util/stopwatch.h"

namespace anduril::bench {
namespace {

// Budget for the searches that are expected to cap out; the chain search
// runs with the same value as its per-phase cap.
constexpr int kDoomedRounds = 150;

struct ChainMeasurement {
  std::string case_id;
  int single_rounds = 0;       // capped single-fault search
  int iterative_rounds = 0;    // capped independent multi-fault search
  int chain_rounds = 0;        // total rounds across chain phases
  int chain_steps = 0;
  int chain_phases = 0;
  double search_seconds = 0;   // chain search wall clock
  double replay_seconds = 0;   // one signature replay, zero search rounds
  int minimize_replays = 0;    // verification runs the minimizer consumed
  size_t signature_steps = 0;
  size_t signature_tasks = 0;
  size_t signature_methods = 0;
};

ChainMeasurement Measure(const systems::FailureCase& failure_case) {
  ChainMeasurement m;
  m.case_id = failure_case.id;
  systems::BuiltCase built = systems::BuildCase(failure_case);
  explorer::ExplorerOptions options;
  options.max_rounds = kDoomedRounds;
  options.crash_stall_candidates = systems::NeedsCrashStallCandidates(failure_case);
  options.network_candidates = systems::NeedsNetworkCandidates(failure_case);

  // Doomed search 1: one fault per run, capped.
  {
    explorer::Explorer ex(built.spec, options);
    auto strategy = explorer::MakeFullFeedbackStrategy();
    explorer::ExploreResult single = ex.Explore(strategy.get());
    ANDURIL_CHECK(!single.reproduced)
        << failure_case.id << " reproduced by a single fault: not a cascade";
    m.single_rounds = single.rounds;
  }
  // Doomed search 2: independent multi-fault (shared analysis cache), capped.
  {
    explorer::ChainExplorer iterative(built.spec, options,
                                      explorer::ChainExplorer::Policy::kIndependent);
    explorer::ChainResult independent = iterative.Explore(/*max_chain_length=*/3);
    ANDURIL_CHECK(!independent.reproduced)
        << failure_case.id << " reproduced by independent faults: not chain-only";
    m.iterative_rounds = independent.total_rounds;
  }
  // The chain search, same per-phase budget.
  Stopwatch search_timer;
  explorer::ChainExplorer chain_explorer(built.spec, options);
  explorer::ChainResult chain = chain_explorer.Explore(/*max_chain_length=*/3);
  m.search_seconds = search_timer.ElapsedSeconds();
  ANDURIL_CHECK(chain.reproduced) << failure_case.id << " chain search capped out";
  m.chain_rounds = chain.total_rounds;
  m.chain_steps = static_cast<int>(chain.chain.steps.size());
  m.chain_phases = chain.phases;

  // Signature: build, minimize, then time one deterministic replay.
  explorer::FaultSignature signature =
      explorer::BuildSignature(built.spec, failure_case.id, chain);
  signature = explorer::MinimizeSignature(built.spec, signature, &m.minimize_replays);
  m.signature_steps = signature.steps.size();
  m.signature_tasks = signature.retained_tasks.size();
  m.signature_methods = signature.ir_methods.size();
  Stopwatch replay_timer;
  explorer::SignatureReplay replay = explorer::ReplaySignature(built.spec, signature);
  m.replay_seconds = replay_timer.ElapsedSeconds();
  ANDURIL_CHECK(replay.error.empty()) << replay.error;
  ANDURIL_CHECK(replay.fired) << failure_case.id << " minimized signature did not fire";
  return m;
}

int Main() {
  std::printf("Table 8: cascading fault chains — chain search vs capped baselines\n");
  std::printf("(single / iterative capped at %d rounds; both must fail)\n\n", kDoomedRounds);
  const std::vector<int> widths = {14, 10, 11, 9, 7, 9, 12, 12};
  PrintRow({"case", "single", "iterative", "chain", "steps", "search", "sig-replay",
            "sig-size"},
           widths);

  std::vector<ChainMeasurement> measurements;
  for (const systems::FailureCase& failure_case : systems::CascadeCases()) {
    ChainMeasurement m = Measure(failure_case);
    char search[32], replay[32], size[32];
    std::snprintf(search, sizeof(search), "%.2fs", m.search_seconds);
    std::snprintf(replay, sizeof(replay), "%.4fs", m.replay_seconds);
    std::snprintf(size, sizeof(size), "%zu/%zu/%zu", m.signature_steps, m.signature_tasks,
                  m.signature_methods);
    PrintRow({m.case_id, std::to_string(m.single_rounds) + "*",
              std::to_string(m.iterative_rounds) + "*", std::to_string(m.chain_rounds),
              std::to_string(m.chain_steps), search, replay, size},
             widths);
    measurements.push_back(m);
  }
  std::printf("\n* capped search, not reproduced. sig-size = steps/tasks/methods.\n");

  FILE* json = std::fopen("BENCH_chain.json", "w");
  ANDURIL_CHECK(json != nullptr);
  std::fprintf(json, "{\n  \"doomed_round_cap\": %d,\n  \"runs\": [\n", kDoomedRounds);
  for (size_t i = 0; i < measurements.size(); ++i) {
    const ChainMeasurement& m = measurements[i];
    std::fprintf(json,
                 "    {\"case\": \"%s\", \"single_rounds\": %d, "
                 "\"single_reproduced\": false, \"iterative_rounds\": %d, "
                 "\"iterative_reproduced\": false, \"chain_rounds\": %d, "
                 "\"chain_reproduced\": true, \"chain_steps\": %d, "
                 "\"chain_phases\": %d, \"search_seconds\": %.6f, "
                 "\"signature_replay_seconds\": %.6f, \"minimize_replays\": %d, "
                 "\"signature_steps\": %zu, \"signature_tasks\": %zu, "
                 "\"signature_methods\": %zu}%s\n",
                 m.case_id.c_str(), m.single_rounds, m.iterative_rounds, m.chain_rounds,
                 m.chain_steps, m.chain_phases, m.search_seconds, m.replay_seconds,
                 m.minimize_replays, m.signature_steps, m.signature_tasks,
                 m.signature_methods, i + 1 < measurements.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("\nWrote BENCH_chain.json\n");
  return 0;
}

}  // namespace
}  // namespace anduril::bench

int main() { return anduril::bench::Main(); }
