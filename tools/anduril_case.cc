// anduril_case — command-line driver for the failure-case registry.
//
//   anduril_case list
//       All 22 cases with system and title.
//   anduril_case info <case>
//       Context details: observables, causal graph size, candidates.
//   anduril_case run <case> [strategy] [max_rounds] [--checkpoint=<path>] [--resume]
//                    [--trace-out=<path>] [--metrics-out=<path>]
//       Explore with a strategy (default "full") and print the per-round
//       trace plus the reproduction script. --checkpoint serializes the
//       search state to <path> after every round; --resume restores it from
//       there first (and continues from the next round). --trace-out writes
//       the structured search trace: Chrome trace_event JSON (load it in
//       chrome://tracing or Perfetto), or compact JSONL when the path ends
//       in ".jsonl". --metrics-out writes the metrics registry (counters,
//       gauges, histograms) as JSON.
//   anduril_case chain <case> [max_chain_length] [max_rounds]
//                      [--checkpoint=<path>] [--resume] [--signature-out=<path>]
//       Ordered-fault-chain search (ChainExplorer): per-phase context rebuild
//       with the accepted prefix pinned, causal stitching between phases.
//       --signature-out writes the minimized fault signature of a successful
//       reproduction; --checkpoint/--resume use the v3 chain checkpoint.
//   anduril_case replay <case> <occurrence> <seed>
//       Inject the case's ground-truth site at a chosen occurrence/seed and
//       dump the resulting log — the tool for studying a scenario's timing
//       window.
//   anduril_case replay <case> --signature=<path>
//       Re-execute a fault signature deterministically: one run, zero search
//       rounds. Exits nonzero when the oracle (or an oracle key) fails to
//       fire — the CI guard for committed signatures.
//   anduril_case graph <case> [max_nodes] [--graph-out=<path>]
//       Emit the causal graph in Graphviz DOT — to stdout, or to the
//       --graph-out path (the same flag anduril_lint accepts).
//
// Exit codes for run/chain: 0 reproduced, 1 capped out (or setup error),
// 2 usage, 3 interrupted. SIGTERM/SIGINT drain cooperatively: the search
// stops at the next round boundary, after the active checkpoint (if any)
// was flushed, so `--resume` continues exactly where the signal landed.

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/graph_export.h"
#include "src/explorer/explorer.h"
#include "src/explorer/iterative.h"
#include "src/explorer/signature.h"
#include "src/interp/log_entry.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/systems/common.h"
#include "src/systems/harness.h"
#include "src/util/strings.h"

namespace anduril {
namespace {

std::atomic<bool> g_cancel{false};

void HandleDrainSignal(int /*signum*/) { g_cancel.store(true, std::memory_order_relaxed); }

// SIGTERM/SIGINT request a drain instead of killing the process: the search
// finishes (and checkpoints) the in-flight round, then returns with
// `interrupted` set and the tool exits 3.
void InstallDrainHandlers() {
  std::signal(SIGTERM, HandleDrainSignal);
  std::signal(SIGINT, HandleDrainSignal);
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: anduril_case list\n"
      "       anduril_case info <case>\n"
      "       anduril_case run <case> [strategy] [max_rounds] [--checkpoint=<path>] "
      "[--resume]\n"
      "                    [--trace-out=<path>] [--metrics-out=<path>]\n"
      "           --trace-out:   write the search trace; Chrome trace_event JSON\n"
      "                          (chrome://tracing / Perfetto), or JSONL if <path>\n"
      "                          ends in \".jsonl\"\n"
      "           --metrics-out: write the metrics registry (counters, gauges,\n"
      "                          histograms) as JSON\n"
      "       anduril_case chain <case> [max_chain_length] [max_rounds] "
      "[--checkpoint=<path>]\n"
      "                    [--resume] [--signature-out=<path>]\n"
      "           chain search for cascading failures; --signature-out writes the\n"
      "           minimized fault signature of a successful reproduction\n"
      "       anduril_case replay <case> <occurrence> <seed>\n"
      "       anduril_case replay <case> --signature=<path>\n"
      "       anduril_case graph <case> [max_nodes] [--graph-out=<path>]\n");
  return 2;
}

int List() {
  for (const systems::FailureCase& failure_case : systems::AllCases()) {
    std::printf("%-10s %-5s %-10s %s\n", failure_case.id.c_str(),
                failure_case.paper_id.c_str(), failure_case.system.c_str(),
                failure_case.title.c_str());
  }
  for (const std::vector<systems::FailureCase>* registry :
       {&systems::CrashStallCases(), &systems::NetworkCases()}) {
    for (const systems::FailureCase& failure_case : *registry) {
      std::printf("%-10s %-5s %-10s %s [%s]\n", failure_case.id.c_str(),
                  failure_case.paper_id.c_str(), failure_case.system.c_str(),
                  failure_case.title.c_str(), interp::FaultKindName(failure_case.root_kind));
    }
  }
  for (const systems::FailureCase& failure_case : systems::CascadeCases()) {
    std::printf("%-10s %-5s %-10s %s [chain:%zu]\n", failure_case.id.c_str(),
                failure_case.paper_id.c_str(), failure_case.system.c_str(),
                failure_case.title.c_str(), failure_case.root_chain.size());
  }
  return 0;
}

const systems::FailureCase* Lookup(const std::string& id) {
  const systems::FailureCase* failure_case = systems::FindCase(id);
  if (failure_case == nullptr) {
    std::fprintf(stderr, "unknown case '%s' (try: anduril_case list)\n", id.c_str());
  }
  return failure_case;
}

int Info(const std::string& id) {
  const systems::FailureCase* failure_case = Lookup(id);
  if (failure_case == nullptr) {
    return 1;
  }
  systems::BuiltCase built = systems::BuildCase(*failure_case);
  explorer::Explorer ex(built.spec, explorer::ExplorerOptions{});
  const explorer::ExplorerContext& context = ex.context();
  std::printf("%s (%s): %s\n", failure_case->id.c_str(), failure_case->paper_id.c_str(),
              failure_case->title.c_str());
  std::printf("program: %zu methods, %zu stmts, %zu fault sites (%zu injectable)\n",
              built.program->method_count(), built.program->TotalStmtCount(),
              built.program->fault_sites().size(),
              context.all_injectable_sites().size());
  std::printf("failure log: %zu lines; normal log: %zu lines\n",
              context.failure_log().lines.size(), context.normal_log().lines.size());
  std::printf("causal graph: %zu nodes, %lld edges, %zu candidates\n",
              context.graph().node_count(),
              static_cast<long long>(context.graph().stats().edges),
              context.candidates().size());
  std::printf("ground truth: %s, %s at occurrence %lld\n",
              built.program->fault_site(built.ground_truth.site).name.c_str(),
              built.ground_truth.kind == interp::FaultKind::kException
                  ? built.program->exception_type(built.ground_truth.type).name.c_str()
                  : interp::FaultKindName(built.ground_truth.kind),
              static_cast<long long>(built.ground_truth.occurrence));
  std::printf("relevant observables (%zu):\n", context.observables().size());
  for (size_t k = 0; k < context.observables().size(); ++k) {
    const explorer::ObservableInfo& observable = context.observables()[k];
    std::printf("  [%zu] %s  positions=%zu", k, observable.key.substr(0, 90).c_str(),
                observable.failure_positions.size());
    if (!observable.failure_positions.empty()) {
      std::printf(" [%lld..%lld]",
                  static_cast<long long>(observable.failure_positions.front()),
                  static_cast<long long>(observable.failure_positions.back()));
    }
    std::printf("\n");
  }
  return 0;
}

bool WriteTextFile(const std::string& path, const std::string& text, const char* what) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << text;
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s to %s\n", what, path.c_str());
    return false;
  }
  return true;
}

int RunCase(const std::string& id, const std::string& strategy_name, int max_rounds,
            const std::string& checkpoint_path, bool resume, const std::string& trace_path,
            const std::string& metrics_path) {
  const systems::FailureCase* failure_case = Lookup(id);
  if (failure_case == nullptr) {
    return 1;
  }
  systems::BuiltCase built = systems::BuildCase(*failure_case);
  explorer::ExplorerOptions options = systems::OptionsForCase(*failure_case);
  options.max_rounds = max_rounds;
  options.track_site = built.ground_truth.site;
  options.cancel = &g_cancel;
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  if (!trace_path.empty()) {
    options.tracer = &tracer;
  }
  if (!metrics_path.empty()) {
    options.metrics = &metrics;
  }
  explorer::Explorer ex(built.spec, options);
  auto strategy = explorer::MakeStrategy(strategy_name);

  explorer::CheckpointConfig checkpoint;
  checkpoint.path = checkpoint_path;
  explorer::SearchCheckpoint resumed;
  if (resume) {
    if (checkpoint_path.empty()) {
      std::fprintf(stderr, "--resume requires --checkpoint=<path>\n");
      return 2;
    }
    std::string error;
    if (!explorer::LoadCheckpointFile(checkpoint_path, &resumed, &error)) {
      std::fprintf(stderr, "cannot resume: %s\n", error.c_str());
      return 1;
    }
    checkpoint.resume = &resumed;
    error = ex.ResumeError(resumed, strategy.get(), checkpoint);
    if (!error.empty()) {
      std::fprintf(stderr, "cannot resume: %s\n", error.c_str());
      return 1;
    }
    std::printf("resuming from round %d (%s)\n", resumed.rounds_completed + 1,
                checkpoint_path.c_str());
  }

  explorer::ExploreResult result = ex.Explore(strategy.get(), checkpoint);
  if (!trace_path.empty()) {
    const bool jsonl = trace_path.size() >= 6 &&
                       trace_path.compare(trace_path.size() - 6, 6, ".jsonl") == 0;
    const std::string text = jsonl ? tracer.DumpJsonl(/*include_wall=*/true)
                                   : tracer.DumpChromeTrace(/*include_wall=*/true);
    if (!WriteTextFile(trace_path, text, "trace")) {
      return 1;
    }
    std::printf("trace: %zu events -> %s (%s)\n", tracer.event_count(), trace_path.c_str(),
                jsonl ? "jsonl" : "chrome trace_event");
  }
  if (!metrics_path.empty()) {
    if (!WriteTextFile(metrics_path, metrics.DumpJson(), "metrics")) {
      return 1;
    }
    std::printf("metrics: -> %s\n", metrics_path.c_str());
  }
  for (const explorer::RoundRecord& record : result.records) {
    std::printf(
        "round %4d  window=%-4d injected=%d rank=%-4d present=%d net=%-3d outcome=%s%s%s%s\n",
        record.round, record.window_size, record.injected ? 1 : 0, record.tracked_rank,
        record.present_observables, record.network_candidates_tried,
        interp::RunOutcomeName(record.outcome),
        record.injected
            ? anduril::StrFormat("  %s@%lld",
                                 built.program->fault_site(record.candidate.site).name.c_str(),
                                 static_cast<long long>(record.candidate.occurrence))
                  .c_str()
            : "",
        record.retries > 0 ? "  (retried)" : "", record.success ? "  <- reproduced" : "");
    for (const interp::PartitionTransition& transition : record.partition_events) {
      std::printf("            partition %s %s<->%s at t=%lldms\n",
                  transition.sever ? "severed" : "healed", transition.node_a.c_str(),
                  transition.node_b.c_str(), static_cast<long long>(transition.time_ms));
    }
  }
  const explorer::ExperimentRecord& experiment = result.experiment;
  std::printf(
      "outcomes: %d completed, %d crashed, %d hung, %d partitioned-stuck, %d "
      "budget-exceeded; %d transient retries\n",
      experiment.completed_rounds, experiment.crashed_rounds, experiment.hung_rounds,
      experiment.partitioned_stuck_rounds, experiment.budget_exceeded_rounds,
      experiment.transient_retries);
  if (result.interrupted) {
    std::printf("interrupted after round %d%s\n", result.rounds,
                checkpoint_path.empty() ? "" : " (checkpoint flushed; rerun with --resume)");
    return 3;
  }
  if (!result.reproduced) {
    std::printf("NOT reproduced within %d rounds\n", max_rounds);
    return 1;
  }
  std::printf("reproduced in %d rounds (%.2fs)\nscript: %s\n", result.rounds,
              result.total_seconds, result.script->ToText(*built.program).c_str());
  return 0;
}

int ChainCase(const std::string& id, int max_chain_length, int max_rounds,
              const std::string& checkpoint_path, bool resume,
              const std::string& signature_out, const std::string& trace_path,
              const std::string& metrics_path) {
  const systems::FailureCase* failure_case = Lookup(id);
  if (failure_case == nullptr) {
    return 1;
  }
  systems::BuiltCase built = systems::BuildCase(*failure_case);
  explorer::ExplorerOptions options = systems::OptionsForCase(*failure_case);
  options.max_rounds = max_rounds;
  options.track_site = built.ground_truth.site;
  options.cancel = &g_cancel;
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  if (!trace_path.empty()) {
    options.tracer = &tracer;
  }
  if (!metrics_path.empty()) {
    options.metrics = &metrics;
  }

  explorer::ChainExplorer ex(built.spec, options);
  explorer::CheckpointConfig checkpoint;
  checkpoint.path = checkpoint_path;
  explorer::SearchCheckpoint resumed;
  if (resume) {
    if (checkpoint_path.empty()) {
      std::fprintf(stderr, "--resume requires --checkpoint=<path>\n");
      return 2;
    }
    std::string error;
    if (!explorer::LoadCheckpointFile(checkpoint_path, &resumed, &error)) {
      std::fprintf(stderr, "cannot resume: %s\n", error.c_str());
      return 1;
    }
    checkpoint.resume = &resumed;
    error = ex.ResumeError(resumed, max_chain_length);
    if (!error.empty()) {
      std::fprintf(stderr, "cannot resume: %s\n", error.c_str());
      return 1;
    }
    std::printf("resuming chain search: phase %d, %d steps accepted, round %d (%s)\n",
                resumed.chain.phase, static_cast<int>(resumed.chain.steps.size()),
                resumed.rounds_completed + 1, checkpoint_path.c_str());
  }

  explorer::ChainResult result = ex.Explore(max_chain_length, checkpoint);
  if (!trace_path.empty()) {
    const bool jsonl = trace_path.size() >= 6 &&
                       trace_path.compare(trace_path.size() - 6, 6, ".jsonl") == 0;
    const std::string text = jsonl ? tracer.DumpJsonl(/*include_wall=*/true)
                                   : tracer.DumpChromeTrace(/*include_wall=*/true);
    if (!WriteTextFile(trace_path, text, "trace")) {
      return 1;
    }
    std::printf("trace: %zu events -> %s (%s)\n", tracer.event_count(), trace_path.c_str(),
                jsonl ? "jsonl" : "chrome trace_event");
  }
  if (!metrics_path.empty()) {
    if (!WriteTextFile(metrics_path, metrics.DumpJson(), "metrics")) {
      return 1;
    }
    std::printf("metrics: -> %s\n", metrics_path.c_str());
  }
  std::printf("phases: %d, total rounds: %d, demoted chain candidates: %d\n", result.phases,
              result.total_rounds, result.demoted_chain_candidates);
  for (size_t i = 0; i < result.chain.steps.size(); ++i) {
    const explorer::FaultChainStep& step = result.chain.steps[i];
    const char* what = step.candidate.kind == interp::FaultKind::kException
                           ? built.program->exception_type(step.candidate.type).name.c_str()
                           : interp::FaultKindName(step.candidate.kind);
    std::printf("  step %zu: %s, %s at occurrence %lld (seed %llu, %d rounds",
                i + 1, built.program->fault_site(step.candidate.site).name.c_str(), what,
                static_cast<long long>(step.candidate.occurrence),
                static_cast<unsigned long long>(step.seed), step.rounds);
    if (!step.stitched_observables.empty()) {
      std::printf(", flipped %zu observables", step.stitched_observables.size());
    }
    std::printf(")\n");
  }
  if (result.interrupted) {
    std::printf("interrupted after %d rounds%s\n", result.total_rounds,
                checkpoint_path.empty() ? "" : " (checkpoint flushed; rerun with --resume)");
    return 3;
  }
  if (!result.reproduced) {
    std::printf("NOT reproduced: chain capped at %zu steps within %d rounds/phase\n",
                result.chain.steps.size(), max_rounds);
    return 1;
  }
  std::printf("reproduced: %zu-step chain, %d total rounds\n", result.chain.steps.size(),
              result.total_rounds);
  if (!signature_out.empty()) {
    explorer::FaultSignature signature =
        explorer::BuildSignature(built.spec, failure_case->id, result);
    int replays = 0;
    signature = explorer::MinimizeSignature(built.spec, std::move(signature), &replays);
    if (!explorer::SaveSignatureFile(signature_out, signature)) {
      std::fprintf(stderr, "cannot write signature to %s\n", signature_out.c_str());
      return 1;
    }
    std::printf("signature: %zu steps, %zu tasks, %zu methods (%d minimization replays) -> %s\n",
                signature.steps.size(), signature.retained_tasks.size(),
                signature.ir_methods.size(), replays, signature_out.c_str());
  }
  return 0;
}

int ReplayFromSignature(const std::string& id, const std::string& signature_path) {
  const systems::FailureCase* failure_case = Lookup(id);
  if (failure_case == nullptr) {
    return 1;
  }
  explorer::FaultSignature signature;
  std::string error;
  if (!explorer::LoadSignatureFile(signature_path, &signature, &error)) {
    std::fprintf(stderr, "cannot load signature: %s\n", error.c_str());
    return 1;
  }
  if (signature.case_id != failure_case->id) {
    std::fprintf(stderr, "signature %s was emitted for case %s, not %s\n",
                 signature_path.c_str(), signature.case_id.c_str(), failure_case->id.c_str());
    return 1;
  }
  // verify=false: a signature replay must not depend on re-running the
  // search-side verification sweeps — it is one deterministic run.
  systems::BuiltCase built = systems::BuildCase(*failure_case, /*verify=*/false);
  explorer::SignatureReplay replay = explorer::ReplaySignature(built.spec, signature);
  if (!replay.error.empty()) {
    std::fprintf(stderr, "signature replay failed: %s\n", replay.error.c_str());
    return 1;
  }
  std::printf("signature: %zu steps, %zu tasks, %zu methods, %s\n", signature.steps.size(),
              signature.retained_tasks.size(), signature.ir_methods.size(),
              signature.minimized ? "minimized" : "unminimized");
  std::printf("%s", interp::FormatLogFile(replay.run.log).c_str());
  std::printf("run outcome: %s\n", interp::RunOutcomeName(replay.run.outcome));
  if (!replay.fired) {
    std::printf("signature did NOT fire (oracle or oracle keys missing)\n");
    return 1;
  }
  std::printf("signature fired: oracle and all %zu oracle keys present, zero search rounds\n",
              signature.oracle_keys.size());
  return 0;
}

int Replay(const std::string& id, int64_t occurrence, uint64_t seed) {
  const systems::FailureCase* failure_case = Lookup(id);
  if (failure_case == nullptr) {
    return 1;
  }
  systems::BuiltCase built = systems::BuildCase(*failure_case, /*verify=*/false);
  auto candidate = built.ground_truth;
  candidate.occurrence = occurrence;
  interp::RunResult run =
      systems::RunOnce(*built.program, built.failure_cluster, seed, {candidate});
  std::printf("injected=%d oracle=%d\n%s", run.injected.has_value() ? 1 : 0,
              failure_case->oracle(*built.program, run) ? 1 : 0,
              interp::FormatLogFile(run.log).c_str());
  for (const interp::ThreadSummary& thread : run.threads) {
    if (thread.state != interp::ThreadEndState::kFinished) {
      const char* state = thread.state == interp::ThreadEndState::kBlocked  ? "BLOCKED"
                          : thread.state == interp::ThreadEndState::kCrashed ? "CRASHED"
                                                                              : "DEAD";
      std::printf("thread %s/%s ended %s\n", thread.node.c_str(), thread.name.c_str(), state);
    }
  }
  std::printf("run outcome: %s\n", interp::RunOutcomeName(run.outcome));
  const interp::NetworkStats& network = run.network;
  std::printf(
      "network: %lld sent, %lld dropped (fault), %lld dropped (partition), %lld dropped "
      "(crashed), %lld delayed, %lld duplicated, %lld severed, %lld healed\n",
      static_cast<long long>(network.messages_sent),
      static_cast<long long>(network.dropped_by_fault),
      static_cast<long long>(network.dropped_by_partition),
      static_cast<long long>(network.dropped_to_crashed),
      static_cast<long long>(network.delayed), static_cast<long long>(network.duplicated),
      static_cast<long long>(network.partitions_severed),
      static_cast<long long>(network.partitions_healed));
  for (const interp::PartitionTransition& transition : run.partition_events) {
    std::printf("partition %s %s<->%s at t=%lldms\n", transition.sever ? "severed" : "healed",
                transition.node_a.c_str(), transition.node_b.c_str(),
                static_cast<long long>(transition.time_ms));
  }
  return 0;
}

int Graph(const std::string& id, size_t max_nodes, const std::string& graph_out) {
  const systems::FailureCase* failure_case = Lookup(id);
  if (failure_case == nullptr) {
    return 1;
  }
  systems::BuiltCase built = systems::BuildCase(*failure_case);
  explorer::Explorer ex(built.spec, explorer::ExplorerOptions{});
  std::string dot = analysis::ExportDot(*built.program, ex.context().graph(), max_nodes);
  if (graph_out.empty()) {
    std::fputs(dot.c_str(), stdout);
    return 0;
  }
  if (!WriteTextFile(graph_out, dot, "causal graph")) {
    return 1;
  }
  std::printf("causal graph: %zu nodes -> %s\n", ex.context().graph().node_count(),
              graph_out.c_str());
  return 0;
}

int Main(int argc, char** argv) {
  // Split flag arguments (--checkpoint=<path>, --resume) from positionals.
  std::vector<std::string> args;
  std::string checkpoint_path;
  std::string trace_path;
  std::string metrics_path;
  std::string graph_out;
  std::string signature_path;
  std::string signature_out;
  bool resume = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--checkpoint=", 0) == 0) {
      checkpoint_path = arg.substr(std::string("--checkpoint=").size());
    } else if (arg.rfind("--signature=", 0) == 0) {
      signature_path = arg.substr(std::string("--signature=").size());
    } else if (arg.rfind("--signature-out=", 0) == 0) {
      signature_out = arg.substr(std::string("--signature-out=").size());
    } else if (arg.rfind("--graph-out=", 0) == 0) {
      graph_out = arg.substr(std::string("--graph-out=").size());
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_path = arg.substr(std::string("--trace-out=").size());
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      metrics_path = arg.substr(std::string("--metrics-out=").size());
    } else if (arg == "--resume") {
      resume = true;
    } else {
      args.push_back(std::move(arg));
    }
  }
  if (args.empty()) {
    return Usage();
  }
  const std::string& command = args[0];
  if (command == "list") {
    return List();
  }
  if (args.size() < 2) {
    return Usage();
  }
  const std::string& id = args[1];
  if (command == "info") {
    return Info(id);
  }
  if (command == "run") {
    InstallDrainHandlers();
    return RunCase(id, args.size() > 2 ? args[2] : "full",
                   args.size() > 3 ? std::atoi(args[3].c_str()) : 1500, checkpoint_path,
                   resume, trace_path, metrics_path);
  }
  if (command == "chain") {
    InstallDrainHandlers();
    return ChainCase(id, args.size() > 2 ? std::atoi(args[2].c_str()) : 4,
                     args.size() > 3 ? std::atoi(args[3].c_str()) : 1500, checkpoint_path,
                     resume, signature_out, trace_path, metrics_path);
  }
  if (command == "replay" && !signature_path.empty()) {
    return ReplayFromSignature(id, signature_path);
  }
  if (command == "replay" && args.size() >= 4) {
    return Replay(id, std::atoll(args[2].c_str()),
                  std::strtoull(args[3].c_str(), nullptr, 10));
  }
  if (command == "graph") {
    return Graph(id, args.size() > 2 ? static_cast<size_t>(std::atoll(args[2].c_str())) : 0,
                 graph_out);
  }
  return Usage();
}

}  // namespace
}  // namespace anduril

int main(int argc, char** argv) { return anduril::Main(argc, argv); }
