// The Explorer: ANDURIL's feedback-driven search driver (§3, §5).
//
// Round loop: ask the strategy for a candidate window, execute the workload
// with the window armed, evaluate the oracle, and feed the outcome (injected
// instance + missing observables) back to the strategy. A successful round
// yields a reproduction script that deterministically re-triggers the
// failure.

#ifndef ANDURIL_SRC_EXPLORER_EXPLORER_H_
#define ANDURIL_SRC_EXPLORER_EXPLORER_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/explorer/checkpoint.h"
#include "src/explorer/context.h"
#include "src/explorer/experiment.h"
#include "src/explorer/strategy.h"

namespace anduril::explorer {

struct RoundRecord {
  int round = 0;
  int window_size = 0;
  bool injected = false;
  interp::InjectionCandidate candidate;  // valid if injected
  bool success = false;
  double run_seconds = 0;
  double decide_seconds = 0;  // window computation + feedback digestion
  int tracked_rank = -1;      // rank of options.track_site (Fig. 6)
  // How many relevant observables this round's log(s) contained — a proxy
  // for "how close was this run to the production failure" used by the
  // multi-fault search to pick the next chain step.
  int present_observables = -1;
  int64_t injection_requests = 0;
  int64_t decision_nanos = 0;  // runtime hook latency, cumulative
  // How the round's selected run ended, and how many transient retries the
  // round burned before settling on that outcome.
  interp::RunOutcome outcome = interp::RunOutcome::kCompleted;
  int retries = 0;
  // Network-fault candidates armed in this round's window (0 unless
  // ExplorerOptions::network_candidates widened the space).
  int network_candidates_tried = 0;
  // Partition sever/heal transitions of the round's selected run (empty
  // unless a partition fault fired).
  std::vector<interp::PartitionTransition> partition_events;
};

// A deterministic recipe for re-triggering the failure (§3 step 4.a).
struct ReproductionScript {
  ir::FaultSiteId site = ir::kInvalidId;
  int64_t occurrence = 0;
  ir::ExceptionTypeId type = ir::kInvalidId;  // kInvalidId for crash/stall
  interp::FaultKind kind = interp::FaultKind::kException;
  uint64_t seed = 0;

  std::string ToText(const ir::Program& program) const;
};

struct ExploreResult {
  bool reproduced = false;
  // The search stopped at a round boundary because ExplorerOptions::cancel
  // flipped (SIGTERM/SIGINT drain): not reproduced, not exhausted — resume
  // from the checkpoint continues exactly where it stopped.
  bool interrupted = false;
  int rounds = 0;  // rounds executed (== index of the successful round)
  double total_seconds = 0;
  double init_seconds = 0;
  std::optional<ReproductionScript> script;
  std::vector<RoundRecord> records;
  // Outcome taxonomy / retry / wall-clock accounting across the search. On a
  // resumed search this includes the rounds executed before the checkpoint.
  ExperimentRecord experiment;

  // Aggregates for the performance tables.
  int64_t median_injection_requests = 0;
  double mean_decision_nanos = 0;
  double median_round_init_seconds = 0;
  double median_workload_seconds = 0;

  // Final snapshot of ExplorerOptions::metrics at the end of the search
  // (empty when no registry was attached). Deterministic under a fixed seed
  // at any thread count.
  obs::MetricsSnapshot metrics;
};

// Checkpoint/resume wiring for a search. With a non-empty `path` the
// explorer serializes a SearchCheckpoint there after every finished round
// (atomically, via rename). With `resume` set it restores that state before
// the first round and continues from rounds_completed + 1.
struct CheckpointConfig {
  std::string path;
  const SearchCheckpoint* resume = nullptr;
  // Chain mode (ChainExplorer): the chain search state to persist alongside
  // every snapshot. The explorer copies it and appends one ChainRoundCandidate
  // per injected round of the live inner search, and traces its rounds in
  // the region of the chain's live phase. Plain searches leave it null (an
  // empty chain is written, phase 0 is traced) and refuse to resume
  // chain-bearing checkpoints.
  const ChainState* chain = nullptr;
  // With `chain`: the chain search's step cap. A resumed checkpoint must
  // leave at least one phase to run.
  int max_chain_length = 0;
};

class Explorer {
 public:
  Explorer(const ExperimentSpec& spec, const ExplorerOptions& options);

  // Reuses a previously built analysis context (the shared analysis cache):
  // the static causal graph, distance matrix, and timeline are immutable
  // after construction, so phases of an independent multi-fault search — or
  // several explorers across threads — can share one context instead of
  // re-running the whole static analysis. The runs themselves still use `spec` (oracle,
  // pinned faults, base seed), which may differ from the spec the context
  // was built from, as long as it describes the same program and cluster.
  Explorer(const ExperimentSpec& spec, const ExplorerOptions& options,
           std::shared_ptr<const ExplorerContext> context);

  // Runs the search with the given strategy, with checkpointing and/or
  // resume when `checkpoint` asks for them. Checkpointing requires a
  // strategy that implements SaveState (the feedback family does; the list
  // baselines do not).
  ExploreResult Explore(InjectionStrategy* strategy, const CheckpointConfig& checkpoint = {});

  // Every precondition for resuming `snap` with `strategy` under
  // `checkpoint`: the version, program fingerprint, base seed, chain state,
  // pinned faults, network configuration, engine counts, strategy name and
  // chain length must match this search, and the strategy state must
  // restore. Returns "" when they all hold — leaving `strategy` initialized
  // over this context and restored — otherwise the first failing one, naming
  // the field and both values. Explore CHECKs it; a CLI calls it first to
  // report a mismatched file instead of aborting.
  std::string ResumeError(const SearchCheckpoint& snap, InjectionStrategy* strategy,
                          const CheckpointConfig& checkpoint) const;

  const ExplorerContext& context() const { return *context_; }
  // Handle for sharing the analysis with another Explorer.
  std::shared_ptr<const ExplorerContext> shared_context() const { return context_; }

  // Replays a reproduction script; returns true if the oracle holds (used by
  // tests to verify determinism of the emitted script). Honors the spec's
  // pinned faults.
  static bool Replay(const ExperimentSpec& spec, const ReproductionScript& script);

 private:
  const ExperimentSpec* spec_;
  ExplorerOptions options_;
  std::shared_ptr<const ExplorerContext> context_;
};

}  // namespace anduril::explorer

#endif  // ANDURIL_SRC_EXPLORER_EXPLORER_H_
