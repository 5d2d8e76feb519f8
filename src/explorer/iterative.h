// Multi-fault reproduction (paper §3 "Assumptions" / §6), and its cascading
// generalization: ordered fault chains with causal stitching. One driver,
// ChainExplorer, runs both as phases of the same loop.
//
// ANDURIL injects a single fault per run, so a failure that needs several
// root-cause faults cannot be reproduced in one search. The paper's
// prescribed workflow: run ANDURIL; if the symptom is not reproduced, take
// the round whose logs came *closest* to the production failure log, fix
// that round's fault into the workload, and run ANDURIL again — one fault at
// a time. Each phase of ChainExplorer is one such search; between phases the
// most promising injected candidate (most relevant observables present,
// earliest round) becomes the next pinned chain step. The phase policy,
// fixed at construction, decides how a phase is set up and what it takes to
// accept a step:
//
// - Policy::kIndependent (the paper's workflow): all phases share one
//   immutable ExplorerContext, built in phase 0 — the causal graph, distance
//   matrix and timeline are computed once and reused. The first candidate
//   in the pick order is pinned as is; the feedback loop absorbs its
//   now-expected observables by deprioritizing them.
//
// - Policy::kCascade (the default; CSnake-style): that sharing is exactly
//   what blinds the independent policy to *cascading* failures. The
//   context's instance estimates come from the fault-free baseline run, so a
//   fault site that only executes while an earlier fault is active has zero
//   instances and is never armed. The cascade policy rebuilds the context at
//   every phase with the accepted prefix pinned into the baseline: the
//   degraded baseline (a) gives instances to the sites the previous fault
//   newly exposed and (b) shrinks the observable set to the still-missing
//   symptoms. Before accepting a candidate it runs a *stitch run* (prefix +
//   candidate pinned, no window) and accepts only if the run genuinely moved
//   the system: it flipped relevant observables or executed fault sites the
//   phase baseline never reached. Those newly-executed sites are the causal
//   stitches — they seed the next phase's candidate ranking via
//   InjectionStrategy::SeedStitchedSites.

#ifndef ANDURIL_SRC_EXPLORER_ITERATIVE_H_
#define ANDURIL_SRC_EXPLORER_ITERATIVE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/explorer/explorer.h"
#include "src/interp/run_result.h"

namespace anduril::explorer {

// An ordered sequence of faults that together reproduce the failure. In a
// cascade order matters: step N's candidate typically has no dynamic
// instance until steps 1..N-1 fired.
struct FaultChain {
  std::vector<FaultChainStep> steps;
  // One "step N: <site>, <exception type or fault kind> at occurrence <n>
  // (seed <s>)" line per step: the chain's reproduction script.
  std::string ToText(const ir::Program& program) const;
  friend bool operator==(const FaultChain&, const FaultChain&) = default;
};

struct ChainResult {
  bool reproduced = false;
  // ExplorerOptions::cancel flipped mid-search: the chain search stopped at a
  // round boundary (checkpoint flushed, like a kill) and can be resumed.
  bool interrupted = false;
  // On success the full ordered chain; the last step is the window injection
  // that satisfied the oracle.
  FaultChain chain;
  int total_rounds = 0;
  int phases = 0;  // searches executed (1 = single-fault success)
  // Stitch candidates discarded because their stitch run wedged (hung or
  // partition-stuck): a wedged intermediate step demotes the whole chain
  // candidate, not just the step.
  int demoted_chain_candidates = 0;
};

// Result of one chain-stitch run: the accepted chain prefix plus one
// candidate, all pinned, no window, at the experiment's base seed.
struct StitchRunResult {
  interp::RunResult run;
  // Wall-budget-kill retries burned (bounded exponential backoff; all other
  // outcomes are deterministic and never retried).
  int retries = 0;
  // The run hung or got partition-stuck: extending the chain through this
  // candidate wedges the system, so the whole chain candidate is demoted.
  bool demote_chain = false;
};

// Executes the stitch run for `candidate` over `spec` (whose pinned_faults
// hold the accepted chain prefix). Exposed for tests; ChainExplorer calls it
// between phases.
StitchRunResult RunChainStitch(const ExperimentSpec& spec,
                               const interp::InjectionCandidate& candidate,
                               const ExplorerOptions& options);

// The multi-fault search (header comment above). Deterministic under a
// fixed seed at any thread count; supports checkpoint/resume mid-chain via
// the checkpoint's chain block under either policy.
class ChainExplorer {
 public:
  enum class Policy { kCascade, kIndependent };

  ChainExplorer(const ExperimentSpec& spec, const ExplorerOptions& options,
                Policy policy = Policy::kCascade)
      : spec_(spec), options_(options), policy_(policy) {}

  // Searches chains of up to `max_chain_length` steps (>= 1).
  ChainResult Explore(int max_chain_length, const CheckpointConfig& checkpoint = {});

  // Explorer::ResumeError for the phase `snap` interrupted: "" when Explore
  // can resume from it, otherwise the first failing precondition.
  std::string ResumeError(const SearchCheckpoint& snap, int max_chain_length) const;

  // Replays a full chain reproduction: all but the last step pinned, the
  // last as the window injection at its recorded seed.
  static bool Replay(ExperimentSpec spec, const ChainResult& result);

 private:
  // The explorer of one phase over `phase_spec` (the accepted prefix
  // pinned). kIndependent builds the shared context on first use, over the
  // search's own spec, and reuses it through `*shared`.
  Explorer PhaseExplorer(const ExperimentSpec& phase_spec, const ExplorerOptions& options,
                         std::shared_ptr<const ExplorerContext>* shared) const;

  ExperimentSpec spec_;
  ExplorerOptions options_;
  Policy policy_;
};

}  // namespace anduril::explorer

#endif  // ANDURIL_SRC_EXPLORER_ITERATIVE_H_
