// Versioned search checkpoints: serialize the Explorer's mutable search
// state after every round so a killed exploration can resume exactly where
// it stopped. The invariant (enforced by tests): a search resumed from a
// round-N checkpoint emits the byte-identical ReproductionScript — and the
// same total round count — as the uninterrupted search at the same seed.
//
// The format is JSON with a version field:
//
//   {
//     "version": 6,
//     "program_fingerprint": "<hex>",   // guards against program drift
//     "base_seed": "<u64 as string>",   // strings: no 2^53 precision loss
//     "rounds_completed": N,
//     "retry_rng_draws": "<u64 as string>",
//     "experiment": { per-outcome round counts (incl. partitioned_stuck),
//                     retries, wall-clock },
//     "network": {                      // v2: network fault configuration
//       "candidates": bool,             // ExplorerOptions::network_candidates
//       "partition_heal_ms": N,         // ClusterSpec::partition_heal_ms
//       "network_delay_ms": N           // ClusterSpec::network_delay_ms
//     },
//     "pinned": [ {site, occurrence, type, kind}, ... ],
//     "strategy": {
//       "name": "full",                 // v6: MakeStrategy name that wrote it
//       "window_size": k, "exhausted": bool,
//       "observable_priorities": [ ... ],   // context observable order
//       "tried": [ {site, occurrence, type, kind}, ... ],
//       "demotions": [ {candidate: {...}, count}, ... ]
//     },
//     "chain": {                        // v3: ChainExplorer search state
//       "steps": [ {candidate: {...}, seed: "<u64>", rounds: N,
//                   stitched_observables: ["key", ...]}, ... ],
//       "phase": N,                     // completed chain phases
//       "rounds_before_phase": N,       // rounds consumed by completed phases
//       "stitched_sites": [ id, ... ],  // sites the last stitch run exposed
//       "round_candidates": [           // injected rounds of the live phase
//         {candidate: {...}, present_observables: N, round: N}, ... ]
//     },
//     "chain_signature_hash": "<u64>",  // v3: FNV-1a over the chain steps;
//                                       // detects a tampered/corrupt chain
//     "engine": {                       // v4: stage-1 candidate space
//       "candidates": N,                // candidate-array size when written
//       "observables": N                // observable count when written
//     },
//     "metrics": { counters/gauges/histograms }   // optional: only present
//                                                 // when a MetricsRegistry
//                                                 // was attached
//   }
//
// Candidate identity uses numeric ids, which are deterministic functions of
// the program build; the fingerprint rejects checkpoints from a different
// program. Version history: v1 had no network block, no partitioned_stuck
// count, and no drop/delay/duplicate/partition kind strings. v2 added the
// network block so a resumed search replays the same candidate space (and
// partition/delay timing) byte-identically. v3 added the chain block and its
// signature hash so a killed ChainExplorer search resumes mid-chain with the
// accepted prefix, the stitched-site seeds, and the live phase's candidate
// summaries intact; plain (non-chain) searches write the same schema with an
// empty chain. v4 added the engine block: the SoA candidate state of the
// priority engine (F_i, argmin k*, untried budgets, heap) is *derivable* from
// (observable_priorities, tried), so the checkpoint stores no engine arrays —
// restore recomputes them — but it records the candidate/observable counts
// the engine ranked, and resume validates both against the live search:
// resuming over a differently-built candidate space would break the
// byte-identical-resume invariant silently. v5 dropped the engine block's
// "kind" (v4 named which of two stage-1 rankers wrote the file; one ranker
// remains). v6 added the strategy name: resuming under another strategy
// (say full-sum over a full checkpoint, whose state has the same shape)
// would silently continue a different search. Old versions —
// including a version-2 file that smuggles a chain block — are rejected with
// an actionable error rather than silently resumed into a different search
// space.

#ifndef ANDURIL_SRC_EXPLORER_CHECKPOINT_H_
#define ANDURIL_SRC_EXPLORER_CHECKPOINT_H_

#include <cstdint>
#include <string>

#include "src/explorer/experiment.h"
#include "src/explorer/strategy.h"
#include "src/ir/program.h"
#include "src/obs/metrics.h"

namespace anduril::explorer {

inline constexpr int kCheckpointVersion = 6;

// One accepted step of a fault chain: the checkpoint's chain block and
// ChainResult hold the same record. `seed` is the seed of the run that
// validated the step: base_seed for intermediate steps (the stitch run's
// seed), the successful search round's seed for the final step.
struct FaultChainStep {
  interp::InjectionCandidate candidate;
  uint64_t seed = 0;
  int rounds = 0;  // search rounds the step's phase consumed
  // Relevant observable keys the step's stitch run newly flipped (empty for
  // the final step — its run satisfied the oracle outright — and for every
  // step of an independent search, which runs no stitch run).
  std::vector<std::string> stitched_observables;
  friend bool operator==(const FaultChainStep&, const FaultChainStep&) = default;
};

// Summary of one injected (unsuccessful) round of the live chain phase.
// Persisting these makes mid-chain resume byte-identical even when the kill
// lands between the inner search capping out and the stitch decision.
struct ChainRoundCandidate {
  interp::InjectionCandidate candidate;
  int present_observables = -1;
  int round = 0;
  friend bool operator==(const ChainRoundCandidate&, const ChainRoundCandidate&) = default;
};

// Complete ChainExplorer search state (v3). Empty for plain searches.
struct ChainState {
  std::vector<FaultChainStep> steps;  // accepted chain prefix, in order
  int phase = 0;                           // completed phases
  int rounds_before_phase = 0;             // rounds consumed by completed phases
  std::vector<ir::FaultSiteId> stitched_sites;  // seeds for the live phase
  std::vector<ChainRoundCandidate> round_candidates;
  bool empty() const {
    return steps.empty() && phase == 0 && rounds_before_phase == 0 &&
           stitched_sites.empty() && round_candidates.empty();
  }
  friend bool operator==(const ChainState&, const ChainState&) = default;
};

// FNV-1a over the chain's accepted steps (site/occurrence/type/kind, seed,
// rounds, stitched observables). Serialized next to the chain block and
// re-verified on parse: a hand-edited or bit-rotted chain prefix fails fast
// instead of resuming a subtly different search.
uint64_t ChainSignatureHash(const ChainState& chain);

struct SearchCheckpoint {
  int version = kCheckpointVersion;
  uint64_t program_fingerprint = 0;
  uint64_t base_seed = 0;
  int rounds_completed = 0;
  // Jitter draws consumed by the retry backoff so far (stream position).
  uint64_t retry_rng_draws = 0;
  // v2: network-fault configuration active when the checkpoint was written.
  // Resume validates these against the live options/cluster — a mismatch
  // would change the candidate space or message timing and silently break
  // the byte-identical-resume invariant.
  bool network_candidates = false;
  int64_t partition_heal_ms = 0;
  int64_t network_delay_ms = 0;
  ExperimentRecord experiment;
  std::vector<interp::InjectionCandidate> pinned;
  // v6: InjectionStrategy::name() of the strategy whose state this is.
  std::string strategy_name;
  StrategyCheckpoint strategy;
  // v3: chain search state (empty for plain searches) and its integrity
  // hash. SerializeCheckpoint always recomputes the hash from `chain`;
  // ParseCheckpoint stores the verified value here.
  ChainState chain;
  uint64_t chain_signature_hash = 0;
  // v4: the candidate space the stage-1 engine ranked. Validation metadata,
  // not bulk state — see the header comment.
  int64_t engine_candidates = 0;
  int64_t engine_observables = 0;
  // Optional (still version 2): snapshot of the attached MetricsRegistry at
  // the end of the checkpointed round. Serialized only when `has_metrics`;
  // parsing a checkpoint without a "metrics" member leaves it false, so
  // files written by metric-less searches round-trip byte-identically.
  // Restoring it on resume *overwrites* the live registry — the snapshot
  // already accounts for everything the resuming process re-recorded while
  // rebuilding its context — which is what makes the final metrics dump of
  // an interrupted+resumed search byte-identical to the uninterrupted one.
  bool has_metrics = false;
  obs::MetricsSnapshot metrics;
};

// Stable fingerprint of the program shape (fault sites, exception types):
// enough to catch "this checkpoint came from a different build of the
// scenario" without hashing the whole IR.
uint64_t ProgramFingerprint(const ir::Program& program);

std::string SerializeCheckpoint(const SearchCheckpoint& checkpoint);
// Returns false (and fills *error) on malformed input or version mismatch.
bool ParseCheckpoint(const std::string& text, SearchCheckpoint* out, std::string* error);

bool SaveCheckpointFile(const std::string& path, const SearchCheckpoint& checkpoint);
bool LoadCheckpointFile(const std::string& path, SearchCheckpoint* out, std::string* error);

}  // namespace anduril::explorer

#endif  // ANDURIL_SRC_EXPLORER_CHECKPOINT_H_
