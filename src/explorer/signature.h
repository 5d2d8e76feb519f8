// Fault signatures: minimized, standalone, deterministic replay artifacts.
//
// A successful reproduction (ordered fault chain or single fault) is worth
// keeping beyond the search that found it. A FaultSignature captures
// everything needed to re-trigger the failure with ZERO search rounds: the
// ordered fault steps (addressed by full fault-site name, so the artifact
// survives site-id renumbering as long as names are stable), the replay
// seed, the observable oracle keys the failing run must flip, and the slice
// of the workload that matters — the retained tasks and the IR methods
// reachable from them through the call graph. `anduril_case replay
// --signature=<file>` re-executes it in a single run.
//
// The unminimized signature of a search result replays byte-identically to
// the search's own failing run (same pinned prefix, same window, same seed,
// same workload). Minimization is greedy delta-debugging: try dropping chain
// steps (front-to-back, never the final window injection), then workload
// tasks; a drop survives when the oracle and every oracle key still fire on
// replay. The IR method slice is recomputed from the retained tasks.
//
// The serialized form is JSON with a version and an FNV-1a content hash over
// every other field; parsing re-verifies the hash so a corrupt or hand-edited
// signature fails fast instead of replaying a subtly different scenario.

#ifndef ANDURIL_SRC_EXPLORER_SIGNATURE_H_
#define ANDURIL_SRC_EXPLORER_SIGNATURE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/explorer/iterative.h"

namespace anduril::explorer {

inline constexpr int kSignatureVersion = 1;

// One fault of the signature's ordered chain.
struct SignatureStep {
  std::string site;       // full ir::FaultSite::name, exact-matched at replay
  std::string exception;  // exception type name; "" for non-exception kinds
  int64_t occurrence = 1;
  interp::FaultKind kind = interp::FaultKind::kException;
  // Replay seed recorded for the step; only the final step's seed drives the
  // replay run (the prefix is pinned, not searched).
  uint64_t seed = 0;
  friend bool operator==(const SignatureStep&, const SignatureStep&) = default;
};

struct FaultSignature {
  int version = kSignatureVersion;
  std::string case_id;
  uint64_t program_fingerprint = 0;  // rejects replay over a different build
  bool minimized = false;
  std::vector<SignatureStep> steps;  // ordered; last = the window injection
  // Observable keys (relative to the failure log) that the replay run must
  // emit for the signature to count as fired, on top of the case oracle.
  std::vector<std::string> oracle_keys;
  // Workload tasks kept in the replay cluster, as "node/thread" names. The
  // unminimized signature lists every task of the cluster explicitly.
  std::vector<std::string> retained_tasks;
  // IR methods reachable from the retained tasks via Invoke/Send/Submit
  // callees, sorted by name: the standalone program slice the replay needs.
  std::vector<std::string> ir_methods;
  friend bool operator==(const FaultSignature&, const FaultSignature&) = default;
};

// Builds the (unminimized) signature of a successful chain reproduction.
// `result.reproduced` must hold. The oracle keys are derived by diffing the
// reproduction's failing run against the fault-free run at the same base
// seed and intersecting with the production failure log's keys.
FaultSignature BuildSignature(const ExperimentSpec& spec, const std::string& case_id,
                              const ChainResult& result);

struct SignatureReplay {
  // Oracle held, every step fired, and every oracle key appeared.
  bool fired = false;
  interp::RunResult run;
  // Non-empty when the signature does not resolve against the spec (unknown
  // site/exception name, fingerprint mismatch, no steps); `fired` is false.
  std::string error;
};

// Re-executes the signature against the spec: single run, prefix pinned,
// final step as the window injection at its recorded seed, cluster filtered
// to the retained tasks. No search rounds.
SignatureReplay ReplaySignature(const ExperimentSpec& spec, const FaultSignature& signature);

// Greedy delta-minimization (header comment). `replays`, when non-null, is
// incremented once per verification replay executed — the cost knob the
// bench tables report.
FaultSignature MinimizeSignature(const ExperimentSpec& spec, FaultSignature signature,
                                 int* replays = nullptr);

std::string SerializeSignature(const FaultSignature& signature);
// Returns false (and fills *error) on malformed input, version mismatch, a
// missing or mistyped field (named by its path), or content-hash mismatch.
bool ParseSignature(const std::string& text, FaultSignature* out, std::string* error);

bool SaveSignatureFile(const std::string& path, const FaultSignature& signature);
bool LoadSignatureFile(const std::string& path, FaultSignature* out, std::string* error);

}  // namespace anduril::explorer

#endif  // ANDURIL_SRC_EXPLORER_SIGNATURE_H_
