// Experiment definition: what the user hands to ANDURIL (§2 "Problem
// Statement") — the system (program + cluster/workload), the production
// failure log, and a failure oracle. Plus the tool's tuning options.

#ifndef ANDURIL_SRC_EXPLORER_EXPERIMENT_H_
#define ANDURIL_SRC_EXPLORER_EXPERIMENT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/interp/fault_runtime.h"

#include "src/interp/cluster.h"
#include "src/interp/run_result.h"
#include "src/ir/program.h"

namespace anduril::obs {
class MetricsRegistry;
class Tracer;
}  // namespace anduril::obs

namespace anduril::explorer {

// The user-defined failure oracle: encapsulates the failure symptoms (a log
// message, a stuck thread, a corrupted state...). True = failure reproduced.
using Oracle = std::function<bool(const ir::Program&, const interp::RunResult&)>;

struct ExperimentSpec {
  const ir::Program* program = nullptr;
  const interp::ClusterSpec* cluster = nullptr;  // includes the workload
  std::string failure_log_text;                  // from the uninstrumented deployment
  Oracle oracle;
  // Seed of the first (fault-free) exploration run; each round r uses
  // base_seed + r so runs exhibit the natural nondeterminism that motivates
  // the flexible priority window (§5.2.5).
  uint64_t base_seed = 1;
  // Faults treated as part of the workload: injected in every run, including
  // the baseline "fault-free" run. This is how the multi-fault search
  // (ChainExplorer) fixes one identified root cause before searching for the
  // next (§3).
  std::vector<interp::InjectionCandidate> pinned_faults;
};

struct ExplorerOptions {
  int initial_window = 10;      // k of §5.2.5 (doubles when a round injects nothing)
  int feedback_adjustment = 1;  // s of §8.5 (observable priority increment)
  int max_rounds = 2000;        // exploration budget (paper's default limit)
  // Chain searches only: hard cap on search rounds summed over every phase
  // (0 = unbounded). When the budget runs out mid-phase the chain search
  // returns immediately — no stitch pass — leaving its checkpoint file in
  // the same state a process kill at that round would, which is also how the
  // resume tests emulate mid-chain kills deterministically.
  int max_total_rounds = 0;
  // For ablation variants: consider only the first N occurrences per site
  // (0 = unlimited).
  int instance_limit = 0;
  // Runs executed per round with different seeds; their observable feedback
  // is combined and the round succeeds if any run satisfies the oracle. The
  // paper suggests this to counter concurrency making crucial log messages
  // probabilistic (§6).
  int runs_per_round = 1;
  // Ground-truth fault site to track for rank-trajectory reporting (Fig. 6).
  // Only used for bench reporting; never influences the search.
  ir::FaultSiteId track_site = ir::kInvalidId;
  // Worker threads of the parallel exploration engine. 1 = fully serial.
  // Parallelism is deterministic: with a fixed base_seed the explorer emits
  // the same ReproductionScript and round count at every thread count,
  // because every simulation's seed is a pure function of (round, repetition)
  // and first-success selection resolves by lowest repetition/candidate
  // index, never by completion order.
  int num_threads = 1;
  // Speculative window evaluation: instead of arming the whole window in one
  // run (where only the first-reached candidate fires), run every window
  // candidate as its own single-candidate simulation — concurrently when
  // num_threads > 1. The observable feedback of all runs is merged (a strict
  // superset of the serial round's feedback) and the success committed is the
  // one of the highest-ranked candidate. More simulations per round, fewer
  // rounds; a different (still deterministic) search mode, not a
  // bit-identical replacement for the serial window semantics.
  bool parallel_candidates = false;
  // Also enumerate crash and stall fault candidates (one of each per causal
  // fault site) alongside the exception candidates. Off by default: the
  // extra kinds triple the candidate space and change search trajectories,
  // so only scenarios that need them (crash/stall-only failures) opt in.
  bool crash_stall_candidates = false;
  // Also enumerate network fault candidates (drop / delay / duplicate /
  // partition, one of each per Send statement on the causal graph). Off by
  // default for the same reason as crash_stall_candidates: four more
  // candidates per send site widen the space and change search trajectories,
  // so only scenarios rooted in message-layer faults opt in.
  bool network_candidates = false;
  // Static candidate pruning: before round 1, drop injectable fault sites
  // with no static causal path to any failure-log observable from the
  // context's site universe (and, defensively, any candidate whose causal
  // node reaches no observable). Graph-driven strategies are unaffected by
  // construction — every causal-graph source reaches a sink — so scripts are
  // byte-identical with pruning on or off; trace-driven baselines (fate,
  // crashtuner, exhaustive-site listings) skip statically-inert sites and
  // converge in fewer rounds. Off by default to keep baseline numbers
  // comparable with prior measurements.
  bool static_prune = false;
  // Transient-round retry policy: a round whose runs were killed by the host
  // wall-clock watchdog (environmental slowness, not a fault-induced
  // outcome) is re-executed up to max_run_retries times with bounded
  // exponential backoff + jitter between attempts. Crashed/hung/completed
  // rounds are deterministic outcomes and are never retried.
  int max_run_retries = 2;
  int64_t retry_initial_delay_ms = 5;
  int64_t retry_max_delay_ms = 250;
  // A candidate whose run ends hung (stall fired, oracle unsatisfied) is
  // *demoted* — re-ranked behind fresh candidates — rather than retired;
  // after this many demotions it is retired for good.
  int hang_demotions_before_retirement = 2;
  // Observability sinks (src/obs/), not owned; null = disabled, and every
  // instrumentation hook reduces to a single pointer test. Both sinks are
  // deterministic under a fixed seed at any thread count: trace timestamps
  // are logical (round/item grid, see obs/trace.h) and metric values are
  // logical quantities whose accumulation is commutative.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  // Cooperative cancellation, checked at round (and chain-phase) boundaries:
  // when the pointee becomes true the search stops *between* rounds, with the
  // latest checkpoint already flushed, and the result reports interrupted.
  // Signal handlers (anduril_case, the service worker's SIGTERM drain) set
  // the flag; null = never cancelled. Rounds are atomic: a cancelled search
  // never loses a finished round and never checkpoints a half round.
  const std::atomic<bool>* cancel = nullptr;
};

// Robustness accounting for one exploration: how rounds ended, how often
// transient rounds were retried, and the wall-clock spent running workloads.
// Feeds the hang/crash/retry-rate columns of EXPERIMENTS.md.
struct ExperimentRecord {
  int completed_rounds = 0;
  int crashed_rounds = 0;
  int hung_rounds = 0;
  int budget_exceeded_rounds = 0;
  int partitioned_stuck_rounds = 0;
  int transient_retries = 0;
  double total_run_wall_seconds = 0;
  double max_round_wall_seconds = 0;

  int total_rounds() const {
    return completed_rounds + crashed_rounds + hung_rounds + budget_exceeded_rounds +
           partitioned_stuck_rounds;
  }
};

}  // namespace anduril::explorer

#endif  // ANDURIL_SRC_EXPLORER_EXPERIMENT_H_
