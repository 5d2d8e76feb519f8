// Precomputed exploration context shared by all injection strategies.
//
// Built once before the injection rounds (the paper's step 1-2 and the §7
// precomputation optimization): the fault-free run, the relevant
// observables, the static causal graph, the per-(candidate, observable)
// spatial distances L_{i,k}, and the fault-instance distribution mapped onto
// the failure-log timeline for temporal distances T_{i,j,k}.

#ifndef ANDURIL_SRC_EXPLORER_CONTEXT_H_
#define ANDURIL_SRC_EXPLORER_CONTEXT_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/analysis/causal_graph.h"
#include "src/explorer/experiment.h"
#include "src/interp/fault_runtime.h"
#include "src/ir/flatten.h"
#include "src/logdiff/compare.h"
#include "src/logdiff/parser.h"

namespace anduril::explorer {

// A static fault candidate: an injectable fault site plus the exception type
// that links it into the causal graph (§5.2.2's f_i is "the exception type
// and its location in the code"). `kind` extends f_i beyond exceptions:
// crash/stall candidates (enumerated only when the options opt in) reuse the
// site's exception node for causal ranking, but arm a fault that halts the
// node / wedges the call instead of throwing `type`.
struct FaultCandidate {
  ir::FaultSiteId site = ir::kInvalidId;
  ir::ExceptionTypeId type = ir::kInvalidId;
  analysis::CausalNodeId node = -1;  // its external-exception node
  interp::FaultKind kind = interp::FaultKind::kException;
};

// The injection candidate armed for `candidate` at a dynamic occurrence:
// crash/stall kinds carry no exception type.
inline interp::InjectionCandidate Arm(const FaultCandidate& candidate, int64_t occurrence) {
  return interp::InjectionCandidate{
      candidate.site, occurrence,
      candidate.kind == interp::FaultKind::kException ? candidate.type : ir::kInvalidId,
      candidate.kind};
}

// A dynamic instance of a fault site observed in the fault-free run, with
// its position scaled onto the failure-log timeline (§5.2.3).
struct InstanceEstimate {
  int64_t occurrence = 0;
  int64_t failure_pos = 0;  // estimated log clock in the failure log
};

// The sanitized message keys ("LEVEL|logger|message") of `run`'s log. Keys
// come from the rendered log file, so only what a log file would show is
// used. Every run-to-observables step of the search goes through here.
std::unordered_set<std::string> RunLogKeys(const interp::RunResult& run);

struct ObservableInfo {
  std::string key;
  std::vector<int64_t> failure_positions;  // log clocks in the failure log
};

// Immutable after construction: every member is filled by the constructor
// and only read afterwards, so a `shared_ptr<const ExplorerContext>` is safe
// to share across explorer phases and across threads without locking (the
// explorer's shared analysis cache). Keep it that way — no lazy caches, no
// mutable members.
class ExplorerContext {
 public:
  // Runs the fault-free workload, diffs logs, builds the causal graph, and
  // precomputes distances. `init_seconds` captures the setup cost.
  ExplorerContext(const ExperimentSpec& spec, const ExplorerOptions& options);

  const ExperimentSpec& spec() const { return *spec_; }
  const ExplorerOptions& options() const { return options_; }
  const ir::Program& program() const { return *spec_->program; }

  const logdiff::ParsedLog& failure_log() const { return failure_log_; }
  const logdiff::ParsedLog& normal_log() const { return normal_log_; }
  const std::vector<ObservableInfo>& observables() const { return observables_; }
  const analysis::CausalGraph& graph() const { return *graph_; }
  // The relevant observables among `keys` (RunLogKeys of one or more runs),
  // in observable order, so deterministic.
  std::vector<std::string> PresentObservables(
      const std::unordered_set<std::string>& keys) const;

  const std::vector<FaultCandidate>& candidates() const { return candidates_; }
  // L_{i,k}: distance from candidate i's node to observable k
  // (CausalGraph::kUnreachable when no path exists).
  int32_t Distance(size_t candidate, size_t observable) const {
    return distances_[candidate][observable];
  }

  // Instances of `site` from the fault-free run (empty if never executed).
  const std::vector<InstanceEstimate>& InstancesOf(ir::FaultSiteId site) const;

  // All injectable fault sites of the program (for coverage baselines that
  // skip the causal-graph candidate selection). With options.static_prune
  // this universe is pre-filtered to sites that have a static causal path to
  // at least one observable.
  const std::vector<ir::FaultSiteId>& all_injectable_sites() const {
    return all_injectable_sites_;
  }
  // Membership test for the (possibly pruned) injectable-site universe.
  // Trace-driven strategies use this instead of a raw fault-kind check so
  // static pruning applies to them uniformly.
  bool SiteInjectable(ir::FaultSiteId site) const {
    return injectable_site_set_.count(site) != 0;
  }

  // Pruning statistics (meaningful whether or not static_prune is set; both
  // are zero when it is off).
  size_t pruned_sites() const { return pruned_sites_; }
  size_t pruned_candidates() const { return pruned_candidates_; }
  // Injectable-site universe size before static pruning.
  size_t total_injectable_sites() const {
    return all_injectable_sites_.size() + pruned_sites_;
  }

  // The fault-free run's instance trace in execution order.
  const std::vector<interp::FaultInstanceEvent>& normal_trace() const { return normal_trace_; }

  // The program lowered once for the interpreter, shared read-only by every
  // run of every round and thread of the exploration. Never null.
  const ir::FlatProgram* flat_program() const { return flat_program_.get(); }

  double init_seconds() const { return init_seconds_; }
  double normal_workload_seconds() const { return normal_workload_seconds_; }

 private:
  const ExperimentSpec* spec_;
  ExplorerOptions options_;
  logdiff::ParsedLog failure_log_;
  logdiff::ParsedLog normal_log_;
  std::vector<ObservableInfo> observables_;
  std::unique_ptr<analysis::CausalGraph> graph_;
  std::vector<FaultCandidate> candidates_;
  std::vector<std::vector<int32_t>> distances_;
  std::unordered_map<ir::FaultSiteId, std::vector<InstanceEstimate>> instances_;
  std::vector<ir::FaultSiteId> all_injectable_sites_;
  std::unordered_set<ir::FaultSiteId> injectable_site_set_;
  size_t pruned_sites_ = 0;
  size_t pruned_candidates_ = 0;
  std::vector<interp::FaultInstanceEvent> normal_trace_;
  std::unique_ptr<const ir::FlatProgram> flat_program_;
  std::vector<InstanceEstimate> empty_;
  double init_seconds_ = 0;
  double normal_workload_seconds_ = 0;
};

}  // namespace anduril::explorer

#endif  // ANDURIL_SRC_EXPLORER_CONTEXT_H_
