#include "perfbench/replica.h"

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "perfbench/trace.h"
#include "src/analysis/causal_graph.h"
#include "src/analysis/observable_map.h"
#include "src/explorer/context.h"
#include "src/interp/log_entry.h"
#include "src/interp/simulator.h"
#include "src/ir/flatten.h"
#include "src/logdiff/compare.h"
#include "src/logdiff/parser.h"

namespace perfbench {

namespace analysis = anduril::analysis;
namespace explorer = anduril::explorer;
namespace interp = anduril::interp;
namespace ir = anduril::ir;
namespace logdiff = anduril::logdiff;

ReplicaStages RunContextReplica(const explorer::ExperimentSpec& spec,
                                const explorer::ExplorerOptions& options) {
  ReplicaStages stages;
  const ir::Program& program = *spec.program;
  int64_t t = NowNs();
  auto lap = [&t](int64_t* stage) {
    const int64_t now = NowNs();
    *stage = now - t;
    t = now;
  };

  logdiff::ParsedLog failure_log = logdiff::ParseLogFile(spec.failure_log_text);
  lap(&stages.failure_parse_ns);

  auto flat = std::make_unique<const ir::FlatProgram>(program);
  lap(&stages.flatten_ns);

  interp::FaultRuntime runtime(&program);
  runtime.SetPinned(spec.pinned_faults);
  interp::Simulator simulator(&program, spec.cluster, spec.base_seed, &runtime, flat.get());
  interp::RunResult normal = simulator.Run();
  std::vector<interp::FaultInstanceEvent> normal_trace = normal.trace;
  lap(&stages.baseline_run_ns);

  logdiff::ParsedLog normal_log = logdiff::ParseLogFile(interp::FormatLogFile(normal.log));
  lap(&stages.normal_log_ns);

  logdiff::LogComparison comparison = logdiff::CompareLogs(normal_log, failure_log);
  const std::vector<std::string>& keys = comparison.target_only_keys;
  std::vector<explorer::ObservableInfo> observables(keys.size());
  for (size_t k = 0; k < keys.size(); ++k) {
    observables[k].key = keys[k];
  }
  for (const logdiff::ParsedLine& line : failure_log.lines) {
    for (size_t k = 0; k < keys.size(); ++k) {
      if (line.key == keys[k]) {
        observables[k].failure_positions.push_back(line.index);
        break;
      }
    }
  }
  lap(&stages.diff_ns);

  analysis::ObservableMapper mapper(program);
  analysis::CausalGraph graph(program, mapper.Resolve(keys));
  std::vector<explorer::FaultCandidate> candidates;
  for (const analysis::CausalGraph::SourceSite& source : graph.sources()) {
    if (program.fault_site(source.site).kind == ir::FaultSiteKind::kExternal) {
      candidates.push_back(explorer::FaultCandidate{source.site, source.type, source.node});
    }
  }
  if (options.crash_stall_candidates) {
    std::unordered_set<ir::FaultSiteId> sites_seen;
    const size_t exception_candidates = candidates.size();
    for (size_t c = 0; c < exception_candidates; ++c) {
      const explorer::FaultCandidate base = candidates[c];
      if (!sites_seen.insert(base.site).second) {
        continue;
      }
      candidates.push_back({base.site, base.type, base.node, interp::FaultKind::kCrash});
      candidates.push_back({base.site, base.type, base.node, interp::FaultKind::kStall});
    }
  }
  if (options.network_candidates) {
    for (analysis::CausalNodeId n = 0; n < static_cast<analysis::CausalNodeId>(graph.node_count());
         ++n) {
      const analysis::CausalNode& node = graph.node(n);
      if (node.kind != analysis::CausalNodeKind::kLocation ||
          program.method(node.loc.method).stmt(node.loc.stmt).kind != ir::StmtKind::kSend) {
        continue;
      }
      const ir::FaultSiteId site = program.FaultSiteAt(node.loc);
      for (interp::FaultKind kind :
           {interp::FaultKind::kDrop, interp::FaultKind::kDelay, interp::FaultKind::kDuplicate,
            interp::FaultKind::kPartition}) {
        candidates.push_back({site, ir::kInvalidId, n, kind});
      }
    }
  }
  lap(&stages.graph_ns);

  std::vector<std::vector<int32_t>> node_dists;
  node_dists.reserve(static_cast<size_t>(graph.num_observables()));
  for (int32_t k = 0; k < graph.num_observables(); ++k) {
    node_dists.push_back(graph.DistancesToObservable(k));
  }
  std::vector<std::vector<int32_t>> distances(candidates.size());
  for (size_t c = 0; c < candidates.size(); ++c) {
    distances[c].resize(observables.size(), analysis::CausalGraph::kUnreachable);
    for (size_t k = 0; k < observables.size() && k < node_dists.size(); ++k) {
      distances[c][k] = node_dists[k][static_cast<size_t>(candidates[c].node)];
    }
  }
  lap(&stages.distance_ns);

  logdiff::TimelineAlignment alignment(comparison.matches,
                                       static_cast<int64_t>(normal_log.lines.size()),
                                       static_cast<int64_t>(failure_log.lines.size()));
  std::unordered_map<ir::FaultSiteId, std::vector<explorer::InstanceEstimate>> instances;
  for (const interp::FaultInstanceEvent& event : normal_trace) {
    instances[event.site].push_back(
        explorer::InstanceEstimate{event.occurrence, alignment.MapPosition(event.log_clock)});
  }
  std::vector<ir::FaultSiteId> injectable_sites;
  std::unordered_set<ir::FaultSiteId> injectable_set;
  for (const ir::FaultSite& site : program.fault_sites()) {
    if (site.kind == ir::FaultSiteKind::kExternal) {
      injectable_sites.push_back(site.id);
      injectable_set.insert(site.id);
    }
  }
  lap(&stages.timeline_ns);

  stages.observables = observables.size();
  stages.candidates = candidates.size();
  return stages;
}

}  // namespace perfbench
