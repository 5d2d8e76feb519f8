// Context-build replica: the stages of the ExplorerContext constructor,
// re-run one by one through the same public APIs and timed separately, so
// the traced run can split context build into parse, flatten, baseline run,
// normal-log round trip, diff, causal graph, distances and timeline. The
// benchmark compares the stage sum with the constructor timed directly
// (context.replica_gap) and the replica's candidate and observable counts
// with the real context's, so a replica that drifts from the constructor
// shows. Static pruning is not replicated; the benchmark never enables it.

#ifndef PERFBENCH_REPLICA_H_
#define PERFBENCH_REPLICA_H_

#include <cstdint>

#include "src/explorer/experiment.h"

namespace perfbench {

struct ReplicaStages {
  int64_t failure_parse_ns = 0;
  int64_t flatten_ns = 0;
  int64_t baseline_run_ns = 0;
  int64_t normal_log_ns = 0;
  int64_t diff_ns = 0;
  int64_t graph_ns = 0;
  int64_t distance_ns = 0;
  int64_t timeline_ns = 0;
  size_t observables = 0;
  size_t candidates = 0;

  ReplicaStages& operator+=(const ReplicaStages& other) {
    failure_parse_ns += other.failure_parse_ns;
    flatten_ns += other.flatten_ns;
    baseline_run_ns += other.baseline_run_ns;
    normal_log_ns += other.normal_log_ns;
    diff_ns += other.diff_ns;
    graph_ns += other.graph_ns;
    distance_ns += other.distance_ns;
    timeline_ns += other.timeline_ns;
    return *this;
  }

  int64_t total_ns() const {
    return failure_parse_ns + flatten_ns + baseline_run_ns + normal_log_ns + diff_ns +
           graph_ns + distance_ns + timeline_ns;
  }
};

ReplicaStages RunContextReplica(const anduril::explorer::ExperimentSpec& spec,
                                const anduril::explorer::ExplorerOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_REPLICA_H_
