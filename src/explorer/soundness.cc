#include "src/explorer/soundness.h"

#include <unordered_set>

#include "src/analysis/causal_graph.h"
#include "src/interp/simulator.h"
#include "src/logdiff/parser.h"
#include "src/util/strings.h"

namespace anduril::explorer {

std::string SoundnessReport::ToText(const ExplorerContext& context) const {
  if (ok()) {
    return StrFormat(
        "sound: %zu candidates replayed (%zu skipped), %zu dynamic "
        "fault->observable pairs all statically reachable\n",
        candidates_checked, candidates_skipped, pairs_observed);
  }
  std::string out;
  const ir::Program& program = context.program();
  for (const SoundnessViolation& violation : violations) {
    const FaultCandidate& candidate = context.candidates()[violation.candidate];
    out += StrFormat(
        "error [causal-soundness] injecting %s (%s, occurrence %lld) flipped "
        "observable \"%s\" but the causal graph has no path to it\n",
        program.fault_site(candidate.site).name.c_str(),
        program.exception_type(candidate.type).name.c_str(),
        static_cast<long long>(violation.occurrence), violation.observable_key.c_str());
  }
  out += StrFormat("%zu violations over %zu candidates (%zu pairs)\n",
                   violations.size(), candidates_checked, pairs_observed);
  return out;
}

SoundnessReport CheckCausalSoundness(const ExplorerContext& context,
                                     size_t max_candidates) {
  SoundnessReport report;
  const ExperimentSpec& spec = context.spec();
  const ir::Program& program = context.program();

  // Keys the fault-free run already produces: an injected run re-emitting
  // one of these is business as usual, not a fault effect.
  std::unordered_set<std::string> baseline_keys;
  for (const logdiff::ParsedLine& line : context.normal_log().lines) {
    baseline_keys.insert(line.key);
  }

  interp::FaultRuntime runtime(&program);
  runtime.SetPinned(spec.pinned_faults);
  for (size_t c = 0; c < context.candidates().size(); ++c) {
    if (max_candidates != 0 && report.candidates_checked >= max_candidates) {
      break;
    }
    const FaultCandidate& candidate = context.candidates()[c];
    // Exception kinds only — see the header contract — and only candidates
    // the fault-free run actually reached (an instance guarantees the armed
    // occurrence fires, making the replay informative).
    const std::vector<InstanceEstimate>& instances = context.InstancesOf(candidate.site);
    if (candidate.kind != interp::FaultKind::kException || instances.empty()) {
      ++report.candidates_skipped;
      continue;
    }
    runtime.SetWindow({Arm(candidate, instances.front().occurrence)});
    interp::Simulator simulator(&program, spec.cluster, spec.base_seed, &runtime,
                                context.flat_program());
    interp::RunResult run = simulator.Run();
    ++report.candidates_checked;

    std::unordered_set<std::string> run_keys = RunLogKeys(run);
    const std::vector<ObservableInfo>& observables = context.observables();
    for (size_t k = 0; k < observables.size(); ++k) {
      if (!run_keys.contains(observables[k].key) ||
          baseline_keys.contains(observables[k].key)) {
        continue;
      }
      ++report.pairs_observed;
      if (context.Distance(c, k) == analysis::CausalGraph::kUnreachable) {
        report.violations.push_back(SoundnessViolation{
            c, k, observables[k].key, instances.front().occurrence});
      }
    }
  }
  return report;
}

}  // namespace anduril::explorer
