#include "src/explorer/iterative.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <unordered_set>
#include <utility>

#include "src/interp/simulator.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/backoff.h"
#include "src/util/check.h"
#include "src/util/strings.h"

namespace anduril::explorer {

std::string FaultChain::ToText(const ir::Program& program) const {
  std::string text;
  for (size_t i = 0; i < steps.size(); ++i) {
    const FaultChainStep& step = steps[i];
    const char* what = step.candidate.kind == interp::FaultKind::kException
                           ? program.exception_type(step.candidate.type).name.c_str()
                           : interp::FaultKindName(step.candidate.kind);
    text += StrFormat("step %zu: %s, %s at occurrence %lld (seed %llu)\n", i + 1,
                      program.fault_site(step.candidate.site).name.c_str(), what,
                      static_cast<long long>(step.candidate.occurrence),
                      static_cast<unsigned long long>(step.seed));
  }
  return text;
}

namespace {

// Fault sites `run` executed that the phase baseline never reached (zero
// instance estimates): the causal stitches — the places the cascade can only
// continue from once this fault is in the workload. Sorted by id.
std::vector<ir::FaultSiteId> NewlyExecutedSites(const ExplorerContext& context,
                                                const interp::RunResult& run) {
  std::unordered_set<ir::FaultSiteId> seen;
  std::vector<ir::FaultSiteId> sites;
  for (const interp::FaultInstanceEvent& event : run.trace) {
    if (!seen.insert(event.site).second) {
      continue;
    }
    if (context.InstancesOf(event.site).empty()) {
      sites.push_back(event.site);
    }
  }
  std::sort(sites.begin(), sites.end());
  return sites;
}

}  // namespace

StitchRunResult RunChainStitch(const ExperimentSpec& spec,
                               const interp::InjectionCandidate& candidate,
                               const ExplorerOptions& options) {
  StitchRunResult result;
  // Same bounded exponential backoff (and seed derivation) as the search
  // rounds: only wall-budget kills are transient; every other outcome is
  // deterministic and re-occurs on retry by construction.
  ExponentialBackoff::Options backoff_options;
  backoff_options.initial_delay_ms = options.retry_initial_delay_ms;
  backoff_options.max_delay_ms = options.retry_max_delay_ms;
  backoff_options.max_retries = options.max_run_retries;
  ExponentialBackoff backoff(backoff_options, spec.base_seed ^ 0x9e3779b97f4a7c15ull);

  std::vector<interp::InjectionCandidate> pinned = spec.pinned_faults;
  pinned.push_back(candidate);
  for (;;) {
    interp::FaultRuntime runtime(spec.program);
    runtime.set_tracing(true);
    runtime.SetPinned(pinned);
    interp::Simulator simulator(spec.program, spec.cluster, spec.base_seed, &runtime);
    result.run = simulator.Run();
    if (result.run.hit_wall_budget && backoff.ShouldRetry()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff.NextDelayMs()));
      ++result.retries;
      continue;
    }
    break;
  }
  // A wedged stitch run condemns the whole chain candidate: pinning this
  // fault makes the degraded system hang (or stay partition-stuck), so no
  // continuation searched on top of it can ever run to an oracle verdict.
  result.demote_chain = result.run.outcome == interp::RunOutcome::kHung ||
                        result.run.outcome == interp::RunOutcome::kPartitionedStuck;
  return result;
}

Explorer ChainExplorer::PhaseExplorer(const ExperimentSpec& phase_spec,
                                      const ExplorerOptions& options,
                                      std::shared_ptr<const ExplorerContext>* shared) const {
  if (policy_ == Policy::kCascade) {
    return Explorer(phase_spec, options);
  }
  if (*shared == nullptr) {
    *shared = std::make_shared<const ExplorerContext>(spec_, options);
  }
  return Explorer(phase_spec, options, *shared);
}

std::string ChainExplorer::ResumeError(const SearchCheckpoint& snap,
                                       int max_chain_length) const {
  ExperimentSpec phase_spec = spec_;
  for (const FaultChainStep& step : snap.chain.steps) {
    phase_spec.pinned_faults.push_back(step.candidate);
  }
  // A probe: nothing it builds may reach the caller's sinks.
  ExplorerOptions options = options_;
  options.tracer = nullptr;
  options.metrics = nullptr;
  std::shared_ptr<const ExplorerContext> shared;
  Explorer explorer = PhaseExplorer(phase_spec, options, &shared);
  auto strategy = MakeFullFeedbackStrategy();
  strategy->SeedStitchedSites(snap.chain.stitched_sites);
  CheckpointConfig config;
  config.chain = &snap.chain;
  config.max_chain_length = max_chain_length;
  return explorer.ResumeError(snap, strategy.get(), config);
}

ChainResult ChainExplorer::Explore(int max_chain_length, const CheckpointConfig& checkpoint) {
  ANDURIL_CHECK_GE(max_chain_length, 1);
  ChainResult result;
  ExperimentSpec spec = spec_;  // the accepted prefix is pinned per phase
  std::shared_ptr<const ExplorerContext> shared_context;  // kIndependent only

  // The persisted search state (chain block): accepted prefix, completed
  // phases, the stitched-site seeds for the live phase, and the live phase's
  // injected-round summaries (filled in by the inner Explorer's snapshots).
  ChainState chain_state;
  const SearchCheckpoint* resume = checkpoint.resume;
  if (resume != nullptr) {
    chain_state = resume->chain;
    result.chain.steps = chain_state.steps;
    for (const FaultChainStep& step : chain_state.steps) {
      spec.pinned_faults.push_back(step.candidate);
    }
    result.phases = chain_state.phase;
    result.total_rounds = chain_state.rounds_before_phase;
  }

  // A resumed phase always reaches the inner explorer, whose resume check
  // rejects a chain too long for this search.
  for (int phase = chain_state.phase; phase < max_chain_length || resume != nullptr;
       ++phase) {
    ++result.phases;
    if (options_.metrics != nullptr) {
      options_.metrics->Add("chain.phases");
    }
    const int64_t phase_base = static_cast<int64_t>(phase) * obs::kPhaseStride;
    if (options_.tracer != nullptr) {
      options_.tracer->Instant("explore", "chain_phase", phase_base, 0,
                               {obs::ArgInt("phase", phase),
                                obs::ArgInt("pinned", static_cast<int64_t>(
                                                          spec.pinned_faults.size()))});
    }
    // Global round budget (kill emulation / hard bound): cut this phase's
    // per-phase cap down to whatever the budget still allows.
    if (options_.max_total_rounds > 0 &&
        result.total_rounds >= options_.max_total_rounds) {
      return result;
    }
    ExplorerOptions phase_options = options_;
    if (options_.max_total_rounds > 0) {
      const int remaining = options_.max_total_rounds - result.total_rounds;
      if (remaining < phase_options.max_rounds) {
        phase_options.max_rounds = remaining;
      }
    }
    Explorer explorer = PhaseExplorer(spec, phase_options, &shared_context);
    auto strategy = MakeFullFeedbackStrategy();
    strategy->SeedStitchedSites(chain_state.stitched_sites);

    CheckpointConfig inner;
    inner.path = checkpoint.path;
    inner.chain = &chain_state;
    inner.max_chain_length = max_chain_length;
    if (resume != nullptr) {
      inner.resume = resume;  // only the phase the kill interrupted
      resume = nullptr;
    }
    ExploreResult search = explorer.Explore(strategy.get(), inner);
    result.total_rounds += search.rounds;

    // Cooperative drain mid-phase: behave exactly like a kill — return with
    // the checkpoint as the inner explorer last flushed it, no stitch pass.
    if (search.interrupted) {
      result.interrupted = true;
      return result;
    }
    if (search.reproduced) {
      result.reproduced = true;
      result.chain.steps.push_back(FaultChainStep{
          interp::InjectionCandidate{search.script->site, search.script->occurrence,
                                     search.script->type, search.script->kind},
          search.script->seed, search.rounds, {}});
      if (options_.metrics != nullptr) {
        options_.metrics->Add("chain.reproduced");
      }
      return result;
    }
    if (phase + 1 >= max_chain_length) {
      break;
    }
    // Budget exhausted mid-phase: behave like a kill — return without a
    // stitch pass, so a resume from the checkpoint continues this phase.
    if (options_.max_total_rounds > 0 &&
        result.total_rounds >= options_.max_total_rounds) {
      return result;
    }

    // Candidate pick: every injected round of this phase — the summaries
    // restored from the checkpoint (rounds that died with the killed
    // process) and this search's records — ordered by (observables present
    // desc, round asc): the fault that moved the system closest to the
    // production failure, earliest, comes first. Rounds are unique, so the
    // order is total, and a candidate's first entry is its most promising.
    std::vector<ChainRoundCandidate> picks = chain_state.round_candidates;
    for (const RoundRecord& record : search.records) {
      if (record.injected) {
        picks.push_back(
            ChainRoundCandidate{record.candidate, record.present_observables, record.round});
      }
    }
    std::sort(picks.begin(), picks.end(),
              [](const ChainRoundCandidate& a, const ChainRoundCandidate& b) {
                if (a.present_observables != b.present_observables) {
                  return a.present_observables > b.present_observables;
                }
                return a.round < b.round;
              });

    // Acceptance. kIndependent pins the first candidate as is. kCascade
    // stitches: a candidate joins the chain only if pinning it genuinely
    // moved the system — it flipped still-missing observables, or executed
    // fault sites the degraded baseline never reached.
    bool extended = false;
    for (auto pick = picks.begin(); pick != picks.end(); ++pick) {
      const ChainRoundCandidate& summary = *pick;
      if (std::any_of(picks.begin(), pick, [&](const ChainRoundCandidate& earlier) {
            return earlier.candidate == summary.candidate;
          })) {
        continue;  // a repeat of a candidate already tried
      }
      std::vector<std::string> flipped;
      std::vector<ir::FaultSiteId> new_sites;
      if (policy_ == Policy::kCascade) {
        StitchRunResult stitch = RunChainStitch(spec, summary.candidate, options_);
        if (options_.metrics != nullptr) {
          options_.metrics->Add("chain.stitch_runs");
          if (stitch.retries > 0) {
            options_.metrics->Add("chain.stitch_retries", stitch.retries);
          }
        }
        if (stitch.demote_chain) {
          ++result.demoted_chain_candidates;
          if (options_.metrics != nullptr) {
            options_.metrics->Add("chain.demoted");
          }
          continue;
        }
        flipped = explorer.context().PresentObservables(RunLogKeys(stitch.run));
        new_sites = NewlyExecutedSites(explorer.context(), stitch.run);
        if (flipped.empty() && new_sites.empty()) {
          continue;
        }
      }

      spec.pinned_faults.push_back(summary.candidate);
      chain_state.steps.push_back(
          FaultChainStep{summary.candidate, spec.base_seed, search.rounds, flipped});
      result.chain.steps.push_back(chain_state.steps.back());
      chain_state.phase = phase + 1;
      chain_state.rounds_before_phase += search.rounds;
      chain_state.stitched_sites = std::move(new_sites);
      chain_state.round_candidates.clear();

      if (options_.metrics != nullptr) {
        options_.metrics->Add("chain.stitched");
      }
      if (options_.tracer != nullptr) {
        options_.tracer->Instant(
            "explore", "chain.stitch",
            phase_base + static_cast<int64_t>(search.rounds + 1) * obs::kRoundStride, 0,
            {obs::ArgInt("phase", phase), obs::ArgInt("site", summary.candidate.site),
             obs::ArgInt("occurrence", summary.candidate.occurrence),
             obs::ArgInt("flipped", static_cast<int64_t>(flipped.size())),
             obs::ArgInt("new_sites",
                         static_cast<int64_t>(chain_state.stitched_sites.size()))});
      }
      extended = true;
      break;
    }
    if (!extended) {
      break;  // no injectable fault moves the degraded system any further
    }
  }
  return result;
}

bool ChainExplorer::Replay(ExperimentSpec spec, const ChainResult& result) {
  if (!result.reproduced || result.chain.steps.empty()) {
    return false;
  }
  // All but the last step are pinned; the last is the window injection at
  // its recorded seed.
  spec.pinned_faults.clear();
  for (size_t i = 0; i + 1 < result.chain.steps.size(); ++i) {
    spec.pinned_faults.push_back(result.chain.steps[i].candidate);
  }
  const FaultChainStep& last = result.chain.steps.back();
  ReproductionScript script;
  script.site = last.candidate.site;
  script.occurrence = last.candidate.occurrence;
  script.type = last.candidate.type;
  script.kind = last.candidate.kind;
  script.seed = last.seed;
  return Explorer::Replay(spec, script);
}

}  // namespace anduril::explorer
