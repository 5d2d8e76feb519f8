#include "src/explorer/explorer.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <optional>
#include <thread>
#include <unordered_set>
#include <utility>

#include "src/interp/simulator.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/backoff.h"
#include "src/util/check.h"
#include "src/util/stopwatch.h"
#include "src/util/strings.h"
#include "src/util/thread_pool.h"

namespace anduril::explorer {

namespace {

template <typename T>
T Median(std::vector<T> values) {
  if (values.empty()) {
    return T{};
  }
  size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<ptrdiff_t>(mid), values.end());
  T upper = values[mid];
  if (values.size() % 2 != 0) {
    return upper;
  }
  T lower = *std::max_element(values.begin(), values.begin() + static_cast<ptrdiff_t>(mid));
  return lower + (upper - lower) / 2;
}

// One simulation of a round: its own runtime + simulator (nothing shared
// mutable), so any number of these execute concurrently over the same const
// Program / ClusterSpec.
struct RepRun {
  interp::RunResult run;
  uint64_t seed = 0;
  bool success = false;  // oracle holds AND the window injection fired
};

// Per-worker scratch: the simulator's pooled buffers survive across the
// runs executed on this thread, so back-to-back runs keep their heap
// allocations (environments, event heap, recycled thread objects — and,
// via Recycle, consumed results' log/trace buffers) instead of
// reallocating them every run.
interp::RunScratch& LocalScratch() {
  thread_local interp::RunScratch scratch;
  return scratch;
}

RepRun ExecuteOne(const ExperimentSpec& spec, const ir::FlatProgram* flat,
                  const std::vector<interp::InjectionCandidate>& window, uint64_t seed,
                  obs::MetricsRegistry* metrics) {
  RepRun rep;
  rep.seed = seed;
  interp::RunScratch& scratch = LocalScratch();
  thread_local std::unique_ptr<interp::FaultRuntime> runtime;
  if (runtime == nullptr || &runtime->program() != spec.program) {
    runtime = std::make_unique<interp::FaultRuntime>(spec.program);
  }
  runtime->set_tracing(true);
  runtime->SetWindow(window);
  runtime->SetPinned(spec.pinned_faults);
  interp::Simulator simulator(spec.program, spec.cluster, seed, runtime.get(), flat,
                              &scratch);
  simulator.set_metrics(metrics);
  rep.run = simulator.Run();
  rep.success = spec.oracle(*spec.program, rep.run) && rep.run.injected.has_value();
  return rep;
}

// The work items of one round, in priority order: index `i` must win over
// index `j` whenever i < j and both succeed, regardless of which thread
// finishes first — that is what makes the parallel engine's result identical
// to the serial loop's.
struct RoundPlan {
  // Each item: the window to arm and the seed to run with.
  std::vector<std::pair<std::vector<interp::InjectionCandidate>, uint64_t>> items;
};

RoundPlan PlanRound(const ExperimentSpec& spec, const ExplorerOptions& options, int round,
                    const std::vector<interp::InjectionCandidate>& window) {
  RoundPlan plan;
  int repetitions = std::max(1, options.runs_per_round);
  auto seed_of = [&](int rep) {
    return spec.base_seed + static_cast<uint64_t>(round) * static_cast<uint64_t>(repetitions) +
           static_cast<uint64_t>(rep);
  };
  if (options.parallel_candidates && window.size() > 1) {
    // Speculative window evaluation: candidate-major so that the first
    // success in plan order is the success of the highest-ranked candidate.
    for (const interp::InjectionCandidate& candidate : window) {
      for (int rep = 0; rep < repetitions; ++rep) {
        plan.items.emplace_back(std::vector<interp::InjectionCandidate>{candidate},
                                seed_of(rep));
      }
    }
  } else {
    for (int rep = 0; rep < repetitions; ++rep) {
      plan.items.emplace_back(window, seed_of(rep));
    }
  }
  return plan;
}

// Executes the plan. Serial mode stops at the first success (items after it
// are never needed: a successful round skips feedback digestion, and on an
// unsuccessful round everything executed anyway). Parallel mode runs every
// item and lets the caller select by plan order, which yields the same
// selection.
std::vector<RepRun> ExecutePlan(const ExperimentSpec& spec, const ir::FlatProgram* flat,
                                const RoundPlan& plan, ThreadPool* pool,
                                obs::MetricsRegistry* metrics) {
  std::vector<RepRun> executed;
  if (pool != nullptr && plan.items.size() > 1) {
    std::vector<std::future<RepRun>> futures;
    futures.reserve(plan.items.size());
    for (const auto& [window, seed] : plan.items) {
      futures.push_back(pool->Submit([&spec, flat, &window, seed = seed, metrics]() {
        return ExecuteOne(spec, flat, window, seed, metrics);
      }));
    }
    executed.reserve(futures.size());
    for (std::future<RepRun>& future : futures) {
      executed.push_back(future.get());
    }
  } else {
    for (const auto& [window, seed] : plan.items) {
      executed.push_back(ExecuteOne(spec, flat, window, seed, metrics));
      if (executed.back().success) {
        break;
      }
    }
  }
  return executed;
}

// The union of the log keys of every run of a round. Offloaded to the pool
// when a round produced several logs.
std::unordered_set<std::string> CombinedKeys(const std::vector<RepRun>& executed,
                                             ThreadPool* pool) {
  std::unordered_set<std::string> combined;
  if (pool != nullptr && executed.size() > 1) {
    std::vector<std::future<std::unordered_set<std::string>>> futures;
    futures.reserve(executed.size());
    for (const RepRun& rep : executed) {
      futures.push_back(pool->Submit([&rep]() { return RunLogKeys(rep.run); }));
    }
    for (auto& future : futures) {
      combined.merge(future.get());
    }
  } else {
    for (const RepRun& rep : executed) {
      combined.merge(RunLogKeys(rep.run));
    }
  }
  return combined;
}

// A round is *transient* when the watchdog killed any of its runs: the host
// was too slow, not the fault too severe. Deterministic outcomes (crashed,
// hung, completed, simulated-time/step budgets) re-occur on retry by
// construction, so only wall-clock kills are worth retrying.
bool AnyWallBudgetKill(const std::vector<RepRun>& executed) {
  for (const RepRun& rep : executed) {
    if (rep.run.hit_wall_budget) {
      return true;
    }
  }
  return false;
}

void CountOutcome(ExperimentRecord* record, interp::RunOutcome outcome) {
  switch (outcome) {
    case interp::RunOutcome::kCompleted:
      ++record->completed_rounds;
      break;
    case interp::RunOutcome::kCrashed:
      ++record->crashed_rounds;
      break;
    case interp::RunOutcome::kHung:
      ++record->hung_rounds;
      break;
    case interp::RunOutcome::kBudgetExceeded:
      ++record->budget_exceeded_rounds;
      break;
    case interp::RunOutcome::kPartitionedStuck:
      ++record->partitioned_stuck_rounds;
      break;
  }
}

std::string CandidatesText(const std::vector<interp::InjectionCandidate>& candidates) {
  std::string text = "[";
  for (const interp::InjectionCandidate& candidate : candidates) {
    text += StrFormat("%s%s site %d occurrence %lld", text.size() > 1 ? ", " : "",
                      interp::FaultKindName(candidate.kind), candidate.site,
                      static_cast<long long>(candidate.occurrence));
  }
  return text + "]";
}

std::string ChainStateText(const ChainState& chain) {
  std::vector<interp::InjectionCandidate> steps;
  for (const FaultChainStep& step : chain.steps) {
    steps.push_back(step.candidate);
  }
  return StrFormat("phase %d with steps %s, %d earlier rounds, %zu stitched sites and %zu "
                   "round candidates",
                   chain.phase, CandidatesText(steps).c_str(), chain.rounds_before_phase,
                   chain.stitched_sites.size(), chain.round_candidates.size());
}

std::string Mismatch(const char* field, const std::string& saved, const std::string& live) {
  return StrFormat("checkpoint %s is %s, this search has %s", field, saved.c_str(),
                   live.c_str());
}

}  // namespace

std::string ReproductionScript::ToText(const ir::Program& program) const {
  if (kind != interp::FaultKind::kException) {
    return StrFormat("inject %s of %s at occurrence %lld with seed %llu",
                     interp::FaultKindName(kind), program.fault_site(site).name.c_str(),
                     static_cast<long long>(occurrence),
                     static_cast<unsigned long long>(seed));
  }
  return StrFormat("inject %s of type %s at occurrence %lld with seed %llu",
                   program.fault_site(site).name.c_str(),
                   program.exception_type(type).name.c_str(),
                   static_cast<long long>(occurrence), static_cast<unsigned long long>(seed));
}

Explorer::Explorer(const ExperimentSpec& spec, const ExplorerOptions& options)
    : spec_(&spec), options_(options) {
  context_ = std::make_shared<const ExplorerContext>(spec, options);
}

Explorer::Explorer(const ExperimentSpec& spec, const ExplorerOptions& options,
                   std::shared_ptr<const ExplorerContext> context)
    : spec_(&spec), options_(options), context_(std::move(context)) {
  ANDURIL_CHECK(context_ != nullptr);
  // The shared-analysis-cache ctor skips the whole static analysis; its
  // counterpart "explore.context_builds" is recorded by the context ctor.
  if (options_.metrics != nullptr) {
    options_.metrics->Add("explore.context_cache_hits");
  }
}

std::string Explorer::ResumeError(const SearchCheckpoint& snap, InjectionStrategy* strategy,
                                  const CheckpointConfig& checkpoint) const {
  using std::to_string;
  auto flag = [](bool value) { return std::string(value ? "true" : "false"); };
  if (snap.version != kCheckpointVersion) {
    return Mismatch("version", to_string(snap.version), to_string(kCheckpointVersion));
  }
  const uint64_t fingerprint = ProgramFingerprint(*spec_->program);
  if (snap.program_fingerprint != fingerprint) {
    return Mismatch("program_fingerprint", to_string(snap.program_fingerprint),
                    to_string(fingerprint)) +
           " (the checkpoint was written for another case or build)";
  }
  if (snap.base_seed != spec_->base_seed) {
    return Mismatch("base_seed", to_string(snap.base_seed), to_string(spec_->base_seed));
  }
  // A chain checkpoint only resumes under the ChainExplorer that supplies
  // the matching chain prefix; a plain search resuming one would silently
  // drop the accepted chain steps. Checked before the pinned faults, which
  // hold the chain prefix, so the error names the chain.
  const ChainState empty_chain;
  const ChainState& chain = checkpoint.chain != nullptr ? *checkpoint.chain : empty_chain;
  if (snap.chain != chain) {
    return Mismatch("chain", ChainStateText(snap.chain), ChainStateText(chain));
  }
  if (snap.pinned != spec_->pinned_faults) {
    return Mismatch("pinned faults", CandidatesText(snap.pinned),
                    CandidatesText(spec_->pinned_faults));
  }
  // A network-config mismatch changes the candidate space or message timing
  // — resuming would diverge from the uninterrupted search.
  if (snap.network_candidates != options_.network_candidates) {
    return Mismatch("network.candidates", flag(snap.network_candidates),
                    flag(options_.network_candidates));
  }
  if (snap.partition_heal_ms != spec_->cluster->partition_heal_ms) {
    return Mismatch("network.partition_heal_ms", to_string(snap.partition_heal_ms),
                    to_string(spec_->cluster->partition_heal_ms));
  }
  if (snap.network_delay_ms != spec_->cluster->network_delay_ms) {
    return Mismatch("network.network_delay_ms", to_string(snap.network_delay_ms),
                    to_string(spec_->cluster->network_delay_ms));
  }
  // The candidate space the stage-1 engine ranked: a candidate/observable
  // count drift means the context was built differently (the fingerprint
  // only guards the program shape).
  if (snap.engine_candidates != static_cast<int64_t>(context_->candidates().size())) {
    return Mismatch("engine.candidates", to_string(snap.engine_candidates),
                    to_string(context_->candidates().size()));
  }
  if (snap.engine_observables != static_cast<int64_t>(context_->observables().size())) {
    return Mismatch("engine.observables", to_string(snap.engine_observables),
                    to_string(context_->observables().size()));
  }
  if (snap.strategy_name != strategy->name()) {
    return Mismatch("strategy.name", "'" + snap.strategy_name + "'",
                    "'" + strategy->name() + "'");
  }
  if (checkpoint.chain != nullptr &&
      snap.chain.steps.size() >= static_cast<size_t>(checkpoint.max_chain_length)) {
    return StrFormat(
        "checkpoint chain has %zu accepted steps, this search's max_chain_length %d "
        "leaves no phase to resume",
        snap.chain.steps.size(), checkpoint.max_chain_length);
  }
  strategy->Initialize(*context_);
  if (!strategy->RestoreState(snap.strategy)) {
    return StrFormat(
        "checkpoint strategy state (%zu observable priorities) does not restore into "
        "strategy '%s' over this context's %zu observables",
        snap.strategy.observable_priorities.size(), strategy->name().c_str(),
        context_->observables().size());
  }
  return "";
}

ExploreResult Explorer::Explore(InjectionStrategy* strategy, const CheckpointConfig& checkpoint) {
  Stopwatch total_timer;
  ExploreResult result;
  result.init_seconds = context_->init_seconds();

  obs::Tracer* tracer = options_.tracer;
  obs::MetricsRegistry* metrics = options_.metrics;
  // Logical-timeline base of this search's rounds (see obs/trace.h): round r
  // occupies [phase_base + r*kRoundStride, +kRoundStride), plan item i of a
  // round sits at +i*kItemStride on track i+1. A chain search's phases each
  // get their own region; a plain search is phase 0.
  const int64_t phase_base =
      checkpoint.chain != nullptr ? checkpoint.chain->phase * obs::kPhaseStride : 0;

  // Backoff for transient (wall-budget-killed) rounds. Its jitter RNG is
  // seeded off base_seed so the delay *stream* is deterministic; checkpoints
  // record the draw count so a resumed search continues the same stream.
  ExponentialBackoff::Options backoff_options;
  backoff_options.initial_delay_ms = options_.retry_initial_delay_ms;
  backoff_options.max_delay_ms = options_.retry_max_delay_ms;
  backoff_options.max_retries = options_.max_run_retries;
  ExponentialBackoff retry_backoff(backoff_options, spec_->base_seed ^ 0x9e3779b97f4a7c15ull);

  int first_round = 1;
  if (checkpoint.resume != nullptr) {
    const SearchCheckpoint& snap = *checkpoint.resume;
    const std::string error = ResumeError(snap, strategy, checkpoint);
    ANDURIL_CHECK(error.empty()) << error;
    retry_backoff.FastForward(snap.retry_rng_draws);
    result.experiment = snap.experiment;
    result.rounds = snap.rounds_completed;
    first_round = snap.rounds_completed + 1;
    // Overwrite (not merge): the snapshot was taken by a process that had
    // already built its context, so it subsumes the context-build metrics
    // this process just re-recorded. This is what makes the final metrics of
    // interrupted + resumed byte-identical to the uninterrupted search.
    if (snap.has_metrics && metrics != nullptr) {
      metrics->Restore(snap.metrics);
    }
  } else {
    strategy->Initialize(*context_);
  }

  std::optional<ThreadPool> pool_storage;
  if (options_.num_threads > 1) {
    pool_storage.emplace(options_.num_threads);
  }
  ThreadPool* pool = pool_storage ? &*pool_storage : nullptr;

  std::vector<int64_t> injection_requests;
  std::vector<double> decision_latencies;
  std::vector<double> round_inits;
  std::vector<double> workload_times;

  // Emits the round's spans once its record is final: a "round" span on
  // track 0 covering the round's whole grid slot, and per executed plan item
  // a "candidate" span (the armed window) nesting a "run" span (the
  // simulation) on track i+1. All timestamps are logical, so the trace is a
  // pure function of the search trajectory — identical at any thread count.
  auto trace_round = [&](const RoundRecord& rec, const RoundPlan& plan,
                         const std::vector<RepRun>& executed) {
    if (tracer == nullptr) {
      return;
    }
    const int64_t base = phase_base + static_cast<int64_t>(rec.round) * obs::kRoundStride;
    for (size_t i = 0; i < executed.size(); ++i) {
      const RepRun& rep = executed[i];
      const int64_t item_ts = base + static_cast<int64_t>(i) * obs::kItemStride;
      const int64_t track = static_cast<int64_t>(i) + 1;
      std::vector<obs::TraceArg> candidate_args;
      candidate_args.push_back(
          obs::ArgInt("armed", static_cast<int64_t>(plan.items[i].first.size())));
      if (rep.run.injected.has_value()) {
        candidate_args.push_back(obs::ArgStr(
            "site", spec_->program->fault_site(rep.run.injected->site).name));
        candidate_args.push_back(
            obs::ArgStr("kind", interp::FaultKindName(rep.run.injected->kind)));
        candidate_args.push_back(obs::ArgInt("occurrence", rep.run.injected->occurrence));
      }
      tracer->Span("explore", "candidate", item_ts, obs::kItemStride, track,
                   std::move(candidate_args));
      std::vector<obs::TraceArg> run_args;
      run_args.push_back(obs::ArgUint("seed", rep.seed));
      run_args.push_back(obs::ArgStr("outcome", interp::RunOutcomeName(rep.run.outcome)));
      run_args.push_back(obs::ArgBool("injected", rep.run.injected.has_value()));
      run_args.push_back(obs::ArgInt("requests", rep.run.injection_requests));
      run_args.push_back(obs::ArgInt("end_time_ms", rep.run.end_time_ms));
      int64_t run_dur = std::clamp<int64_t>(rep.run.end_time_ms, 1, obs::kItemStride - 1);
      tracer->Span("explore", "run", item_ts, run_dur, track, std::move(run_args));
    }
    std::vector<obs::TraceArg> round_args;
    round_args.push_back(obs::ArgInt("round", rec.round));
    round_args.push_back(obs::ArgInt("window", rec.window_size));
    round_args.push_back(obs::ArgBool("injected", rec.injected));
    round_args.push_back(obs::ArgBool("success", rec.success));
    round_args.push_back(obs::ArgStr("outcome", interp::RunOutcomeName(rec.outcome)));
    round_args.push_back(obs::ArgInt("present", rec.present_observables));
    round_args.push_back(obs::ArgInt("retries", rec.retries));
    tracer->Span("explore", "round", base, obs::kRoundStride, 0, std::move(round_args),
                 static_cast<int64_t>(rec.run_seconds * 1e9));
  };

  for (int round = first_round; round <= options_.max_rounds; ++round) {
    // Cooperative drain: stop between rounds. The previous round's checkpoint
    // is already on disk, so a resume continues byte-identically from here.
    if (options_.cancel != nullptr && options_.cancel->load(std::memory_order_relaxed)) {
      result.interrupted = true;
      break;
    }
    Stopwatch decide_timer;
    std::vector<interp::InjectionCandidate> window = strategy->NextWindow();
    double decide_seconds = decide_timer.ElapsedSeconds();
    if (window.empty() && strategy->Exhausted()) {
      break;
    }

    RoundRecord record;
    record.round = round;
    record.window_size = static_cast<int>(window.size());
    record.tracked_rank = options_.track_site != ir::kInvalidId
                              ? strategy->RankOfSite(options_.track_site)
                              : -1;
    for (const interp::InjectionCandidate& candidate : window) {
      if (interp::IsNetworkFaultKind(candidate.kind)) {
        ++record.network_candidates_tried;
      }
    }

    // Execute the round. One run by default; runs_per_round > 1 adds
    // repetitions with distinct seeds whose observable feedback is combined
    // (the paper's §6 remedy for probabilistically-missing log messages);
    // parallel_candidates fans the window out into single-candidate runs.
    // All of it lands on the thread pool when num_threads > 1, and the
    // selected run is always the first success in plan order, so the
    // outcome matches the serial engine exactly.
    Stopwatch run_timer;
    RoundPlan plan = PlanRound(*spec_, options_, round, window);
    // The context's cached FlatProgram is only valid for the program it was
    // lowered from; a context shared across specs with a different (equal)
    // program falls back to per-run self-lowering inside the simulator.
    const ir::FlatProgram* flat = context_->flat_program();
    if (flat->program() != spec_->program) {
      flat = nullptr;
    }
    std::vector<RepRun> executed = ExecutePlan(*spec_, flat, plan, pool, metrics);
    // Transient-failure retry: when the watchdog wall budget killed a run
    // the round's feedback is an artifact of host load, not of the fault.
    // Back off (bounded exponential + jitter) and re-execute the identical
    // plan; deterministic outcomes are never retried.
    while (AnyWallBudgetKill(executed) && retry_backoff.ShouldRetry()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(retry_backoff.NextDelayMs()));
      ++record.retries;
      ++result.experiment.transient_retries;
      if (tracer != nullptr) {
        tracer->Instant("explore", "retry",
                        phase_base + static_cast<int64_t>(round) * obs::kRoundStride +
                            obs::kRoundStride - obs::kItemStride + record.retries,
                        0, {obs::ArgInt("attempt", record.retries)});
      }
      executed = ExecutePlan(*spec_, flat, plan, pool, metrics);
    }
    retry_backoff.Reset();
    record.run_seconds = run_timer.ElapsedSeconds();
    result.experiment.total_run_wall_seconds += record.run_seconds;
    result.experiment.max_round_wall_seconds =
        std::max(result.experiment.max_round_wall_seconds, record.run_seconds);

    const RepRun* selected = &executed.front();
    for (const RepRun& rep : executed) {
      if (rep.success) {
        selected = &rep;
        break;
      }
    }
    const interp::RunResult& run = selected->run;

    record.outcome = run.outcome;
    record.partition_events = run.partition_events;
    CountOutcome(&result.experiment, run.outcome);

    if (metrics != nullptr) {
      metrics->Add("explore.rounds");
      metrics->Add(std::string("explore.outcome.") + interp::RunOutcomeName(run.outcome));
      metrics->Observe("explore.window_size", record.window_size);
      if (record.retries > 0) {
        metrics->Add("explore.retries", record.retries);
      }
      if (record.network_candidates_tried > 0) {
        metrics->Add("explore.network_candidates", record.network_candidates_tried);
      }
      metrics->Set("explore.last_round", round);
    }

    record.injected = run.injected.has_value();
    if (run.injected.has_value()) {
      record.candidate = *run.injected;
    }
    record.injection_requests = run.injection_requests;
    record.decision_nanos = run.decision_nanos;
    injection_requests.push_back(run.injection_requests);
    if (run.injection_requests > 0) {
      decision_latencies.push_back(static_cast<double>(run.decision_nanos) /
                                   static_cast<double>(run.injection_requests));
    }
    workload_times.push_back(record.run_seconds);

    bool success = spec_->oracle(*spec_->program, run);
    record.success = success;

    if (success && run.injected.has_value()) {
      if (strategy->WantsLogFeedback()) {
        // The successful round's observable count matters too: the
        // multi-fault search ranks rounds by it when picking a fault to pin.
        record.present_observables =
            static_cast<int>(context_->PresentObservables(RunLogKeys(run)).size());
      }
      record.decide_seconds = decide_seconds;
      result.records.push_back(record);
      result.reproduced = true;
      result.rounds = round;
      ReproductionScript script;
      script.site = run.injected->site;
      script.occurrence = run.injected->occurrence;
      script.type = run.injected->type;
      script.kind = run.injected->kind;
      script.seed = selected->seed;
      result.script = script;
      if (metrics != nullptr) {
        metrics->Add("explore.reproduced");
        if (record.present_observables >= 0) {
          metrics->Observe("logdiff.present_observables", record.present_observables);
        }
      }
      trace_round(record, plan, executed);
      if (tracer != nullptr) {
        tracer->Instant("explore", "reproduced",
                        phase_base + static_cast<int64_t>(round) * obs::kRoundStride +
                            obs::kRoundStride - 1,
                        0,
                        {obs::ArgStr("site", spec_->program->fault_site(script.site).name),
                         obs::ArgStr("kind", interp::FaultKindName(script.kind)),
                         obs::ArgInt("occurrence", script.occurrence),
                         obs::ArgUint("seed", script.seed)});
      }
      break;
    }

    // Feedback digestion: combined logs across every run of the round (§6).
    // Partial logs from crashed and watchdog-killed runs participate too —
    // a truncated log still carries every observable emitted before the
    // crash, which is exactly the feedback Algorithm 2 wants.
    Stopwatch feedback_timer;
    RoundOutcome outcome;
    outcome.round = round;
    outcome.outcome = run.outcome;
    // Window candidates whose (site, occurrence) a pinned fault claimed
    // first: report them so the strategy retires them instead of re-arming
    // the same doomed instance forever.
    for (const RepRun& rep : executed) {
      for (const interp::InjectionCandidate& candidate : rep.run.preempted_window) {
        if (std::find(outcome.preempted.begin(), outcome.preempted.end(), candidate) ==
            outcome.preempted.end()) {
          outcome.preempted.push_back(candidate);
        }
      }
    }
    if (options_.parallel_candidates && window.size() > 1) {
      // Speculative mode: every run that fired reports its instance, in
      // candidate-rank order, so the strategy retires all of them at once.
      for (const RepRun& rep : executed) {
        if (!rep.run.injected.has_value()) {
          continue;
        }
        const interp::InjectionCandidate& fired = *rep.run.injected;
        if (outcome.injected == fired ||
            std::find(outcome.also_injected.begin(), outcome.also_injected.end(), fired) !=
                outcome.also_injected.end()) {
          continue;
        }
        if (!outcome.injected.has_value()) {
          outcome.injected = fired;
        } else {
          outcome.also_injected.push_back(fired);
        }
      }
      // Let the round record reflect the round's real injection activity
      // (the multi-fault search pins record.candidate of the best round).
      if (!record.injected && outcome.injected.has_value()) {
        record.injected = true;
        record.candidate = *outcome.injected;
      }
    } else {
      // Repetition mode reports only the selected run's injection: the
      // serial engine never sees the others, and parity with it is the
      // determinism contract.
      outcome.injected = run.injected;
    }
    if (strategy->WantsLogFeedback()) {
      outcome.present_keys = context_->PresentObservables(CombinedKeys(executed, pool));
      record.present_observables = static_cast<int>(outcome.present_keys.size());
      if (metrics != nullptr) {
        metrics->Observe("logdiff.present_observables", record.present_observables);
      }
    }
    strategy->OnRound(outcome);
    record.decide_seconds = decide_seconds + feedback_timer.ElapsedSeconds();
    round_inits.push_back(record.decide_seconds);
    trace_round(record, plan, executed);
    result.records.push_back(record);
    result.rounds = round;

    if (!checkpoint.path.empty()) {
      SearchCheckpoint snap;
      snap.program_fingerprint = ProgramFingerprint(*spec_->program);
      snap.base_seed = spec_->base_seed;
      snap.rounds_completed = round;
      snap.retry_rng_draws = retry_backoff.draws();
      snap.network_candidates = options_.network_candidates;
      snap.partition_heal_ms = spec_->cluster->partition_heal_ms;
      snap.network_delay_ms = spec_->cluster->network_delay_ms;
      snap.engine_candidates = static_cast<int64_t>(context_->candidates().size());
      snap.engine_observables = static_cast<int64_t>(context_->observables().size());
      snap.experiment = result.experiment;
      snap.pinned = spec_->pinned_faults;
      ANDURIL_CHECK(strategy->SaveState(&snap.strategy));
      snap.strategy_name = strategy->name();
      if (checkpoint.chain != nullptr) {
        snap.chain = *checkpoint.chain;
        // Persist the live phase's injected-round summaries so a mid-chain
        // resume can still merge them into the stitch-candidate pick even
        // though the records themselves die with this process.
        for (const RoundRecord& rec : result.records) {
          if (!rec.injected) {
            continue;
          }
          snap.chain.round_candidates.push_back(
              ChainRoundCandidate{rec.candidate, rec.present_observables, rec.round});
        }
      }
      if (metrics != nullptr) {
        snap.has_metrics = true;
        snap.metrics = metrics->Snapshot();
      }
      ANDURIL_CHECK(SaveCheckpointFile(checkpoint.path, snap));
    }

    // The round's results are consumed; hand one run's log/trace buffers
    // back to this thread's scratch so the next round (serial engine: the
    // same thread executes it) overwrites them in place instead of
    // reallocating every log entry.
    if (!executed.empty()) {
      LocalScratch().Recycle(std::move(executed.back().run));
    }
  }

  // The "explore" envelope span covers the rounds *this process* executed
  // (first_round..result.rounds); a resumed search traces only its own
  // segment, which is why the golden resume test compares round-level lines.
  if (tracer != nullptr && result.rounds >= first_round) {
    std::vector<obs::TraceArg> explore_args;
    explore_args.push_back(obs::ArgStr("strategy", strategy->name()));
    explore_args.push_back(obs::ArgBool("reproduced", result.reproduced));
    explore_args.push_back(obs::ArgInt("rounds", result.rounds));
    explore_args.push_back(obs::ArgInt("first_round", first_round));
    tracer->Span("explore", "explore",
                 phase_base + static_cast<int64_t>(first_round) * obs::kRoundStride,
                 static_cast<int64_t>(result.rounds - first_round + 1) * obs::kRoundStride, 0,
                 std::move(explore_args));
  }
  if (metrics != nullptr) {
    metrics->Set("explore.rounds_total", result.rounds);
    result.metrics = metrics->Snapshot();
  }

  result.total_seconds = total_timer.ElapsedSeconds() + context_->init_seconds();
  result.median_injection_requests = Median(injection_requests);
  if (!decision_latencies.empty()) {
    double sum = 0;
    for (double latency : decision_latencies) {
      sum += latency;
    }
    result.mean_decision_nanos = sum / static_cast<double>(decision_latencies.size());
  }
  result.median_round_init_seconds = Median(round_inits);
  result.median_workload_seconds = Median(workload_times);
  return result;
}

bool Explorer::Replay(const ExperimentSpec& spec, const ReproductionScript& script) {
  interp::FaultRuntime runtime(spec.program);
  runtime.SetPinned(spec.pinned_faults);
  runtime.SetWindow({interp::InjectionCandidate{script.site, script.occurrence, script.type,
                                                script.kind}});
  interp::Simulator simulator(spec.program, spec.cluster, script.seed, &runtime);
  interp::RunResult run = simulator.Run();
  return spec.oracle(*spec.program, run) && run.injected.has_value();
}

}  // namespace anduril::explorer
