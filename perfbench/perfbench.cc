// perfbench: the end-to-end reproduction benchmark. One search is the
// product's unit of work: failure log (ExperimentSpec) in, verified
// ReproductionScript out. Each workload is a closed loop with one client,
// one search at a time, calling only public APIs (systems::BuildCase,
// explorer::Explorer / ChainExplorer, service::RunService and the strategy
// and oracle hooks the explorer calls).
//
//   perfbench --workload <paper22|storm-blind|service-queue> --seed N
//             --seconds S --trace <0|1> [--work-dir DIR]
//
// --trace 0 prints the end-to-end metrics of an untraced run. --trace 1
// prints the per-layer metrics of a traced run: spans recorded around the
// hooks (perfbench/trace.h), a context-build replica (perfbench/replica.h),
// program counters through an attached obs::MetricsRegistry, and file-level
// timings of the checkpoints and journal the service leaves behind. Every
// run checks its outputs (replay, capped baselines, service == in-process),
// prints a summary, and ends with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// It exits 1 when any search is wrong, 2 on bad usage.
//
// `perfbench worker <dir> <daemon_pid>` is the service's worker entry: the
// daemon forks and re-executes this binary for its worker processes.

#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "perfbench/replica.h"
#include "perfbench/trace.h"
#include "src/explorer/checkpoint.h"
#include "src/explorer/context.h"
#include "src/explorer/explorer.h"
#include "src/explorer/iterative.h"
#include "src/explorer/strategy.h"
#include "src/obs/metrics.h"
#include "src/service/daemon.h"
#include "src/service/manifest.h"
#include "src/service/runner.h"
#include "src/service/worker.h"
#include "src/systems/common.h"
#include "src/systems/harness.h"

namespace perfbench {
namespace {

namespace explorer = anduril::explorer;
namespace fs = std::filesystem;
namespace obs = anduril::obs;
namespace service = anduril::service;
namespace systems = anduril::systems;

// Full builds of the workload's inputs per run; setup_s is their median.
constexpr int kSetupRepetitions = 30;
// Budget of the blind storm baselines, as in BENCH_storm.json.
constexpr int kStormRoundCap = 150;
// Service queue: per-case round budget (anduril_serve's default), slice
// length and worker processes. 19 of the 31 cases need more than 6 rounds,
// so most resume from their checkpoint at least once; shorter slices add
// daemon/worker hand-offs (two 2 ms polls and a journal write each) whose
// wake-up and disk latency swing with the host far more than the searches.
constexpr int kQueueRoundBudget = 2000;
constexpr int kQueueSliceRounds = 6;
constexpr int kQueueWorkers = 2;
// Context-replica repetitions per case in traced runs.
constexpr int kReplicaRepetitions = 3;

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(1);
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double PercentileNs(const std::vector<int64_t>& ns, double q, double unit_ns) {
  std::vector<double> values;
  values.reserve(ns.size());
  for (int64_t v : ns) {
    values.push_back(static_cast<double>(v) / unit_ns);
  }
  return Percentile(std::move(values), q);
}

double Ratio(double numerator, double denominator) {
  return denominator == 0 ? 0 : numerator / denominator;
}

// Peak resident memory of this process (RUSAGE_SELF) or of the largest child
// it has waited for (RUSAGE_CHILDREN).
double PeakRssMb(int who = RUSAGE_SELF) {
  rusage usage{};
  getrusage(who, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// Nanoseconds on the wall clock that stamps file modification times.
int64_t RealtimeNs() {
  timespec now{};
  clock_gettime(CLOCK_REALTIME, &now);
  return static_cast<int64_t>(now.tv_sec) * 1000000000 + now.tv_nsec;
}

// Modification time of `path` on the RealtimeNs clock, or -1.
int64_t MtimeNs(const std::string& path) {
  struct stat info {};
  if (stat(path.c_str(), &info) != 0) {
    return -1;
  }
  return static_cast<int64_t>(info.st_mtim.tv_sec) * 1000000000 + info.st_mtim.tv_nsec;
}

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// ---- Result line -------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
};

int Emit(const std::string& workload, const Result& result) {
  std::printf("perfbench %s: %lld searches, %lld failed (failed_frac %.6f)\n", workload.c_str(),
              static_cast<long long>(result.attempted), static_cast<long long>(result.failed),
              Ratio(static_cast<double>(result.failed), static_cast<double>(result.attempted)));
  for (const Metric& metric : result.metrics) {
    std::printf("  %-32s %16.6f %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }
  const bool correct = result.failed == 0 && result.attempted > 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", result.metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + result.metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + result.metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// ---- Cases -------------------------------------------------------------------

struct Case {
  const systems::FailureCase* source = nullptr;
  // BuiltCase points into itself (spec -> program, cluster): keep it pinned.
  std::unique_ptr<systems::BuiltCase> built;
  explorer::ExplorerOptions options;
};

Case BuildOne(const systems::FailureCase& failure_case) {
  Case built_case;
  built_case.source = &failure_case;
  built_case.built = std::make_unique<systems::BuiltCase>(systems::BuildCase(failure_case));
  built_case.built->spec.program = built_case.built->program.get();
  built_case.built->spec.cluster = &built_case.built->cluster;
  built_case.options = systems::OptionsForCase(failure_case);
  return built_case;
}

// setup_s is the median of kSetupRepetitions full builds of the workload's
// inputs. The first build makes the inputs; the others are spread over the
// measured phase and left out of its wall time, so setup_s samples the same
// host speed as the searches it is compared with. A rebuild drops each case
// as soon as it is built, so it adds no second copy of the inputs to the
// process's peak memory.
class Setup {
 public:
  explicit Setup(std::vector<const systems::FailureCase*> sources) : sources_(std::move(sources)) {}

  void BuildInputs(std::vector<Case>* cases) {
    const int64_t start = NowNs();
    for (const systems::FailureCase* source : sources_) {
      cases->push_back(BuildOne(*source));
    }
    seconds_.push_back(Seconds(NowNs() - start));
  }

  // Between passes: rebuilds once if the phase has reached the next of
  // kSetupRepetitions evenly spaced points. Returns the nanoseconds spent.
  int64_t MaybeRebuild(double elapsed, double phase_seconds) {
    const double due = static_cast<double>(seconds_.size()) * phase_seconds / kSetupRepetitions;
    if (seconds_.size() >= static_cast<size_t>(kSetupRepetitions) || elapsed < due) {
      return 0;
    }
    const int64_t start = NowNs();
    Rebuild();
    return NowNs() - start;
  }

  double MedianSeconds() {
    while (seconds_.size() < static_cast<size_t>(kSetupRepetitions)) {
      Rebuild();
    }
    return Percentile(seconds_, 0.5);
  }

 private:
  void Rebuild() {
    int64_t ns = 0;
    for (const systems::FailureCase* source : sources_) {
      const int64_t start = NowNs();
      const Case discarded = BuildOne(*source);
      ns += NowNs() - start;
    }
    seconds_.push_back(Seconds(ns));
  }

  std::vector<const systems::FailureCase*> sources_;
  std::vector<double> seconds_;
};

std::vector<const systems::FailureCase*> Pointers(const std::vector<systems::FailureCase>& cases) {
  std::vector<const systems::FailureCase*> out;
  for (const systems::FailureCase& failure_case : cases) {
    out.push_back(&failure_case);
  }
  return out;
}

// ---- Traced-run helpers ----------------------------------------------------

struct ReplicaTotals {
  int64_t constructor_ns = 0;
  ReplicaStages stages;
  int64_t builds = 0;
  bool counts_match = true;
};

// Times the ExplorerContext constructor and the replica of its stages on the
// same spec, alternating which runs first.
void MeasureReplica(const explorer::ExperimentSpec& spec, const explorer::ExplorerOptions& options,
                    ReplicaTotals* totals) {
  for (int rep = 0; rep < kReplicaRepetitions; ++rep) {
    auto constructor = [&] {
      const int64_t start = NowNs();
      auto context = std::make_shared<const explorer::ExplorerContext>(spec, options);
      totals->constructor_ns += NowNs() - start;
      return context;
    };
    std::shared_ptr<const explorer::ExplorerContext> context;
    ReplicaStages stages;
    if (rep % 2 == 0) {
      context = constructor();
      stages = RunContextReplica(spec, options);
    } else {
      stages = RunContextReplica(spec, options);
      context = constructor();
    }
    totals->stages += stages;
    totals->counts_match = totals->counts_match &&
                           stages.observables == context->observables().size() &&
                           stages.candidates == context->candidates().size();
    ++totals->builds;
  }
}

// File-level costs of the service's durable state.
struct FileTimings {
  std::vector<double> checkpoint_write_us;
  std::vector<double> checkpoint_read_us;
  std::vector<double> checkpoint_bytes;
  std::vector<double> journal_write_us;
};

struct ServiceTotals {
  int queues = 0;
  int64_t slices = 0;
  int64_t respawns = 0;
  double sharded_seconds = 0;
  double serial_seconds = 0;
  double in_process_seconds = 0;
  FileTimings files;
};

// Per-layer metrics. Every workload prints every metric; a layer a workload
// never reaches (checkpoint and service layers outside service-queue) reads
// 0, which is also what it costs there. `registry` is the one attached to the
// traced searches.
void AddLayerMetrics(const LayerTotals& layers, const obs::MetricsRegistry& registry,
                     double present_observables, const ReplicaTotals& replica,
                     const ServiceTotals& service_totals, double overhead_frac, Result* result) {
  const double search_ns = static_cast<double>(layers.search_ns);
  const double rounds = static_cast<double>(layers.rounds);
  const double runs = static_cast<double>(registry.counter("sim.runs"));
  const double steps = static_cast<double>(registry.histogram("sim.steps").sum);
  const double builds = static_cast<double>(std::max<int64_t>(1, replica.builds));
  auto share = [&](int64_t ns) { return Ratio(static_cast<double>(ns), search_ns); };
  auto mean_ms = [](const std::vector<int64_t>& ns) {
    double sum = 0;
    for (int64_t v : ns) {
      sum += static_cast<double>(v);
    }
    return ns.empty() ? 0.0 : sum / static_cast<double>(ns.size()) / 1e6;
  };
  auto stage_ms = [&](int64_t ns) { return static_cast<double>(ns) / builds / 1e6; };

  result->Add("logdiff.feedback_us_p50", PercentileNs(layers.feedback_samples, 0.5, 1e3), "us");
  result->Add("logdiff.feedback_share", share(layers.feedback_ns), "fraction");
  result->Add("logdiff.log_entries_per_run", Ratio(static_cast<double>(layers.log_entries), rounds),
              "count");
  result->Add("logdiff.present_observables", present_observables, "count");

  result->Add("interp.execute_us_p50", PercentileNs(layers.execute_samples, 0.5, 1e3), "us");
  result->Add("interp.execute_us_p99", PercentileNs(layers.execute_samples, 0.99, 1e3), "us");
  result->Add("interp.execute_share", share(layers.execute_ns), "fraction");
  result->Add("interp.runs", Ratio(runs, static_cast<double>(layers.searches)), "count");
  result->Add("interp.steps_per_run", Ratio(steps, runs), "count");
  result->Add("interp.events_per_run",
              Ratio(static_cast<double>(registry.histogram("sim.events").sum), runs), "count");
  result->Add("interp.ns_per_step", Ratio(static_cast<double>(layers.execute_ns), steps), "ns");
  result->Add("fault.requests_per_run",
              Ratio(static_cast<double>(registry.counter("fault.requests")), runs), "count");

  result->Add("context.build_ms", mean_ms(layers.context_samples), "ms");
  result->Add("context.share", share(layers.context_ns), "fraction");
  result->Add("context.failure_parse_ms", stage_ms(replica.stages.failure_parse_ns), "ms");
  result->Add("context.flatten_ms", stage_ms(replica.stages.flatten_ns), "ms");
  result->Add("context.baseline_run_ms", stage_ms(replica.stages.baseline_run_ns), "ms");
  result->Add("context.normal_log_ms", stage_ms(replica.stages.normal_log_ns), "ms");
  result->Add("context.diff_ms", stage_ms(replica.stages.diff_ns), "ms");
  result->Add("context.graph_ms", stage_ms(replica.stages.graph_ns), "ms");
  result->Add("context.distance_ms", stage_ms(replica.stages.distance_ns), "ms");
  result->Add("context.timeline_ms", stage_ms(replica.stages.timeline_ns), "ms");
  result->Add("context.replica_gap",
              Ratio(static_cast<double>(replica.stages.total_ns() - replica.constructor_ns),
                    static_cast<double>(replica.constructor_ns)),
              "fraction");

  result->Add("explorer.rank_us_p50", PercentileNs(layers.rank_samples, 0.5, 1e3), "us");
  result->Add("explorer.rank_share", share(layers.rank_ns), "fraction");
  result->Add("explorer.update_us_p50", PercentileNs(layers.update_samples, 0.5, 1e3), "us");
  result->Add("explorer.update_share", share(layers.update_ns), "fraction");
  result->Add("explorer.engine_init_ms", mean_ms(layers.init_samples), "ms");
  result->Add("explorer.oracle_us_p50", PercentileNs(layers.oracle_samples, 0.5, 1e3), "us");
  result->Add("explorer.round_us_p50", PercentileNs(layers.round_samples, 0.5, 1e3), "us");
  result->Add("explorer.round_us_p99", PercentileNs(layers.round_samples, 0.99, 1e3), "us");
  result->Add("explorer.round_overhead_ratio",
              Ratio(static_cast<double>(layers.round_ns - layers.execute_ns),
                    static_cast<double>(layers.execute_ns)),
              "ratio");
  result->Add("explorer.injecting_round_frac",
              Ratio(static_cast<double>(layers.injecting_rounds), rounds), "fraction");
  result->Add("explorer.persist_us_p50", PercentileNs(layers.persist_samples, 0.5, 1e3), "us");
  result->Add("explorer.persist_share", share(layers.persist_ns), "fraction");

  const FileTimings& files = service_totals.files;
  result->Add("checkpoint.write_us", Percentile(files.checkpoint_write_us, 0.5), "us");
  result->Add("checkpoint.read_us", Percentile(files.checkpoint_read_us, 0.5), "us");
  result->Add("checkpoint.bytes", Percentile(files.checkpoint_bytes, 0.5), "bytes");
  result->Add("journal.write_us", Percentile(files.journal_write_us, 0.5), "us");

  const double queues = static_cast<double>(std::max(1, service_totals.queues));
  result->Add("service.slices", static_cast<double>(service_totals.slices) / queues, "count");
  result->Add("service.respawns", static_cast<double>(service_totals.respawns) / queues, "count");
  result->Add("service.serial_overhead_ratio",
              Ratio(service_totals.serial_seconds, service_totals.in_process_seconds), "ratio");
  result->Add("service.parallel_efficiency",
              Ratio(service_totals.serial_seconds,
                    kQueueWorkers * service_totals.sharded_seconds),
              "fraction");

  result->Add("trace.overhead_frac", overhead_frac, "fraction");
  result->Add("trace.unattributed_share",
              Ratio(static_cast<double>(layers.unattributed_ns),
                    static_cast<double>(layers.round_ns)),
              "fraction");
}

void WriteSpans(const Recorder& recorder, const std::string& work_dir,
                const std::string& workload) {
  const std::string path = work_dir + "/spans-" + workload + ".jsonl";
  if (!recorder.WriteJsonl(path)) {
    Die("cannot write spans to " + path);
  }
  std::fprintf(stderr, "perfbench: %zu spans written to %s\n", recorder.spans().size(),
               path.c_str());
}

// Sums the rounds' present-observable counts (rounds without log feedback
// report -1 and are skipped).
void AddPresentObservables(const explorer::ExploreResult& result, double* sum, int64_t* n) {
  for (const explorer::RoundRecord& record : result.records) {
    if (record.present_observables >= 0) {
      *sum += record.present_observables;
      ++*n;
    }
  }
}

// ---- In-process workloads (paper22, storm-blind) ----------------------------

struct JobKind {
  size_t case_index = 0;
  std::string strategy;
  bool expect_reproduced = true;
};

struct InProcessWorkload {
  std::vector<const systems::FailureCase*> sources;
  std::vector<std::string> strategies;  // each case runs once per strategy
  int max_rounds = 0;                   // 0 = ExplorerOptions default
  // Base-seed offsets per cycle: pass p runs every job at offset slot
  // p % slots, and a run completes at least one full cycle, so
  // rounds_per_case is exact for a seed.
  int slots = 1;
  // Tail percentile of case_ms: the highest that leaves at least 10 searches
  // beyond it in a run of the benchmark's length.
  double tail = 0.99;
};

struct Outcome {
  bool reproduced = false;
  int rounds = 0;
  std::optional<explorer::ReproductionScript> script;

  bool operator==(const Outcome& other) const {
    auto same_script = [](const explorer::ReproductionScript& a,
                          const explorer::ReproductionScript& b) {
      return a.site == b.site && a.occurrence == b.occurrence && a.type == b.type &&
             a.kind == b.kind && a.seed == b.seed;
    };
    return reproduced == other.reproduced && rounds == other.rounds &&
           script.has_value() == other.script.has_value() &&
           (!script.has_value() || same_script(*script, *other.script));
  }
};

struct SearchSample {
  size_t job = 0;  // kind * slots + slot
  int64_t ns = 0;
  Outcome outcome;
};

class InProcessRunner {
 public:
  InProcessRunner(const InProcessWorkload& workload, uint64_t seed)
      : workload_(workload), seed_(seed) {}

  int Run(const std::string& name, double seconds, bool trace, const std::string& work_dir) {
    Result result;
    Setup setup(workload_.sources);
    setup.BuildInputs(&cases_);
    for (size_t c = 0; c < cases_.size(); ++c) {
      for (const std::string& strategy : workload_.strategies) {
        kinds_.push_back(JobKind{c, strategy, strategy == "full"});
      }
      if (workload_.max_rounds > 0) {
        cases_[c].options.max_rounds = workload_.max_rounds;
      }
      specs_.emplace_back();
      traced_specs_.emplace_back();
      for (int slot = 0; slot < workload_.slots; ++slot) {
        explorer::ExperimentSpec spec = cases_[c].built->spec;
        spec.base_seed += Mix(seed_ * 1000003ull + static_cast<uint64_t>(slot)) % 10000;
        specs_.back().push_back(spec);
        traced_specs_.back().push_back(TracedSpec(spec, &recorder_));
      }
    }
    traced_options_.reserve(cases_.size());
    for (const Case& built_case : cases_) {
      traced_options_.push_back(built_case.options);
      traced_options_.back().metrics = &registry_;
    }
    first_.assign(kinds_.size() * static_cast<size_t>(workload_.slots), std::nullopt);

    Pass(0, /*traced=*/false, nullptr);  // warm-up: caches, lazy set-up
    std::vector<SearchSample> samples;
    std::vector<SearchSample> traced_samples;
    const int64_t start = NowNs();
    int64_t setup_ns = 0;
    for (int pass = 0; pass < workload_.slots || Seconds(NowNs() - start) < seconds; ++pass) {
      if (!trace) {
        Pass(pass, false, &samples);
      } else {
        // Untraced and traced passes over identical jobs, alternating which
        // goes first, so trace.overhead_frac compares like with like.
        Pass(pass, pass % 2 == 1, pass % 2 == 1 ? &traced_samples : &samples);
        Pass(pass, pass % 2 == 0, pass % 2 == 0 ? &traced_samples : &samples);
      }
      setup_ns += setup.MaybeRebuild(Seconds(NowNs() - start), seconds);
    }
    const double phase_s = Seconds(NowNs() - start - setup_ns);

    result.attempted = static_cast<int64_t>(samples.size() + traced_samples.size());
    result.failed = CountFailures(samples) + CountFailures(traced_samples);
    if (!trace) {
      std::vector<double> case_ms;
      for (const SearchSample& sample : samples) {
        case_ms.push_back(static_cast<double>(sample.ns) / 1e6);
      }
      double rounds = 0;
      for (const std::optional<Outcome>& outcome : first_) {
        rounds += outcome->rounds;
      }
      result.Add("setup_s", setup.MedianSeconds(), "s");
      result.Add("cases_per_s", static_cast<double>(samples.size()) / phase_s, "1/s");
      result.Add("case_ms_p50", Percentile(case_ms, 0.5), "ms");
      result.Add("case_ms_tail", Percentile(case_ms, workload_.tail), "ms");
      result.Add("rounds_per_case", rounds / static_cast<double>(first_.size()), "count");
      result.Add("peak_rss_mb", PeakRssMb(), "MB");
      return Emit(name, result);
    }

    LayerTotals layers = DeriveLayers(recorder_.spans());
    for (size_t i = 0; i < traced_samples.size(); ++i) {
      if (layers.rounds_per_search[i] != traced_samples[i].outcome.rounds) {
        Die("span-derived rounds disagree with the explorer's round count");
      }
    }
    int64_t untraced_ns = 0;
    int64_t traced_ns = 0;
    for (const SearchSample& sample : samples) {
      untraced_ns += sample.ns;
    }
    for (const SearchSample& sample : traced_samples) {
      traced_ns += sample.ns;
    }
    ReplicaTotals replica;
    for (size_t c = 0; c < cases_.size(); ++c) {
      MeasureReplica(specs_[c][0], cases_[c].options, &replica);
    }
    if (!replica.counts_match) {
      Die("context replica drifted: candidate/observable counts differ from ExplorerContext");
    }
    AddLayerMetrics(layers, registry_,
                    present_n_ == 0 ? 0 : present_sum_ / static_cast<double>(present_n_), replica,
                    ServiceTotals{},
                    Ratio(static_cast<double>(traced_ns - untraced_ns),
                          static_cast<double>(untraced_ns)),
                    &result);
    WriteSpans(recorder_, work_dir, name);
    return Emit(name, result);
  }

 private:
  void Pass(int pass, bool traced, std::vector<SearchSample>* out) {
    const size_t slot = static_cast<size_t>(pass % workload_.slots);
    std::vector<size_t> order(kinds_.size());
    for (size_t i = 0; i < order.size(); ++i) {
      order[i] = i;
    }
    std::mt19937_64 rng(Mix(seed_ ^ Mix(static_cast<uint64_t>(pass))));
    std::shuffle(order.begin(), order.end(), rng);
    for (size_t kind_index : order) {
      const JobKind& kind = kinds_[kind_index];
      const Case& built_case = cases_[kind.case_index];
      const int64_t start = NowNs();
      explorer::ExploreResult explored;
      if (traced) {
        std::unique_ptr<explorer::InjectionStrategy> strategy =
            explorer::MakeStrategy(kind.strategy);
        explored = TracedSearch(traced_specs_[kind.case_index][slot],
                                traced_options_[kind.case_index], strategy.get(), {}, &recorder_);
        AddPresentObservables(explored, &present_sum_, &present_n_);
      } else {
        explorer::Explorer ex(specs_[kind.case_index][slot], built_case.options);
        std::unique_ptr<explorer::InjectionStrategy> strategy =
            explorer::MakeStrategy(kind.strategy);
        explored = ex.Explore(strategy.get());
      }
      const int64_t ns = NowNs() - start;
      SearchSample sample;
      sample.job = kind_index * static_cast<size_t>(workload_.slots) + slot;
      sample.ns = ns;
      sample.outcome = Outcome{explored.reproduced, explored.rounds, explored.script};
      if (!first_[sample.job].has_value()) {
        first_[sample.job] = sample.outcome;
      }
      if (out != nullptr) {
        out->push_back(std::move(sample));
      }
    }
  }

  // A search is wrong when its outcome breaks the workload's expectation
  // (feedback reproduces with a script that replays; a capped baseline ends
  // unreproduced at the cap) or differs from an earlier search of the same
  // job (the determinism contract).
  int64_t CountFailures(const std::vector<SearchSample>& samples) {
    int64_t failed = 0;
    for (const SearchSample& sample : samples) {
      if (!JobOk(sample.job) || !(sample.outcome == *first_[sample.job])) {
        ++failed;
      }
    }
    return failed;
  }

  bool JobOk(size_t job) {
    auto known = job_ok_.find(job);
    if (known != job_ok_.end()) {
      return known->second;
    }
    const JobKind& kind = kinds_[job / static_cast<size_t>(workload_.slots)];
    const size_t slot = job % static_cast<size_t>(workload_.slots);
    const Outcome& outcome = *first_[job];
    bool ok = false;
    if (kind.expect_reproduced) {
      ok = outcome.reproduced && outcome.script.has_value() &&
           explorer::Explorer::Replay(specs_[kind.case_index][slot], *outcome.script);
    } else {
      ok = !outcome.reproduced && outcome.rounds == workload_.max_rounds;
    }
    if (!ok) {
      std::fprintf(stderr,
                   "perfbench: wrong outcome: %s / %s at slot %zu (reproduced=%d, rounds=%d)\n",
                   cases_[kind.case_index].source->id.c_str(), kind.strategy.c_str(), slot,
                   outcome.reproduced, outcome.rounds);
    }
    job_ok_[job] = ok;
    return ok;
  }

  const InProcessWorkload& workload_;
  uint64_t seed_;
  std::vector<Case> cases_;
  std::vector<JobKind> kinds_;
  // Per case, per slot: the case's spec with its base seed offset.
  std::vector<std::vector<explorer::ExperimentSpec>> specs_;
  std::vector<std::vector<explorer::ExperimentSpec>> traced_specs_;
  std::vector<explorer::ExplorerOptions> traced_options_;
  std::vector<std::optional<Outcome>> first_;
  std::map<size_t, bool> job_ok_;
  Recorder recorder_;
  obs::MetricsRegistry registry_;
  double present_sum_ = 0;
  int64_t present_n_ = 0;
};

// ---- Service queue -------------------------------------------------------------

struct QueueRun {
  double seconds = 0;
  service::ServeReport report;
  // Per queue entry: RunService start -> the worker writing the case's
  // metrics file after its last slice, read from the file's mtime once the
  // queue is done (no polling while it runs). The kernel stamps mtimes from
  // its coarse clock, so a time may read up to one tick early.
  std::vector<double> case_ms;
};

// Runs one queue in a fresh state dir.
QueueRun RunQueue(const std::string& dir, const std::vector<service::QueueCase>& queue,
                  int workers) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  service::ServeOptions options;
  options.state_dir = dir;
  options.seed_cases = queue;
  options.slice_rounds = kQueueSliceRounds;
  options.workers = workers;
  options.verbose = false;
  QueueRun run;
  const int64_t start_realtime = RealtimeNs();
  const int64_t start = NowNs();
  run.report = service::RunService(options);
  const int64_t end = NowNs();
  run.seconds = Seconds(end - start);
  for (const service::QueueCase& entry : queue) {
    const int64_t done = MtimeNs(service::CaseMetricsPath(dir, entry.id));
    run.case_ms.push_back(static_cast<double>(done >= 0 ? done - start_realtime : end - start) /
                          1e6);
  }
  return run;
}

// The in-process search a queue entry must equal.
struct Reference {
  int rounds = 0;
  std::string script;
  uint64_t seed = 0;
  bool ok = false;  // reproduced and replays
};

// Same text as the service's chain script (service/runner.cc).
std::string ChainText(const anduril::ir::Program& program, const explorer::FaultChain& chain) {
  std::string text;
  for (size_t i = 0; i < chain.steps.size(); ++i) {
    const explorer::FaultChainStep& step = chain.steps[i];
    const char* what = step.candidate.kind == anduril::interp::FaultKind::kException
                           ? program.exception_type(step.candidate.type).name.c_str()
                           : anduril::interp::FaultKindName(step.candidate.kind);
    char line[256];
    std::snprintf(line, sizeof(line), "step %zu: %s, %s at occurrence %lld (seed %llu)\n", i + 1,
                  program.fault_site(step.candidate.site).name.c_str(), what,
                  static_cast<long long>(step.candidate.occurrence),
                  static_cast<unsigned long long>(step.seed));
    text += line;
  }
  return text;
}

bool IsCascade(const systems::FailureCase* failure_case) {
  for (const systems::FailureCase& cascade : systems::CascadeCases()) {
    if (&cascade == failure_case) {
      return true;
    }
  }
  return false;
}

// Runs the case's search in-process exactly as the service configures it;
// with `replay` also checks the script.
Reference SearchInProcess(const Case& built_case, bool replay) {
  Reference reference;
  const explorer::ExperimentSpec& spec = built_case.built->spec;
  explorer::ExplorerOptions options = built_case.options;
  if (IsCascade(built_case.source)) {
    options.max_rounds = std::max(options.max_rounds, kQueueRoundBudget);
    options.max_total_rounds = kQueueRoundBudget;
    explorer::ChainExplorer chain_explorer(spec, options);
    explorer::ChainResult chain = chain_explorer.Explore(service::kServiceMaxChainLength);
    reference.rounds = chain.total_rounds;
    if (chain.reproduced) {
      reference.script = ChainText(*spec.program, chain.chain);
      reference.seed = chain.chain.steps.back().seed;
      reference.ok = !replay || explorer::ChainExplorer::Replay(spec, chain);
    }
    return reference;
  }
  options.max_rounds = kQueueRoundBudget;
  explorer::Explorer ex(spec, options);
  std::unique_ptr<explorer::InjectionStrategy> strategy = explorer::MakeFullFeedbackStrategy();
  explorer::ExploreResult explored = ex.Explore(strategy.get());
  reference.rounds = explored.rounds;
  if (explored.reproduced) {
    reference.script = explored.script->ToText(*spec.program);
    reference.seed = explored.script->seed;
    reference.ok = !replay || explorer::Explorer::Replay(spec, *explored.script);
  }
  return reference;
}

class ServiceRunner {
 public:
  explicit ServiceRunner(uint64_t seed) : seed_(seed) {}

  int Run(const std::string& name, double seconds, bool trace, const std::string& work_dir) {
    std::vector<const systems::FailureCase*> sources;
    for (const auto* registry : {&systems::AllCases(), &systems::CrashStallCases(),
                                 &systems::NetworkCases(), &systems::CascadeCases()}) {
      for (const systems::FailureCase* source : Pointers(*registry)) {
        sources.push_back(source);
      }
    }
    Setup setup(sources);
    setup.BuildInputs(&cases_);
    state_root_ = work_dir + "/state-" + std::to_string(getpid());

    RunQueue(QueueDir(), Queue(0), kQueueWorkers);  // warm-up
    Result result;
    const int64_t start = NowNs();
    int queue_index = 0;
    std::vector<QueueRun> runs;
    ServiceTotals totals;
    int64_t untraced_ns = 0;
    int64_t traced_ns = 0;
    for (const Case& built_case : cases_) {
      traced_specs_.push_back(TracedSpec(built_case.built->spec, &recorder_));
    }
    int64_t setup_ns = 0;
    while (queue_index < 3 || Seconds(NowNs() - start) < seconds) {
      setup_ns += setup.MaybeRebuild(Seconds(NowNs() - start), seconds);
      const std::vector<service::QueueCase> queue = Queue(++queue_index);
      if (!trace) {
        runs.push_back(RunQueue(QueueDir(), queue, kQueueWorkers));
        continue;
      }
      QueueRun sharded = RunQueue(QueueDir(), queue, kQueueWorkers);
      totals.sharded_seconds += sharded.seconds;
      totals.slices += sharded.report.slices_applied;
      totals.respawns += sharded.report.worker_respawns;
      ++totals.queues;
      TimeFiles(QueueDir(), queue, &totals.files);
      runs.push_back(std::move(sharded));
      QueueRun serial = RunQueue(QueueDir(), queue, 0);
      totals.serial_seconds += serial.seconds;
      runs.push_back(std::move(serial));
      const int64_t in_process_start = NowNs();
      for (const Case& built_case : cases_) {
        SearchInProcess(built_case, false);
      }
      totals.in_process_seconds += Seconds(NowNs() - in_process_start);
      // The explorer as the service drives it (checkpoint after every
      // round), untraced and traced, alternating which goes first.
      for (int side = 0; side < 2; ++side) {
        const bool traced = (side + queue_index) % 2 == 1;
        const int64_t pass_start = NowNs();
        CheckpointedPass(traced);
        (traced ? traced_ns : untraced_ns) += NowNs() - pass_start;
      }
    }
    const double phase_s = Seconds(NowNs() - start - setup_ns);
    // The service's memory: the daemon (this process, before the reference
    // searches below) or its largest worker.
    const double peak_rss_mb = std::max(PeakRssMb(RUSAGE_SELF), PeakRssMb(RUSAGE_CHILDREN));

    std::vector<Reference> references;
    for (const Case& built_case : cases_) {
      references.push_back(SearchInProcess(built_case, true));
    }
    std::vector<double> case_ms;
    for (const QueueRun& run : runs) {
      for (const double ms : run.case_ms) {
        case_ms.push_back(ms);
      }
      result.attempted += static_cast<int64_t>(cases_.size());
      result.failed += CountFailures(run.report, references);
    }
    std::error_code ec;
    fs::remove_all(state_root_, ec);

    if (!trace) {
      double rounds = 0;
      for (const Reference& reference : references) {
        rounds += reference.rounds;
      }
      result.Add("setup_s", setup.MedianSeconds(), "s");
      result.Add("cases_per_s", static_cast<double>(runs.size() * cases_.size()) / phase_s, "1/s");
      result.Add("case_ms_p50", Percentile(case_ms, 0.5), "ms");
      result.Add("case_ms_tail", Percentile(case_ms, kServiceTail), "ms");
      result.Add("rounds_per_case", rounds / static_cast<double>(references.size()), "count");
      result.Add("peak_rss_mb", peak_rss_mb, "MB");
      return Emit(name, result);
    }

    LayerTotals layers = DeriveLayers(recorder_.spans());
    if (layers.rounds_per_search != traced_rounds_) {
      Die("span-derived rounds disagree with the explorer's round count");
    }
    ReplicaTotals replica;
    for (const Case& built_case : cases_) {
      if (!IsCascade(built_case.source)) {
        MeasureReplica(built_case.built->spec, built_case.options, &replica);
      }
    }
    if (!replica.counts_match) {
      Die("context replica drifted: candidate/observable counts differ from ExplorerContext");
    }
    AddLayerMetrics(layers, registry_,
                    present_n_ == 0 ? 0 : present_sum_ / static_cast<double>(present_n_), replica,
                    totals,
                    Ratio(static_cast<double>(traced_ns - untraced_ns),
                          static_cast<double>(untraced_ns)),
                    &result);
    WriteSpans(recorder_, work_dir, name);
    return Emit(name, result);
  }

  // Tail percentile of per-case queue latency: the highest whole percentile
  // that leaves at least 10 entries beyond it. A 55 s run completes 56-79
  // queues of 31 cases, 17-24 entries above p99; 10 remain down to 18
  // entries/s.
  static constexpr double kServiceTail = 0.99;

 private:
  std::string QueueDir() const { return state_root_ + "/queue"; }

  // The whole registry minus the storms, in a seed-permuted order.
  std::vector<service::QueueCase> Queue(int index) const {
    std::vector<service::QueueCase> queue;
    for (const Case& built_case : cases_) {
      service::QueueCase entry;
      entry.id = built_case.source->id;
      entry.chain = IsCascade(built_case.source);
      entry.round_budget = kQueueRoundBudget;
      queue.push_back(std::move(entry));
    }
    std::mt19937_64 rng(Mix(seed_ ^ Mix(static_cast<uint64_t>(index) + 0x5eed)));
    std::shuffle(queue.begin(), queue.end(), rng);
    return queue;
  }

  // Times SaveCheckpointFile / LoadCheckpointFile on every case checkpoint
  // the queue left behind, and SaveManifestFile on its journal.
  static void TimeFiles(const std::string& dir, const std::vector<service::QueueCase>& queue,
                        FileTimings* files) {
    const std::string scratch = dir + "/timing.json";
    for (const service::QueueCase& entry : queue) {
      const std::string path = service::CaseCheckpointPath(dir, entry.id);
      std::error_code ec;
      if (!fs::exists(path, ec)) {
        continue;
      }
      explorer::SearchCheckpoint checkpoint;
      std::string error;
      int64_t start = NowNs();
      if (!explorer::LoadCheckpointFile(path, &checkpoint, &error)) {
        Die("cannot load " + path + ": " + error);
      }
      files->checkpoint_read_us.push_back(static_cast<double>(NowNs() - start) / 1e3);
      start = NowNs();
      if (!explorer::SaveCheckpointFile(scratch, checkpoint)) {
        Die("cannot save checkpoint to " + scratch);
      }
      files->checkpoint_write_us.push_back(static_cast<double>(NowNs() - start) / 1e3);
      files->checkpoint_bytes.push_back(static_cast<double>(fs::file_size(path, ec)));
    }
    service::QueueManifest manifest;
    std::string error;
    if (!service::LoadManifestFile(service::ManifestPath(dir), &manifest, &error)) {
      Die("cannot load the queue journal: " + error);
    }
    const int64_t start = NowNs();
    if (!service::SaveManifestFile(scratch, manifest)) {
      Die("cannot save the queue journal to " + scratch);
    }
    files->journal_write_us.push_back(static_cast<double>(NowNs() - start) / 1e3);
  }

  // One in-process search per plain case with a checkpoint written after
  // every round, as a service slice does; traced ones with the registry
  // attached.
  void CheckpointedPass(bool traced) {
    const std::string dir = state_root_ + "/checkpointed";
    std::error_code ec;
    fs::create_directories(dir, ec);
    for (size_t c = 0; c < cases_.size(); ++c) {
      const Case& built_case = cases_[c];
      if (IsCascade(built_case.source)) {
        continue;  // ChainExplorer builds its own strategy: no hooks to wrap
      }
      explorer::CheckpointConfig checkpoint;
      checkpoint.path = dir + "/" + built_case.source->id + ".json";
      fs::remove(checkpoint.path, ec);
      explorer::ExplorerOptions options = built_case.options;
      options.max_rounds = kQueueRoundBudget;
      std::unique_ptr<explorer::InjectionStrategy> inner = explorer::MakeFullFeedbackStrategy();
      if (!traced) {
        explorer::Explorer ex(built_case.built->spec, options);
        ex.Explore(inner.get(), checkpoint);
        continue;
      }
      options.metrics = &registry_;
      const explorer::ExploreResult explored =
          TracedSearch(traced_specs_[c], options, inner.get(), checkpoint, &recorder_);
      AddPresentObservables(explored, &present_sum_, &present_n_);
      traced_rounds_.push_back(explored.rounds);
    }
  }

  // Entries that did not reproduce, or whose script, seed or round count
  // differ from the in-process search (or whose script does not replay).
  int64_t CountFailures(const service::ServeReport& report,
                        const std::vector<Reference>& references) const {
    int64_t failed = 0;
    if (report.error || report.interrupted || report.manifest.cases.size() != cases_.size()) {
      std::fprintf(stderr, "perfbench: queue did not complete: %s\n", report.error_text.c_str());
      return static_cast<int64_t>(cases_.size());
    }
    for (const service::QueueCase& entry : report.manifest.cases) {
      size_t c = 0;
      while (c < cases_.size() && cases_[c].source->id != entry.id) {
        ++c;
      }
      const bool ok = c < cases_.size() && references[c].ok &&
                      entry.state == service::CaseState::kReproduced &&
                      entry.script == references[c].script &&
                      entry.script_seed == references[c].seed &&
                      entry.rounds_done == references[c].rounds;
      if (!ok) {
        std::fprintf(stderr,
                     "perfbench: service result for %s differs from the in-process search\n",
                     entry.id.c_str());
        ++failed;
      }
    }
    return failed;
  }

  uint64_t seed_;
  std::vector<Case> cases_;
  std::string state_root_;
  // Traced checkpointed passes.
  std::vector<explorer::ExperimentSpec> traced_specs_;
  Recorder recorder_;
  obs::MetricsRegistry registry_;
  double present_sum_ = 0;
  int64_t present_n_ = 0;
  std::vector<int64_t> traced_rounds_;
};

// ---- Entry -------------------------------------------------------------------

std::atomic<bool> g_cancel{false};

void HandleDrainSignal(int /*signum*/) { g_cancel.store(true, std::memory_order_relaxed); }

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <paper22|storm-blind|service-queue> --seed N\n"
               "                 --seconds S --trace <0|1> [--work-dir DIR]\n"
               "       perfbench worker <dir> <daemon_pid>\n");
  return 2;
}

int Main(int argc, char** argv) {
  if (argc >= 3 && std::string(argv[1]) == "worker") {
    std::signal(SIGTERM, HandleDrainSignal);
    std::signal(SIGINT, HandleDrainSignal);
    service::WorkerOptions options;
    options.work_dir = argv[2];
    options.parent_pid = argc > 3 ? std::atoll(argv[3]) : 0;
    options.cancel = &g_cancel;
    return service::RunWorkerLoop(options);
  }
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = -1;
  std::string work_dir = ".bench_build/perfbench-run";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      trace = value == "1" ? 1 : value == "0" ? 0 : -1;
    } else if (flag == "--work-dir") {
      work_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || trace < 0 || seconds <= 0) {
    return Usage();
  }
  std::error_code ec;
  fs::create_directories(work_dir, ec);

  if (workload == "paper22") {
    InProcessWorkload paper;
    paper.sources = Pointers(systems::AllCases());
    paper.strategies = {"full"};
    paper.slots = 8;
    paper.tail = 0.998;
    return InProcessRunner(paper, seed).Run(workload, seconds, trace == 1, work_dir);
  }
  if (workload == "storm-blind") {
    InProcessWorkload storm;
    storm.sources = Pointers(systems::StormCases());
    storm.strategies = {"full", "exhaustive", "fate", "crashtuner"};
    storm.max_rounds = kStormRoundCap;
    storm.slots = 2;
    storm.tail = 0.90;
    return InProcessRunner(storm, seed).Run(workload, seconds, trace == 1, work_dir);
  }
  if (workload == "service-queue") {
    return ServiceRunner(seed).Run(workload, seconds, trace == 1, work_dir);
  }
  return Usage();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
