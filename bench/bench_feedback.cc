// Per-round log feedback against the run it reads, on the 22 paper cases.
// Emits BENCH_feedback.json.
//
// Every unsuccessful search round turns its run's log into the set of
// observable keys it holds (explorer::RunLogKeys). The keys are built from
// the entry fields. The text round trip they replaced, which renders the log
// with FormatLogFile and reads it back with ParseLogFile, is kept here as
// the reference. For each case, one ground-truth run is measured three ways:
//   run    - the interpreter run itself (the round's execute step),
//   direct - RunLogKeys over that run's log (feedback now),
//   text   - the keys of ParseLogFile(FormatLogFile(log)) (feedback before).
// The three are timed in interleaved batches, with the order rotated every
// repetition, so host drift hits every mode alike. Each mode reports its
// best batch, since timing noise on this deterministic CPU-bound work only
// ever adds time. A feedback path's share is its cost over the run's cost,
// per case and summed over the 22 cases. The bench CHECKs that both key
// sets are equal for every case.

#include <algorithm>
#include <cstdio>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench/bench_util.h"
#include "src/interp/log_entry.h"
#include "src/interp/simulator.h"
#include "src/ir/flatten.h"
#include "src/logdiff/parser.h"
#include "src/util/check.h"
#include "src/util/stopwatch.h"
#include "src/util/strings.h"

namespace anduril::bench {
namespace {

constexpr int kRepetitions = 40;   // timed batches per mode per case
constexpr int kOpsPerBatch = 20;   // back-to-back operations in one timed sample
constexpr int kWarmupBatches = 2;  // untimed, per mode

struct CaseResult {
  std::string id;
  size_t log_entries = 0;
  size_t keys = 0;
  double run_us = 0;     // best batch, per operation
  double direct_us = 0;
  double text_us = 0;
};

double Best(const std::vector<double>& values) {
  ANDURIL_CHECK(!values.empty());
  return *std::min_element(values.begin(), values.end());
}

std::unordered_set<std::string> TextRoundTripKeys(const interp::RunResult& run) {
  std::unordered_set<std::string> keys;
  for (const logdiff::ParsedLine& line :
       logdiff::ParseLogFile(interp::FormatLogFile(run.log)).lines) {
    keys.insert(line.key);
  }
  return keys;
}

// Defeats dead-code elimination of the key sets.
volatile size_t g_sink = 0;

CaseResult BenchCase(const systems::FailureCase& failure_case) {
  systems::BuiltCase built = systems::BuildCase(failure_case, /*verify=*/false);
  const uint64_t seed = failure_case.explore_seed;
  ir::FlatProgram flat(*built.program);
  interp::RunScratch scratch;
  interp::FaultRuntime runtime(built.program.get());
  auto run_once = [&] {
    runtime.SetWindow({built.ground_truth});
    interp::Simulator simulator(built.program.get(), &built.cluster, seed, &runtime, &flat,
                                &scratch);
    return simulator.Run();
  };

  const interp::RunResult run = run_once();
  const std::unordered_set<std::string> direct_keys = explorer::RunLogKeys(run);
  ANDURIL_CHECK(direct_keys == TextRoundTripKeys(run)) << failure_case.id;

  CaseResult result;
  result.id = failure_case.id;
  result.log_entries = run.log.size();
  result.keys = direct_keys.size();

  auto batch = [&](int mode) {
    for (int i = 0; i < kOpsPerBatch; ++i) {
      switch (mode) {
        case 0:
          scratch.Recycle(run_once());
          break;
        case 1:
          g_sink = g_sink + explorer::RunLogKeys(run).size();
          break;
        default:
          g_sink = g_sink + TextRoundTripKeys(run).size();
          break;
      }
    }
  };
  std::vector<double> samples[3];
  for (int mode = 0; mode < 3; ++mode) {
    for (int i = 0; i < kWarmupBatches; ++i) {
      batch(mode);
    }
  }
  for (int rep = 0; rep < kRepetitions; ++rep) {
    for (int k = 0; k < 3; ++k) {
      const int mode = (rep + k) % 3;
      Stopwatch timer;
      batch(mode);
      samples[mode].push_back(timer.ElapsedSeconds());
    }
  }
  result.run_us = Best(samples[0]) * 1e6 / kOpsPerBatch;
  result.direct_us = Best(samples[1]) * 1e6 / kOpsPerBatch;
  result.text_us = Best(samples[2]) * 1e6 / kOpsPerBatch;
  return result;
}

int Main() {
  std::vector<CaseResult> results;
  for (const systems::FailureCase& failure_case : systems::AllCases()) {
    results.push_back(BenchCase(failure_case));
  }
  double run_total = 0;
  double direct_total = 0;
  double text_total = 0;
  for (const CaseResult& result : results) {
    run_total += result.run_us;
    direct_total += result.direct_us;
    text_total += result.text_us;
  }

  std::printf("Log feedback vs the run it reads: one ground-truth run per case\n"
              "(%d interleaved repetitions of %d-operation batches, best batch)\n\n",
              kRepetitions, kOpsPerBatch);
  const std::vector<int> widths = {10, 8, 6, 10, 11, 9, 13, 11};
  PrintRow({"case", "entries", "keys", "run us", "direct us", "text us", "direct/run",
            "text/run"},
           widths);
  for (const CaseResult& result : results) {
    PrintRow({result.id, std::to_string(result.log_entries), std::to_string(result.keys),
              StrFormat("%.1f", result.run_us), StrFormat("%.1f", result.direct_us),
              StrFormat("%.1f", result.text_us),
              StrFormat("%.3f", result.direct_us / result.run_us),
              StrFormat("%.3f", result.text_us / result.run_us)},
             widths);
  }
  PrintRow({"sum", "", "", StrFormat("%.1f", run_total), StrFormat("%.1f", direct_total),
            StrFormat("%.1f", text_total), StrFormat("%.3f", direct_total / run_total),
            StrFormat("%.3f", text_total / run_total)},
           widths);

  FILE* json = std::fopen("BENCH_feedback.json", "w");
  ANDURIL_CHECK(json != nullptr);
  std::fprintf(json,
               "{\n  \"repetitions\": %d,\n  \"ops_per_batch\": %d,\n"
               "  \"totals\": {\"run_us\": %.1f, \"direct_us\": %.1f, \"text_us\": %.1f, "
               "\"direct_share_of_run\": %.4f, \"text_share_of_run\": %.4f, "
               "\"text_over_direct\": %.2f},\n  \"cases\": [\n",
               kRepetitions, kOpsPerBatch, run_total, direct_total, text_total,
               direct_total / run_total, text_total / run_total, text_total / direct_total);
  for (size_t i = 0; i < results.size(); ++i) {
    const CaseResult& result = results[i];
    std::fprintf(json,
                 "    {\"case\": \"%s\", \"log_entries\": %zu, \"keys\": %zu, "
                 "\"run_us\": %.2f, \"direct_us\": %.2f, \"text_us\": %.2f, "
                 "\"direct_share_of_run\": %.4f, \"text_share_of_run\": %.4f}%s\n",
                 result.id.c_str(), result.log_entries, result.keys, result.run_us,
                 result.direct_us, result.text_us, result.direct_us / result.run_us,
                 result.text_us / result.run_us, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("\nWrote BENCH_feedback.json\n");
  return 0;
}

}  // namespace
}  // namespace anduril::bench

int main() { return anduril::bench::Main(); }
