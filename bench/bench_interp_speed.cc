// Raw interpreter throughput: the direct-threaded dispatch loop with a
// shared FlatProgram, pooled RunScratch and reused FaultRuntime, i.e.
// exactly what the explorer's worker threads run. Measured on the fault-free
// exploration workloads of zk-2247 (exception root) and hd-net-1
// (message-layer root), which is what every search round executes thousands
// of times. Emits BENCH_interp.json.
//
// Regression gate. Absolute ns/step moves with the host (the same binary
// reads 20-39 ns/step across processes on one shared 4-core container), so
// the gate is host-relative: each timed interpreter batch is paired with a
// batch of a fixed calibration loop that does not touch the interpreter, run
// interleaved with the order rotated every repetition. The loop is shaped
// like interpreter work: a dependent random walk over a 1 MiB table
// (cache-missing loads) that dispatches through an unpredictable 8-way
// switch. The gated figure is the ratio of the two floors,
//   calibrated_cost = (best interpreter ns/step) / (best calibration ns/iter).
// Over twenty processes on that container it read 1.00-1.13 when the host
// was quiet and at most 1.55 under neighbour load, while ns/step alone
// moved 1.9x. A median of per-pair ratios spread 2x over the same kind of
// runs, and a calibration table that fits in L1 did not slow down with the
// interpreter. The CHECK at the end fails when a case's calibrated_cost
// exceeds kGateFactor x its recorded value, i.e. on a >=2x slowdown of the
// interpreter relative to the host.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/interp/simulator.h"
#include "src/ir/flatten.h"
#include "src/obs/metrics.h"
#include "src/util/check.h"
#include "src/util/rng.h"
#include "src/util/stopwatch.h"
#include "src/util/strings.h"

namespace anduril::bench {
namespace {

constexpr int kRepetitions = 200;   // timed batches per mode per case
constexpr int kRunsPerBatch = 50;   // back-to-back runs in one timed sample
constexpr int kWarmupBatches = 3;   // untimed, per mode
constexpr int kCalibrationIters = 200'000;  // calibration loop iterations per batch
constexpr uint32_t kCalibrationTableSize = 1u << 18;  // uint32 entries: 1 MiB
constexpr double kGateFactor = 2.0;

// The benched cases with their median calibrated_cost over twenty Release
// -O2 processes (the host of BENCH_interp.json). The gate is relative to
// these.
struct Recorded {
  const char* case_id;
  double calibrated_cost;
};
constexpr Recorded kCases[] = {{"zk-2247", 1.02}, {"hd-net-1", 1.08}};

struct CaseResult {
  std::string id;
  int64_t steps_per_run = 0;       // deterministic, identical across runs
  std::vector<double> flat;         // seconds per batch
  std::vector<double> calibration;  // seconds per batch
  double calibrated_cost = 0;       // ratio of the two floors
  double recorded_cost = 0;
};

double Best(const std::vector<double>& values) {
  ANDURIL_CHECK(!values.empty());
  return *std::min_element(values.begin(), values.end());
}

std::vector<uint32_t> CalibrationTable() {
  Rng rng(20241104);
  std::vector<uint32_t> table(kCalibrationTableSize);
  for (uint32_t& entry : table) {
    entry = static_cast<uint32_t>(rng.Next());
  }
  return table;
}

// Interpreter-independent work of fixed size. The result is folded into a
// volatile sink so the loop cannot be optimized away.
volatile uint64_t g_calibration_sink = 0;

void CalibrationBatch(const std::vector<uint32_t>& table) {
  uint32_t index = 0;
  uint64_t acc = 0;
  for (int i = 0; i < kCalibrationIters; ++i) {
    uint32_t value = table[index];
    switch (value & 7) {
      case 0: acc += value; break;
      case 1: acc ^= (acc << 7) | value; break;
      case 2: acc = acc * 31 + value; break;
      case 3: acc -= value >> 3; break;
      case 4: acc ^= acc >> 11; break;
      case 5: acc += (value << 5) ^ acc; break;
      case 6: acc = (acc << 1) | (value & 1); break;
      default: acc ^= value * 2654435761u; break;
    }
    index = (index + value + static_cast<uint32_t>(acc)) & (kCalibrationTableSize - 1);
  }
  g_calibration_sink = g_calibration_sink + acc;
}

double NanosPerStep(double batch_seconds, int64_t steps_per_run) {
  return batch_seconds * 1e9 /
         (static_cast<double>(kRunsPerBatch) * static_cast<double>(steps_per_run));
}

double NanosPerIter(double batch_seconds) { return batch_seconds * 1e9 / kCalibrationIters; }

CaseResult BenchCase(const Recorded& recorded, const std::vector<uint32_t>& table) {
  const systems::FailureCase* failure_case = systems::FindCase(recorded.case_id);
  ANDURIL_CHECK(failure_case != nullptr);
  systems::BuiltCase built = systems::BuildCase(*failure_case, /*verify=*/false);
  const uint64_t seed = failure_case->explore_seed;

  ir::FlatProgram flat(*built.program);
  interp::RunScratch scratch;
  interp::FaultRuntime runtime(built.program.get());

  CaseResult result;
  result.id = recorded.case_id;
  result.recorded_cost = recorded.calibrated_cost;

  // One metered run: steps are deterministic, so this yields the ns/step
  // denominator for every timed batch.
  {
    obs::MetricsRegistry metrics;
    interp::Simulator simulator(built.program.get(), &built.cluster, seed, &runtime, &flat,
                                &scratch);
    simulator.set_metrics(&metrics);
    interp::RunResult run = simulator.Run();
    ANDURIL_CHECK(run.outcome == interp::RunOutcome::kCompleted);
    result.steps_per_run = metrics.histogram("sim.steps").sum;
    ANDURIL_CHECK(result.steps_per_run > 0);
    scratch.Recycle(std::move(run));
  }

  // Each consumed result's buffers go back to the scratch, exactly as the
  // explorer's round loop does.
  auto run_batch = [&] {
    for (int i = 0; i < kRunsPerBatch; ++i) {
      interp::Simulator simulator(built.program.get(), &built.cluster, seed, &runtime, &flat,
                                  &scratch);
      scratch.Recycle(simulator.Run());
    }
  };
  for (int i = 0; i < kWarmupBatches; ++i) {
    run_batch();
    CalibrationBatch(table);
  }

  // Interleaved timing, order rotated per repetition (see bench_trace_overhead
  // for why a fixed order biases the second mode).
  for (int rep = 0; rep < kRepetitions; ++rep) {
    for (int k = 0; k < 2; ++k) {
      Stopwatch timer;
      if ((rep + k) % 2 == 0) {
        run_batch();
        result.flat.push_back(timer.ElapsedSeconds());
      } else {
        CalibrationBatch(table);
        result.calibration.push_back(timer.ElapsedSeconds());
      }
    }
  }
  result.calibrated_cost = NanosPerStep(Best(result.flat), result.steps_per_run) /
                           NanosPerIter(Best(result.calibration));
  return result;
}

int Main() {
  const std::vector<uint32_t> table = CalibrationTable();
  std::vector<CaseResult> results;
  for (const Recorded& recorded : kCases) {
    results.push_back(BenchCase(recorded, table));
  }

  std::printf("Interpreter throughput against a fixed calibration loop\n"
              "(fault-free workload, %d interleaved pairs of %d-run / %d-iteration "
              "batches)\n\n",
              kRepetitions, kRunsPerBatch, kCalibrationIters);
  PrintRow({"case", "steps", "runs/sec", "ns/step", "calib ns/it", "cost", "recorded"},
           {10, 8, 12, 10, 12, 8, 9});
  for (const CaseResult& result : results) {
    double best = Best(result.flat);
    PrintRow({result.id, std::to_string(result.steps_per_run),
              StrFormat("%.0f", kRunsPerBatch / best),
              StrFormat("%.1f", NanosPerStep(best, result.steps_per_run)),
              StrFormat("%.3f", NanosPerIter(Best(result.calibration))),
              StrFormat("%.2f", result.calibrated_cost),
              StrFormat("%.2f", result.recorded_cost)},
             {10, 8, 12, 10, 12, 8, 9});
  }

  FILE* json = std::fopen("BENCH_interp.json", "w");
  ANDURIL_CHECK(json != nullptr);
  std::fprintf(json,
               "{\n  \"repetitions\": %d,\n  \"runs_per_batch\": %d,\n"
               "  \"calibration_iters\": %d,\n  \"gate_factor\": %.2f,\n  \"cases\": [\n",
               kRepetitions, kRunsPerBatch, kCalibrationIters, kGateFactor);
  for (size_t i = 0; i < results.size(); ++i) {
    const CaseResult& result = results[i];
    double best = Best(result.flat);
    std::fprintf(json,
                 "    {\"case\": \"%s\", \"steps_per_run\": %lld,\n"
                 "     \"flat\": {\"best_seconds\": %.6f, \"runs_per_sec\": %.1f, "
                 "\"ns_per_step\": %.2f},\n"
                 "     \"calibration_ns_per_iter\": %.4f,\n"
                 "     \"calibrated_cost\": %.4f, \"recorded_cost\": %.4f, "
                 "\"ceiling\": %.4f}%s\n",
                 result.id.c_str(), static_cast<long long>(result.steps_per_run), best,
                 kRunsPerBatch / best, NanosPerStep(best, result.steps_per_run),
                 NanosPerIter(Best(result.calibration)), result.calibrated_cost,
                 result.recorded_cost, kGateFactor * result.recorded_cost,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("\nWrote BENCH_interp.json\n");

  for (const CaseResult& result : results) {
    double ceiling = kGateFactor * result.recorded_cost;
    std::printf("%s: calibrated cost %.2f (recorded %.2f, ceiling %.2f)\n", result.id.c_str(),
                result.calibrated_cost, result.recorded_cost, ceiling);
    ANDURIL_CHECK(result.calibrated_cost <= ceiling)
        << "interpreter regression on " << result.id << ": calibrated cost "
        << result.calibrated_cost << " exceeds " << kGateFactor << "x the recorded "
        << result.recorded_cost;
  }
  return 0;
}

}  // namespace
}  // namespace anduril::bench

int main() { return anduril::bench::Main(); }
