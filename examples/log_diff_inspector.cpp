// Standalone demo of the log-diff pipeline (§5.1): parse two log files,
// group by thread, sanitize, run the per-thread Myers diff, and print the
// relevant observables plus the normal->failure timeline alignment.
//
// Run without arguments to see it on a generated pair of logs from the
// ZooKeeper case; or pass two log file paths.

#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/interp/log_entry.h"
#include "src/logdiff/compare.h"
#include "src/logdiff/parser.h"
#include "src/systems/common.h"

using namespace anduril;

namespace {

std::string ReadFile(const char* path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string normal_text;
  std::string failure_text;
  if (argc == 3) {
    normal_text = ReadFile(argv[1]);
    failure_text = ReadFile(argv[2]);
  } else {
    std::printf("(no files given; generating logs from the zk-2247 case)\n\n");
    const systems::FailureCase* failure_case = systems::FindCase("zk-2247");
    systems::BuiltCase built = systems::BuildCase(*failure_case);
    interp::RunResult normal =
        systems::RunOnce(*built.program, built.cluster, failure_case->explore_seed);
    normal_text = interp::FormatLogFile(normal.log);
    failure_text = built.failure_log_text;
  }

  logdiff::ParsedLog normal = logdiff::ParseLogFile(normal_text);
  logdiff::ParsedLog failure = logdiff::ParseLogFile(failure_text);
  std::printf("normal log: %zu entries; failure log: %zu entries\n", normal.lines.size(),
              failure.lines.size());

  logdiff::LogComparison comparison = logdiff::CompareLogs(normal, failure);
  std::printf("\nrelevant observables (failure-only after per-thread sanitized diff):\n");
  for (const std::string& key : comparison.target_only_keys) {
    std::printf("  %s\n", key.substr(0, 110).c_str());
  }

  std::printf("\nmonotone alignment anchors: %zu matched entries\n",
              comparison.matches.size());
  logdiff::TimelineAlignment alignment(comparison.matches,
                                       static_cast<int64_t>(normal.lines.size()),
                                       static_cast<int64_t>(failure.lines.size()));
  std::printf("position mapping samples (normal -> failure):\n");
  for (int64_t pos = 0; pos < static_cast<int64_t>(normal.lines.size());
       pos += std::max<int64_t>(1, static_cast<int64_t>(normal.lines.size()) / 8)) {
    std::printf("  %4lld -> %4lld\n", static_cast<long long>(pos),
                static_cast<long long>(alignment.MapPosition(pos)));
  }
  // A failure log with no failure-only observable gives the search no clue.
  return comparison.target_only_keys.empty() ? 1 : 0;
}
