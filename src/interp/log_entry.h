// Log entries produced by simulated systems.
//
// These are the paper's "observables": the only runtime information the
// explorer may use as feedback is what a production log file would contain.
// An entry renders to one text line (FormatLogLine). The search does not
// render a run's log and parse it back: it takes from each entry the key
// the parser would derive from the rendered line (logdiff::LineKey over the
// thread, level, logger and message fields), and nothing else — not the
// template id, source statement or uncaught method below, which a real
// deployment's log would not show. property_test's differential test pins
// that equality against ParseLogFile(FormatLogFile(log)) over every
// registry; ir::LogFieldError lists the names that would break it, and
// those are rejected before a program can run.

#ifndef ANDURIL_SRC_INTERP_LOG_ENTRY_H_
#define ANDURIL_SRC_INTERP_LOG_ENTRY_H_

#include <string>
#include <vector>

#include "src/ir/program.h"
#include "src/ir/types.h"

namespace anduril::interp {

struct LogEntry {
  int64_t time_ms = 0;     // simulated time
  int64_t log_clock = 0;   // index in the run's combined log stream
  std::string node;
  std::string thread;      // thread name without node prefix
  ir::LogLevel level = ir::LogLevel::kInfo;
  std::string logger;
  std::string message;     // fully rendered
  ir::LogTemplateId tmpl = ir::kInvalidId;   // kInvalidId for builtin messages
  ir::GlobalStmt source;                     // log stmt; invalid for builtins
  ir::MethodId uncaught_method = ir::kInvalidId;  // set for uncaught-exception entries

  // "node/thread" — globally unique thread label used for per-thread diffing.
  std::string FullThreadName() const { return node + "/" + thread; }
};

// Renders an entry as one production-style log line:
//   "10:00:01,234 [node/thread] LEVEL logger - message"
std::string FormatLogLine(const LogEntry& entry);

// Renders a whole run log as a log file body.
std::string FormatLogFile(const std::vector<LogEntry>& entries);

}  // namespace anduril::interp

#endif  // ANDURIL_SRC_INTERP_LOG_ENTRY_H_
