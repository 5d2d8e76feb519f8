// Production-log parsing.
//
// The explorer sees only what a log *file* shows, mirroring the paper's
// toolchain (its parser is a separate Scala component with per-system
// format configs, §7). Lines are parsed into structured entries and
// sanitized so that timestamps and other volatile values do not make every
// line unique.
//
// Text is parsed where text is the input: the production failure log and
// the CLI. A simulated run's log is not rendered and re-read; AppendLine
// and LineKey build, from a line's fields, exactly the ParsedLine and key
// that ParseLogFile derives from the rendered line. ParseLogFile goes
// through them too, so the key has one definition, and property_test's
// differential test pins the equality over every registry.

#ifndef ANDURIL_SRC_LOGDIFF_PARSER_H_
#define ANDURIL_SRC_LOGDIFF_PARSER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace anduril::logdiff {

struct ParsedLine {
  int64_t index = 0;  // global position in the file (log clock)
  std::string thread;
  std::string level;
  std::string logger;
  std::string message;
  // "LEVEL|logger|sanitized(message)" — the observable identity key.
  std::string key;
};

struct ParsedLog {
  std::vector<ParsedLine> lines;
};

// Format configuration (the paper needed one config for Kafka and one for
// the other four systems; non-standard formats supply their own).
struct LogFormat {
  // Number of whitespace-separated timestamp tokens before "[thread]".
  int timestamp_tokens = 1;
  // Separator between the logger and the message.
  std::string message_separator = " - ";
};

// Replaces every digit run with '#'. Timestamps are already stripped by the
// parser; this removes counters, sizes, ports, ids.
std::string Sanitize(std::string_view message);

// The key of a line whose fields render as "… [thread] LEVEL logger -
// message", as ParseLogFile derives it from that line:
// "LEVEL|Trim(logger)|Sanitize(message)", the message without its trailing
// whitespace (the parser trims each line). Overwrites *key, reusing its
// buffer. Returns false when the parser drops such a line instead: an empty
// (or all-whitespace) message leaves no " - " separator once trimmed.
//
// The rendering is read back unambiguously only when the logger contains no
// " - " and does not end in " -", the thread contains no ']', and no field
// holds a line break. ir::LogFieldError names those rules; a program or
// cluster with a name that breaks them is rejected before it can run.
bool LineKey(std::string_view level, std::string_view logger, std::string_view message,
             std::string* key);

// Appends the ParsedLine that ParseLogFile reads from the rendered line of
// these fields, or nothing when it drops the line (see LineKey). The index
// counts the lines already in `log`, so a dropped line shifts every later
// index as it does in the file.
void AppendLine(std::string_view thread, std::string_view level, std::string_view logger,
                std::string_view message, ParsedLog* log);

// Parses a log file body. Each line is trimmed; unparseable lines (production
// logs contain stack-trace continuation lines etc.) and lines with an empty
// message are skipped. Every kept line goes through AppendLine.
ParsedLog ParseLogFile(const std::string& text, const LogFormat& format = LogFormat());

}  // namespace anduril::logdiff

#endif  // ANDURIL_SRC_LOGDIFF_PARSER_H_
