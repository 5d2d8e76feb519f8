#include "src/logdiff/parser.h"

#include "src/util/strings.h"

namespace anduril::logdiff {

namespace {

void AppendSanitized(std::string_view message, std::string* out) {
  bool in_digits = false;
  for (char c : message) {
    if (c >= '0' && c <= '9') {
      if (!in_digits) {
        out->push_back('#');
        in_digits = true;
      }
    } else {
      in_digits = false;
      out->push_back(c);
    }
  }
}

}  // namespace

std::string Sanitize(std::string_view message) {
  std::string out;
  out.reserve(message.size());
  AppendSanitized(message, &out);
  return out;
}

bool LineKey(std::string_view level, std::string_view logger, std::string_view message,
             std::string* key) {
  message = TrimRight(message);
  if (message.empty()) {
    return false;
  }
  logger = Trim(logger);
  key->clear();
  key->reserve(level.size() + logger.size() + message.size() + 2);
  key->append(level);
  key->push_back('|');
  key->append(logger);
  key->push_back('|');
  AppendSanitized(message, key);
  return true;
}

void AppendLine(std::string_view thread, std::string_view level, std::string_view logger,
                std::string_view message, ParsedLog* log) {
  std::string key;
  if (!LineKey(level, logger, message, &key)) {
    return;
  }
  ParsedLine& parsed = log->lines.emplace_back();
  parsed.index = static_cast<int64_t>(log->lines.size()) - 1;
  parsed.thread = thread;
  parsed.level = level;
  parsed.logger = Trim(logger);
  parsed.message = TrimRight(message);
  parsed.key = std::move(key);
}

ParsedLog ParseLogFile(const std::string& text, const LogFormat& format) {
  ParsedLog log;
  for (std::string_view raw : Split(text, '\n')) {
    std::string_view line = Trim(raw);
    if (line.empty()) {
      continue;
    }
    // Skip timestamp tokens.
    size_t pos = 0;
    bool bad = false;
    for (int i = 0; i < format.timestamp_tokens; ++i) {
      size_t space = line.find(' ', pos);
      if (space == std::string_view::npos) {
        bad = true;
        break;
      }
      pos = space + 1;
    }
    if (bad || pos >= line.size() || line[pos] != '[') {
      continue;
    }
    size_t thread_end = line.find(']', pos);
    if (thread_end == std::string_view::npos) {
      continue;
    }
    std::string_view thread = line.substr(pos + 1, thread_end - pos - 1);
    pos = thread_end + 1;
    while (pos < line.size() && line[pos] == ' ') {
      ++pos;
    }
    size_t level_end = line.find(' ', pos);
    if (level_end == std::string_view::npos) {
      continue;
    }
    std::string_view level = line.substr(pos, level_end - pos);
    pos = level_end + 1;
    size_t sep = line.find(format.message_separator, pos);
    if (sep == std::string_view::npos) {
      continue;
    }
    AppendLine(thread, level, line.substr(pos, sep - pos),
               line.substr(sep + format.message_separator.size()), &log);
  }
  return log;
}

}  // namespace anduril::logdiff
