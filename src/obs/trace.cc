#include "src/obs/trace.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "src/util/json.h"
#include "src/util/strings.h"

namespace anduril::obs {
namespace {

void AppendArgs(std::string* out, const std::vector<TraceArg>& args) {
  out->append(",\"args\":{");
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) {
      out->push_back(',');
    }
    AppendJsonString(out, args[i].key);
    out->push_back(':');
    out->append(args[i].value);
  }
  out->push_back('}');
}

std::string RenderedArgs(const TraceEvent& event) {
  std::string out;
  AppendArgs(&out, event.args);
  return out;
}

// Total deterministic order: start time, then lane, then enclosing spans
// before enclosed ones (longer duration first), then names.
bool EventOrder(const TraceEvent& a, const TraceEvent& b) {
  return std::make_tuple(a.ts, a.track, -a.dur, a.kind, a.category, a.name, RenderedArgs(a)) <
         std::make_tuple(b.ts, b.track, -b.dur, b.kind, b.category, b.name, RenderedArgs(b));
}

void AppendEventBody(std::string* out, const TraceEvent& event, bool include_wall) {
  out->append("\"ph\":");
  out->append(event.kind == TraceEvent::Kind::kSpan ? "\"X\"" : "\"i\"");
  out->append(",\"cat\":");
  AppendJsonString(out, event.category);
  out->append(",\"name\":");
  AppendJsonString(out, event.name);
  out->append(",\"ts\":");
  out->append(std::to_string(event.ts));
  if (event.kind == TraceEvent::Kind::kSpan) {
    out->append(",\"dur\":");
    out->append(std::to_string(event.dur));
  }
  if (include_wall && event.wall_nanos > 0) {
    out->append(",\"wall_nanos\":");
    out->append(std::to_string(event.wall_nanos));
  }
}

}  // namespace

TraceArg ArgStr(std::string key, const std::string& value) {
  std::string rendered;
  AppendJsonString(&rendered, value);
  return TraceArg{std::move(key), std::move(rendered)};
}

TraceArg ArgInt(std::string key, int64_t value) {
  return TraceArg{std::move(key), std::to_string(value)};
}

TraceArg ArgUint(std::string key, uint64_t value) {
  return TraceArg{std::move(key), std::to_string(value)};
}

TraceArg ArgBool(std::string key, bool value) {
  return TraceArg{std::move(key), value ? "true" : "false"};
}

void Tracer::Span(std::string category, std::string name, int64_t ts, int64_t dur,
                  int64_t track, std::vector<TraceArg> args, int64_t wall_nanos) {
  TraceEvent event;
  event.kind = TraceEvent::Kind::kSpan;
  event.category = std::move(category);
  event.name = std::move(name);
  event.ts = ts;
  event.dur = dur;
  event.track = track;
  event.wall_nanos = wall_nanos;
  event.args = std::move(args);
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(event));
}

void Tracer::Instant(std::string category, std::string name, int64_t ts, int64_t track,
                     std::vector<TraceArg> args) {
  TraceEvent event;
  event.kind = TraceEvent::Kind::kInstant;
  event.category = std::move(category);
  event.name = std::move(name);
  event.ts = ts;
  event.track = track;
  event.args = std::move(args);
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(event));
}

size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::vector<TraceEvent> Tracer::Events() const {
  std::vector<TraceEvent> events;
  {
    std::lock_guard<std::mutex> lock(mu_);
    events = events_;
  }
  std::stable_sort(events.begin(), events.end(), EventOrder);
  return events;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
}

std::string Tracer::DumpChromeTrace(bool include_wall) const {
  std::vector<TraceEvent> events = Events();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& event = events[i];
    out.push_back('{');
    AppendEventBody(&out, event, include_wall);
    if (event.kind == TraceEvent::Kind::kInstant) {
      out.append(",\"s\":\"t\"");
    }
    out.append(",\"pid\":0,\"tid\":");
    out.append(std::to_string(event.track));
    AppendArgs(&out, event.args);
    out.push_back('}');
    if (i + 1 < events.size()) {
      out.push_back(',');
    }
    out.push_back('\n');
  }
  out.append("]}\n");
  return out;
}

std::string Tracer::DumpJsonl(bool include_wall) const {
  std::vector<TraceEvent> events = Events();
  std::string out = StrFormat("{\"anduril_trace\":%d,\"time_unit\":\"logical\"}\n",
                              kTraceFormatVersion);
  for (const TraceEvent& event : events) {
    out.push_back('{');
    AppendEventBody(&out, event, include_wall);
    out.append(",\"track\":");
    out.append(std::to_string(event.track));
    AppendArgs(&out, event.args);
    out.append("}\n");
  }
  return out;
}

bool Tracer::ParseJsonl(const std::string& text, std::vector<TraceEvent>* out,
                        std::string* error) {
  out->clear();
  size_t pos = 0;
  size_t line_number = 0;
  bool saw_header = false;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    bool truncated = end == std::string::npos;
    std::string line = text.substr(pos, truncated ? std::string::npos : end - pos);
    pos = truncated ? text.size() : end + 1;
    ++line_number;
    if (line.empty()) {
      continue;
    }
    std::string parse_error;
    JsonValue value = JsonValue::Parse(line, &parse_error);
    if (!parse_error.empty() || value.type() != JsonValue::Type::kObject) {
      *error = StrFormat("trace line %zu is not a JSON object%s%s", line_number,
                         truncated ? " (file truncated mid-line?)" : "",
                         parse_error.empty() ? "" : (": " + parse_error).c_str());
      return false;
    }
    if (!saw_header) {
      JsonReader header(value, StrFormat("trace line %zu", line_number), error);
      if (!header.Has("anduril_trace")) {
        *error = "trace file has no anduril_trace version header";
        return false;
      }
      const int64_t version = header.Int64("anduril_trace");
      if (!header.ok()) {
        return false;
      }
      if (version != kTraceFormatVersion) {
        *error = StrFormat("unsupported trace version %lld (this build reads only version %d)",
                           static_cast<long long>(version), kTraceFormatVersion);
        return false;
      }
      saw_header = true;
      continue;
    }
    JsonReader in(value, StrFormat("trace line %zu", line_number), error);
    TraceEvent event;
    const std::string ph = in.Str("ph");
    if (ph == "i") {
      event.kind = TraceEvent::Kind::kInstant;
    } else if (ph != "X") {
      in.Fail("unknown phase \"" + ph + "\"");
    }
    event.category = in.Str("cat");
    event.name = in.Str("name");
    event.ts = in.Int64("ts");
    if (event.kind == TraceEvent::Kind::kSpan) {
      event.dur = in.Int64("dur");
    }
    event.track = in.Int64("track");
    if (in.Has("wall_nanos")) {
      event.wall_nanos = in.Int64("wall_nanos");
    }
    JsonReader args = in.Object("args");
    for (size_t i = 0; i < args.size(); ++i) {
      const JsonValue& arg = args.At(i);
      std::string rendered;
      if (arg.type() == JsonValue::Type::kString) {
        AppendJsonString(&rendered, arg.as_string());
      } else if (arg.type() == JsonValue::Type::kBool) {
        rendered = arg.as_bool() ? "true" : "false";
      } else {
        rendered = std::to_string(args.Int64(i));  // fails on any other type
      }
      event.args.push_back(TraceArg{args.Name(i), std::move(rendered)});
    }
    if (!in.ok()) {
      return false;
    }
    out->push_back(std::move(event));
  }
  if (!saw_header) {
    *error = "trace file is empty (no version header)";
    return false;
  }
  error->clear();
  return true;
}

}  // namespace anduril::obs
