// Structured tracing for the exploration pipeline: hierarchical spans
// (explore > round > candidate > run) on a *logical* timeline.
//
// Timestamps are logical, not wall clock: the explorer lays each round out
// on a fixed grid (kRoundStride logical units per round, kItemStride per
// plan item, kPhaseStride per multi-fault phase), so a fixed-seed search
// emits the byte-identical trace at any thread count — the property the
// golden-trace regression test locks down. Spans may additionally carry a
// wall-clock duration (wall_nanos) for profiling; it is excluded from
// deterministic dumps by default.
//
// Exports:
//   DumpChromeTrace() — Chrome trace_event JSON ("X" complete events /
//     "i" instants; ts/dur in the logical unit, track as tid). Opens in
//     Perfetto (ui.perfetto.dev) and chrome://tracing.
//   DumpJsonl()       — compact one-event-per-line JSONL with a version
//     header line, for diffing and golden files.
//
// Thread safety: Span/Instant take an internal mutex; any thread may
// record. Dumps sort events by (ts, track, dur desc, ...) so the file
// never depends on arrival order.

#ifndef ANDURIL_SRC_OBS_TRACE_H_
#define ANDURIL_SRC_OBS_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace anduril::obs {

// Logical-timeline layout used by the explorer (documented in
// docs/observability.md): round r of phase p occupies
// [p*kPhaseStride + r*kRoundStride, +kRoundStride); plan item i of that
// round occupies [round_base + i*kItemStride, +kItemStride) on track i+1.
inline constexpr int64_t kRoundStride = 1'000'000;
inline constexpr int64_t kItemStride = 1'000;
inline constexpr int64_t kPhaseStride = 4'000'000'000;  // > max_rounds * kRoundStride

inline constexpr int kTraceFormatVersion = 1;

// One span/instant argument; `value` is a pre-rendered JSON token (use the
// Arg* helpers), so dumping is pure concatenation.
struct TraceArg {
  std::string key;
  std::string value;

  friend bool operator==(const TraceArg&, const TraceArg&) = default;
};

TraceArg ArgStr(std::string key, const std::string& value);
TraceArg ArgInt(std::string key, int64_t value);
TraceArg ArgUint(std::string key, uint64_t value);
TraceArg ArgBool(std::string key, bool value);

struct TraceEvent {
  enum class Kind : uint8_t { kSpan, kInstant };

  Kind kind = Kind::kSpan;
  std::string category;
  std::string name;
  int64_t ts = 0;     // logical start
  int64_t dur = 0;    // logical duration (spans only)
  int64_t track = 0;  // deterministic lane; Chrome tid
  // Optional wall-clock duration; excluded from dumps unless requested.
  int64_t wall_nanos = 0;
  std::vector<TraceArg> args;

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

class Tracer {
 public:
  void Span(std::string category, std::string name, int64_t ts, int64_t dur, int64_t track,
            std::vector<TraceArg> args = {}, int64_t wall_nanos = 0);
  void Instant(std::string category, std::string name, int64_t ts, int64_t track,
               std::vector<TraceArg> args = {});

  size_t event_count() const;
  // Deterministically ordered copy of the recorded events.
  std::vector<TraceEvent> Events() const;
  void Clear();

  // Chrome trace_event JSON: {"displayTimeUnit":"ms","traceEvents":[...]}.
  std::string DumpChromeTrace(bool include_wall = false) const;
  // Compact JSONL: a {"anduril_trace":1,...} header line, then one event
  // per line in deterministic order.
  std::string DumpJsonl(bool include_wall = false) const;

  // Parses a DumpJsonl() document. Returns false (and fills *error) on a
  // missing/unsupported version header or any malformed line (e.g. a file
  // truncated mid-write). Numeric args are normalized through int64 (JSON
  // has no uint64): an ArgUint above int64 max will not round-trip.
  static bool ParseJsonl(const std::string& text, std::vector<TraceEvent>* out,
                         std::string* error);

 private:
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
};

}  // namespace anduril::obs

#endif  // ANDURIL_SRC_OBS_TRACE_H_
