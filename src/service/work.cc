#include "src/service/work.h"

#include "src/util/json.h"

namespace anduril::service {
const char* SliceStatusName(SliceStatus status) {
  switch (status) {
    case SliceStatus::kReproduced:
      return "reproduced";
    case SliceStatus::kSliceDone:
      return "slice_done";
    case SliceStatus::kExhausted:
      return "exhausted";
    case SliceStatus::kInterrupted:
      return "interrupted";
    case SliceStatus::kError:
      return "error";
  }
  return "error";
}

bool SliceStatusFromName(const std::string& name, SliceStatus* out) {
  for (SliceStatus status :
       {SliceStatus::kReproduced, SliceStatus::kSliceDone, SliceStatus::kExhausted,
        SliceStatus::kInterrupted, SliceStatus::kError}) {
    if (name == SliceStatusName(status)) {
      *out = status;
      return true;
    }
  }
  return false;
}

std::string SerializeWorkUnit(const WorkUnit& unit) {
  JsonValue root = JsonValue::Object();
  root.Set("case_id", JsonValue::Str(unit.case_id));
  root.Set("chain", JsonValue::Bool(unit.chain));
  root.Set("slice_rounds", JsonValue::Int(unit.slice_rounds));
  root.Set("round_budget", JsonValue::Int(unit.round_budget));
  root.Set("checkpoint_path", JsonValue::Str(unit.checkpoint_path));
  root.Set("metrics_path", JsonValue::Str(unit.metrics_path));
  root.Set("daemon_pid", JsonValue::Int(unit.daemon_pid));
  root.Set("emulate_crash_after_rounds", JsonValue::Int(unit.emulate_crash_after_rounds));
  return root.Dump();
}

bool ParseWorkUnit(const std::string& text, WorkUnit* out, std::string* error) {
  std::string parse_error;
  JsonValue root = JsonValue::Parse(text, &parse_error);
  if (!parse_error.empty()) {
    *error = "work unit: " + parse_error;
    return false;
  }
  JsonReader in(root, "work_unit", error);
  WorkUnit unit;
  unit.case_id = in.Str("case_id");
  unit.chain = in.Bool("chain");
  unit.slice_rounds = in.Int("slice_rounds");
  unit.round_budget = in.Int("round_budget");
  unit.checkpoint_path = in.Str("checkpoint_path");
  unit.metrics_path = in.Str("metrics_path");
  unit.daemon_pid = in.Int64("daemon_pid");
  unit.emulate_crash_after_rounds = in.Int("emulate_crash_after_rounds");
  if (in.ok() && unit.case_id.empty()) {
    in.Fail("empty case_id");
  }
  if (!in.ok()) {
    return false;
  }
  *out = std::move(unit);
  return true;
}

std::string SerializeWorkResult(const WorkResult& result) {
  JsonValue root = JsonValue::Object();
  root.Set("case_id", JsonValue::Str(result.case_id));
  root.Set("status", JsonValue::Str(SliceStatusName(result.status)));
  root.Set("rounds_done", JsonValue::Int(result.rounds_done));
  if (!result.script.empty()) {
    root.Set("script", JsonValue::Str(result.script));
    root.Set("script_seed", JsonValue::U64(result.script_seed));
  }
  root.Set("daemon_pid", JsonValue::Int(result.daemon_pid));
  if (!result.error.empty()) {
    root.Set("error", JsonValue::Str(result.error));
  }
  return root.Dump();
}

bool ParseWorkResult(const std::string& text, WorkResult* out, std::string* error) {
  std::string parse_error;
  JsonValue root = JsonValue::Parse(text, &parse_error);
  if (!parse_error.empty()) {
    *error = "work result: " + parse_error;
    return false;
  }
  JsonReader in(root, "work_result", error);
  WorkResult result;
  result.case_id = in.Str("case_id");
  const std::string status = in.Str("status");
  if (in.ok() && !SliceStatusFromName(status, &result.status)) {
    in.Fail("unknown status \"" + status + "\"");
  }
  result.rounds_done = in.Int("rounds_done");
  if (in.Has("script")) {
    result.script = in.Str("script");
    result.script_seed = in.U64("script_seed");
  }
  result.daemon_pid = in.Int64("daemon_pid");
  if (in.Has("error")) {
    result.error = in.Str("error");
  }
  if (in.ok() && result.case_id.empty()) {
    in.Fail("empty case_id");
  }
  if (!in.ok()) {
    return false;
  }
  *out = std::move(result);
  return true;
}

}  // namespace anduril::service
