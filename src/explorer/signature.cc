#include "src/explorer/signature.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <unordered_set>
#include <utility>

#include "src/explorer/checkpoint.h"
#include "src/interp/simulator.h"
#include "src/logdiff/compare.h"
#include "src/util/check.h"
#include "src/util/file.h"
#include "src/util/hash.h"
#include "src/util/json.h"
#include "src/util/strings.h"

namespace anduril::explorer {
namespace {

std::string U64ToString(uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  return buf;
}

uint64_t U64FromJson(const JsonValue* value) {
  if (value == nullptr) {
    return 0;
  }
  if (value->type() == JsonValue::Type::kString) {
    return std::strtoull(value->as_string().c_str(), nullptr, 10);
  }
  return static_cast<uint64_t>(value->as_int());
}

std::string TaskName(const interp::InitialTask& task) { return task.node + "/" + task.thread; }

// Method-name slice: every method reachable from the retained tasks' entry
// methods through Invoke/Send/Submit callee edges, sorted by name.
std::vector<std::string> MethodSlice(const ir::Program& program,
                                     const interp::ClusterSpec& cluster,
                                     const std::unordered_set<std::string>& retained) {
  std::unordered_set<ir::MethodId> visited;
  std::vector<ir::MethodId> frontier;
  for (const interp::InitialTask& task : cluster.tasks) {
    if (!retained.contains(TaskName(task))) {
      continue;
    }
    if (visited.insert(task.method).second) {
      frontier.push_back(task.method);
    }
  }
  while (!frontier.empty()) {
    ir::MethodId current = frontier.back();
    frontier.pop_back();
    for (const ir::Stmt& stmt : program.method(current).stmts) {
      if (stmt.callee == ir::kInvalidId) {
        continue;
      }
      if (visited.insert(stmt.callee).second) {
        frontier.push_back(stmt.callee);
      }
    }
  }
  std::vector<std::string> names;
  names.reserve(visited.size());
  for (ir::MethodId id : visited) {
    names.push_back(program.method(id).name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::unordered_set<std::string> KeysOfLogText(const std::string& text) {
  std::unordered_set<std::string> keys;
  logdiff::ParsedLog log = logdiff::ParseLogFile(text);
  for (const logdiff::ParsedLine& line : log.lines) {
    keys.insert(line.key);
  }
  return keys;
}

// The serialized content with the hash field left out — what the content
// hash is computed over. Field insertion order is fixed, so the bytes (and
// therefore the hash) are a pure function of the signature's fields.
JsonValue SignatureToJson(const FaultSignature& signature) {
  JsonValue root = JsonValue::Object();
  root.Set("version", JsonValue::Int(signature.version));
  root.Set("case_id", JsonValue::Str(signature.case_id));
  root.Set("program_fingerprint",
           JsonValue::Str(U64ToString(signature.program_fingerprint)));
  root.Set("minimized", JsonValue::Bool(signature.minimized));
  JsonValue steps = JsonValue::Array();
  for (const SignatureStep& step : signature.steps) {
    JsonValue entry = JsonValue::Object();
    entry.Set("site", JsonValue::Str(step.site));
    entry.Set("exception", JsonValue::Str(step.exception));
    entry.Set("occurrence", JsonValue::Int(step.occurrence));
    entry.Set("kind", JsonValue::Str(interp::FaultKindName(step.kind)));
    entry.Set("seed", JsonValue::Str(U64ToString(step.seed)));
    steps.Append(std::move(entry));
  }
  root.Set("steps", std::move(steps));
  auto string_array = [](const std::vector<std::string>& values) {
    JsonValue array = JsonValue::Array();
    for (const std::string& value : values) {
      array.Append(JsonValue::Str(value));
    }
    return array;
  };
  root.Set("oracle_keys", string_array(signature.oracle_keys));
  root.Set("retained_tasks", string_array(signature.retained_tasks));
  root.Set("ir_methods", string_array(signature.ir_methods));
  return root;
}

uint64_t ContentHash(const FaultSignature& signature) {
  return Fnv1a(SignatureToJson(signature).Dump());
}

// Exact-name site resolution (FaultSite names are unique per program).
ir::FaultSiteId ResolveSite(const ir::Program& program, const std::string& name) {
  for (const ir::FaultSite& site : program.fault_sites()) {
    if (site.name == name) {
      return site.id;
    }
  }
  return ir::kInvalidId;
}

}  // namespace

FaultSignature BuildSignature(const ExperimentSpec& spec, const std::string& case_id,
                              const ChainResult& result) {
  ANDURIL_CHECK(result.reproduced && !result.chain.steps.empty())
      << "BuildSignature needs a successful reproduction";
  FaultSignature signature;
  signature.case_id = case_id;
  signature.program_fingerprint = ProgramFingerprint(*spec.program);
  for (const FaultChainStep& step : result.chain.steps) {
    SignatureStep out;
    out.site = spec.program->fault_site(step.candidate.site).name;
    out.exception = step.candidate.type != ir::kInvalidId
                        ? spec.program->exception_type(step.candidate.type).name
                        : "";
    out.occurrence = step.candidate.occurrence;
    out.kind = step.candidate.kind;
    out.seed = step.seed;
    signature.steps.push_back(std::move(out));
  }
  // Every task, explicitly: the signature is standalone, so nothing about
  // the workload stays implicit. Minimization prunes from here.
  for (const interp::InitialTask& task : spec.cluster->tasks) {
    signature.retained_tasks.push_back(TaskName(task));
  }
  {
    std::unordered_set<std::string> retained(signature.retained_tasks.begin(),
                                             signature.retained_tasks.end());
    signature.ir_methods = MethodSlice(*spec.program, *spec.cluster, retained);
  }

  // Oracle keys: symptoms of the production failure log that this
  // reproduction's failing run also shows and the fault-free run does not.
  SignatureReplay failing = ReplaySignature(spec, signature);
  ANDURIL_CHECK(failing.error.empty()) << failing.error;
  interp::FaultRuntime runtime(spec.program);
  interp::Simulator simulator(spec.program, spec.cluster, spec.base_seed, &runtime);
  interp::RunResult fault_free = simulator.Run();
  logdiff::LogComparison comparison =
      logdiff::CompareLogs(logdiff::ParseLogFile(interp::FormatLogFile(fault_free.log)),
                           logdiff::ParseLogFile(interp::FormatLogFile(failing.run.log)));
  std::unordered_set<std::string> production_keys = KeysOfLogText(spec.failure_log_text);
  for (const std::string& key : comparison.target_only_keys) {
    if (production_keys.contains(key)) {
      signature.oracle_keys.push_back(key);
    }
  }
  return signature;
}

SignatureReplay ReplaySignature(const ExperimentSpec& spec, const FaultSignature& signature) {
  SignatureReplay result;
  if (signature.steps.empty()) {
    result.error = "signature has no fault steps";
    return result;
  }
  if (signature.program_fingerprint != ProgramFingerprint(*spec.program)) {
    result.error =
        "signature program fingerprint does not match this build's program — the "
        "scenario changed since the signature was captured; re-run the search and "
        "re-emit the signature";
    return result;
  }
  std::vector<interp::InjectionCandidate> resolved;
  for (const SignatureStep& step : signature.steps) {
    interp::InjectionCandidate candidate;
    candidate.site = ResolveSite(*spec.program, step.site);
    if (candidate.site == ir::kInvalidId) {
      result.error = "signature references unknown fault site \"" + step.site + "\"";
      return result;
    }
    candidate.occurrence = step.occurrence;
    candidate.kind = step.kind;
    candidate.type = ir::kInvalidId;
    if (step.kind == interp::FaultKind::kException) {
      candidate.type = spec.program->FindException(step.exception);
      if (candidate.type == ir::kInvalidId) {
        result.error =
            "signature references unknown exception type \"" + step.exception + "\"";
        return result;
      }
    }
    resolved.push_back(candidate);
  }

  // Filtered workload: only the retained tasks run (order preserved).
  interp::ClusterSpec cluster = *spec.cluster;
  std::unordered_set<std::string> retained(signature.retained_tasks.begin(),
                                           signature.retained_tasks.end());
  cluster.tasks.clear();
  for (const interp::InitialTask& task : spec.cluster->tasks) {
    if (retained.contains(TaskName(task))) {
      cluster.tasks.push_back(task);
    }
  }

  // One run, zero search rounds: prefix pinned, final step as the window.
  interp::FaultRuntime runtime(spec.program);
  runtime.SetPinned(
      std::vector<interp::InjectionCandidate>(resolved.begin(), resolved.end() - 1));
  runtime.SetWindow({resolved.back()});
  interp::Simulator simulator(spec.program, &cluster, signature.steps.back().seed, &runtime);
  result.run = simulator.Run();

  bool fired = result.run.injected.has_value() &&
               result.run.pinned_fired == static_cast<int64_t>(resolved.size()) - 1 &&
               spec.oracle(*spec.program, result.run);
  if (fired && !signature.oracle_keys.empty()) {
    std::unordered_set<std::string> keys = RunLogKeys(result.run);
    for (const std::string& key : signature.oracle_keys) {
      if (!keys.contains(key)) {
        fired = false;
        break;
      }
    }
  }
  result.fired = fired;
  return result;
}

FaultSignature MinimizeSignature(const ExperimentSpec& spec, FaultSignature signature,
                                 int* replays) {
  auto fires = [&](const FaultSignature& candidate) {
    if (replays != nullptr) {
      ++*replays;
    }
    return ReplaySignature(spec, candidate).fired;
  };

  // Pass 1: chain steps, front-to-back. The final step stays — it is the
  // window injection the replay run is anchored on.
  for (size_t i = 0; i + 1 < signature.steps.size();) {
    FaultSignature candidate = signature;
    candidate.steps.erase(candidate.steps.begin() + static_cast<std::ptrdiff_t>(i));
    if (fires(candidate)) {
      signature = std::move(candidate);  // keep the drop; retry same index
    } else {
      ++i;
    }
  }

  // Pass 2: workload tasks, front-to-back. Dropping a task reshapes the
  // schedule, so acceptance is purely "does the oracle still fire".
  for (size_t i = 0; i < signature.retained_tasks.size();) {
    FaultSignature candidate = signature;
    candidate.retained_tasks.erase(candidate.retained_tasks.begin() +
                                   static_cast<std::ptrdiff_t>(i));
    if (fires(candidate)) {
      signature = std::move(candidate);
    } else {
      ++i;
    }
  }

  // The method slice follows from the surviving tasks.
  std::unordered_set<std::string> retained(signature.retained_tasks.begin(),
                                           signature.retained_tasks.end());
  signature.ir_methods = MethodSlice(*spec.program, *spec.cluster, retained);
  signature.minimized = true;
  return signature;
}

std::string SerializeSignature(const FaultSignature& signature) {
  JsonValue root = SignatureToJson(signature);
  root.Set("content_hash", JsonValue::Str(U64ToString(ContentHash(signature))));
  return root.Dump();
}

bool ParseSignature(const std::string& text, FaultSignature* out, std::string* error) {
  std::string parse_error;
  JsonValue root = JsonValue::Parse(text, &parse_error);
  if (!parse_error.empty()) {
    *error = "signature parse error: " + parse_error;
    return false;
  }
  if (root.type() != JsonValue::Type::kObject) {
    *error = "signature is not a JSON object";
    return false;
  }
  const JsonValue* version = root.Find("version");
  if (version == nullptr || version->as_int() != kSignatureVersion) {
    *error = StrFormat(
        "unsupported signature version %lld (this build reads only version %d); "
        "re-run the search and re-emit the signature",
        version == nullptr ? 0LL : static_cast<long long>(version->as_int()),
        kSignatureVersion);
    return false;
  }
  *out = FaultSignature{};
  out->version = static_cast<int>(version->as_int());
  out->case_id = root.Find("case_id") ? root.Find("case_id")->as_string() : "";
  out->program_fingerprint = U64FromJson(root.Find("program_fingerprint"));
  out->minimized = root.Find("minimized") != nullptr && root.Find("minimized")->as_bool();
  if (const JsonValue* steps = root.Find("steps"); steps != nullptr) {
    for (const JsonValue& entry : steps->items()) {
      if (entry.type() != JsonValue::Type::kObject) {
        *error = "signature step is not an object";
        return false;
      }
      SignatureStep step;
      step.site = entry.Find("site") ? entry.Find("site")->as_string() : "";
      step.exception = entry.Find("exception") ? entry.Find("exception")->as_string() : "";
      step.occurrence =
          entry.Find("occurrence") ? entry.Find("occurrence")->as_int() : 1;
      const std::string kind =
          entry.Find("kind") ? entry.Find("kind")->as_string() : std::string("exception");
      if (!interp::FaultKindFromName(kind, &step.kind)) {
        *error = "unknown fault kind \"" + kind + "\"";
        return false;
      }
      step.seed = U64FromJson(entry.Find("seed"));
      out->steps.push_back(std::move(step));
    }
  }
  auto read_strings = [&root](const char* key, std::vector<std::string>* into) {
    if (const JsonValue* array = root.Find(key); array != nullptr) {
      for (const JsonValue& entry : array->items()) {
        into->push_back(entry.as_string());
      }
    }
  };
  read_strings("oracle_keys", &out->oracle_keys);
  read_strings("retained_tasks", &out->retained_tasks);
  read_strings("ir_methods", &out->ir_methods);

  uint64_t stored_hash = U64FromJson(root.Find("content_hash"));
  if (stored_hash != ContentHash(*out)) {
    *error =
        "signature content hash mismatch: the file's fields do not hash to its "
        "recorded content_hash — the signature is corrupt or was hand-edited; "
        "re-emit it from a fresh search";
    return false;
  }
  error->clear();
  return true;
}

bool SaveSignatureFile(const std::string& path, const FaultSignature& signature) {
  return WriteFileAtomic(path, SerializeSignature(signature) + "\n");
}

bool LoadSignatureFile(const std::string& path, FaultSignature* out, std::string* error) {
  std::string text;
  if (!ReadFileToString(path, &text)) {
    *error = "cannot open signature file " + path;
    return false;
  }
  return ParseSignature(text, out, error);
}

}  // namespace anduril::explorer
