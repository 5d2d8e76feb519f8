#include "src/service/manifest.h"

#include "src/util/file.h"
#include "src/util/hash.h"
#include "src/util/json.h"

namespace anduril::service {
const char* CaseStateName(CaseState state) {
  switch (state) {
    case CaseState::kPending:
      return "pending";
    case CaseState::kReproduced:
      return "reproduced";
    case CaseState::kStarved:
      return "starved";
    case CaseState::kFailed:
      return "failed";
  }
  return "pending";
}

bool CaseStateFromName(const std::string& name, CaseState* out) {
  for (CaseState state : {CaseState::kPending, CaseState::kReproduced, CaseState::kStarved,
                          CaseState::kFailed}) {
    if (name == CaseStateName(state)) {
      *out = state;
      return true;
    }
  }
  return false;
}

bool QueueManifest::AllTerminal() const {
  for (const QueueCase& entry : cases) {
    if (!IsTerminal(entry.state)) {
      return false;
    }
  }
  return true;
}

int QueueManifest::CountState(CaseState state) const {
  int count = 0;
  for (const QueueCase& entry : cases) {
    if (entry.state == state) {
      ++count;
    }
  }
  return count;
}

uint64_t ManifestIntegrityHash(const QueueManifest& manifest) {
  Fnv1aHasher hasher;
  hasher.MixInt(kQueueFormatVersion);
  hasher.MixInt(manifest.slice_rounds);
  for (const QueueCase& entry : manifest.cases) {
    hasher.MixSeparator();
    hasher.MixStr(entry.id);
    hasher.MixInt(entry.chain ? 1 : 0);
    hasher.MixInt(entry.round_budget);
    hasher.MixInt(entry.rounds_done);
    hasher.MixInt(entry.slices_done);
    hasher.MixInt(entry.crashes);
    hasher.MixStr(CaseStateName(entry.state));
    hasher.MixStr(entry.script);
    hasher.MixInt(static_cast<int64_t>(entry.script_seed));
  }
  return hasher.hash();
}

std::string SerializeManifest(const QueueManifest& manifest) {
  JsonValue root = JsonValue::Object();
  root.Set("anduril_queue", JsonValue::Int(kQueueFormatVersion));
  root.Set("slice_rounds", JsonValue::Int(manifest.slice_rounds));
  JsonValue cases = JsonValue::Array();
  for (const QueueCase& entry : manifest.cases) {
    JsonValue item = JsonValue::Object();
    item.Set("id", JsonValue::Str(entry.id));
    item.Set("chain", JsonValue::Bool(entry.chain));
    item.Set("round_budget", JsonValue::Int(entry.round_budget));
    item.Set("rounds_done", JsonValue::Int(entry.rounds_done));
    item.Set("slices_done", JsonValue::Int(entry.slices_done));
    item.Set("crashes", JsonValue::Int(entry.crashes));
    item.Set("state", JsonValue::Str(CaseStateName(entry.state)));
    if (!entry.script.empty()) {
      item.Set("script", JsonValue::Str(entry.script));
      item.Set("script_seed", JsonValue::U64(entry.script_seed));
    }
    cases.Append(std::move(item));
  }
  root.Set("cases", std::move(cases));
  root.Set("integrity", JsonValue::U64(ManifestIntegrityHash(manifest)));
  return root.Dump();
}

bool ParseManifest(const std::string& text, QueueManifest* out, std::string* error) {
  std::string parse_error;
  JsonValue root = JsonValue::Parse(text, &parse_error);
  if (!parse_error.empty()) {
    *error = "manifest: " + parse_error;
    return false;
  }
  JsonReader in(root, "manifest", error);
  if (!in.Has("anduril_queue")) {
    *error = "manifest: missing \"anduril_queue\" version field";
    return false;
  }
  const int64_t version = in.Int64("anduril_queue");
  if (!in.ok()) {
    return false;
  }
  if (version != kQueueFormatVersion) {
    *error = "manifest: unsupported version " + std::to_string(version) +
             " (this build reads version " + std::to_string(kQueueFormatVersion) + ")";
    return false;
  }
  QueueManifest manifest;
  manifest.slice_rounds = in.Int("slice_rounds");
  JsonReader cases = in.Array("cases");
  for (size_t i = 0; i < cases.size(); ++i) {
    JsonReader item = cases.Object(i);
    QueueCase entry;
    entry.id = item.Str("id");
    entry.chain = item.Bool("chain");
    entry.round_budget = item.Int("round_budget");
    entry.rounds_done = item.Int("rounds_done");
    entry.slices_done = item.Int("slices_done");
    entry.crashes = item.Int("crashes");
    const std::string state = item.Str("state");
    if (item.ok() && !CaseStateFromName(state, &entry.state)) {
      item.Fail("unknown state \"" + state + "\"");
    }
    if (item.Has("script")) {
      entry.script = item.Str("script");
      entry.script_seed = item.U64("script_seed");
    }
    manifest.cases.push_back(std::move(entry));
  }
  const std::string stored = in.Str("integrity");  // compared as text
  if (!in.ok()) {
    return false;
  }
  const std::string computed = std::to_string(ManifestIntegrityHash(manifest));
  if (stored != computed) {
    *error = "manifest: integrity hash mismatch (stored " + stored + ", computed " + computed +
             ") — the queue file was edited or corrupted";
    return false;
  }
  *out = std::move(manifest);
  return true;
}

bool SaveManifestFile(const std::string& path, const QueueManifest& manifest) {
  return WriteFileAtomic(path, SerializeManifest(manifest));
}

bool LoadManifestFile(const std::string& path, QueueManifest* out, std::string* error) {
  std::string text;
  if (!ReadFileToString(path, &text)) {
    *error = "cannot read " + path;
    return false;
  }
  return ParseManifest(text, out, error);
}

}  // namespace anduril::service
