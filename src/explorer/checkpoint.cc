#include "src/explorer/checkpoint.h"

#include <cinttypes>
#include <cstdio>

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

JsonValue CandidateToJson(const interp::InjectionCandidate& candidate) {
  JsonValue object = JsonValue::Object();
  object.Set("site", JsonValue::Int(candidate.site));
  object.Set("occurrence", JsonValue::Int(candidate.occurrence));
  object.Set("type", JsonValue::Int(candidate.type));
  object.Set("kind", JsonValue::Str(interp::FaultKindName(candidate.kind)));
  return object;
}

bool CandidateFromJson(const JsonValue& value, interp::InjectionCandidate* out,
                       std::string* error) {
  if (value.type() != JsonValue::Type::kObject) {
    *error = "candidate is not an object";
    return false;
  }
  out->site = static_cast<ir::FaultSiteId>(
      value.Find("site") ? value.Find("site")->as_int(ir::kInvalidId) : ir::kInvalidId);
  out->occurrence = value.Find("occurrence") ? value.Find("occurrence")->as_int() : 0;
  out->type = static_cast<ir::ExceptionTypeId>(
      value.Find("type") ? value.Find("type")->as_int(ir::kInvalidId) : ir::kInvalidId);
  const std::string& kind =
      value.Find("kind") ? value.Find("kind")->as_string() : std::string("exception");
  if (!interp::FaultKindFromName(kind, &out->kind)) {
    *error = "unknown fault kind \"" + kind + "\"";
    return false;
  }
  return true;
}

}  // namespace

uint64_t ChainSignatureHash(const ChainState& chain) {
  Fnv1aHasher hasher;
  for (const FaultChainStep& step : chain.steps) {
    hasher.MixInt(step.candidate.site);
    hasher.MixInt(step.candidate.occurrence);
    hasher.MixInt(step.candidate.type);
    hasher.MixInt(static_cast<int64_t>(step.candidate.kind));
    hasher.MixInt(static_cast<int64_t>(step.seed));
    hasher.MixInt(step.rounds);
    for (const std::string& key : step.stitched_observables) {
      hasher.MixStr(key);
    }
    hasher.MixSeparator();
  }
  return hasher.hash();
}

uint64_t ProgramFingerprint(const ir::Program& program) {
  // FNV-1a over the fault-site and exception-type names, in id order.
  Fnv1aHasher hasher;
  for (const ir::FaultSite& site : program.fault_sites()) {
    hasher.MixStr(site.name);
  }
  for (size_t i = 0; i < program.exception_type_count(); ++i) {
    hasher.MixStr(program.exception_type(static_cast<ir::ExceptionTypeId>(i)).name);
  }
  return hasher.hash();
}

std::string SerializeCheckpoint(const SearchCheckpoint& checkpoint) {
  JsonValue root = JsonValue::Object();
  root.Set("version", JsonValue::Int(checkpoint.version));
  root.Set("program_fingerprint", JsonValue::Str(U64ToString(checkpoint.program_fingerprint)));
  root.Set("base_seed", JsonValue::Str(U64ToString(checkpoint.base_seed)));
  root.Set("rounds_completed", JsonValue::Int(checkpoint.rounds_completed));
  root.Set("retry_rng_draws", JsonValue::Str(U64ToString(checkpoint.retry_rng_draws)));

  JsonValue network = JsonValue::Object();
  network.Set("candidates", JsonValue::Bool(checkpoint.network_candidates));
  network.Set("partition_heal_ms", JsonValue::Int(checkpoint.partition_heal_ms));
  network.Set("network_delay_ms", JsonValue::Int(checkpoint.network_delay_ms));
  root.Set("network", std::move(network));

  JsonValue experiment = JsonValue::Object();
  experiment.Set("completed_rounds", JsonValue::Int(checkpoint.experiment.completed_rounds));
  experiment.Set("crashed_rounds", JsonValue::Int(checkpoint.experiment.crashed_rounds));
  experiment.Set("hung_rounds", JsonValue::Int(checkpoint.experiment.hung_rounds));
  experiment.Set("budget_exceeded_rounds",
                 JsonValue::Int(checkpoint.experiment.budget_exceeded_rounds));
  experiment.Set("partitioned_stuck_rounds",
                 JsonValue::Int(checkpoint.experiment.partitioned_stuck_rounds));
  experiment.Set("transient_retries", JsonValue::Int(checkpoint.experiment.transient_retries));
  experiment.Set("total_run_wall_seconds",
                 JsonValue::Double(checkpoint.experiment.total_run_wall_seconds));
  experiment.Set("max_round_wall_seconds",
                 JsonValue::Double(checkpoint.experiment.max_round_wall_seconds));
  root.Set("experiment", std::move(experiment));

  JsonValue pinned = JsonValue::Array();
  for (const interp::InjectionCandidate& candidate : checkpoint.pinned) {
    pinned.Append(CandidateToJson(candidate));
  }
  root.Set("pinned", std::move(pinned));

  JsonValue strategy = JsonValue::Object();
  strategy.Set("name", JsonValue::Str(checkpoint.strategy_name));
  strategy.Set("window_size", JsonValue::Int(checkpoint.strategy.window_size));
  strategy.Set("exhausted", JsonValue::Bool(checkpoint.strategy.exhausted));
  JsonValue priorities = JsonValue::Array();
  for (int64_t priority : checkpoint.strategy.observable_priorities) {
    priorities.Append(JsonValue::Int(priority));
  }
  strategy.Set("observable_priorities", std::move(priorities));
  JsonValue tried = JsonValue::Array();
  for (const interp::InjectionCandidate& candidate : checkpoint.strategy.tried) {
    tried.Append(CandidateToJson(candidate));
  }
  strategy.Set("tried", std::move(tried));
  JsonValue demotions = JsonValue::Array();
  for (const StrategyCheckpoint::Demotion& demotion : checkpoint.strategy.demotions) {
    JsonValue entry = JsonValue::Object();
    entry.Set("candidate", CandidateToJson(demotion.candidate));
    entry.Set("count", JsonValue::Int(demotion.count));
    demotions.Append(std::move(entry));
  }
  strategy.Set("demotions", std::move(demotions));
  root.Set("strategy", std::move(strategy));

  JsonValue chain = JsonValue::Object();
  JsonValue steps = JsonValue::Array();
  for (const FaultChainStep& step : checkpoint.chain.steps) {
    JsonValue entry = JsonValue::Object();
    entry.Set("candidate", CandidateToJson(step.candidate));
    entry.Set("seed", JsonValue::Str(U64ToString(step.seed)));
    entry.Set("rounds", JsonValue::Int(step.rounds));
    JsonValue observables = JsonValue::Array();
    for (const std::string& key : step.stitched_observables) {
      observables.Append(JsonValue::Str(key));
    }
    entry.Set("stitched_observables", std::move(observables));
    steps.Append(std::move(entry));
  }
  chain.Set("steps", std::move(steps));
  chain.Set("phase", JsonValue::Int(checkpoint.chain.phase));
  chain.Set("rounds_before_phase", JsonValue::Int(checkpoint.chain.rounds_before_phase));
  JsonValue stitched = JsonValue::Array();
  for (ir::FaultSiteId site : checkpoint.chain.stitched_sites) {
    stitched.Append(JsonValue::Int(site));
  }
  chain.Set("stitched_sites", std::move(stitched));
  JsonValue round_candidates = JsonValue::Array();
  for (const ChainRoundCandidate& summary : checkpoint.chain.round_candidates) {
    JsonValue entry = JsonValue::Object();
    entry.Set("candidate", CandidateToJson(summary.candidate));
    entry.Set("present_observables", JsonValue::Int(summary.present_observables));
    entry.Set("round", JsonValue::Int(summary.round));
    round_candidates.Append(std::move(entry));
  }
  chain.Set("round_candidates", std::move(round_candidates));
  root.Set("chain", std::move(chain));
  // Always recomputed from the chain block — the struct field is only the
  // parsed-and-verified copy.
  root.Set("chain_signature_hash",
           JsonValue::Str(U64ToString(ChainSignatureHash(checkpoint.chain))));

  JsonValue engine = JsonValue::Object();
  engine.Set("candidates", JsonValue::Int(checkpoint.engine_candidates));
  engine.Set("observables", JsonValue::Int(checkpoint.engine_observables));
  root.Set("engine", std::move(engine));

  if (checkpoint.has_metrics) {
    root.Set("metrics", obs::MetricsSnapshotToJson(checkpoint.metrics));
  }

  return root.Dump();
}

bool ParseCheckpoint(const std::string& text, SearchCheckpoint* out, std::string* error) {
  std::string parse_error;
  JsonValue root = JsonValue::Parse(text, &parse_error);
  if (!parse_error.empty()) {
    *error = "checkpoint parse error: " + parse_error;
    return false;
  }
  if (root.type() != JsonValue::Type::kObject) {
    *error = "checkpoint is not a JSON object";
    return false;
  }
  const JsonValue* version = root.Find("version");
  if (version == nullptr) {
    *error = "checkpoint has no version field";
    return false;
  }
  if (version->as_int() != kCheckpointVersion) {
    if (version->as_int() == 2 && root.Find("chain") != nullptr) {
      // A pre-release chain build wrote chain state without bumping the
      // version; resuming it as v2 would silently drop the chain prefix.
      *error = StrFormat(
          "checkpoint declares version 2 but contains fault-chain state, which only "
          "version %d defines; this file was written by a mismatched build — delete "
          "the stale checkpoint and restart the chain search from round 0",
          kCheckpointVersion);
      return false;
    }
    *error = StrFormat(
        "unsupported checkpoint version %lld (this build reads only version %d); "
        "checkpoint files are not forward/backward compatible — delete the stale "
        "checkpoint and restart the search from round 0",
        static_cast<long long>(version->as_int()), kCheckpointVersion);
    return false;
  }
  out->version = static_cast<int>(version->as_int());
  out->program_fingerprint = U64FromJson(root.Find("program_fingerprint"));
  out->base_seed = U64FromJson(root.Find("base_seed"));
  out->rounds_completed =
      root.Find("rounds_completed") ? static_cast<int>(root.Find("rounds_completed")->as_int())
                                    : 0;
  out->retry_rng_draws = U64FromJson(root.Find("retry_rng_draws"));

  const JsonValue* network = root.Find("network");
  if (network == nullptr || network->type() != JsonValue::Type::kObject) {
    *error = "checkpoint has no network object (required since version 2)";
    return false;
  }
  out->network_candidates =
      network->Find("candidates") != nullptr && network->Find("candidates")->as_bool();
  out->partition_heal_ms =
      network->Find("partition_heal_ms") ? network->Find("partition_heal_ms")->as_int() : 0;
  out->network_delay_ms =
      network->Find("network_delay_ms") ? network->Find("network_delay_ms")->as_int() : 0;

  if (const JsonValue* experiment = root.Find("experiment"); experiment != nullptr) {
    auto get_int = [&](const char* key) {
      const JsonValue* value = experiment->Find(key);
      return value ? static_cast<int>(value->as_int()) : 0;
    };
    out->experiment.completed_rounds = get_int("completed_rounds");
    out->experiment.crashed_rounds = get_int("crashed_rounds");
    out->experiment.hung_rounds = get_int("hung_rounds");
    out->experiment.budget_exceeded_rounds = get_int("budget_exceeded_rounds");
    out->experiment.partitioned_stuck_rounds = get_int("partitioned_stuck_rounds");
    out->experiment.transient_retries = get_int("transient_retries");
    const JsonValue* total = experiment->Find("total_run_wall_seconds");
    out->experiment.total_run_wall_seconds = total ? total->as_double() : 0;
    const JsonValue* max_round = experiment->Find("max_round_wall_seconds");
    out->experiment.max_round_wall_seconds = max_round ? max_round->as_double() : 0;
  }

  out->pinned.clear();
  if (const JsonValue* pinned = root.Find("pinned"); pinned != nullptr) {
    for (const JsonValue& entry : pinned->items()) {
      interp::InjectionCandidate candidate;
      if (!CandidateFromJson(entry, &candidate, error)) {
        return false;
      }
      out->pinned.push_back(candidate);
    }
  }

  const JsonValue* strategy = root.Find("strategy");
  if (strategy == nullptr || strategy->type() != JsonValue::Type::kObject) {
    *error = "checkpoint has no strategy object";
    return false;
  }
  const JsonValue* strategy_name = strategy->Find("name");
  if (strategy_name == nullptr || strategy_name->type() != JsonValue::Type::kString) {
    *error = "checkpoint strategy has no name (required since version 6)";
    return false;
  }
  out->strategy_name = strategy_name->as_string();
  out->strategy.window_size =
      strategy->Find("window_size") ? static_cast<int>(strategy->Find("window_size")->as_int())
                                    : 0;
  out->strategy.exhausted =
      strategy->Find("exhausted") != nullptr && strategy->Find("exhausted")->as_bool();
  out->strategy.observable_priorities.clear();
  if (const JsonValue* priorities = strategy->Find("observable_priorities");
      priorities != nullptr) {
    for (const JsonValue& entry : priorities->items()) {
      out->strategy.observable_priorities.push_back(entry.as_int());
    }
  }
  out->strategy.tried.clear();
  if (const JsonValue* tried = strategy->Find("tried"); tried != nullptr) {
    for (const JsonValue& entry : tried->items()) {
      interp::InjectionCandidate candidate;
      if (!CandidateFromJson(entry, &candidate, error)) {
        return false;
      }
      out->strategy.tried.push_back(candidate);
    }
  }
  out->strategy.demotions.clear();
  if (const JsonValue* demotions = strategy->Find("demotions"); demotions != nullptr) {
    for (const JsonValue& entry : demotions->items()) {
      StrategyCheckpoint::Demotion demotion;
      const JsonValue* candidate = entry.Find("candidate");
      if (candidate == nullptr || !CandidateFromJson(*candidate, &demotion.candidate, error)) {
        if (error->empty()) {
          *error = "demotion entry has no candidate";
        }
        return false;
      }
      demotion.count = entry.Find("count") ? static_cast<int>(entry.Find("count")->as_int()) : 0;
      out->strategy.demotions.push_back(demotion);
    }
  }
  out->chain = ChainState{};
  const JsonValue* chain = root.Find("chain");
  if (chain == nullptr || chain->type() != JsonValue::Type::kObject) {
    *error = "checkpoint has no chain object (required since version 3)";
    return false;
  }
  if (const JsonValue* steps = chain->Find("steps"); steps != nullptr) {
    for (const JsonValue& entry : steps->items()) {
      FaultChainStep step;
      const JsonValue* candidate = entry.Find("candidate");
      if (candidate == nullptr || !CandidateFromJson(*candidate, &step.candidate, error)) {
        if (error->empty()) {
          *error = "chain step has no candidate";
        }
        return false;
      }
      step.seed = U64FromJson(entry.Find("seed"));
      step.rounds = entry.Find("rounds") ? static_cast<int>(entry.Find("rounds")->as_int()) : 0;
      if (const JsonValue* observables = entry.Find("stitched_observables");
          observables != nullptr) {
        for (const JsonValue& key : observables->items()) {
          step.stitched_observables.push_back(key.as_string());
        }
      }
      out->chain.steps.push_back(std::move(step));
    }
  }
  out->chain.phase =
      chain->Find("phase") ? static_cast<int>(chain->Find("phase")->as_int()) : 0;
  out->chain.rounds_before_phase =
      chain->Find("rounds_before_phase")
          ? static_cast<int>(chain->Find("rounds_before_phase")->as_int())
          : 0;
  if (const JsonValue* stitched = chain->Find("stitched_sites"); stitched != nullptr) {
    for (const JsonValue& entry : stitched->items()) {
      out->chain.stitched_sites.push_back(static_cast<ir::FaultSiteId>(entry.as_int()));
    }
  }
  if (const JsonValue* summaries = chain->Find("round_candidates"); summaries != nullptr) {
    for (const JsonValue& entry : summaries->items()) {
      ChainRoundCandidate summary;
      const JsonValue* candidate = entry.Find("candidate");
      if (candidate == nullptr || !CandidateFromJson(*candidate, &summary.candidate, error)) {
        if (error->empty()) {
          *error = "chain round candidate has no candidate";
        }
        return false;
      }
      summary.present_observables =
          entry.Find("present_observables")
              ? static_cast<int>(entry.Find("present_observables")->as_int())
              : -1;
      summary.round = entry.Find("round") ? static_cast<int>(entry.Find("round")->as_int()) : 0;
      out->chain.round_candidates.push_back(summary);
    }
  }
  out->chain_signature_hash = U64FromJson(root.Find("chain_signature_hash"));
  if (out->chain_signature_hash != ChainSignatureHash(out->chain)) {
    *error =
        "chain signature hash mismatch: the checkpoint's chain state does not hash to "
        "its recorded chain_signature_hash — the file is corrupt or was hand-edited; "
        "delete the stale checkpoint and restart the chain search from round 0";
    return false;
  }

  const JsonValue* engine = root.Find("engine");
  if (engine == nullptr || engine->type() != JsonValue::Type::kObject) {
    *error = "checkpoint has no engine object (required since version 4)";
    return false;
  }
  out->engine_candidates =
      engine->Find("candidates") ? engine->Find("candidates")->as_int() : 0;
  out->engine_observables =
      engine->Find("observables") ? engine->Find("observables")->as_int() : 0;

  out->has_metrics = false;
  out->metrics = obs::MetricsSnapshot{};
  if (const JsonValue* metrics = root.Find("metrics"); metrics != nullptr) {
    if (!obs::MetricsSnapshotFromJson(*metrics, &out->metrics, error)) {
      return false;
    }
    out->has_metrics = true;
  }
  error->clear();
  return true;
}

bool SaveCheckpointFile(const std::string& path, const SearchCheckpoint& checkpoint) {
  return WriteFileAtomic(path, SerializeCheckpoint(checkpoint));
}

bool LoadCheckpointFile(const std::string& path, SearchCheckpoint* out, std::string* error) {
  std::string text;
  if (!ReadFileToString(path, &text)) {
    *error = "cannot open checkpoint file " + path;
    return false;
  }
  return ParseCheckpoint(text, out, error);
}

}  // namespace anduril::explorer
