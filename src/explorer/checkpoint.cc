#include "src/explorer/checkpoint.h"

#include "src/util/file.h"
#include "src/util/hash.h"
#include "src/util/json.h"
#include "src/util/strings.h"

namespace anduril::explorer {
namespace {

JsonValue CandidateToJson(const interp::InjectionCandidate& candidate) {
  JsonValue object = JsonValue::Object();
  object.Set("site", JsonValue::Int(candidate.site));
  object.Set("occurrence", JsonValue::Int(candidate.occurrence));
  object.Set("type", JsonValue::Int(candidate.type));
  object.Set("kind", JsonValue::Str(interp::FaultKindName(candidate.kind)));
  return object;
}

interp::InjectionCandidate ReadCandidate(JsonReader in) {
  interp::InjectionCandidate out;
  out.site = in.Int("site");
  out.occurrence = in.Int64("occurrence");
  out.type = in.Int("type");
  const std::string kind = in.Str("kind");
  if (in.ok() && !interp::FaultKindFromName(kind, &out.kind)) {
    in.Fail("unknown fault kind \"" + kind + "\"");
  }
  return out;
}

std::vector<interp::InjectionCandidate> ReadCandidates(JsonReader list) {
  std::vector<interp::InjectionCandidate> out;
  for (size_t i = 0; i < list.size(); ++i) {
    out.push_back(ReadCandidate(list.Object(i)));
  }
  return out;
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
  root.Set("program_fingerprint", JsonValue::U64(checkpoint.program_fingerprint));
  root.Set("base_seed", JsonValue::U64(checkpoint.base_seed));
  root.Set("rounds_completed", JsonValue::Int(checkpoint.rounds_completed));
  root.Set("retry_rng_draws", JsonValue::U64(checkpoint.retry_rng_draws));

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
    entry.Set("seed", JsonValue::U64(step.seed));
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
  root.Set("chain_signature_hash", JsonValue::U64(ChainSignatureHash(checkpoint.chain)));

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
  JsonReader in(root, "checkpoint", error);
  if (!in.Has("version")) {
    *error = "checkpoint has no version field";
    return false;
  }
  const int64_t version = in.Int64("version");
  if (!in.ok()) {
    return false;
  }
  if (version != kCheckpointVersion) {
    if (version == 2 && root.Find("chain") != nullptr) {
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
        static_cast<long long>(version), kCheckpointVersion);
    return false;
  }
  SearchCheckpoint checkpoint;
  checkpoint.program_fingerprint = in.U64("program_fingerprint");
  checkpoint.base_seed = in.U64("base_seed");
  checkpoint.rounds_completed = in.Int("rounds_completed");
  checkpoint.retry_rng_draws = in.U64("retry_rng_draws");

  JsonReader network = in.Object("network");
  checkpoint.network_candidates = network.Bool("candidates");
  checkpoint.partition_heal_ms = network.Int64("partition_heal_ms");
  checkpoint.network_delay_ms = network.Int64("network_delay_ms");

  JsonReader experiment = in.Object("experiment");
  ExperimentRecord& record = checkpoint.experiment;
  record.completed_rounds = experiment.Int("completed_rounds");
  record.crashed_rounds = experiment.Int("crashed_rounds");
  record.hung_rounds = experiment.Int("hung_rounds");
  record.budget_exceeded_rounds = experiment.Int("budget_exceeded_rounds");
  record.partitioned_stuck_rounds = experiment.Int("partitioned_stuck_rounds");
  record.transient_retries = experiment.Int("transient_retries");
  record.total_run_wall_seconds = experiment.Double("total_run_wall_seconds");
  record.max_round_wall_seconds = experiment.Double("max_round_wall_seconds");

  checkpoint.pinned = ReadCandidates(in.Array("pinned"));

  JsonReader strategy = in.Object("strategy");
  checkpoint.strategy_name = strategy.Str("name");
  checkpoint.strategy.window_size = strategy.Int("window_size");
  checkpoint.strategy.exhausted = strategy.Bool("exhausted");
  JsonReader priorities = strategy.Array("observable_priorities");
  for (size_t i = 0; i < priorities.size(); ++i) {
    checkpoint.strategy.observable_priorities.push_back(priorities.Int64(i));
  }
  checkpoint.strategy.tried = ReadCandidates(strategy.Array("tried"));
  JsonReader demotions = strategy.Array("demotions");
  for (size_t i = 0; i < demotions.size(); ++i) {
    JsonReader entry = demotions.Object(i);
    checkpoint.strategy.demotions.push_back(
        {ReadCandidate(entry.Object("candidate")), entry.Int("count")});
  }

  JsonReader chain = in.Object("chain");
  JsonReader steps = chain.Array("steps");
  for (size_t i = 0; i < steps.size(); ++i) {
    JsonReader entry = steps.Object(i);
    FaultChainStep step;
    step.candidate = ReadCandidate(entry.Object("candidate"));
    step.seed = entry.U64("seed");
    step.rounds = entry.Int("rounds");
    JsonReader observables = entry.Array("stitched_observables");
    for (size_t k = 0; k < observables.size(); ++k) {
      step.stitched_observables.push_back(observables.Str(k));
    }
    checkpoint.chain.steps.push_back(std::move(step));
  }
  checkpoint.chain.phase = chain.Int("phase");
  checkpoint.chain.rounds_before_phase = chain.Int("rounds_before_phase");
  JsonReader stitched = chain.Array("stitched_sites");
  for (size_t i = 0; i < stitched.size(); ++i) {
    checkpoint.chain.stitched_sites.push_back(stitched.Int(i));
  }
  JsonReader summaries = chain.Array("round_candidates");
  for (size_t i = 0; i < summaries.size(); ++i) {
    JsonReader entry = summaries.Object(i);
    checkpoint.chain.round_candidates.push_back({ReadCandidate(entry.Object("candidate")),
                                                 entry.Int("present_observables"),
                                                 entry.Int("round")});
  }
  // Hashes are compared as text: any damage to one, even digits past uint64,
  // is a mismatch.
  const std::string stored_hash = in.Str("chain_signature_hash");

  JsonReader engine = in.Object("engine");
  checkpoint.engine_candidates = engine.Int64("candidates");
  checkpoint.engine_observables = engine.Int64("observables");

  if (in.Has("metrics")) {
    checkpoint.has_metrics = true;
    obs::MetricsSnapshotFromJson(in.Object("metrics"), &checkpoint.metrics);
  }
  if (!in.ok()) {
    return false;
  }
  checkpoint.chain_signature_hash = ChainSignatureHash(checkpoint.chain);
  if (stored_hash != std::to_string(checkpoint.chain_signature_hash)) {
    *error =
        "chain signature hash mismatch: the checkpoint's chain state does not hash to "
        "its recorded chain_signature_hash — the file is corrupt or was hand-edited; "
        "delete the stale checkpoint and restart the chain search from round 0";
    return false;
  }
  *out = std::move(checkpoint);
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
