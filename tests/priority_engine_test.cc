// Tests for the stage-1 priority engine every feedback strategy ranks on.
//
// The oracle: a from-scratch re-rank (recompute every F_i over every
// observable, sort every candidate) runs after each round of real searches
// — every registry at 1/2/8 worker threads, and each design ablation on the
// 22 Table 5 cases — and must produce the engine's per-round (F_i, k*)
// ranking digest and the tracked site's rank. Searches must also be
// thread-count invariant, and their digests must match the golden file
// recorded before the ablations moved onto the engine.
//
// Plus: a randomized dirty-set fuzz (incremental ApplyDeltas against a
// from-scratch Reset on every round, for both aggregations), the storm-scale
// candidate-space floor, and unit tests for the arena the engine's scratch
// lives on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/analysis/causal_graph.h"
#include "src/explorer/context.h"
#include "src/explorer/explorer.h"
#include "src/explorer/priority_engine.h"
#include "src/explorer/strategy.h"
#include "src/systems/common.h"
#include "src/util/arena.h"
#include "src/util/hash.h"
#include "tests/golden_digests.h"
#include "tests/test_util.h"

namespace anduril::explorer {
namespace {

// --- per-round re-rank oracle ----------------------------------------------------
//
// The from-scratch stage-1 ranking: F_i = min_k (or sum_k) of L_{i,k} + I_k
// over the finite distances, argmin k*_i, minus the stitch boost for a
// seeded site, then a sort of every finite candidate by Stage1Less. This is
// the O(C·K + C log C) per-round computation the engine maintains
// incrementally; here it only checks the engine.

struct Rerank {
  std::vector<int64_t> f;       // effective F_i; kPriorityInfinity if unreachable
  std::vector<size_t> best_k;   // argmin observable k*_i
  std::vector<size_t> order;    // finite candidates in stage-1 order
};

Rerank RerankFromScratch(const ExplorerContext& context, const std::vector<int64_t>& priorities,
                         const std::unordered_set<ir::FaultSiteId>& stitched,
                         Aggregation aggregation) {
  const auto& candidates = context.candidates();
  Rerank out;
  out.f.assign(candidates.size(), kPriorityInfinity);
  out.best_k.assign(candidates.size(), 0);
  for (size_t i = 0; i < candidates.size(); ++i) {
    int64_t best = kPriorityInfinity;
    int64_t sum = 0;
    bool finite = false;
    for (size_t k = 0; k < context.observables().size(); ++k) {
      int32_t distance = context.Distance(i, k);
      if (distance == analysis::CausalGraph::kUnreachable) {
        continue;
      }
      int64_t value = static_cast<int64_t>(distance) + priorities[k];
      finite = true;
      sum += value;
      if (value < best) {
        best = value;
        out.best_k[i] = k;
      }
    }
    if (!finite) {
      continue;
    }
    out.f[i] = aggregation == Aggregation::kSum ? sum : best;
    if (stitched.count(candidates[i].site) != 0) {
      out.f[i] -= kStitchBoost;
    }
    out.order.push_back(i);
  }
  std::sort(out.order.begin(), out.order.end(), [&](size_t a, size_t b) {
    return Stage1Less(out.f[a], a, out.f[b], b);
  });
  return out;
}

// PriorityEngine::RankAuditHash over the re-rank: every finite candidate's
// (index, effective F, k*) in index order.
uint64_t AuditHashOf(const Rerank& rerank) {
  Fnv1aHasher hasher;
  for (size_t i = 0; i < rerank.f.size(); ++i) {
    if (rerank.f[i] < kPriorityInfinity) {
      hasher.MixInt(static_cast<int64_t>(i));
      hasher.MixInt(rerank.f[i]);
      hasher.MixInt(static_cast<int64_t>(rerank.best_k[i]));
    }
  }
  return hasher.hash();
}

// 1-based position of the site's first candidate in the stage-1 order.
int RankOfSiteIn(const Rerank& rerank, const ExplorerContext& context, ir::FaultSiteId site) {
  for (size_t rank = 0; rank < rerank.order.size(); ++rank) {
    if (context.candidates()[rerank.order[rank]].site == site) {
      return static_cast<int>(rank) + 1;
    }
  }
  return -1;
}

// Forwards every InjectionStrategy call to a feedback strategy and, after
// each NextWindow, re-ranks from scratch from the priorities SaveState
// reports and the stitched sites the strategy was seeded with. The engine's
// audit hash and the tracked site's rank must match the re-rank; the first
// mismatch is kept for the test to report.
class OracleStrategy : public InjectionStrategy {
 public:
  explicit OracleStrategy(std::unique_ptr<InjectionStrategy> inner)
      : inner_(std::move(inner)),
        aggregation_(inner_->name() == "full-sum" ? Aggregation::kSum : Aggregation::kMin) {
    inner_->SetRankAuditSink(&audit_);
  }

  std::string name() const override { return inner_->name(); }
  void Initialize(const ExplorerContext& context) override {
    context_ = &context;
    inner_->Initialize(context);
  }
  std::vector<interp::InjectionCandidate> NextWindow() override {
    std::vector<interp::InjectionCandidate> window = inner_->NextWindow();
    ++rounds_;
    if (!divergence_.empty()) {
      return window;
    }
    if (audit_.size() != static_cast<size_t>(rounds_)) {
      divergence_ = "strategy pushed " + std::to_string(audit_.size()) +
                    " rank audits in " + std::to_string(rounds_) + " rounds";
      return window;
    }
    StrategyCheckpoint state;
    if (!inner_->SaveState(&state)) {
      divergence_ = "strategy cannot report its priorities";
      return window;
    }
    Rerank rerank =
        RerankFromScratch(*context_, state.observable_priorities, stitched_, aggregation_);
    if (audit_.back() != AuditHashOf(rerank)) {
      divergence_ = "stage-1 ranking diverges from the re-rank at round " +
                    std::to_string(rounds_);
      return window;
    }
    ir::FaultSiteId tracked = context_->options().track_site;
    if (tracked != ir::kInvalidId &&
        inner_->RankOfSite(tracked) != RankOfSiteIn(rerank, *context_, tracked)) {
      divergence_ = "tracked rank " + std::to_string(inner_->RankOfSite(tracked)) +
                    " differs from the re-rank's " +
                    std::to_string(RankOfSiteIn(rerank, *context_, tracked)) + " at round " +
                    std::to_string(rounds_);
    }
    return window;
  }
  void OnRound(const RoundOutcome& outcome) override { inner_->OnRound(outcome); }
  bool Exhausted() const override { return inner_->Exhausted(); }
  bool WantsLogFeedback() const override { return inner_->WantsLogFeedback(); }
  void SeedStitchedSites(const std::vector<ir::FaultSiteId>& sites) override {
    stitched_.insert(sites.begin(), sites.end());
    inner_->SeedStitchedSites(sites);
  }
  int RankOfSite(ir::FaultSiteId site) const override { return inner_->RankOfSite(site); }
  void SetRankAuditSink(std::vector<uint64_t>* /*sink*/) override {}
  bool SaveState(StrategyCheckpoint* out) const override { return inner_->SaveState(out); }
  bool RestoreState(const StrategyCheckpoint& state) override {
    return inner_->RestoreState(state);
  }

  int rounds() const { return rounds_; }
  const std::string& divergence() const { return divergence_; }

 private:
  std::unique_ptr<InjectionStrategy> inner_;
  Aggregation aggregation_;
  const ExplorerContext* context_ = nullptr;
  std::unordered_set<ir::FaultSiteId> stitched_;
  std::vector<uint64_t> audit_;
  int rounds_ = 0;
  std::string divergence_;
};

// One search of `built` under `strategy`, checked by the oracle every round,
// with the ground-truth site tracked.
ExploreResult RunOracle(const systems::BuiltCase& built, ExplorerOptions options,
                        const std::string& strategy,
                        const std::vector<ir::FaultSiteId>& stitched = {}) {
  options.track_site = built.ground_truth.site;
  OracleStrategy oracle(MakeStrategy(strategy));
  if (!stitched.empty()) {
    oracle.SeedStitchedSites(stitched);
  }
  Explorer explorer(built.spec, options);
  ExploreResult result = explorer.Explore(&oracle);
  EXPECT_EQ(oracle.divergence(), "");
  EXPECT_GT(oracle.rounds(), 0);
  return result;
}

// Runs every case of `registry` under the oracle at each thread count and
// holds the searches thread-count invariant: same outcome, round count and
// script text and seed as the first count's.
void SweepRegistry(const std::vector<systems::FailureCase>& registry, const std::string& strategy,
                   std::initializer_list<int> thread_counts, int max_rounds = 0) {
  for (const systems::FailureCase& failure_case : registry) {
    systems::BuiltCase built = systems::BuildCase(failure_case);
    std::optional<ExploreResult> first;
    for (int threads : thread_counts) {
      SCOPED_TRACE(strategy + " " + failure_case.id + " @" + std::to_string(threads) +
                   " threads");
      ExplorerOptions options = systems::OptionsForCase(failure_case, threads);
      if (max_rounds > 0) {
        options.max_rounds = max_rounds;
      }
      ExploreResult result = RunOracle(built, options, strategy);
      if (!first.has_value()) {
        first = std::move(result);
        continue;
      }
      EXPECT_EQ(result.reproduced, first->reproduced);
      EXPECT_EQ(result.rounds, first->rounds);
      EXPECT_EQ(result.experiment.total_rounds(), first->experiment.total_rounds());
      ASSERT_EQ(result.script.has_value(), first->script.has_value());
      if (result.script.has_value()) {
        EXPECT_EQ(result.script->ToText(*built.spec.program),
                  first->script->ToText(*built.spec.program));
        EXPECT_EQ(result.script->seed, first->script->seed);
      }
    }
  }
}

TEST(PriorityEngineOracleTest, Table5RegistryAllThreadCounts) {
  SweepRegistry(systems::AllCases(), "full", {1, 2, 8});
}

TEST(PriorityEngineOracleTest, CrashStallRegistryAllThreadCounts) {
  SweepRegistry(systems::CrashStallCases(), "full", {1, 2, 8});
}

TEST(PriorityEngineOracleTest, NetworkRegistryAllThreadCounts) {
  SweepRegistry(systems::NetworkCases(), "full", {1, 2, 8});
}

TEST(PriorityEngineOracleTest, CascadeRegistryAllThreadCounts) {
  // Cascading cases need chain mode to reproduce; the single-fault search
  // never succeeds on them, which makes them the non-reproducing half of the
  // contract: every one of the 40 rounds must still rank exactly.
  SweepRegistry(systems::CascadeCases(), "full", {1, 2, 8}, /*max_rounds=*/40);
}

TEST(PriorityEngineOracleTest, StormRegistryAllThreadCounts) {
  SweepRegistry(systems::StormCases(), "full", {1, 2, 8});
}

TEST(PriorityEngineOracleTest, AblationStrategiesAllThreadCounts) {
  // The design ablations rank on the same engine: sum aggregation through
  // its own dirty-set rule, the others through the min ranking.
  for (const char* strategy : {"full-sum", "full-order", "multiply", "site-feedback"}) {
    SweepRegistry(systems::AllCases(), strategy, {1, 2, 8});
  }
}

TEST(PriorityEngineOracleTest, StitchedSitesRankFirst) {
  // Chain mode's stitch boost: seeded sites outrank every other candidate,
  // and the oracle applies the same boost from the sites it forwarded.
  for (const char* id : {"zk-2247", "casc-retry-1"}) {
    const systems::FailureCase* failure_case = systems::FindCase(id);
    ASSERT_NE(failure_case, nullptr) << id;
    systems::BuiltCase built = systems::BuildCase(*failure_case);
    ExplorerOptions options = systems::OptionsForCase(*failure_case, 1);
    options.max_rounds = 40;
    for (const char* strategy : {"full", "full-sum"}) {
      SCOPED_TRACE(std::string(strategy) + " " + id);
      ExploreResult result = RunOracle(built, options, strategy, {built.ground_truth.site});
      ASSERT_FALSE(result.records.empty());
      EXPECT_EQ(result.records.front().tracked_rank, 1);
    }
  }
}

TEST(PriorityEngineOracleTest, SeedSweep) {
  // The check is per-seed, not just at each case's stock explore_seed:
  // re-run representative cases (one per root-fault family, plus a storm)
  // under swept base seeds.
  for (const char* id : {"zk-2247", "hd-4233", "zk-net-1", "ca-storm-1"}) {
    const systems::FailureCase* failure_case = systems::FindCase(id);
    ASSERT_NE(failure_case, nullptr);
    systems::BuiltCase built = systems::BuildCase(*failure_case);
    for (uint64_t seed : {7ull, 1234ull}) {
      SCOPED_TRACE(std::string(id) + " seed=" + std::to_string(seed));
      built.spec.base_seed = seed;
      RunOracle(built, systems::OptionsForCase(*failure_case, 1), "full");
    }
  }
}

// --- strategy golden digests ----------------------------------------------------
//
// One FNV-1a line per search over everything a search decides: reproduced,
// rounds, the script's text and seed, and per round (injected, candidate,
// present observables, tracked rank of the ground-truth site). The lines in
// tests/golden/strategy_digests.txt pin every feedback strategy's search on
// the 22 Table 5 cases, and full feedback on every other registry, so a
// change to stage-1 ranking that moves any window, round or rank fails here
// with the strategy and case. Refresh after an intentional change with
// scripts/update_trace_golden.sh (ANDURIL_UPDATE_GOLDENS=1).

// Searches `failure_case` with `strategy` on one thread, tracking the ground
// truth, and digests the result. The host wall-clock watchdog is disabled so
// a slow (sanitizer) build cannot turn a round into a retry.
uint64_t SearchDigest(const systems::FailureCase& failure_case, const std::string& strategy,
                      int max_rounds) {
  systems::BuiltCase built = systems::BuildCase(failure_case, /*verify=*/false);
  built.cluster.wall_budget_ms = 0;
  ExplorerOptions options = systems::OptionsForCase(failure_case, 1);
  options.track_site = built.ground_truth.site;
  if (max_rounds > 0) {
    options.max_rounds = max_rounds;
  }
  Explorer explorer(built.spec, options);
  std::unique_ptr<InjectionStrategy> searched = MakeStrategy(strategy);
  ExploreResult result = explorer.Explore(searched.get());

  Fnv1aHasher h;
  h.MixInt(result.reproduced);
  h.MixInt(result.rounds);
  h.MixStr(result.script.has_value() ? result.script->ToText(*built.spec.program) : "");
  h.MixInt(result.script.has_value() ? static_cast<int64_t>(result.script->seed) : 0);
  for (const RoundRecord& record : result.records) {
    h.MixInt(record.injected);
    if (record.injected) {
      h.MixInt(record.candidate.site);
      h.MixInt(record.candidate.occurrence);
      h.MixInt(record.candidate.type);
      h.MixInt(static_cast<int64_t>(record.candidate.kind));
    }
    h.MixInt(record.present_observables);
    h.MixInt(record.tracked_rank);
    h.MixSeparator();
  }
  return h.hash();
}

TEST(StrategyGoldenTest, SearchesMatchGoldenDigests) {
  // "<strategy> <case>" -> digest, in run order.
  std::vector<std::pair<std::string, uint64_t>> lines;
  for (const char* strategy : {"full", "full-sum", "full-order", "multiply", "site-feedback"}) {
    for (const systems::FailureCase& failure_case : systems::AllCases()) {
      lines.emplace_back(std::string(strategy) + " " + failure_case.id,
                         SearchDigest(failure_case, strategy, 0));
    }
  }
  for (const auto* registry : {&systems::CrashStallCases(), &systems::NetworkCases(),
                               &systems::StormCases(), &systems::CascadeCases()}) {
    // Cascades need chain mode to reproduce; 40 single-fault rounds pin the
    // non-reproducing trajectory.
    int max_rounds = registry == &systems::CascadeCases() ? 40 : 0;
    for (const systems::FailureCase& failure_case : *registry) {
      lines.emplace_back("full " + failure_case.id, SearchDigest(failure_case, "full", max_rounds));
    }
  }

  CheckGoldenDigests(
      "strategy_digests.txt", "", lines,
      "# Search digests (FNV-1a over reproduced, rounds, script text and seed, and\n"
      "# per-round injected/candidate/present observables/tracked rank), one line\n"
      "# per <strategy> <case> <digest>. Written by priority_engine_test; refresh\n"
      "# with scripts/update_trace_golden.sh.\n");
}

// --- storm-scale candidate space -------------------------------------------------

TEST(StormScaleTest, StormCasesHaveAtLeastFiftyThousandDynamicInstances) {
  ASSERT_EQ(systems::StormCases().size(), 2u);
  // The Table 5 set must stay exactly 22: storms live in their own registry.
  EXPECT_EQ(systems::AllCases().size(), 22u);
  for (const systems::FailureCase& failure_case : systems::StormCases()) {
    SCOPED_TRACE(failure_case.id);
    EXPECT_EQ(systems::FindCase(failure_case.id), &failure_case);
    systems::BuiltCase built = systems::BuildCase(failure_case);
    ExplorerOptions options = systems::OptionsForCase(failure_case, 1);
    ExplorerContext context(built.spec, options);
    int64_t instances = 0;
    for (const FaultCandidate& candidate : context.candidates()) {
      instances += static_cast<int64_t>(context.InstancesOf(candidate.site).size());
    }
    EXPECT_GE(instances, 50'000) << "storm case lost its scale";
  }
}

TEST(StormScaleTest, BlindBaselineCapsOutWhereFeedbackReproduces) {
  // The Table 2 shape in miniature: at storm scale the blind execution-order
  // baseline burns a 150-round budget on the first sliver of the space,
  // while the feedback search still reproduces within the stock budget.
  const systems::FailureCase* failure_case = systems::FindCase("ca-storm-1");
  ASSERT_NE(failure_case, nullptr);
  systems::BuiltCase built = systems::BuildCase(*failure_case);
  ExplorerOptions options = systems::OptionsForCase(*failure_case, 1);

  ExplorerOptions capped = options;
  capped.max_rounds = 150;
  Explorer blind_explorer(built.spec, capped);
  std::unique_ptr<InjectionStrategy> blind = MakeExhaustiveStrategy();
  EXPECT_FALSE(blind_explorer.Explore(blind.get()).reproduced);

  ExploreResult full = systems::RunSearch(built, options);
  EXPECT_TRUE(full.reproduced);
}

// --- dirty-set invariant fuzz ----------------------------------------------------

EngineSpec RandomSpec(std::mt19937* rng, size_t candidates, size_t observables,
                      Aggregation aggregation) {
  EngineSpec spec;
  spec.observables = observables;
  spec.aggregation = aggregation;
  spec.rows.resize(candidates);
  spec.boosts.assign(candidates, 0);
  spec.instance_counts.assign(candidates, 1);
  std::uniform_int_distribution<size_t> row_len(0, 6);
  std::uniform_int_distribution<uint32_t> pick_obs(0, static_cast<uint32_t>(observables) - 1);
  std::uniform_int_distribution<int64_t> pick_dist(0, 50);
  std::uniform_int_distribution<int64_t> pick_instances(1, 5);
  std::uniform_int_distribution<int> pick_boost(0, 9);
  for (size_t i = 0; i < candidates; ++i) {
    size_t len = row_len(*rng);  // 0 = unreachable row (never active)
    std::vector<bool> used(observables, false);
    for (size_t j = 0; j < len; ++j) {
      uint32_t k = pick_obs(*rng);
      if (used[k]) {
        continue;
      }
      used[k] = true;
      spec.rows[i].emplace_back(k, pick_dist(*rng));
    }
    spec.instance_counts[i] = pick_instances(*rng);
    if (pick_boost(*rng) == 0) {
      spec.boosts[i] = kStitchBoost;
    }
  }
  return spec;
}

// Collects the engine's full active-candidate visit order (the top-k heap
// drained to exhaustion) plus its per-candidate state, for equality checks.
struct EngineView {
  std::vector<std::pair<size_t, size_t>> visit_order;  // (candidate, best k)
  std::vector<int64_t> effective;
  std::vector<bool> finite;
  std::vector<int64_t> untried;
  uint64_t rank_hash = 0;

  static EngineView Of(PriorityEngine& engine) {
    EngineView view;
    engine.VisitActive([&](size_t candidate, size_t best_k) {
      view.visit_order.emplace_back(candidate, best_k);
      return true;
    });
    for (size_t i = 0; i < engine.num_candidates(); ++i) {
      view.finite.push_back(engine.Finite(i));
      view.effective.push_back(engine.Finite(i) ? engine.EffectivePriority(i) : 0);
      view.untried.push_back(engine.Untried(i));
    }
    view.rank_hash = engine.RankAuditHash();
    return view;
  }

  friend bool operator==(const EngineView&, const EngineView&) = default;
};

void FuzzIncrementalAgainstReset(Aggregation aggregation) {
  std::mt19937 rng(0x5eed);
  constexpr size_t kCandidates = 500;
  constexpr size_t kObservables = 40;
  constexpr int kRounds = 120;

  EngineSpec spec = RandomSpec(&rng, kCandidates, kObservables, aggregation);
  PriorityEngine incremental(spec);
  PriorityEngine reference(spec);

  std::vector<int64_t> priorities(kObservables, 0);
  std::vector<size_t> retired;  // replayed into `reference` after each Reset
  std::uniform_int_distribution<size_t> num_moves(1, 8);
  std::uniform_int_distribution<size_t> pick_obs(0, kObservables - 1);
  std::uniform_int_distribution<int64_t> pick_delta(-3, 3);
  std::uniform_int_distribution<size_t> pick_candidate(0, kCandidates - 1);
  std::uniform_int_distribution<int> retire_gate(0, 3);

  for (int round = 0; round < kRounds; ++round) {
    // Random feedback moves, applied incrementally to one engine and via a
    // full from-scratch recompute to the other.
    std::vector<std::pair<size_t, int64_t>> deltas;
    size_t moves = num_moves(rng);
    for (size_t m = 0; m < moves; ++m) {
      size_t k = pick_obs(rng);
      int64_t delta = pick_delta(rng);
      if (delta == 0) {
        continue;
      }
      priorities[k] += delta;
      deltas.emplace_back(k, delta);
    }
    incremental.ApplyDeltas(deltas);
    reference.Reset(priorities);
    for (size_t index : retired) {
      reference.NoteTriedIndex(index);
    }

    // Random retirements (both engines, same order).
    if (retire_gate(rng) == 0) {
      size_t index = pick_candidate(rng);
      if (incremental.Finite(index) && incremental.Untried(index) > 0) {
        incremental.NoteTriedIndex(index);
        reference.NoteTriedIndex(index);
        retired.push_back(index);
      }
    }

    ASSERT_EQ(EngineView::Of(incremental), EngineView::Of(reference))
        << "dirty-set maintenance diverged from the from-scratch recompute at "
        << "fuzz round " << round;
  }
}

TEST(PriorityEngineFuzzTest, IncrementalDeltasMatchFromScratchRecompute) {
  FuzzIncrementalAgainstReset(Aggregation::kMin);
}

TEST(PriorityEngineFuzzTest, SumIncrementalDeltasMatchFromScratchRecompute) {
  FuzzIncrementalAgainstReset(Aggregation::kSum);
}

TEST(PriorityEngineFuzzTest, SumAggregationRanksByTotalAndKeepsArgmin) {
  // Candidate 0 has the best single term (1) but the worse total (1 + 9);
  // min ranks it first, sum ranks candidate 1 (total 4) first. Both keep the
  // argmin observable for stage 2.
  EngineSpec spec;
  spec.observables = 2;
  spec.rows = {{{0, 1}, {1, 9}}, {{1, 4}}};
  spec.instance_counts = {1, 1};
  for (Aggregation aggregation : {Aggregation::kMin, Aggregation::kSum}) {
    spec.aggregation = aggregation;
    PriorityEngine engine(spec);
    std::vector<std::pair<size_t, size_t>> order;
    engine.VisitActive([&](size_t candidate, size_t best_k) {
      order.emplace_back(candidate, best_k);
      return true;
    });
    ASSERT_EQ(order.size(), 2u);
    bool sum = aggregation == Aggregation::kSum;
    EXPECT_EQ(engine.EffectivePriority(0), sum ? 10 : 1);
    EXPECT_EQ(order[0], (std::pair<size_t, size_t>{sum ? 1u : 0u, sum ? 1u : 0u}));
    EXPECT_EQ(order[1], (std::pair<size_t, size_t>{sum ? 0u : 1u, sum ? 0u : 1u}));
    // Raising I_0 by 20 moves candidate 0's argmin to observable 1 in both
    // modes; its min becomes 9 and its sum 21 + 9.
    engine.ApplyDeltas({{0, 20}});
    EXPECT_EQ(engine.EffectivePriority(0), sum ? 30 : 9);
    EXPECT_EQ(engine.BestObservable(0), 1u);
  }
}

TEST(PriorityEngineFuzzTest, StitchBoostOrdersAheadOfUnboosted) {
  // A boosted candidate with a worse raw F must still outrank an unboosted
  // one: the boost is part of the effective priority the heap orders by.
  EngineSpec spec;
  spec.observables = 1;
  spec.rows = {{{0, 10}}, {{0, 1}}};
  spec.boosts = {kStitchBoost, 0};
  spec.instance_counts = {1, 1};
  PriorityEngine engine(spec);
  std::vector<std::pair<size_t, size_t>> order;
  std::function<bool(size_t, size_t)> visit = [&](size_t candidate, size_t best_k) {
    order.emplace_back(candidate, best_k);
    return true;
  };
  engine.VisitActive(visit);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0].first, 0u);
  EXPECT_EQ(order[1].first, 1u);
}

TEST(PriorityEngineFuzzTest, ExhaustionMatchesUntriedBudgets) {
  EngineSpec spec;
  spec.observables = 1;
  spec.rows = {{{0, 5}}, {{0, 7}}};
  spec.boosts = {0, 0};
  spec.instance_counts = {2, 1};
  PriorityEngine engine(spec);
  EXPECT_TRUE(engine.AnyActive());
  engine.NoteTriedIndex(0);
  engine.NoteTriedIndex(1);
  EXPECT_TRUE(engine.AnyActive()) << "candidate 0 still has one untried instance";
  engine.NoteTriedIndex(0);
  EXPECT_FALSE(engine.AnyActive());
}

// --- arena -----------------------------------------------------------------------

TEST(ArenaTest, AllocationsAreAlignedAndDistinct) {
  Arena arena;
  int32_t* a = arena.Allocate<int32_t>(3);
  int64_t* b = arena.Allocate<int64_t>(2);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % alignof(int32_t), 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % alignof(int64_t), 0u);
  a[0] = 1;
  a[2] = 3;
  b[0] = 4;
  b[1] = 5;
  EXPECT_EQ(a[0], 1);
  EXPECT_EQ(a[2], 3);
  EXPECT_EQ(b[1], 5);
}

TEST(ArenaTest, ResetReusesCapacityWithoutGrowth) {
  Arena arena;
  for (int i = 0; i < 4; ++i) {
    arena.Allocate<int64_t>(1000);
  }
  size_t capacity = arena.capacity_bytes();
  EXPECT_GT(capacity, 0u);
  for (int cycle = 0; cycle < 10; ++cycle) {
    arena.Reset();
    for (int i = 0; i < 4; ++i) {
      arena.Allocate<int64_t>(1000);
    }
  }
  EXPECT_EQ(arena.capacity_bytes(), capacity)
      << "steady-state Reset/alloc cycles must not grow the arena";
}

TEST(ArenaTest, ArenaVecPushAndClear) {
  Arena arena;
  ArenaVec<uint32_t> vec(&arena);
  for (uint32_t i = 0; i < 1000; ++i) {
    vec.push_back(i);
  }
  ASSERT_EQ(vec.size(), 1000u);
  EXPECT_EQ(vec[0], 0u);
  EXPECT_EQ(vec[999], 999u);
  vec.clear();
  EXPECT_TRUE(vec.empty());
  vec.push_back(42);
  ASSERT_EQ(vec.size(), 1u);
  EXPECT_EQ(vec[0], 42u);
}

}  // namespace
}  // namespace anduril::explorer
