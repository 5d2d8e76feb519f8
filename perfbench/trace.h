// Span tracing from outside the program: decorators around the public hooks
// the explorer calls (InjectionStrategy::Initialize/NextWindow/OnRound and
// ExperimentSpec::oracle), an in-memory span log, and the derivation of
// per-layer time from the gaps between those hooks.
//
// The serial explorer runs each round as
//   NextWindow -> execute -> oracle (inside the run) -> bookkeeping ->
//   oracle (round verdict) -> feedback -> OnRound -> persist
// so with spans on the hooks the layers fall out as gaps:
//   rank     = NextWindow span
//   execute  = NextWindow end -> first oracle start   (interp + ir)
//   oracle   = oracle spans
//   feedback = last oracle end -> OnRound start        (logdiff)
//   update   = OnRound span                            (priority engine)
//   persist  = OnRound end -> next NextWindow start    (checkpoint, recycling)
// Time inside a round that none of these covers (between the two oracle
// calls, and after the verdict of the successful round) is reported as
// "unattributed", never folded into a layer.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/explorer/experiment.h"
#include "src/explorer/explorer.h"
#include "src/explorer/strategy.h"

namespace perfbench {

int64_t NowNs();

struct Span {
  const char* name = "";
  int64_t id = 0;
  int64_t parent = -1;
  int64_t search = 0;
  int64_t start = 0;
  int64_t end = 0;
  // Oracle spans only: the run the oracle judged.
  int64_t log_entries = -1;
  int injected = -1;
};

// Keeps every span of a run in memory. Single-threaded: the benchmark runs
// one search at a time with one search thread.
class Recorder {
 public:
  // A search spans the Explorer constructor (context build) and Explore().
  void BeginSearch(int64_t start);
  void Context(int64_t start, int64_t end);
  void BeginExplore(int64_t start);
  void EndExplore(int64_t end);
  void EndSearch(int64_t end);

  // Hook spans, recorded by the decorators.
  void Init(int64_t start, int64_t end);
  void Rank(int64_t start, int64_t end);  // also opens the round at `start`
  void Update(int64_t start, int64_t end);
  void Oracle(int64_t start, int64_t end, int64_t log_entries, bool injected);

  const std::vector<Span>& spans() const { return spans_; }
  bool WriteJsonl(const std::string& path) const;

 private:
  int64_t Push(const char* name, int64_t parent, int64_t start, int64_t end);
  void CloseRound(int64_t end);

  std::vector<Span> spans_;
  int64_t next_id_ = 0;
  int64_t search_ = -1;
  int64_t search_start_ = 0;
  int64_t explore_ = -1;
  int64_t explore_start_ = 0;
  int64_t round_ = -1;
  int64_t round_start_ = 0;
};

// Forwards every InjectionStrategy call to `inner`, recording spans around
// Initialize, NextWindow and OnRound.
class TracedStrategy : public anduril::explorer::InjectionStrategy {
 public:
  TracedStrategy(anduril::explorer::InjectionStrategy* inner, Recorder* recorder)
      : inner_(inner), recorder_(recorder) {}

  std::string name() const override { return inner_->name(); }
  void Initialize(const anduril::explorer::ExplorerContext& context) override;
  std::vector<anduril::interp::InjectionCandidate> NextWindow() override;
  void OnRound(const anduril::explorer::RoundOutcome& outcome) override;
  bool Exhausted() const override { return inner_->Exhausted(); }
  bool WantsLogFeedback() const override { return inner_->WantsLogFeedback(); }
  void SeedStitchedSites(const std::vector<anduril::ir::FaultSiteId>& sites) override {
    inner_->SeedStitchedSites(sites);
  }
  int RankOfSite(anduril::ir::FaultSiteId site) const override {
    return inner_->RankOfSite(site);
  }
  void SetRankAuditSink(std::vector<uint64_t>* sink) override { inner_->SetRankAuditSink(sink); }
  bool SaveState(anduril::explorer::StrategyCheckpoint* out) const override {
    return inner_->SaveState(out);
  }
  bool RestoreState(const anduril::explorer::StrategyCheckpoint& state) override {
    return inner_->RestoreState(state);
  }

 private:
  anduril::explorer::InjectionStrategy* inner_;
  Recorder* recorder_;
};

// A copy of `spec` whose oracle records a span (and the judged run's log
// size and injection) before answering with the original oracle.
anduril::explorer::ExperimentSpec TracedSpec(const anduril::explorer::ExperimentSpec& spec,
                                             Recorder* recorder);

// One traced search: the Explorer constructor (context build) and Explore()
// with `strategy` wrapped in a TracedStrategy. `spec` should come from
// TracedSpec so the oracle calls are recorded too.
anduril::explorer::ExploreResult TracedSearch(const anduril::explorer::ExperimentSpec& spec,
                                              const anduril::explorer::ExplorerOptions& options,
                                              anduril::explorer::InjectionStrategy* strategy,
                                              const anduril::explorer::CheckpointConfig& checkpoint,
                                              Recorder* recorder);

// Per-layer time derived from a span log (all nanoseconds, summed over
// searches, plus per-sample vectors for percentiles).
struct LayerTotals {
  int64_t searches = 0;
  int64_t search_ns = 0;
  int64_t context_ns = 0;
  int64_t rounds = 0;
  int64_t round_ns = 0;
  int64_t rank_ns = 0;
  int64_t execute_ns = 0;
  int64_t feedback_ns = 0;
  int64_t update_ns = 0;
  int64_t persist_ns = 0;
  int64_t unattributed_ns = 0;  // inside rounds, covered by no layer
  int64_t injecting_rounds = 0;
  int64_t log_entries = 0;  // summed over rounds' first oracle call
  std::vector<int64_t> context_samples;
  std::vector<int64_t> init_samples;
  std::vector<int64_t> round_samples;
  std::vector<int64_t> rank_samples;
  std::vector<int64_t> execute_samples;
  std::vector<int64_t> oracle_samples;
  std::vector<int64_t> feedback_samples;  // rounds that reached OnRound
  std::vector<int64_t> update_samples;
  std::vector<int64_t> persist_samples;
  std::vector<int64_t> rounds_per_search;  // in search order
};

LayerTotals DeriveLayers(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
