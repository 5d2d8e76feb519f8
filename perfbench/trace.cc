#include "perfbench/trace.h"

#include <chrono>
#include <cstdio>
#include <memory>

namespace perfbench {

namespace explorer = anduril::explorer;
namespace interp = anduril::interp;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t Recorder::Push(const char* name, int64_t parent, int64_t start, int64_t end) {
  Span span;
  span.name = name;
  span.id = next_id_++;
  span.parent = parent;
  span.search = search_;
  span.start = start;
  span.end = end;
  spans_.push_back(span);
  return span.id;
}

void Recorder::BeginSearch(int64_t start) {
  search_ = next_id_++;
  search_start_ = start;
}

void Recorder::Context(int64_t start, int64_t end) { Push("context", search_, start, end); }

void Recorder::BeginExplore(int64_t start) {
  explore_ = next_id_++;
  explore_start_ = start;
}

void Recorder::CloseRound(int64_t end) {
  if (round_ < 0) {
    return;
  }
  spans_.push_back(Span{"round", round_, explore_, search_, round_start_, end});
  round_ = -1;
}

void Recorder::EndExplore(int64_t end) {
  CloseRound(end);
  spans_.push_back(Span{"explore", explore_, search_, search_, explore_start_, end});
  explore_ = -1;
}

void Recorder::EndSearch(int64_t end) {
  spans_.push_back(Span{"search", search_, -1, search_, search_start_, end});
  search_ = -1;
}

void Recorder::Init(int64_t start, int64_t end) { Push("init", explore_, start, end); }

void Recorder::Rank(int64_t start, int64_t end) {
  CloseRound(start);
  round_ = next_id_++;
  round_start_ = start;
  Push("rank", round_, start, end);
}

void Recorder::Update(int64_t start, int64_t end) { Push("update", round_, start, end); }

void Recorder::Oracle(int64_t start, int64_t end, int64_t log_entries, bool injected) {
  // Replay and stitch runs judge outside any round; parent them to the search.
  Push("oracle", round_ >= 0 ? round_ : search_, start, end);
  spans_.back().log_entries = log_entries;
  spans_.back().injected = injected ? 1 : 0;
}

bool Recorder::WriteJsonl(const std::string& path) const {
  std::unique_ptr<FILE, int (*)(FILE*)> out(std::fopen(path.c_str(), "w"), &std::fclose);
  if (out == nullptr) {
    return false;
  }
  for (const Span& span : spans_) {
    std::fprintf(out.get(),
                 "{\"name\":\"%s\",\"id\":%lld,\"parent\":%lld,\"search\":%lld,"
                 "\"start_ns\":%lld,\"end_ns\":%lld",
                 span.name, static_cast<long long>(span.id), static_cast<long long>(span.parent),
                 static_cast<long long>(span.search), static_cast<long long>(span.start),
                 static_cast<long long>(span.end));
    if (span.log_entries >= 0) {
      std::fprintf(out.get(), ",\"log_entries\":%lld,\"injected\":%d",
                   static_cast<long long>(span.log_entries), span.injected);
    }
    std::fputs("}\n", out.get());
  }
  return std::fflush(out.get()) == 0;
}

void TracedStrategy::Initialize(const explorer::ExplorerContext& context) {
  const int64_t start = NowNs();
  inner_->Initialize(context);
  recorder_->Init(start, NowNs());
}

std::vector<interp::InjectionCandidate> TracedStrategy::NextWindow() {
  const int64_t start = NowNs();
  std::vector<interp::InjectionCandidate> window = inner_->NextWindow();
  recorder_->Rank(start, NowNs());
  return window;
}

void TracedStrategy::OnRound(const explorer::RoundOutcome& outcome) {
  const int64_t start = NowNs();
  inner_->OnRound(outcome);
  recorder_->Update(start, NowNs());
}

explorer::ExperimentSpec TracedSpec(const explorer::ExperimentSpec& spec, Recorder* recorder) {
  explorer::ExperimentSpec traced = spec;
  traced.oracle = [inner = spec.oracle, recorder](const anduril::ir::Program& program,
                                                  const interp::RunResult& run) {
    const int64_t start = NowNs();
    const bool holds = inner(program, run);
    recorder->Oracle(start, NowNs(), static_cast<int64_t>(run.log.size()),
                     run.injected.has_value());
    return holds;
  };
  return traced;
}

explorer::ExploreResult TracedSearch(const explorer::ExperimentSpec& spec,
                                     const explorer::ExplorerOptions& options,
                                     explorer::InjectionStrategy* strategy,
                                     const explorer::CheckpointConfig& checkpoint,
                                     Recorder* recorder) {
  const int64_t start = NowNs();
  recorder->BeginSearch(start);
  explorer::Explorer ex(spec, options);
  recorder->Context(start, NowNs());
  TracedStrategy traced(strategy, recorder);
  recorder->BeginExplore(NowNs());
  explorer::ExploreResult result = ex.Explore(&traced, checkpoint);
  const int64_t end = NowNs();
  recorder->EndExplore(end);
  recorder->EndSearch(end);
  return result;
}

namespace {

// Children of the round being derived; spans are logged children-first, so a
// round's hooks all precede its own span.
struct RoundHooks {
  int64_t id = -1;
  const Span* rank = nullptr;
  const Span* update = nullptr;
  const Span* first_oracle = nullptr;
  const Span* last_oracle = nullptr;
  int64_t oracle_ns = 0;
};

}  // namespace

LayerTotals DeriveLayers(const std::vector<Span>& spans) {
  LayerTotals totals;
  RoundHooks hooks;
  int64_t search_rounds = 0;
  auto hooks_for = [&hooks](int64_t round) -> RoundHooks& {
    if (hooks.id != round) {
      hooks = RoundHooks{};
      hooks.id = round;
    }
    return hooks;
  };
  for (const Span& span : spans) {
    const std::string_view name = span.name;
    const int64_t duration = span.end - span.start;
    if (name == "rank") {
      hooks_for(span.parent).rank = &span;
    } else if (name == "update") {
      hooks_for(span.parent).update = &span;
    } else if (name == "oracle") {
      if (span.parent == span.search) {
        continue;  // judged outside the round loop
      }
      RoundHooks& round = hooks_for(span.parent);
      if (round.first_oracle == nullptr) {
        round.first_oracle = &span;
      }
      round.last_oracle = &span;
      round.oracle_ns += duration;
      totals.oracle_samples.push_back(duration);
    } else if (name == "round") {
      RoundHooks& round = hooks_for(span.id);
      const int64_t rank_ns = round.rank->end - round.rank->start;
      totals.rank_ns += rank_ns;
      totals.rank_samples.push_back(rank_ns);
      if (round.first_oracle == nullptr) {
        continue;  // the closing NextWindow that found the strategy exhausted
      }
      ++totals.rounds;
      ++search_rounds;
      totals.round_ns += duration;
      totals.round_samples.push_back(duration);
      const int64_t execute = round.first_oracle->start - round.rank->end;
      totals.execute_ns += execute;
      totals.execute_samples.push_back(execute);
      totals.log_entries += round.first_oracle->log_entries;
      totals.injecting_rounds += round.first_oracle->injected;
      int64_t unattributed =
          round.last_oracle->end - round.first_oracle->start - round.oracle_ns;
      if (round.update != nullptr) {
        const int64_t feedback = round.update->start - round.last_oracle->end;
        const int64_t update = round.update->end - round.update->start;
        const int64_t persist = span.end - round.update->end;
        totals.feedback_ns += feedback;
        totals.feedback_samples.push_back(feedback);
        totals.update_ns += update;
        totals.update_samples.push_back(update);
        totals.persist_ns += persist;
        totals.persist_samples.push_back(persist);
      } else {
        unattributed += span.end - round.last_oracle->end;  // successful round's tail
      }
      totals.unattributed_ns += unattributed;
    } else if (name == "init") {
      totals.init_samples.push_back(duration);
    } else if (name == "context") {
      totals.context_ns += duration;
      totals.context_samples.push_back(duration);
    } else if (name == "search") {
      ++totals.searches;
      totals.search_ns += duration;
      totals.rounds_per_search.push_back(search_rounds);
      search_rounds = 0;
    }
  }
  return totals;
}

}  // namespace perfbench
