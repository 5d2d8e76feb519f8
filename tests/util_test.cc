#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <future>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/util/backoff.h"
#include "src/util/check.h"
#include "src/util/file.h"
#include "src/util/json.h"
#include "src/util/rng.h"
#include "src/util/stopwatch.h"
#include "src/util/strings.h"
#include "src/util/thread_pool.h"

namespace anduril {
namespace {

// --- strings -----------------------------------------------------------------

TEST(Strings, SplitBasic) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(Strings, SplitNLimitsPieces) {
  EXPECT_EQ(SplitN("a|b|c|d", '|', 2), (std::vector<std::string>{"a", "b|c|d"}));
  EXPECT_EQ(SplitN("a|b", '|', 5), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(SplitN("abc", '|', 3), (std::vector<std::string>{"abc"}));
}

TEST(Strings, JoinRoundTripsSplit) {
  std::vector<std::string> pieces{"x", "", "yz"};
  EXPECT_EQ(Split(Join(pieces, ";"), ';'), pieces);
}

TEST(Strings, StartsEndsContains) {
  EXPECT_TRUE(StartsWith("abcdef", "abc"));
  EXPECT_FALSE(StartsWith("ab", "abc"));
  EXPECT_TRUE(EndsWith("abcdef", "def"));
  EXPECT_FALSE(EndsWith("ef", "def"));
  EXPECT_TRUE(Contains("abcdef", "cde"));
  EXPECT_FALSE(Contains("abcdef", "xyz"));
  EXPECT_TRUE(StartsWith("abc", ""));
  EXPECT_TRUE(EndsWith("abc", ""));
}

TEST(Strings, Trim) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("a b"), "a b");
}

TEST(Strings, ReplaceAll) {
  EXPECT_EQ(ReplaceAll("a{}b{}c", "{}", "#"), "a#b#c");
  EXPECT_EQ(ReplaceAll("aaa", "aa", "b"), "ba");  // non-overlapping, left to right
  EXPECT_EQ(ReplaceAll("none", "xx", "y"), "none");
}

TEST(Strings, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(StrFormat("%05d", 7), "00007");
  // Long outputs are not truncated.
  std::string long_arg(500, 'a');
  EXPECT_EQ(StrFormat("%s", long_arg.c_str()).size(), 500u);
}

TEST(Strings, ThousandsSeparators) {
  EXPECT_EQ(WithThousandsSeparators(0), "0");
  EXPECT_EQ(WithThousandsSeparators(999), "999");
  EXPECT_EQ(WithThousandsSeparators(1000), "1,000");
  EXPECT_EQ(WithThousandsSeparators(1234567), "1,234,567");
  EXPECT_EQ(WithThousandsSeparators(-1234567), "-1,234,567");
}

// --- rng ------------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBelow(bound), bound);
    }
  }
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) {
    seen.insert(rng.NextBelow(7));
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextInRangeInclusive) {
  Rng rng(5);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t value = rng.NextInRange(-3, 3);
    EXPECT_GE(value, -3);
    EXPECT_LE(value, 3);
    saw_lo |= value == -3;
    saw_hi |= value == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextBoolEdges) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    double value = rng.NextDouble();
    EXPECT_GE(value, 0.0);
    EXPECT_LT(value, 1.0);
  }
}

TEST(Rng, RoughlyUniform) {
  Rng rng(17);
  int buckets[10] = {};
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    ++buckets[rng.NextBelow(10)];
  }
  for (int count : buckets) {
    EXPECT_NEAR(count, kDraws / 10, kDraws / 100);
  }
}

// --- check ------------------------------------------------------------------------

TEST(CheckDeathTest, FailedCheckAborts) {
  EXPECT_DEATH({ ANDURIL_CHECK(1 == 2) << "boom"; }, "boom");
}

TEST(CheckDeathTest, ComparisonMacros) {
  EXPECT_DEATH({ ANDURIL_CHECK_EQ(1, 2); }, "ANDURIL_CHECK failed");
  EXPECT_DEATH({ ANDURIL_CHECK_LT(3, 2); }, "ANDURIL_CHECK failed");
}

TEST(Check, PassingCheckIsSilent) {
  ANDURIL_CHECK(true);
  ANDURIL_CHECK_EQ(2, 2);
  ANDURIL_CHECK_GE(3, 2);
}

// --- stopwatch ------------------------------------------------------------------------

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch stopwatch;
  int64_t sink = 0;
  for (int i = 0; i < 100000; ++i) {
    sink += i;
  }
  ASSERT_NE(sink, 0);
  EXPECT_GT(stopwatch.ElapsedNanos(), 0);
  EXPECT_GE(stopwatch.ElapsedSeconds(), 0.0);
}

TEST(Stopwatch, ResetRestartsClock) {
  Stopwatch stopwatch;
  int64_t sink = 0;
  for (int i = 0; i < 100000; ++i) {
    sink += i;
  }
  ASSERT_NE(sink, 0);
  int64_t before = stopwatch.ElapsedNanos();
  stopwatch.Reset();
  EXPECT_LT(stopwatch.ElapsedNanos(), before + 1000000000);
}

// --- thread pool -------------------------------------------------------------

TEST(ThreadPool, SubmitAndWaitReturnsResults) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.Submit([i] { return i * i; }));
  }
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(futures[static_cast<size_t>(i)].get(), i * i);
  }
  pool.Wait();
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(ThreadPool, ClampsThreadCountToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  EXPECT_EQ(pool.Submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  std::future<int> future =
      pool.Submit([]() -> int { throw std::runtime_error("task failed"); });
  EXPECT_THROW(future.get(), std::runtime_error);
  // The worker survives a throwing task.
  EXPECT_EQ(pool.Submit([] { return 41 + 1; }).get(), 42);
}

TEST(ThreadPool, DestructionDrainsPendingTasks) {
  std::atomic<int> completed{0};
  std::vector<std::future<void>> futures;
  {
    ThreadPool pool(2);
    for (int i = 0; i < 32; ++i) {
      futures.push_back(pool.Submit([&completed] {
        ++completed;
      }));
    }
    // Destruction must run every accepted task so no future is abandoned.
  }
  EXPECT_EQ(completed.load(), 32);
  for (auto& future : futures) {
    future.get();  // would throw broken_promise if a task were dropped
  }
}

TEST(ThreadPool, WaitBlocksUntilIdle) {
  ThreadPool pool(3);
  std::atomic<int> completed{0};
  for (int i = 0; i < 24; ++i) {
    pool.Submit([&completed] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ++completed;
    });
  }
  pool.Wait();
  EXPECT_EQ(completed.load(), 24);
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(ThreadPool, BoundedQueueAppliesBackpressure) {
  ThreadPool pool(1, /*queue_bound=*/2);
  std::atomic<int> completed{0};
  // More tasks than the bound: Submit blocks instead of rejecting, and every
  // task still completes exactly once.
  for (int i = 0; i < 16; ++i) {
    pool.Submit([&completed] { ++completed; });
  }
  pool.Wait();
  EXPECT_EQ(completed.load(), 16);
}

// --- exponential backoff -----------------------------------------------------

TEST(ExponentialBackoff, DelaysGrowExponentiallyWithinJitterBounds) {
  ExponentialBackoff::Options options;
  options.initial_delay_ms = 10;
  options.multiplier = 2.0;
  options.max_delay_ms = 40;
  options.max_retries = 5;
  options.jitter = 0.2;
  ExponentialBackoff backoff(options, 7);
  // Base delays 10, 20, 40, then capped at 40; jitter is +/- 20% of the base.
  const int64_t bases[] = {10, 20, 40, 40, 40};
  for (int64_t base : bases) {
    ASSERT_TRUE(backoff.ShouldRetry() || backoff.attempt() >= options.max_retries);
    int64_t delay = backoff.NextDelayMs();
    EXPECT_GE(delay, base - base / 5) << "base " << base;
    EXPECT_LE(delay, base + base / 5) << "base " << base;
  }
  EXPECT_EQ(backoff.draws(), 5u);
}

TEST(ExponentialBackoff, ShouldRetryHonorsBudgetAndResetRestartsIt) {
  ExponentialBackoff backoff({.max_retries = 2}, 1);
  EXPECT_TRUE(backoff.ShouldRetry());
  backoff.NextDelayMs();
  EXPECT_TRUE(backoff.ShouldRetry());
  backoff.NextDelayMs();
  EXPECT_FALSE(backoff.ShouldRetry());  // per-round budget exhausted
  backoff.Reset();
  EXPECT_TRUE(backoff.ShouldRetry());  // new round, fresh budget
  // The jitter stream position is global, not per round.
  EXPECT_EQ(backoff.draws(), 2u);
}

TEST(ExponentialBackoff, FastForwardRestoresJitterStreamPosition) {
  ExponentialBackoff::Options options;
  options.max_retries = 100;
  ExponentialBackoff original(options, 99);
  for (int i = 0; i < 3; ++i) {
    original.NextDelayMs();
  }
  original.Reset();

  ExponentialBackoff resumed(options, 99);
  resumed.FastForward(3);
  EXPECT_EQ(resumed.draws(), 3u);

  // Same stream position + same attempt counter => identical future delays.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(resumed.NextDelayMs(), original.NextDelayMs()) << "draw " << i;
  }
}

// --- json ----------------------------------------------------------------------

// Parses `text` expecting a rejection; returns the error message.
std::string JsonError(const std::string& text) {
  std::string error;
  JsonValue value = JsonValue::Parse(text, &error);
  EXPECT_FALSE(error.empty()) << "accepted: " << text;
  EXPECT_TRUE(value.is_null()) << text;
  return error;
}

TEST(Json, RejectsMalformedNumbers) {
  for (const char* text : {"-", "+", "1.2.3", "1-2", "{\"a\":-}", "[1,-]", "01", "1.",
                           ".5", "1e", "1e+", "--1", "+1", "0x10", "1.5e3.2"}) {
    std::string error = JsonError(text);
    EXPECT_TRUE(error.find("malformed number") != std::string::npos ||
                error.find("unexpected character") != std::string::npos)
        << text << " -> " << error;
  }
  EXPECT_EQ(JsonError("1.2.3"), "malformed number '1.2.3' at offset 0");
  EXPECT_EQ(JsonError("{\"a\":-}"), "malformed number '-' at offset 5");
}

TEST(Json, RejectsOutOfRangeNumbers) {
  EXPECT_EQ(JsonError("99999999999999999999"),
            "integer '99999999999999999999' out of int64 range at offset 0");
  EXPECT_NE(JsonError("[-99999999999999999999]").find("out of int64 range"), std::string::npos);
  EXPECT_NE(JsonError("1e999").find("out of double range"), std::string::npos);
}

TEST(Json, AcceptsNumberBoundaries) {
  std::string error;
  EXPECT_EQ(JsonValue::Parse("9223372036854775807", &error).as_int(),
            std::numeric_limits<int64_t>::max());
  EXPECT_EQ(error, "");
  EXPECT_EQ(JsonValue::Parse("-9223372036854775808", &error).as_int(),
            std::numeric_limits<int64_t>::min());
  EXPECT_EQ(error, "");
  EXPECT_EQ(JsonValue::Parse("-0.5e+3", &error).as_double(), -500.0);
  EXPECT_EQ(error, "");
  EXPECT_EQ(JsonValue::Parse("0", &error).as_int(), 0);
  EXPECT_EQ(error, "");
  // Underflow rounds toward zero rather than failing.
  EXPECT_EQ(JsonValue::Parse("1e-400", &error).as_double(1.0), 0.0);
  EXPECT_EQ(error, "");
}

TEST(Json, NumbersRoundTripThroughDump) {
  std::string error;
  JsonValue doc = JsonValue::Parse(
      "{\"a\": [0, -7, 9223372036854775807, 0.25, -1.5e-7], \"b\": {\"c\": 3}}", &error);
  ASSERT_EQ(error, "");
  std::string dumped = doc.Dump();
  JsonValue again = JsonValue::Parse(dumped, &error);
  ASSERT_EQ(error, "");
  EXPECT_EQ(again.Dump(), dumped);
}

TEST(Json, NonFiniteDoublesDumpAsNullAndParseBack) {
  JsonValue doc = JsonValue::Object();
  doc.Set("nan", JsonValue::Double(std::numeric_limits<double>::quiet_NaN()));
  doc.Set("inf", JsonValue::Double(std::numeric_limits<double>::infinity()));
  doc.Set("minus_inf", JsonValue::Double(-std::numeric_limits<double>::infinity()));
  std::string dumped = doc.Dump();
  std::string error;
  JsonValue again = JsonValue::Parse(dumped, &error);
  ASSERT_EQ(error, "") << dumped;
  for (const char* key : {"nan", "inf", "minus_inf"}) {
    ASSERT_NE(again.Find(key), nullptr) << key;
    EXPECT_TRUE(again.Find(key)->is_null()) << key;
  }
  EXPECT_EQ(again.Dump(), dumped);
}

TEST(Json, AsIntOfOutOfRangeDoubleReturnsFallback) {
  std::string error;
  JsonValue doc = JsonValue::Parse(
      "{\"big\": 1e300, \"small\": -1e300, \"edge\": 9223372036854775808.0, "
      "\"low\": -9223372036854775808.0, \"fits\": -2.75e3}",
      &error);
  ASSERT_EQ(error, "");
  EXPECT_EQ(doc.Find("big")->as_int(-1), -1);
  EXPECT_EQ(doc.Find("small")->as_int(-1), -1);
  EXPECT_EQ(doc.Find("edge")->as_int(-1), -1);
  EXPECT_EQ(doc.Find("low")->as_int(-1), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(doc.Find("fits")->as_int(-1), -2750);
  EXPECT_EQ(JsonValue::Double(std::numeric_limits<double>::quiet_NaN()).as_int(7), 7);
}

TEST(Json, NestingIsCappedAt64Levels) {
  std::string error;
  std::string ok = std::string(64, '[') + std::string(64, ']');
  JsonValue::Parse(ok, &error);
  EXPECT_EQ(error, "");
  EXPECT_EQ(JsonError(std::string(65, '[') + std::string(65, ']')),
            "nesting deeper than 64 levels at offset 64");
  EXPECT_NE(JsonError(std::string(33, '[') + "{\"k\":" + std::string(40, '[')).find("nesting"),
            std::string::npos);
}

TEST(Json, DeepNestingIsRejectedWithoutExhaustingTheStack) {
  // Two million levels used to recurse until the stack overflowed.
  EXPECT_NE(JsonError(std::string(2'000'000, '[')).find("nesting deeper than 64 levels"),
            std::string::npos);
  EXPECT_NE(JsonError(std::string(2'000'000, '{')).find("expected '\"'"), std::string::npos);
}

// --- files -------------------------------------------------------------------

// Two writers race on one path while a reader polls it. Every write must
// succeed, the reader must only ever see one writer's complete file, and no
// temp file may be left behind. A temp name shared by all writers of a path
// fails all three: one writer truncates the file the other is filling, and
// renames race each other.
TEST(File, ConcurrentWriteFileAtomicNeverFailsTearsOrLeaks) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "write_file_atomic_race";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "state.json").string();
  constexpr size_t kSize = 64 * 1024;
  constexpr int kWritesPerWriter = 1000;
  ASSERT_TRUE(WriteFileAtomic(path, std::string(kSize, 'a')));

  std::atomic<int> failed_writes{0};
  std::atomic<int> writers_done{0};
  auto writer = [&](char fill) {
    const std::string content(kSize, fill);
    for (int i = 0; i < kWritesPerWriter; ++i) {
      if (!WriteFileAtomic(path, content)) {
        ++failed_writes;
      }
    }
    ++writers_done;
  };
  int reads = 0;
  int torn_reads = 0;
  std::thread first(writer, 'x');
  std::thread second(writer, 'y');
  while (writers_done.load() < 2) {
    std::string text;
    if (!ReadFileToString(path, &text) || text.size() != kSize ||
        text.find_first_not_of(text[0]) != std::string::npos) {
      ++torn_reads;
    }
    ++reads;
  }
  first.join();
  second.join();

  EXPECT_EQ(failed_writes.load(), 0);
  EXPECT_EQ(torn_reads, 0) << "of " << reads << " reads";
  std::vector<std::string> entries;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    entries.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(entries, std::vector<std::string>{"state.json"});
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace anduril
