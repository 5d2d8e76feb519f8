// Wall-clock stopwatch used by the explorer and the bench harnesses to report
// decision latency / round initialization time (paper Tables 4 and 8).

#ifndef ANDURIL_SRC_UTIL_STOPWATCH_H_
#define ANDURIL_SRC_UTIL_STOPWATCH_H_

#include <chrono>
#include <cstdint>

namespace anduril {

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  int64_t ElapsedNanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start_).count();
  }

  double ElapsedSeconds() const { return static_cast<double>(ElapsedNanos()) / 1e9; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace anduril

#endif  // ANDURIL_SRC_UTIL_STOPWATCH_H_
