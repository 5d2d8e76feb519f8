// Shared test scaffolding.
//
// Two layers, mirroring the code under test:
//  - interp: TwoNodeClusterTest, a fixture for tests that build a small IR
//    program with MethodBuilder and run it on an n1/n2 cluster (the
//    network-fault and hardened-runtime suites).
//  - explorer: free helpers for tests that search a registered failure case
//    end to end — candidate-space options derived from the case's root fault
//    kind, a one-call search runner, and temp-file paths.

#ifndef ANDURIL_TESTS_TEST_UTIL_H_
#define ANDURIL_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <memory>
#include <regex>
#include <string>
#include <utility>
#include <vector>

#include "src/explorer/explorer.h"
#include "src/explorer/strategy.h"
#include "src/interp/simulator.h"
#include "src/ir/builder.h"
#include "src/systems/common.h"
#include "src/systems/harness.h"

namespace anduril::interp {

// Base fixture: a Program plus a two-node cluster, with one task on n1
// running `entry`. Subclasses build methods into program_ (and may predefine
// exception types in their constructors); Run() finalizes lazily so a test
// can keep adding methods until the first run.
class TwoNodeClusterTest : public ::testing::Test {
 protected:
  RunResult Run(const std::string& entry, uint64_t seed = 1,
                std::vector<InjectionCandidate> window = {},
                std::vector<InjectionCandidate> pinned = {}) {
    if (!program_.finalized()) {
      program_.Finalize();
    }
    if (cluster_.nodes.empty()) {
      cluster_.AddNode("n1");
      cluster_.AddNode("n2");
    }
    cluster_.tasks.clear();
    cluster_.AddTask("n1", "main", program_.FindMethod(entry), 0);
    FaultRuntime runtime(&program_);
    runtime.SetWindow(std::move(window));
    runtime.SetPinned(std::move(pinned));
    Simulator simulator(&program_, &cluster_, seed, &runtime);
    return simulator.Run();
  }

  int64_t Var(const RunResult& result, const std::string& var,
              const std::string& node = "n1") const {
    return result.NodeVar(program_, node, var);
  }

  ir::FaultSiteId Site(const std::string& prefix) const {
    for (const ir::FaultSite& site : program_.fault_sites()) {
      if (site.name.find(prefix + "@") == 0) {
        return site.id;
      }
    }
    return ir::kInvalidId;
  }

  ir::Program program_;
  ClusterSpec cluster_;
};

}  // namespace anduril::interp

namespace anduril::explorer {

inline std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// The search harness itself lives in src/systems/harness.h (shared with the
// tools and the reproduction service); re-exported here so test code keeps
// calling OptionsForCase/RunSearch unqualified.
using systems::OptionsForCase;
using systems::RunSearch;

}  // namespace anduril::explorer

namespace anduril {

// One edit of a file a real run wrote: the first match of the regex
// `pattern` becomes `replacement` (std::regex_replace format), and the
// file's parser must reject the result with exactly `expected`.
struct Damage {
  const char* pattern;
  const char* replacement;
  const char* expected;
};

// `text` with `damage` applied; fails the test when the pattern matches
// nothing.
inline std::string Damaged(const std::string& text, const Damage& damage) {
  const std::regex pattern(damage.pattern);
  EXPECT_TRUE(std::regex_search(text, pattern)) << damage.pattern;
  return std::regex_replace(text, pattern, damage.replacement,
                            std::regex_constants::format_first_only);
}

// Expects `parse(damaged_text, &error)` to fail with each damage's error.
template <typename Parse>
void ExpectDamageRejected(const std::string& text, const std::vector<Damage>& damages,
                          Parse parse) {
  for (const Damage& damage : damages) {
    SCOPED_TRACE(damage.pattern);
    std::string error;
    EXPECT_FALSE(parse(Damaged(text, damage), &error));
    EXPECT_EQ(error, damage.expected);
  }
}

}  // namespace anduril

#endif  // ANDURIL_TESTS_TEST_UTIL_H_
