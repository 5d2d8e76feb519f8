// Golden digest files shared by several test binaries.
//
// A digest file under tests/golden/ holds one "<key...> <hex digest>" line
// per pinned result. In a file shared by several test binaries each key
// starts with an <owner> word naming the binary that checks the line.
// CheckGoldenDigests compares the caller's lines with freshly computed
// digests (a missing, drifted, stale or malformed line fails the test); with
// ANDURIL_UPDATE_GOLDENS=1 it rewrites the caller's lines in place instead,
// leaving other owners' lines untouched (see scripts/update_trace_golden.sh).

#ifndef ANDURIL_TESTS_GOLDEN_DIGESTS_H_
#define ANDURIL_TESTS_GOLDEN_DIGESTS_H_

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/explorer/iterative.h"
#include "src/util/hash.h"

namespace anduril::explorer {

// tests/golden/multifault_digests.txt, checked by fault_chain_test and
// iterative_test.
inline constexpr const char* kMultiFaultGolden = "multifault_digests.txt";
inline constexpr const char* kMultiFaultHeader =
    "# Multi-fault search digests (FNV-1a over reproduced, phases, total rounds,\n"
    "# demoted chain candidates and each step's candidate, seed, rounds and stitched\n"
    "# observables; cascade lines add the metrics and trace dumps). One line per\n"
    "# <owner test> <search> <digest>; refresh with scripts/update_trace_golden.sh.\n";

inline std::string DigestGoldenPath(const std::string& name) {
  return std::string(ANDURIL_GOLDEN_DIR) + "/" + name;
}

inline bool UpdateDigestGoldens() {
  const char* env = std::getenv("ANDURIL_UPDATE_GOLDENS");
  return env != nullptr && std::string(env) == "1";
}

inline std::string DigestHex(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
  return buf;
}

// FNV-1a over a multi-fault search result: reproduced, phases, total
// rounds, demoted chain candidates, then per step its candidate, seed,
// (optionally) phase rounds and stitched observables. `extra` appends
// further deterministic output (metrics and trace dumps).
inline uint64_t MultiFaultDigest(const ChainResult& result, bool with_step_rounds,
                                 const std::string& extra = "") {
  Fnv1aHasher h;
  h.MixInt(result.reproduced);
  h.MixInt(result.phases);
  h.MixInt(result.total_rounds);
  h.MixInt(result.demoted_chain_candidates);
  for (const FaultChainStep& step : result.chain.steps) {
    h.MixInt(step.candidate.site);
    h.MixInt(step.candidate.occurrence);
    h.MixInt(step.candidate.type);
    h.MixInt(static_cast<int64_t>(step.candidate.kind));
    h.MixInt(static_cast<int64_t>(step.seed));
    if (with_step_rounds) {
      h.MixInt(step.rounds);
    }
    h.MixInt(static_cast<int64_t>(step.stitched_observables.size()));
    for (const std::string& key : step.stitched_observables) {
      h.MixStr(key);
    }
    h.MixSeparator();
  }
  h.MixBytes(extra);
  return h.hash();
}

// `lines` maps "<key...>" (without the owner) to its digest. With an empty
// `owner` the file has no owner column: every line is the caller's, and an
// update writes them in `lines` order.
inline void CheckGoldenDigests(const std::string& file, const std::string& owner,
                               const std::vector<std::pair<std::string, uint64_t>>& lines,
                               const std::string& header) {
  const std::string path = DigestGoldenPath(file);
  std::map<std::string, std::string> golden;  // caller's "<key...>" -> digest
  std::map<std::string, std::string> others;  // other owners' full lines
  {
    std::ifstream in(path, std::ios::binary);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') {
        continue;
      }
      const size_t cut = line.rfind(' ');
      const size_t owner_end = owner.empty() ? std::string::npos : line.find(' ');
      ASSERT_NE(cut, std::string::npos) << "malformed golden line: " << line;
      if (owner.empty()) {
        golden[line.substr(0, cut)] = line.substr(cut + 1);
      } else if (line.substr(0, owner_end) == owner) {
        golden[line.substr(owner_end + 1, cut - owner_end - 1)] = line.substr(cut + 1);
      } else {
        others[line.substr(0, cut)] = line.substr(cut + 1);
      }
    }
  }
  if (UpdateDigestGoldens()) {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << header;
    if (owner.empty()) {
      for (const auto& [key, digest] : lines) {
        out << key << " " << DigestHex(digest) << "\n";
      }
    } else {
      std::map<std::string, std::string> all = others;
      for (const auto& [key, digest] : lines) {
        all[owner + " " + key] = DigestHex(digest);
      }
      for (const auto& [key, digest] : all) {
        out << key << " " << digest << "\n";
      }
    }
    ASSERT_TRUE(out.good()) << "cannot write golden " << path;
    return;
  }
  ASSERT_FALSE(golden.empty()) << "golden file " << path << " has no '" << owner
                               << "' lines; run scripts/update_trace_golden.sh";
  for (const auto& [key, digest] : lines) {
    auto it = golden.find(key);
    if (it == golden.end()) {
      ADD_FAILURE() << "'" << key << "' has no golden digest in " << path;
      continue;
    }
    EXPECT_EQ(DigestHex(digest), it->second)
        << "'" << key << "' drifted from " << path
        << "; if intentional, run scripts/update_trace_golden.sh";
    golden.erase(it);
  }
  for (const auto& [key, digest] : golden) {
    ADD_FAILURE() << "golden digest '" << key << "' in " << path << " has no match";
  }
}

}  // namespace anduril::explorer

#endif  // ANDURIL_TESTS_GOLDEN_DIGESTS_H_
