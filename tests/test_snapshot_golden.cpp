// Golden snapshot format: packState() digests of every committed design.
//
// The cross-backend identity suites compare two live runs against each other,
// so they cannot see a change to the snapshot byte format that every backend
// makes at once. Saved state files and serve spool records carry these bytes
// across builds, so the format itself is pinned here: every golden
// examples/designs/*.esl design runs a fixed number of cycles and the
// packState() bytes of every cycle are folded into one digest, which must
// equal the committed value on the interpreted and compiled backends, serial
// and sharded.
//
// A digest mismatch means the snapshot bytes changed. If that is intended,
// old state files no longer load: bump SimContext::kSnapshotVersion and
// regenerate the table from the printed actual values.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "elastic/state_io.h"
#include "frontend/esl_format.h"
#include "sim/simulator.h"

namespace esl {
namespace {

constexpr std::uint64_t kCycles = 96;

/// FNV-1a-style fold of the per-cycle snapshot hashes (cycle 0 included).
const std::map<std::string, std::uint64_t>& goldenDigests() {
  static const std::map<std::string, std::uint64_t> digests = {
      {"fig1a", 0x43354154c11f5374ULL},
      {"fig1b", 0x0ea53c1b83f0ce9bULL},
      {"fig1c", 0x43354154c11f5374ULL},
      {"fig1d", 0x2f5847b80be44061ULL},
      {"secded-pipe", 0x781f0f6fc9e9edc7ULL},
      {"secded-spec", 0xe771320d010ef5e9ULL},
      {"table1", 0x72df35c837ba0187ULL},
      {"vlu-spec", 0xcbe912099d8d914fULL},
      {"vlu-stall", 0xb364d124cd341845ULL},
  };
  return digests;
}

std::vector<std::string> goldenDesignFiles() {
  std::vector<std::string> names;
  const std::filesystem::path dir =
      std::filesystem::path(ESL_SOURCE_DIR) / "examples" / "designs";
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.path().extension() == ".esl")
      names.push_back(entry.path().stem().string());
  std::sort(names.begin(), names.end());
  return names;
}

std::uint64_t snapshotDigest(const std::string& design,
                             SimContext::Backend backend, unsigned shards) {
  Netlist nl = frontend::buildEslFile(std::string(ESL_SOURCE_DIR) +
                                      "/examples/designs/" + design + ".esl");
  sim::SimOptions opts;
  opts.checkProtocol = false;
  opts.backend = backend;
  opts.shards = shards;
  sim::Simulator s(nl, opts);
  std::uint64_t digest = 14695981039346656037ULL;
  for (std::uint64_t c = 0; c <= kCycles; ++c) {
    if (c > 0) s.step();
    digest = (digest ^ hashBytes(s.ctx().packState())) * 1099511628211ULL;
  }
  return digest;
}

TEST(SnapshotGolden, TableCoversEveryDesignFile) {
  std::vector<std::string> table;
  for (const auto& [name, digest] : goldenDigests()) table.push_back(name);
  EXPECT_EQ(goldenDesignFiles(), table);
}

TEST(SnapshotGolden, PackStateDigestsMatchCommittedFormat) {
  struct Config {
    SimContext::Backend backend;
    unsigned shards;
    const char* label;
  };
  const Config configs[] = {
      {SimContext::Backend::kInterpreted, 1, "interpreted"},
      {SimContext::Backend::kInterpreted, 2, "interpreted shards=2"},
      {SimContext::Backend::kCompiled, 1, "compiled"},
      {SimContext::Backend::kCompiled, 2, "compiled shards=2"},
  };
  for (const std::string& design : goldenDesignFiles()) {
    const auto it = goldenDigests().find(design);
    ASSERT_NE(it, goldenDigests().end()) << "no committed digest for " << design;
    for (const Config& cfg : configs) {
      const std::uint64_t got = snapshotDigest(design, cfg.backend, cfg.shards);
      char hex[32];
      std::snprintf(hex, sizeof hex, "0x%016llxULL",
                    static_cast<unsigned long long>(got));
      EXPECT_EQ(got, it->second) << design << " (" << cfg.label
                                 << "): actual digest " << hex;
    }
  }
}

}  // namespace
}  // namespace esl
