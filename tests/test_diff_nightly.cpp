// Nightly differential fuzz campaign: hundreds of random SynthConfigs ×
// traffic patterns, three-way sweep vs event vs compiled-bytecode lockstep,
// packed-state and protocol-report equality every cycle (oracle +
// shrink-on-failure in diff_kernels_util.h; mismatches name the diverging
// pair).
//
// Runs under the `nightly` CTest label: PR CI excludes it (-LE nightly) to
// stay fast; the scheduled nightly workflow and a plain local `ctest` run it.
#include <gtest/gtest.h>

#include "base/rng.h"
#include "diff_kernels_util.h"

namespace esl {
namespace {

using synth::SynthConfig;
using synth::Topology;

constexpr Topology kFamilies[] = {Topology::kPipeline, Topology::kForkJoin,
                                  Topology::kSpecLadder, Topology::kRandomDag};

/// Draws a randomized config; every knob the generator exposes is in play.
SynthConfig randomConfig(Rng& rng) {
  SynthConfig cfg;
  cfg.topology = kFamilies[rng.below(4)];
  cfg.targetNodes = 12 + rng.below(120);
  cfg.width = 1 + static_cast<unsigned>(rng.below(24));
  cfg.bufferCapacity = 2 + static_cast<unsigned>(rng.below(3));
  cfg.forkArity = 2 + static_cast<unsigned>(rng.below(3));
  cfg.seed = rng.next();
  cfg.injectPeriod = 1 + static_cast<unsigned>(rng.below(16));
  if (cfg.topology == Topology::kPipeline && rng.chancePermille(400))
    cfg.vluPermille = static_cast<unsigned>(rng.below(700));
  return cfg;
}

class DiffKernelsNightly : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DiffKernelsNightly, RandomConfigCampaignAgreesEveryCycle) {
  // Each shard runs 40 random configs; 8 shards = 320 configs per night.
  Rng rng(GetParam() * 0x9e3779b97f4a7c15ULL + 1);
  for (int trial = 0; trial < 40; ++trial) {
    const SynthConfig cfg = randomConfig(rng);
    const std::uint64_t cycles = 120 + rng.below(180);
    const auto failure = test::diffKernelsShrinking(cfg, cycles);
    ASSERT_FALSE(failure.has_value()) << failure->describe();
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, DiffKernelsNightly,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace esl
