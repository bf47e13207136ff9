// Property-based differential test: sweep kernel, event-driven kernel and
// compiled bytecode VM co-simulated over seeded synthetic netlists, asserting
// identical packed state and protocol monitor reports every cycle, at the
// simulator's default options (see diff_kernels_util.h for the
// three-way oracle and the shrink-on-failure reporting, which names the
// diverging pair). This is the PR-fast slice — a spread of
// seeds, topologies and traffic patterns per family; the multi-hundred-config
// campaign lives in test_diff_nightly.cpp behind the `nightly` CTest label.
#include <gtest/gtest.h>

#include "diff_kernels_util.h"

namespace esl {
namespace {

using synth::SynthConfig;
using synth::Topology;

class DiffKernelsFast : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DiffKernelsFast, AllFamiliesAgreeEveryCycle) {
  const std::uint64_t seed = GetParam();
  for (const Topology topology :
       {Topology::kPipeline, Topology::kForkJoin, Topology::kSpecLadder,
        Topology::kRandomDag}) {
    for (const unsigned inject : {1u, 7u}) {
      SynthConfig cfg;
      cfg.topology = topology;
      cfg.targetNodes = 24 + 8 * (seed % 5);
      cfg.width = 1 + static_cast<unsigned>((seed * 7) % 16);
      cfg.bufferCapacity = 2 + static_cast<unsigned>(seed % 3);
      cfg.seed = seed;
      cfg.injectPeriod = inject;
      const auto failure = test::diffKernelsShrinking(cfg, 160);
      ASSERT_FALSE(failure.has_value()) << failure->describe();
    }
  }
}

TEST_P(DiffKernelsFast, VluPipelinesAgreeEveryCycle) {
  const std::uint64_t seed = GetParam();
  SynthConfig cfg;
  cfg.topology = Topology::kPipeline;
  cfg.targetNodes = 40;
  cfg.width = 8;
  cfg.seed = seed;
  cfg.vluPermille = 400;
  cfg.injectPeriod = 1 + static_cast<unsigned>(seed % 5);
  const auto failure = test::diffKernelsShrinking(cfg, 200);
  ASSERT_FALSE(failure.has_value()) << failure->describe();
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiffKernelsFast,
                         ::testing::Range<std::uint64_t>(1, 7));

TEST(DiffKernels, ShrinkerProducesMinimalReproOnSyntheticDivergence) {
  // Sanity of the harness itself: a deliberately-different pair must be
  // reported, not swallowed. We fake a divergence by comparing different
  // configs through the one-shot oracle's building blocks.
  synth::SynthConfig a;
  a.targetNodes = 20;
  a.seed = 1;
  synth::SynthSystem s1 = synth::build(a);
  a.seed = 2;  // different payload stream
  synth::SynthSystem s2 = synth::build(a);
  sim::Simulator ss(s1.nl, {.checkProtocol = false});
  sim::Simulator se(s2.nl, {.checkProtocol = false});
  ss.step();
  se.step();
  // Different seeds => different source streams => different packed state.
  EXPECT_NE(ss.ctx().packState(), se.ctx().packState());
}

}  // namespace
}  // namespace esl
