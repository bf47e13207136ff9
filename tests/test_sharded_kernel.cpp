// Sharded single-netlist simulation: bit-identity against the serial kernels.
//
// The sharded cycle mode (SimContext::setShards) partitions ONE netlist
// across worker lanes: level-synchronous settle rounds with staged boundary
// exchange, shard-parallel dirty-tracked clock edges. Its contract is strict:
// settled signals and packed state are bit-identical to the serial
// event-driven kernel for EVERY shard count. The interpreted lowering is the
// reference here (every node takes the staging-aware virtual path; the
// compiled×sharded seam has its own suite) — enforced over all four
// synthetic topology families (with the diff_kernels_util shrink-on-failure
// harness), the paper patterns, wide (spilled) payloads, and cross-check
// mode, which under shards compares the sharded settle against the reference
// sweep every cycle.
//
// This suite carries the `sharded-kernel` CTest label so the ThreadSanitizer
// CI leg can select it: the staged boundary writes, the ownership-filtered
// edge marks and the executor handoff must all be clean under real threads.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "diff_kernels_util.h"
#include "frontend/esl_format.h"
#include "netlist/patterns.h"
#include "test_util.h"

namespace esl {
namespace {

const unsigned kShardCounts[] = {1, 2, 8};

synth::SynthConfig famConfig(synth::Topology topo, std::size_t nodes,
                             unsigned inject, std::uint64_t seed,
                             unsigned width = 16) {
  synth::SynthConfig cfg;
  cfg.topology = topo;
  cfg.targetNodes = nodes;
  cfg.seed = seed;
  cfg.injectPeriod = inject;
  cfg.width = width;
  return cfg;
}

TEST(ShardedKernel, AllSynthFamiliesBitIdentical) {
  for (const synth::Topology topo :
       {synth::Topology::kPipeline, synth::Topology::kForkJoin,
        synth::Topology::kSpecLadder, synth::Topology::kRandomDag}) {
    for (const unsigned shards : kShardCounts) {
      for (const unsigned inject : {1u, 8u}) {
        const synth::SynthConfig cfg = famConfig(topo, 240, inject, 7);
        SCOPED_TRACE(synth::describe(cfg) + " shards=" + std::to_string(shards));
        auto mismatch = test::diffShardedOnce(cfg, 300, shards);
        if (mismatch) {
          // Shrink the offending config before reporting (same harness as the
          // event-vs-sweep differential fuzz).
          synth::SynthConfig bad = cfg;
          std::uint64_t cycles = 300;
          test::shrinkSynthConfig(
              bad, cycles,
              [shards](const synth::SynthConfig& cand, std::uint64_t n) {
                return test::diffShardedOnce(cand, n, shards).has_value();
              });
          FAIL() << "sharded divergence on " << synth::describe(bad) << " ("
                 << cycles
                 << " cycles): " << *test::diffShardedOnce(bad, cycles, shards);
        }
      }
    }
  }
}

TEST(ShardedKernel, WidePayloadsSpillCleanly) {
  // >64-bit payloads exercise the SignalBoard's BitVec spill table, including
  // the boundary back-buffer when the channel crosses a shard cut.
  for (const unsigned shards : kShardCounts) {
    const synth::SynthConfig cfg =
        famConfig(synth::Topology::kPipeline, 120, 2, 3, /*width=*/80);
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const auto mismatch = test::diffShardedOnce(cfg, 200, shards);
    EXPECT_FALSE(mismatch.has_value()) << *mismatch;
  }
}

/// The committed corpus under examples/designs/large/: one design per synth
/// family, large enough that 2 and 8 shards cut channels (the golden designs
/// fit in one 64-node shard block). Each file is `# synth <describe>` plus
/// printEsl(synth::spec(config)).
std::vector<std::pair<std::string, synth::SynthConfig>> largeCorpus() {
  const auto cfg = [](synth::Topology topo, unsigned inject, unsigned vlu) {
    synth::SynthConfig c = famConfig(topo, 256, inject, 7);
    c.vluPermille = vlu;
    return c;
  };
  return {{"pipeline", cfg(synth::Topology::kPipeline, 2, 100)},
          {"fork-join", cfg(synth::Topology::kForkJoin, 1, 0)},
          {"spec-ladder", cfg(synth::Topology::kSpecLadder, 1, 0)},
          {"random-dag", cfg(synth::Topology::kRandomDag, 2, 0)}};
}

std::string largeCorpusPath(const std::string& name) {
  return std::string(ESL_SOURCE_DIR) + "/examples/designs/large/" + name + ".esl";
}

TEST(ShardedKernel, LargeCorpusFilesAreTheirSynthConfigs) {
  for (const auto& [name, cfg] : largeCorpus()) {
    std::ifstream in(largeCorpusPath(name));
    ASSERT_TRUE(in) << name;
    std::ostringstream text;
    text << in.rdbuf();
    EXPECT_EQ(text.str(), "# synth " + synth::describe(cfg) + "\n" +
                              frontend::printEsl(synth::spec(cfg)))
        << name << ": regenerate from its synth config";
  }
}

TEST(ShardedKernel, LargeCorpusCrossesShardBoundaries) {
  // Every corpus design has a non-empty boundary at 2 and 8 shards, and runs
  // bit-identically on both backends at 1/2/8 shards.
  for (const auto& [name, cfg] : largeCorpus()) {
    SCOPED_TRACE(name);
    Netlist probe = frontend::buildEslFile(largeCorpusPath(name));
    EXPECT_GE(probe.nodeIds().size(), 200u);
    SimContext ctx(probe);
    for (const unsigned shards : {2u, 8u}) {
      ctx.setShards(shards);
      EXPECT_GT(ctx.board().boundarySlotCount(), 0u) << shards << " shards";
    }
    std::vector<std::uint8_t> ref;
    for (const SimContext::Backend backend :
         {SimContext::Backend::kInterpreted, SimContext::Backend::kCompiled}) {
      for (const unsigned shards : kShardCounts) {
        Netlist nl = frontend::buildEslFile(largeCorpusPath(name));
        sim::SimOptions opts;
        opts.throwOnViolation = false;
        opts.backend = backend;
        opts.shards = shards;
        sim::Simulator s(nl, opts);
        s.run(300);
        EXPECT_TRUE(s.ctx().protocolViolations().empty());
        if (ref.empty())
          ref = s.ctx().packState();
        else
          EXPECT_EQ(s.ctx().packState(), ref) << shards << " shards";
      }
    }
  }
}

TEST(ShardedKernel, NondetEnvironmentsDrawIdenticalChoices) {
  // The stateless (seed, cycle, node, index) choice provider is what makes
  // the sharded pre-resolution identical to the serial lazy resolution; run
  // a nondet-environment system across shard counts and compare end state.
  auto run = [](unsigned shards, std::uint64_t seed) {
    synth::SynthConfig cfg = famConfig(synth::Topology::kPipeline, 60, 1, seed);
    cfg.nondetEnv = true;
    synth::SynthSystem sys = synth::build(cfg);
    sim::SimOptions opts;
    opts.backend = SimContext::Backend::kInterpreted;
    opts.checkProtocol = false;
    opts.seed = seed;
    opts.shards = shards;
    sim::Simulator s(sys.nl, opts);
    s.run(250);
    return s.ctx().packState();
  };
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto ref = run(1, seed);
    for (const unsigned shards : {2u, 8u})
      EXPECT_EQ(ref, run(shards, seed)) << "seed " << seed << ", " << shards
                                        << " shards";
  }
}

TEST(ShardedKernel, PaperPatternsUnderCrossCheck) {
  // Cross-check mode with shards settles sharded AND with the reference
  // sweep from the same pre-settle signals every cycle, throwing on any
  // per-channel disagreement — running is the assertion.
  for (const unsigned shards : {2u, 8u}) {
    for (const auto variant :
         {patterns::Fig1Variant::kNonSpeculative, patterns::Fig1Variant::kSpeculative}) {
      auto sys = patterns::buildFig1(variant);
      sim::SimOptions opts;
      opts.backend = SimContext::Backend::kInterpreted;
      opts.checkProtocol = true;
      opts.throwOnViolation = false;
      opts.crossCheckKernels = true;
      opts.shards = shards;
      sim::Simulator s(sys.nl, opts);
      ASSERT_NO_THROW(s.run(300)) << shards << " shards";
    }
  }
}

TEST(ShardedKernel, SecdedPipelineAcrossShardCounts) {
  // A real datapath (72-bit SECDED words) rather than a synthetic family:
  // identical sink streams and stats for every shard count.
  auto run = [](unsigned shards) {
    auto sys = patterns::buildSecdedSpeculative();
    sim::SimOptions opts;
    opts.backend = SimContext::Backend::kInterpreted;
    opts.checkProtocol = false;
    opts.shards = shards;
    sim::Simulator s(sys.nl, opts);
    s.run(400);
    return s.ctx().packState();
  };
  const auto ref = run(1);
  for (const unsigned shards : {2u, 3u, 8u}) EXPECT_EQ(ref, run(shards));
}

TEST(ShardedKernel, ShardCountChangeMidRunPreservesSignals) {
  // setShards re-partitions and re-lays the SignalBoard mid-simulation; the
  // per-channel values must survive the slot permutation so the stream
  // continues exactly where it left off.
  auto reference = [] {
    synth::SynthSystem sys =
        synth::build(famConfig(synth::Topology::kPipeline, 80, 2, 5));
    sim::SimOptions opts;
    opts.backend = SimContext::Backend::kInterpreted;
    opts.checkProtocol = false;
    sim::Simulator s(sys.nl, opts);
    s.run(240);
    return s.ctx().packState();
  }();

  synth::SynthSystem sys =
      synth::build(famConfig(synth::Topology::kPipeline, 80, 2, 5));
  sim::SimOptions opts;
  opts.backend = SimContext::Backend::kInterpreted;
  opts.checkProtocol = false;
  sim::Simulator s(sys.nl, opts);
  s.run(80);
  s.ctx().setShards(4);
  s.run(80);
  s.ctx().setShards(2);
  s.run(80);
  EXPECT_EQ(s.ctx().packState(), reference);
}

/// Ill-formed node oscillating on its own output (the read-back is stale
/// under staging, so the oscillation surfaces as round-to-round flapping).
class ShardOscillator : public Node {
 public:
  explicit ShardOscillator(std::string name) : Node(std::move(name)) {
    declareOutput(1);
  }
  void evalComb(SimContext& ctx) override {
    Sig out = ctx.sig(output(0));
    const bool flipped = !out.vf();
    out.setVf(flipped);
    out.setData(BitVec(1, flipped ? 1 : 0));
    out.setSb(false);
  }
  std::string kindName() const override { return "shard-oscillator"; }
};

TEST(ShardedKernel, CombinationalCycleDetectedUnderShards) {
  // The per-node eval budget is shard-local too: an oscillator must raise
  // CombinationalCycleError (after finitely many rounds), not hang the
  // round loop.
  Netlist nl;
  auto& osc = nl.make<ShardOscillator>("osc");
  auto& sink = nl.make<TokenSink>("sink", 1);
  nl.connect(osc, 0, sink, 0);
  SimContext ctx(nl);
  ctx.setShards(2);
  EXPECT_THROW(ctx.settle(), CombinationalCycleError);
  // The aborted settle must not leave boundary staging active: a fallback to
  // the reference sweep kernel (or any external write) must hit the front
  // planes, so the sweep detects the same oscillation instead of silently
  // converging on stale signals.
  ctx.setKernel(SimContext::SettleKernel::kSweep);
  EXPECT_THROW(ctx.settle(), CombinationalCycleError);
}

/// Choice-controlled combinational oscillator. Output 0 carries the same
/// token on every evaluation; output 1 flips on every evaluation under choice
/// 1 (never converges) and holds under choice 0. A thrown settle therefore
/// leaves output 0's reader unevaluated, and the retry under choice 0 writes
/// no change that would re-trigger it.
class ChoiceOscillator : public Node {
 public:
  explicit ChoiceOscillator(std::string name) : Node(std::move(name)) {
    declareOutput(8);
    declareOutput(1);
  }
  unsigned choiceCount() const override { return 1; }
  void evalComb(SimContext& ctx) override {
    Sig token = ctx.sig(output(0));
    token.setVf(true);
    token.setData(BitVec(8, 42));
    token.setSb(false);
    Sig flap = ctx.sig(output(1));
    flap.setVf(ctx.choice(*this, 0) ? !flap.vf() : true);
    flap.setData(BitVec(1, 0));
    flap.setSb(false);
  }
  std::string kindName() const override { return "choice-oscillator"; }
};

struct OscillatorSystem {
  Netlist nl;
  OscillatorSystem() {
    auto& osc = nl.make<ChoiceOscillator>("osc");
    auto& inc = nl.make<FuncNode>(
        "inc", std::vector<unsigned>{8}, 8,
        [](const std::vector<BitVec>& in) { return in[0] + BitVec(8, 1); });
    auto& sink = nl.make<TokenSink>("sink", 8);
    auto& flapSink = nl.make<TokenSink>("flapSink", 1);
    nl.connect(osc, 0, inc, 0, "token");
    nl.connect(inc, 0, sink, 0, "inc");
    nl.connect(osc, 1, flapSink, 0, "flap");
  }
};

TEST(ShardedKernel, SettleErrorLeavesTheContextUsable) {
  // Reference: a fresh context settled under choice 0.
  OscillatorSystem ref;
  SimContext refCtx(ref.nl);
  refCtx.setBackend(SimContext::Backend::kInterpreted);
  refCtx.setChoices({false});
  refCtx.settle();

  for (const auto backend :
       {SimContext::Backend::kInterpreted, SimContext::Backend::kCompiled}) {
    for (const unsigned shards : {1u, 2u}) {
      SCOPED_TRACE(std::string(backend == SimContext::Backend::kCompiled
                                   ? "compiled"
                                   : "interpreted") +
                   " shards=" + std::to_string(shards));
      OscillatorSystem sys;
      SimContext ctx(sys.nl);
      ctx.setBackend(backend);
      ctx.setShards(shards);
      ctx.setChoices({true});
      EXPECT_THROW(ctx.settle(), CombinationalCycleError);
      // The retry must not trust the change bits the aborted drain consumed:
      // `inc` was never evaluated, and nothing it reads changes now.
      ctx.setChoices({false});
      ctx.settle();
      for (const ChannelId ch : sys.nl.channelIds()) {
        const ChannelSignals got = ctx.sig(ch);
        const ChannelSignals want = refCtx.sig(ch);
        EXPECT_TRUE(got == want) << "channel '" << sys.nl.channel(ch).name << "'";
      }
      ctx.edge();
      ctx.setCrossCheck(true);
      for (int cycle = 0; cycle < 4; ++cycle) {
        ctx.setChoices({false});
        EXPECT_NO_THROW(ctx.settle());
        EXPECT_NO_THROW(ctx.edge());
      }
    }
  }
}

TEST(ShardedKernel, ShardCountAboveTheCapIsRejected) {
  // Rejected before any lane starts; the context keeps its shard count.
  OscillatorSystem sys;
  SimContext ctx(sys.nl);
  EXPECT_THROW(ctx.setShards(SimContext::kMaxShards + 1), EslError);
  EXPECT_EQ(ctx.shards(), 1u);
}

TEST(ShardedKernel, ShardedStatsMatchSerial) {
  // Channel statistics are a post-settle bitplane sweep, so they must be
  // oblivious to the shard count as well.
  auto run = [](unsigned shards) {
    synth::SynthSystem sys =
        synth::build(famConfig(synth::Topology::kForkJoin, 120, 2, 9));
    sim::SimOptions opts;
    opts.backend = SimContext::Backend::kInterpreted;
    opts.checkProtocol = false;
    opts.shards = shards;
    sim::Simulator s(sys.nl, opts);
    s.run(300);
    std::vector<std::uint64_t> counts;
    for (const ChannelId ch : sys.nl.channelIds()) {
      counts.push_back(s.channelStats(ch).fwdTransfers);
      counts.push_back(s.channelStats(ch).kills);
      counts.push_back(s.channelStats(ch).bwdTransfers);
    }
    return counts;
  };
  const auto ref = run(1);
  for (const unsigned shards : {2u, 8u}) EXPECT_EQ(ref, run(shards));
}

}  // namespace
}  // namespace esl
