#include "transform/transform.h"

#include <gtest/gtest.h>

#include "elastic/registry.h"
#include "frontend/esl_format.h"
#include "netlist/patterns.h"
#include "shell/session.h"
#include "sim/equiv.h"
#include "test_util.h"

namespace esl {
namespace {

using test::iota;
using test::receivedValues;

/// A small open pipeline with a mux + following function, used by several
/// transformation tests: sel/d0/d1 sources -> join mux -> F -> sink.
struct MuxPipeline {
  Netlist nl;
  FuncNode* mux = nullptr;
  FuncNode* f = nullptr;
  TokenSink* sink = nullptr;
};

MuxPipeline buildMuxPipeline(unsigned selPeriod = 3) {
  MuxPipeline p;
  auto& sel = p.nl.make<TokenSource>(
      "sel", 1, [selPeriod](std::uint64_t i) -> std::optional<BitVec> {
        return BitVec(1, i % selPeriod == 0 ? 1 : 0);
      });
  auto& d0 = p.nl.make<TokenSource>("d0", 8, TokenSource::counting(8, 1));
  auto& d1 = p.nl.make<TokenSource>("d1", 8, TokenSource::counting(8, 101));
  p.mux = &makeJoinMux(p.nl, "mux", 2, 1, 8);
  p.f = &makeUnary(p.nl, "F", 8, 8,
                   [](const BitVec& x) { return (x << 1) ^ x; },
                   logic::Cost{6.0, 50.0});
  p.sink = &p.nl.make<TokenSink>("sink", 8);
  p.nl.connect(sel, 0, *p.mux, 0);
  p.nl.connect(d0, 0, *p.mux, 1);
  p.nl.connect(d1, 0, *p.mux, 2);
  p.nl.connect(*p.mux, 0, *p.f, 0);
  p.nl.connect(*p.f, 0, *p.sink, 0);
  p.nl.validate();
  return p;
}

TEST(InsertBubble, PreservesTransferEquivalence) {
  MuxPipeline a = buildMuxPipeline();
  MuxPipeline b = buildMuxPipeline();
  transform::insertBubble(b.nl, b.f->output(0));
  b.nl.validate();
  const auto r = sim::transferEquivalent(a.nl, b.nl, 60, 20);
  EXPECT_TRUE(r.equivalent) << r.reason;
}

TEST(InsertBubble, HalvesLoopThroughput) {
  // Fig. 1(a) vs Fig. 1(b): the single-token loop drops to throughput 1/2.
  auto a = patterns::buildFig1(patterns::Fig1Variant::kNonSpeculative);
  auto b = patterns::buildFig1(patterns::Fig1Variant::kBubble);
  sim::Simulator sa(a.nl), sb(b.nl);
  sa.run(200);
  sb.run(200);
  EXPECT_NEAR(sa.throughput(a.loopChannel), 1.0, 0.02);
  EXPECT_NEAR(sb.throughput(b.loopChannel), 0.5, 0.02);
}

TEST(InsertBubble, DefaultNameOnDefaultNamedChannelIsLegalAndUnique) {
  // `speculate` leaves default-named channels ("F0.out0"). A bubble on one
  // must get a node name the .esl rule accepts (none ending in .out<N>), or
  // the design can no longer be saved, round-tripped or spooled.
  shell::Session s;
  s.execute("build fig1a");
  s.execute("speculate mux F");
  EXPECT_EQ(s.execute("bubble F0.out0"), "inserted bubble 'bubble@F0-out0'\n");
  EXPECT_EQ(s.execute("bubble F0.out0"), "inserted bubble 'bubble@F0-out0-2'\n");
  for (const char* name : {"bubble@F0-out0", "bubble@F0-out0-2"})
    EXPECT_NO_THROW(validateIrName(name, "node name")) << name;
  EXPECT_NO_THROW(frontend::checkRoundTrip(NetlistSpec::fromNetlist(*s.netlist())));
}

TEST(RemoveBubble, InverseOfInsert) {
  MuxPipeline a = buildMuxPipeline();
  MuxPipeline b = buildMuxPipeline();
  auto& bubble = transform::insertBubble(b.nl, b.f->output(0));
  transform::removeBubble(b.nl, bubble.id());
  b.nl.validate();
  const auto r = sim::transferEquivalent(a.nl, b.nl, 40, 20);
  EXPECT_TRUE(r.equivalent) << r.reason;
}

TEST(RemoveBubble, RefusesNonEmptyEb) {
  Netlist nl;
  auto& src = nl.make<TokenSource>("src", 8, TokenSource::counting(8));
  auto& eb = nl.make<ElasticBuffer>("eb", 8, 2, std::vector<BitVec>{BitVec(8, 5)});
  auto& sink = nl.make<TokenSink>("sink", 8);
  nl.connect(src, 0, eb, 0);
  nl.connect(eb, 0, sink, 0);
  EXPECT_THROW(transform::removeBubble(nl, eb.id()), TransformError);
}

TEST(RetimeBackward, MovesBubbleAcrossFunction) {
  MuxPipeline a = buildMuxPipeline();
  MuxPipeline b = buildMuxPipeline();
  auto& bubble = transform::insertBubble(b.nl, b.f->output(0));
  const auto ebs = transform::retimeBackward(b.nl, bubble.id());
  b.nl.validate();
  ASSERT_EQ(ebs.size(), 1u);  // F is unary: one EB on its single input
  const auto r = sim::transferEquivalent(a.nl, b.nl, 60, 20);
  EXPECT_TRUE(r.equivalent) << r.reason;
}

TEST(RetimeBackward, RefusesTokenBearingEb) {
  Netlist nl;
  auto& src = nl.make<TokenSource>("src", 8, TokenSource::counting(8));
  auto& f = makeUnary(nl, "F", 8, 8, [](const BitVec& x) { return x; });
  auto& eb = nl.make<ElasticBuffer>("eb", 8, 2, std::vector<BitVec>{BitVec(8, 1)});
  auto& sink = nl.make<TokenSink>("sink", 8);
  nl.connect(src, 0, f, 0);
  nl.connect(f, 0, eb, 0);
  nl.connect(eb, 0, sink, 0);
  EXPECT_THROW(transform::retimeBackward(nl, eb.id()), TransformError);
}

TEST(RetimeForward, RecomputesTokensThroughFunction) {
  // EBs holding (3) and (4) before an adder become one EB holding (7).
  auto build = [](bool retimed) {
    Netlist nl;
    auto& a = nl.make<TokenSource>("a", 8, TokenSource::counting(8, 10));
    auto& b = nl.make<TokenSource>("b", 8, TokenSource::counting(8, 20));
    auto& ebA = nl.make<ElasticBuffer>("ebA", 8, 2, std::vector<BitVec>{BitVec(8, 3)});
    auto& ebB = nl.make<ElasticBuffer>("ebB", 8, 2, std::vector<BitVec>{BitVec(8, 4)});
    auto& add = makeBinary(nl, "add", 8, 8, 8,
                           [](const BitVec& x, const BitVec& y) { return x + y; });
    auto& sink = nl.make<TokenSink>("sink", 8);
    nl.connect(a, 0, ebA, 0);
    nl.connect(b, 0, ebB, 0);
    nl.connect(ebA, 0, add, 0);
    nl.connect(ebB, 0, add, 1);
    nl.connect(add, 0, sink, 0);
    if (retimed) transform::retimeForward(nl, add.id());
    nl.validate();
    return nl;
  };
  Netlist plain = build(false);
  Netlist retimed = build(true);
  const auto r = sim::transferEquivalent(plain, retimed, 40, 10);
  EXPECT_TRUE(r.equivalent) << r.reason;
}

TEST(RetimeForward, RefusesMismatchedTokenCounts) {
  Netlist nl;
  auto& a = nl.make<TokenSource>("a", 8, TokenSource::counting(8));
  auto& b = nl.make<TokenSource>("b", 8, TokenSource::counting(8));
  auto& ebA = nl.make<ElasticBuffer>("ebA", 8, 2, std::vector<BitVec>{BitVec(8, 3)});
  auto& ebB = nl.make<ElasticBuffer>("ebB", 8);
  auto& add = makeBinary(nl, "add", 8, 8, 8,
                         [](const BitVec& x, const BitVec& y) { return x + y; });
  auto& sink = nl.make<TokenSink>("sink", 8);
  nl.connect(a, 0, ebA, 0);
  nl.connect(b, 0, ebB, 0);
  nl.connect(ebA, 0, add, 0);
  nl.connect(ebB, 0, add, 1);
  nl.connect(add, 0, sink, 0);
  EXPECT_THROW(transform::retimeForward(nl, add.id()), TransformError);
}

TEST(Shannon, DuplicatesFunctionOntoInputs) {
  MuxPipeline a = buildMuxPipeline();
  MuxPipeline b = buildMuxPipeline();
  const auto res = transform::shannonDecompose(b.nl, b.mux->id(), b.f->id());
  b.nl.validate();
  EXPECT_EQ(res.copies.size(), 2u);
  EXPECT_TRUE(b.nl.hasNode(res.mux));
  const auto r = sim::transferEquivalent(a.nl, b.nl, 60, 20);
  EXPECT_TRUE(r.equivalent) << r.reason;
}

TEST(Shannon, RequiresAdjacentFunction) {
  MuxPipeline p = buildMuxPipeline();
  auto& bubble = transform::insertBubble(p.nl, p.mux->output(0));
  (void)bubble;  // now F is no longer directly after the mux
  EXPECT_THROW(transform::shannonDecompose(p.nl, p.mux->id(), p.f->id()),
               TransformError);
}

TEST(Shannon, RequiresMuxRole) {
  MuxPipeline p = buildMuxPipeline();
  // F is not a mux: using it as the "mux" argument must fail.
  EXPECT_THROW(transform::shannonDecompose(p.nl, p.f->id(), p.f->id()),
               TransformError);
}

TEST(EarlyEvalConversion, PreservesTransferEquivalence) {
  MuxPipeline a = buildMuxPipeline();
  MuxPipeline b = buildMuxPipeline();
  transform::convertToEarlyEval(b.nl, b.mux->id());
  b.nl.validate();
  const auto r = sim::transferEquivalent(a.nl, b.nl, 60, 20);
  EXPECT_TRUE(r.equivalent) << r.reason;
}

TEST(ShareFunctions, MergesCopiesBehindScheduler) {
  MuxPipeline a = buildMuxPipeline();
  MuxPipeline b = buildMuxPipeline();
  const auto shannon = transform::shannonDecompose(b.nl, b.mux->id(), b.f->id());
  const NodeId ee = transform::convertToEarlyEval(b.nl, shannon.mux);
  const NodeId shared = transform::shareFunctions(
      b.nl, shannon.copies, ee, std::make_unique<sched::LastServedScheduler>(2));
  b.nl.validate();
  EXPECT_TRUE(b.nl.hasNode(shared));
  const auto r = sim::transferEquivalent(a.nl, b.nl, 80, 20);
  EXPECT_TRUE(r.equivalent) << r.reason;
}

class SpeculateSchedulerTest
    : public ::testing::TestWithParam<patterns::Fig1Scheduler> {};

TEST_P(SpeculateSchedulerTest, RecipeMatchesHandBuiltSpeculativeLoop) {
  // Apply the full §4 recipe to Fig. 1(a); the result must be transfer
  // equivalent to the original AND to the hand-built Fig. 1(d), for any
  // scheduler (functional equivalence is scheduler-independent).
  patterns::Fig1Config cfg;
  cfg.scheduler = GetParam();

  auto original = patterns::buildFig1(patterns::Fig1Variant::kNonSpeculative, cfg);
  auto transformed = patterns::buildFig1(patterns::Fig1Variant::kNonSpeculative, cfg);
  auto handBuilt = patterns::buildFig1(patterns::Fig1Variant::kSpeculative, cfg);

  FuncNode* mux = dynamic_cast<FuncNode*>(transformed.nl.findNode("mux"));
  Node* f = transformed.nl.findNode("F");
  ASSERT_NE(mux, nullptr);
  ASSERT_NE(f, nullptr);

  std::unique_ptr<sched::Scheduler> sched;
  switch (cfg.scheduler) {
    case patterns::Fig1Scheduler::kStatic0:
      sched = std::make_unique<sched::StaticScheduler>(2, 0);
      break;
    case patterns::Fig1Scheduler::kLastServed:
      sched = std::make_unique<sched::LastServedScheduler>(2);
      break;
    default:
      sched = std::make_unique<sched::RoundRobinScheduler>(2);
      break;
  }
  transform::speculate(transformed.nl, mux->id(), f->id(), std::move(sched));
  transformed.nl.validate();

  const auto r1 = sim::transferEquivalent(original.nl, transformed.nl, 150, 40);
  EXPECT_TRUE(r1.equivalent) << r1.reason;
  const auto r2 = sim::transferEquivalent(handBuilt.nl, transformed.nl, 150, 40);
  EXPECT_TRUE(r2.equivalent) << r2.reason;
}

INSTANTIATE_TEST_SUITE_P(Schedulers, SpeculateSchedulerTest,
                         ::testing::Values(patterns::Fig1Scheduler::kStatic0,
                                           patterns::Fig1Scheduler::kLastServed,
                                           patterns::Fig1Scheduler::kRoundRobin));

TEST(FindCandidates, FlagsCriticalCycleThroughSelect) {
  auto loop = patterns::buildFig1(patterns::Fig1Variant::kNonSpeculative);
  const auto candidates = transform::findSpeculationCandidates(loop.nl);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(loop.nl.node(candidates[0].mux).name(), "mux");
  EXPECT_EQ(loop.nl.node(candidates[0].func).name(), "F");
  EXPECT_TRUE(candidates[0].onCriticalCycle);
}

TEST(FindCandidates, OpenSystemIsNotCritical) {
  MuxPipeline p = buildMuxPipeline();
  const auto candidates = transform::findSpeculationCandidates(p.nl);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_FALSE(candidates[0].onCriticalCycle);  // sel comes from a source
}

TEST(BubbleEverywhere, AnyChannelStaysEquivalent) {
  // Property: inserting a bubble on EVERY channel of the open pipeline (one
  // at a time) preserves transfer equivalence — "it is always possible to
  // insert empty EBs in any channel" (paper §2).
  MuxPipeline reference = buildMuxPipeline();
  const auto channels = reference.nl.channelIds();
  for (const ChannelId ch : channels) {
    MuxPipeline mutated = buildMuxPipeline();
    transform::insertBubble(mutated.nl, ch);  // same ids: same build order
    mutated.nl.validate();
    MuxPipeline fresh = buildMuxPipeline();
    const auto r = sim::transferEquivalent(fresh.nl, mutated.nl, 60, 15);
    EXPECT_TRUE(r.equivalent)
        << "bubble on channel " << reference.nl.channel(ch).name << ": " << r.reason;
  }
}

}  // namespace
}  // namespace esl
