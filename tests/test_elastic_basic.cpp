#include <gtest/gtest.h>

#include <filesystem>

#include "frontend/esl_format.h"
#include "netlist/synth.h"
#include "sched/scheduler.h"
#include "test_util.h"

namespace esl {
namespace {

using test::iota;
using test::receivedValues;

TEST(FuncNode, UnaryThroughPipeline) {
  Netlist nl;
  auto& src = nl.make<TokenSource>("src", 8, TokenSource::counting(8));
  auto& eb = nl.make<ElasticBuffer>("eb", 8);
  auto& inc = makeUnary(nl, "inc", 8, 8,
                        [](const BitVec& x) { return x + BitVec(8, 1); });
  auto& sink = nl.make<TokenSink>("sink", 8);
  nl.connect(src, 0, eb, 0);
  nl.connect(eb, 0, inc, 0);
  nl.connect(inc, 0, sink, 0);

  sim::Simulator s(nl);
  s.run(10);
  EXPECT_EQ(receivedValues(sink), iota(9, 1));
}

TEST(FuncNode, JoinWaitsForBothInputs) {
  Netlist nl;
  auto& a = nl.make<TokenSource>("a", 8, TokenSource::counting(8));
  // Source b only offers a new token every second cycle.
  auto& b = nl.make<TokenSource>("b", 8, TokenSource::counting(8, 100),
                                 [](std::uint64_t c) { return c % 2 == 0; });
  auto& add = makeBinary(nl, "add", 8, 8, 8,
                         [](const BitVec& x, const BitVec& y) { return x + y; });
  auto& sink = nl.make<TokenSink>("sink", 8);
  nl.connect(a, 0, add, 0);
  nl.connect(b, 0, add, 1);
  nl.connect(add, 0, sink, 0);

  sim::Simulator s(nl);
  s.run(21);
  const auto vals = receivedValues(sink);
  ASSERT_GE(vals.size(), 5u);
  for (std::size_t i = 0; i < vals.size(); ++i)
    EXPECT_EQ(vals[i], (i + (100 + i)) & 0xFF);  // pairwise, in order
  // Throughput limited by the slower input.
  EXPECT_LE(vals.size(), 11u);
}

TEST(FuncNode, WrongWidthResultThrows) {
  Netlist nl;
  auto& src = nl.make<TokenSource>("src", 8, TokenSource::counting(8));
  auto& bad = nl.make<FuncNode>("bad", std::vector<unsigned>{8}, 8,
                                [](const std::vector<BitVec>&) { return BitVec(4); });
  auto& sink = nl.make<TokenSink>("sink", 8);
  nl.connect(src, 0, bad, 0);
  nl.connect(bad, 0, sink, 0);
  sim::Simulator s(nl);
  EXPECT_THROW(s.run(2), EslError);
}

TEST(ForkNode, BothBranchesReceiveStream) {
  Netlist nl;
  auto& src = nl.make<TokenSource>("src", 8, TokenSource::counting(8));
  auto& eb = nl.make<ElasticBuffer>("eb", 8);
  auto& fork = nl.make<ForkNode>("fork", 8, 2);
  auto& s0 = nl.make<TokenSink>("s0", 8);
  auto& s1 = nl.make<TokenSink>("s1", 8);
  nl.connect(src, 0, eb, 0);
  nl.connect(eb, 0, fork, 0);
  nl.connect(fork, 0, s0, 0);
  nl.connect(fork, 1, s1, 0);

  sim::Simulator s(nl);
  s.run(10);
  EXPECT_EQ(receivedValues(s0), iota(9));
  EXPECT_EQ(receivedValues(s1), iota(9));
}

TEST(ForkNode, EagerBranchRunsAheadBoundedly) {
  Netlist nl;
  auto& src = nl.make<TokenSource>("src", 8, TokenSource::counting(8));
  auto& eb = nl.make<ElasticBuffer>("eb", 8);
  auto& fork = nl.make<ForkNode>("fork", 8, 2);
  auto& fast = nl.make<TokenSink>("fast", 8);
  auto& slow = nl.make<TokenSink>("slow", 8,
                                  [](std::uint64_t c) { return c % 4 == 3; });
  nl.connect(src, 0, eb, 0);
  nl.connect(eb, 0, fork, 0);
  nl.connect(fork, 0, fast, 0);
  nl.connect(fork, 1, slow, 0);

  sim::Simulator s(nl);
  s.run(41);
  // Both see the same prefix of the stream, the fast one at most one ahead
  // (the eager fork's done bit lets it take its copy early).
  const auto vf = receivedValues(fast);
  const auto vs = receivedValues(slow);
  EXPECT_EQ(vs, iota(vs.size()));
  EXPECT_EQ(vf, iota(vf.size()));
  EXPECT_GE(vf.size(), vs.size());
  EXPECT_LE(vf.size(), vs.size() + 1);
}

TEST(ForkNode, ThreeWay) {
  Netlist nl;
  auto& src = nl.make<TokenSource>("src", 8, TokenSource::counting(8));
  auto& fork = nl.make<ForkNode>("fork", 8, 3);
  auto& s0 = nl.make<TokenSink>("s0", 8);
  auto& s1 = nl.make<TokenSink>("s1", 8);
  auto& s2 = nl.make<TokenSink>("s2", 8);
  nl.connect(src, 0, fork, 0);
  nl.connect(fork, 0, s0, 0);
  nl.connect(fork, 1, s1, 0);
  nl.connect(fork, 2, s2, 0);

  sim::Simulator s(nl);
  s.run(10);
  EXPECT_EQ(receivedValues(s0), iota(10));
  EXPECT_EQ(receivedValues(s1), iota(10));
  EXPECT_EQ(receivedValues(s2), iota(10));
}

TEST(Netlist, ValidateCatchesUnboundPorts) {
  Netlist nl;
  nl.make<TokenSource>("src", 8, TokenSource::counting(8));
  EXPECT_THROW(nl.validate(), EslError);
}

TEST(Netlist, ConnectChecksWidths) {
  Netlist nl;
  auto& src = nl.make<TokenSource>("src", 8, TokenSource::counting(8));
  auto& sink = nl.make<TokenSink>("sink", 16);
  EXPECT_THROW(nl.connect(src, 0, sink, 0), EslError);
}

TEST(Netlist, DoubleConnectRejected) {
  Netlist nl;
  auto& src = nl.make<TokenSource>("src", 8, TokenSource::counting(8));
  auto& s1 = nl.make<TokenSink>("s1", 8);
  auto& s2 = nl.make<TokenSink>("s2", 8);
  nl.connect(src, 0, s1, 0);
  EXPECT_THROW(nl.connect(src, 0, s2, 0), EslError);
}

TEST(Netlist, InsertOnChannelSplices) {
  Netlist nl;
  auto& src = nl.make<TokenSource>("src", 8, TokenSource::counting(8));
  auto& sink = nl.make<TokenSink>("sink", 8);
  const ChannelId ch = nl.connect(src, 0, sink, 0);
  auto& eb = nl.make<ElasticBuffer>("eb", 8);
  const ChannelId down = nl.insertOnChannel(ch, eb);
  nl.validate();
  EXPECT_EQ(nl.channel(ch).consumer, eb.id());
  EXPECT_EQ(nl.channel(down).producer, eb.id());
  EXPECT_EQ(nl.channel(down).consumer, sink.id());

  sim::Simulator s(nl);
  s.run(5);
  EXPECT_EQ(receivedValues(sink), iota(4));
}

TEST(Netlist, BypassNodeRemovesStage) {
  Netlist nl;
  auto& src = nl.make<TokenSource>("src", 8, TokenSource::counting(8));
  auto& eb = nl.make<ElasticBuffer>("eb", 8);
  auto& sink = nl.make<TokenSink>("sink", 8);
  nl.connect(src, 0, eb, 0);
  nl.connect(eb, 0, sink, 0);
  nl.bypassNode(eb.id());
  nl.removeNode(eb.id());
  nl.validate();

  sim::Simulator s(nl);
  s.run(5);
  EXPECT_EQ(receivedValues(sink), iota(5));  // no EB latency anymore
}

// A deliberately ill-formed node whose output oscillates: the settle loop
// must detect non-convergence and raise CombinationalCycleError.
class OscillatorNode : public Node {
 public:
  explicit OscillatorNode(std::string name) : Node(std::move(name)) {
    declareOutput(1);
  }
  void evalComb(SimContext& ctx) override {
    // Deliberate contract violation: oscillates on its own output (the
    // serial kernels read back the live value and must flag non-convergence).
    Sig out = ctx.sig(output(0));
    const bool flipped = !out.vf();
    out.setVf(flipped);
    out.setData(BitVec(1, flipped ? 1 : 0));
    out.setSb(false);
  }
  std::string kindName() const override { return "oscillator"; }
};

TEST(SimContext, DetectsCombinationalCycles) {
  Netlist nl;
  auto& osc = nl.make<OscillatorNode>("osc");
  auto& sink = nl.make<TokenSink>("sink", 1);
  nl.connect(osc, 0, sink, 0);
  SimContext ctx(nl);
  EXPECT_THROW(ctx.settle(), CombinationalCycleError);
}

TEST(SimContext, StatePackUnpackRoundTrip) {
  auto build = [](Netlist& nl) {
    auto& src = nl.make<TokenSource>("src", 8, TokenSource::counting(8));
    auto& eb1 = nl.make<ElasticBuffer>("eb1", 8);
    auto& eb2 = nl.make<ElasticBuffer>("eb2", 8);
    auto& sink = nl.make<TokenSink>(
        "sink", 8, [](std::uint64_t c) { return c % 3 != 1; });
    nl.connect(src, 0, eb1, 0);
    nl.connect(eb1, 0, eb2, 0);
    nl.connect(eb2, 0, sink, 0);
    return &sink;
  };

  Netlist nlA;
  TokenSink* sinkA = build(nlA);
  sim::Simulator simA(nlA);
  simA.run(7);
  const auto snapshot = simA.ctx().packState();
  const std::size_t alreadyReceived = sinkA->received();

  // Restore into a freshly built identical netlist and continue both.
  Netlist nlB;
  TokenSink* sinkB = build(nlB);
  sim::Simulator simB(nlB, {.checkProtocol = false});
  simB.ctx().unpackState(snapshot);
  EXPECT_EQ(simB.ctx().packState(), snapshot);

  // NOTE: sink gates are cycle-indexed; align simB's cycle by stepping from 7.
  // Instead compare against simA's future stream directly.
  simA.run(9);
  std::vector<std::uint64_t> tailA;
  for (std::size_t i = alreadyReceived; i < sinkA->transfers().size(); ++i)
    tailA.push_back(sinkA->transfers()[i].data.toUint64());

  // simB starts its cycle counter at 0 but its state is from cycle 7; the
  // ready gate pattern has period 3 and 7 % 3 == 1, so offset the comparison
  // window only over values, which are state- not cycle-determined.
  simB.run(30);
  const auto valsB = receivedValues(*sinkB);
  ASSERT_GE(valsB.size(), tailA.size());
  // The first transferred value after restore must continue the stream.
  EXPECT_EQ(valsB.front(), tailA.front());
}

TEST(SimContext, ProtocolCleanOnHealthyPipelines) {
  Netlist nl;
  auto& src = nl.make<TokenSource>("src", 8, TokenSource::counting(8));
  auto& eb = nl.make<ElasticBuffer>("eb", 8);
  auto& eb0 = nl.make<ElasticBuffer0>("eb0", 8);
  auto& sink = nl.make<TokenSink>(
      "sink", 8, [](std::uint64_t c) { return hashChancePermille(c, 500, 3); });
  nl.connect(src, 0, eb, 0);
  nl.connect(eb, 0, eb0, 0);
  nl.connect(eb0, 0, sink, 0);

  sim::Simulator s(nl, {.checkProtocol = true, .throwOnViolation = true});
  s.run(300);
  EXPECT_TRUE(s.ctx().protocolViolations().empty());
}

/// The per-channel backward walk that Netlist::persistentChannels replaced,
/// kept as the reference: follow kDerived producers' inputs upstream; any
/// kNonPersistent port reached makes the channel non-persistent.
bool persistentByBackwardWalk(const Netlist& nl, ChannelId ch) {
  std::vector<ChannelId> stack{ch};
  std::vector<bool> seen(nl.channelCapacity(), false);
  while (!stack.empty()) {
    const ChannelId cur = stack.back();
    stack.pop_back();
    if (seen[cur]) continue;
    seen[cur] = true;
    const Channel& c = nl.channel(cur);
    const Node& producer = nl.node(c.producer);
    switch (producer.outputPersistence(c.producerPort)) {
      case Node::Persistence::kNonPersistent:
        return false;
      case Node::Persistence::kPersistent:
        break;
      case Node::Persistence::kDerived:
        for (unsigned i = 0; i < producer.numInputs(); ++i)
          if (producer.inputBound(i)) stack.push_back(producer.input(i));
        break;
    }
  }
  return true;
}

/// Returns the number of non-persistent channels (so callers can require
/// that a case exercises both answers).
std::size_t expectPersistenceMatchesWalk(const Netlist& nl) {
  const std::vector<bool> fast = nl.persistentChannels();
  std::size_t nonPersistent = 0;
  for (const ChannelId ch : nl.channelIds()) {
    EXPECT_EQ(fast.at(ch), persistentByBackwardWalk(nl, ch))
        << "channel '" << nl.channel(ch).name << "'";
    if (!fast[ch]) ++nonPersistent;
  }
  return nonPersistent;
}

TEST(Netlist, PersistentChannelsMatchBackwardWalkOnEveryDesign) {
  const std::filesystem::path dir =
      std::filesystem::path(ESL_SOURCE_DIR) / "examples" / "designs";
  std::size_t designs = 0, nonPersistent = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".esl") continue;
    SCOPED_TRACE(entry.path().filename().string());
    const Netlist nl = frontend::buildEslFile(entry.path().string());
    nonPersistent += expectPersistenceMatchesWalk(nl);
    ++designs;
  }
  EXPECT_GT(designs, 0u);
  EXPECT_GT(nonPersistent, 0u);  // the shared-module designs
}

TEST(Netlist, PersistentChannelsMatchBackwardWalkOnSynthFamilies) {
  for (const synth::Topology topo :
       {synth::Topology::kPipeline, synth::Topology::kForkJoin,
        synth::Topology::kSpecLadder, synth::Topology::kRandomDag}) {
    synth::SynthConfig cfg;
    cfg.topology = topo;
    cfg.targetNodes = 200;
    cfg.seed = 11;
    SCOPED_TRACE(synth::describe(cfg));
    expectPersistenceMatchesWalk(synth::build(cfg).nl);
  }
}

TEST(Netlist, NonPersistenceFlowsThroughFuncChainsToTheNextBuffer) {
  // shared -> f1 -> f2 -> f3 -> eb -> sink on one branch, a persistent
  // source -> f4 join on the other: everything between the shared module and
  // the EB inherits its non-persistence (f4's output too, being a join with
  // a non-persistent input); the EB's output and the sources are persistent.
  Netlist nl;
  auto& a = nl.make<TokenSource>("a", 8, TokenSource::counting(8));
  auto& b = nl.make<TokenSource>("b", 8, TokenSource::counting(8));
  auto& c = nl.make<TokenSource>("c", 8, TokenSource::counting(8));
  auto& shared = nl.make<SharedModule>(
      "F", 2, 8, 8, [](const BitVec& x) { return x; },
      std::make_unique<sched::RoundRobinScheduler>(2));
  const auto id = [](const std::vector<BitVec>& in) { return in[0]; };
  auto& f1 = nl.make<FuncNode>("f1", std::vector<unsigned>{8}, 8, id);
  auto& f2 = nl.make<FuncNode>("f2", std::vector<unsigned>{8}, 8, id);
  auto& f3 = nl.make<FuncNode>("f3", std::vector<unsigned>{8}, 8, id);
  auto& f4 = nl.make<FuncNode>("f4", std::vector<unsigned>{8, 8}, 8, id);
  auto& eb = nl.make<ElasticBuffer>("eb", 8);
  auto& s0 = nl.make<TokenSink>("s0", 8);
  auto& s1 = nl.make<TokenSink>("s1", 8);
  nl.connect(a, 0, shared, 0, "a");
  nl.connect(b, 0, shared, 1, "b");
  nl.connect(shared, 0, f1, 0, "sh0");
  nl.connect(f1, 0, f2, 0, "f1");
  nl.connect(f2, 0, f3, 0, "f2");
  nl.connect(f3, 0, eb, 0, "f3");
  nl.connect(eb, 0, s0, 0, "eb");
  nl.connect(shared, 1, f4, 0, "sh1");
  nl.connect(c, 0, f4, 1, "c");
  nl.connect(f4, 0, s1, 0, "f4");
  nl.validate();
  EXPECT_EQ(expectPersistenceMatchesWalk(nl), 6u);
  const std::vector<bool> p = nl.persistentChannels();
  for (const char* name : {"a", "b", "c", "eb"})
    EXPECT_TRUE(p[nl.findChannel(name)->id]) << name;
  for (const char* name : {"sh0", "f1", "f2", "f3", "sh1", "f4"})
    EXPECT_FALSE(p[nl.findChannel(name)->id]) << name;
}

}  // namespace
}  // namespace esl
