// Pins the SELF protocol monitor's reports (SimContext::checkProtocol, paper
// §3.1): the exact message text, the order of messages within a cycle
// (live-channel order, whatever the board's slot permutation), the
// first-message throw of throwOnViolation, the persistence relaxation of
// Retry+, and Retry obligations that straddle a mid-run surgery — on the
// interpreted backend, the compiled backend and sharded runs.
#include <gtest/gtest.h>

#include <functional>
#include <map>

#include "frontend/esl_format.h"
#include "test_util.h"
#include "transform/transform.h"

namespace esl {
namespace {

// ---------------------------------------------------------------------------
// Scripted channel drivers: any SELF signal combination on any cycle
// ---------------------------------------------------------------------------

/// What one channel carries on one cycle. `hi` sets the payload's top bit
/// (above bit 63 on wide channels).
struct Drive {
  bool vf = false, sf = false, vb = false, sb = false;
  std::uint64_t data = 0;
  bool hi = false;
};
using Script = std::function<Drive(std::uint64_t cycle)>;

/// Drives the producer-side fields (vf, data, sb) of its output from a
/// per-cycle script; its Retry+ persistence class is a constructor argument.
class ScriptedProducer : public Node {
 public:
  ScriptedProducer(std::string name, unsigned width, Script script, bool persistent)
      : Node(std::move(name)),
        width_(width),
        script_(std::move(script)),
        persistent_(persistent) {
    declareOutput(width);
  }
  void evalComb(SimContext& ctx) override {
    const Drive d = script_(ctx.cycle());
    Sig out = ctx.sig(output(0));
    out.setVf(d.vf);
    out.setSb(d.sb);
    BitVec v(width_, d.data);
    if (d.hi) v.setBit(width_ - 1, true);
    out.setData(v);
  }
  EvalPurity evalPurity() const override { return EvalPurity::kStateDriven; }
  bool evalReadsPerCycleInputs() const override { return true; }
  Persistence outputPersistence(unsigned) const override {
    return persistent_ ? Persistence::kPersistent : Persistence::kNonPersistent;
  }
  std::string kindName() const override { return "scripted-producer"; }

 private:
  unsigned width_;
  Script script_;
  bool persistent_;
};

/// Drives the consumer-side fields (sf, vb) of its input from the script.
class ScriptedConsumer : public Node {
 public:
  ScriptedConsumer(std::string name, unsigned width, Script script)
      : Node(std::move(name)), script_(std::move(script)) {
    declareInput(width);
  }
  void evalComb(SimContext& ctx) override {
    const Drive d = script_(ctx.cycle());
    Sig in = ctx.sig(input(0));
    in.setSf(d.sf);
    in.setVb(d.vb);
  }
  EvalPurity evalPurity() const override { return EvalPurity::kStateDriven; }
  bool evalReadsPerCycleInputs() const override { return true; }
  std::string kindName() const override { return "scripted-consumer"; }

 private:
  Script script_;
};

// Signal shorthands for the scripts.
constexpr Drive stoppedToken(std::uint64_t data) {
  return {true, true, false, false, data};
}
constexpr Drive token(std::uint64_t data) { return {true, false, false, false, data}; }
constexpr Drive stoppedAnti() { return {false, false, true, true}; }

/// One scripted channel per entry (cycle -> drive; absent cycles are idle).
struct ChannelPlan {
  unsigned width = 8;
  bool persistent = true;
  std::map<std::uint64_t, Drive> cycles;
};

constexpr unsigned kPairs = 40;

/// kPairs scripted producer/consumer pairs, channel i = "ch<i>". Node ids are
/// allocated so that ch0's consumer is the last node: with 2+ shards ch0
/// crosses shards (boundary region, top of the slot space) while ch33..ch39
/// are interior to the second shard — slot order then differs from channel
/// order, which the monitor's report order must not follow.
Netlist buildScripted(const std::map<unsigned, ChannelPlan>& plans) {
  Netlist nl;
  std::vector<ScriptedProducer*> prod(kPairs);
  std::vector<ScriptedConsumer*> cons(kPairs);
  const auto scriptOf = [&](unsigned i) -> Script {
    const auto it = plans.find(i);
    if (it == plans.end()) return [](std::uint64_t) { return Drive{}; };
    const std::map<std::uint64_t, Drive> cycles = it->second.cycles;
    return [cycles](std::uint64_t c) {
      const auto d = cycles.find(c);
      return d == cycles.end() ? Drive{} : d->second;
    };
  };
  const auto widthOf = [&](unsigned i) {
    const auto it = plans.find(i);
    return it == plans.end() ? 8u : it->second.width;
  };
  const auto persistentOf = [&](unsigned i) {
    const auto it = plans.find(i);
    return it == plans.end() || it->second.persistent;
  };
  const auto makeProducer = [&](unsigned i) {
    prod[i] = &nl.make<ScriptedProducer>("p" + std::to_string(i), widthOf(i),
                                         scriptOf(i), persistentOf(i));
  };
  const auto makeConsumer = [&](unsigned i) {
    cons[i] = &nl.make<ScriptedConsumer>("c" + std::to_string(i), widthOf(i),
                                         scriptOf(i));
  };
  makeProducer(0);
  for (unsigned i = 1; i < kPairs; ++i) {
    makeProducer(i);
    makeConsumer(i);
  }
  makeConsumer(0);
  for (unsigned i = 0; i < kPairs; ++i)
    nl.connect(*prod[i], 0, *cons[i], 0, "ch" + std::to_string(i));
  return nl;
}

/// Every message kind, several per cycle, on narrow, wide (80-bit),
/// zero-width, boundary, second-shard-interior and non-persistent channels.
std::map<unsigned, ChannelPlan> violationPlans() {
  std::map<unsigned, ChannelPlan> p;
  // ch0 (cross-shard): killed-and-stopped token, later a vanished Retry+.
  p[0].cycles = {{1, {true, true, true, false, 1}}, {4, stoppedToken(7)}};
  // ch3: killed-and-stopped anti-token.
  p[3].cycles = {{1, {true, false, true, true, 2}}};
  // ch5: both kill/stop messages in one cycle, then a vanished Retry-.
  p[5].cycles = {{1, {true, true, true, true, 3}}, {2, stoppedAnti()}};
  // ch9 (80 bits): a Retry+ whose payload changes above bit 63 only.
  p[9].width = 80;
  p[9].cycles = {{2, stoppedToken(0x55)}, {3, {true, false, false, false, 0x55, true}}};
  // ch12 (zero-width control channel): a vanished Retry+.
  p[12].width = 0;
  p[12].cycles = {{2, stoppedToken(0)}};
  // ch20 (non-persistent): Retry+ relaxed (vanish, then data change), but a
  // vanished Retry- is still reported.
  p[20].persistent = false;
  p[20].cycles = {{2, stoppedToken(4)}, {5, stoppedToken(4)}, {6, token(5)},
                  {7, stoppedAnti()}};
  // ch32 (cross-shard): a vanished Retry-.
  p[32].cycles = {{2, stoppedAnti()}};
  // ch35 (second shard's interior): token killed and stopped while its
  // retried payload changes — two messages in check order.
  p[35].cycles = {{2, stoppedToken(9)}, {3, {true, true, true, false, 10}}};
  // ch38: a legal three-cycle retry that transfers on the fourth.
  p[38].cycles = {{2, stoppedToken(6)}, {3, stoppedToken(6)}, {4, stoppedToken(6)},
                  {5, token(6)}};
  return p;
}

std::vector<std::string> expectedViolations() {
  const auto msg = [](std::uint64_t cycle, unsigned ch, const std::string& what) {
    return "cycle " + std::to_string(cycle) + ", channel 'ch" + std::to_string(ch) +
           "': " + what;
  };
  const std::string tokKS = "token killed and stopped (V+ S+ V-)";
  const std::string antiKS = "anti-token killed and stopped (V- S- V+)";
  const std::string vanished = "Retry+ violated: stopped token vanished";
  const std::string changed = "Retry+ persistence violated: data changed during retry";
  const std::string antiVanished = "Retry- violated: stopped anti-token vanished";
  return {
      msg(1, 0, tokKS),        msg(1, 3, antiKS),       msg(1, 5, tokKS),
      msg(1, 5, antiKS),       msg(3, 5, antiVanished), msg(3, 9, changed),
      msg(3, 12, vanished),    msg(3, 32, antiVanished), msg(3, 35, tokKS),
      msg(3, 35, changed),     msg(5, 0, vanished),     msg(8, 20, antiVanished),
  };
}

struct MonitorConfig {
  std::string label;
  SimContext::Backend backend;
  unsigned shards;
};

const MonitorConfig kConfigs[] = {
    {"interpreted", SimContext::Backend::kInterpreted, 1},
    {"compiled", SimContext::Backend::kCompiled, 1},
    {"interpreted shards=2", SimContext::Backend::kInterpreted, 2},
    {"interpreted shards=8", SimContext::Backend::kInterpreted, 8},
    {"compiled shards=2", SimContext::Backend::kCompiled, 2},
};

sim::SimOptions monitorOpts(const MonitorConfig& c, bool throwOnViolation) {
  sim::SimOptions o;
  o.checkProtocol = true;
  o.throwOnViolation = throwOnViolation;
  o.backend = c.backend;
  o.shards = c.shards;
  return o;
}

TEST(ProtocolMonitor, EveryMessageInChannelOrderOnEveryBackend) {
  for (const MonitorConfig& c : kConfigs) {
    Netlist nl = buildScripted(violationPlans());
    sim::Simulator s(nl, monitorOpts(c, false));
    s.run(12);
    EXPECT_EQ(s.ctx().protocolViolations(), expectedViolations()) << c.label;
    if (c.shards > 1) {
      // The layout really permutes: ch0 sits above ch5 and ch35 in slot order.
      const SignalBoard& b = s.ctx().board();
      const auto slot = [&](const char* ch) { return b.slotOf(nl.findChannel(ch)->id); };
      EXPECT_GT(slot("ch0"), slot("ch35")) << c.label;
      EXPECT_GT(slot("ch35"), slot("ch5")) << c.label;
    }
  }
}

TEST(ProtocolMonitor, ThrowOnViolationThrowsTheFirstMessage) {
  const std::vector<std::string> expected = expectedViolations();
  for (const MonitorConfig& c : kConfigs) {
    Netlist nl = buildScripted(violationPlans());
    sim::Simulator s(nl, monitorOpts(c, true));
    try {
      s.run(12);
      ADD_FAILURE() << c.label << ": no ProtocolError";
    } catch (const ProtocolError& e) {
      EXPECT_EQ(std::string(e.what()), expected.front()) << c.label;
    }
    EXPECT_EQ(s.ctx().protocolViolations(),
              std::vector<std::string>{expected.front()})
        << c.label;
  }
}

TEST(ProtocolMonitor, RetryObligationsNeedTheMonitorOnThePreviousCycle) {
  // Enabling the monitor mid-run checks kill/stop at once but no Retry±
  // obligation from the unmonitored cycle before.
  Netlist nl = buildScripted(violationPlans());
  sim::Simulator s(nl, {.checkProtocol = true, .throwOnViolation = false});
  s.ctx().setProtocolChecking(false);
  s.ctx().step();
  s.ctx().step();
  s.ctx().step();  // cycle 2: ch9/ch12/ch35 stop tokens, ch5/ch32 anti-tokens
  s.ctx().setProtocolChecking(true);
  s.run(9);
  const std::vector<std::string> all = expectedViolations();
  const std::vector<std::string> tail = {all[8], all[10], all[11]};
  EXPECT_EQ(s.ctx().protocolViolations(), tail);
}

TEST(ProtocolMonitor, NonPersistentChannelReportsNoRetryPlus) {
  std::map<unsigned, ChannelPlan> plans;
  plans[7].persistent = false;
  plans[7].cycles = {{1, stoppedToken(1)}, {3, stoppedToken(2)}, {4, token(3)}};
  plans[8].cycles = plans[7].cycles;  // the same traffic, persistent
  for (const MonitorConfig& c : kConfigs) {
    Netlist nl = buildScripted(plans);
    sim::Simulator s(nl, monitorOpts(c, false));
    s.run(8);
    EXPECT_EQ(s.ctx().protocolViolations(),
              (std::vector<std::string>{
                  "cycle 2, channel 'ch8': Retry+ violated: stopped token vanished",
                  "cycle 4, channel 'ch8': Retry+ persistence violated: data "
                  "changed during retry"}))
        << c.label;
  }
}

// ---------------------------------------------------------------------------
// Misbehaving buffers (runtime counterparts of the model checker's cases)
// ---------------------------------------------------------------------------

/// A 1-place buffer that drops a token stalled for one cycle while claiming
/// persistent outputs: a Retry+ vanish on every stall.
class DroppingBuffer : public Node {
 public:
  DroppingBuffer(std::string name, unsigned width)
      : Node(std::move(name)), width_(width) {
    declareInput(width);
    declareOutput(width);
  }
  void reset() override {
    full_ = false;
    data_ = BitVec(width_);
  }
  void evalComb(SimContext& ctx) override {
    Sig in = ctx.sig(input(0));
    Sig out = ctx.sig(output(0));
    out.setVf(full_);
    out.setData(data_);
    out.setSb(false);
    in.setSf(full_);
    in.setVb(false);
  }
  EvalPurity evalPurity() const override { return EvalPurity::kStateDriven; }
  void clockEdge(SimContext& ctx) override {
    const ChannelSignals in = ctx.sig(input(0));
    const ChannelSignals out = ctx.sig(output(0));
    if (full_ && out.vf && out.sf && !out.vb) full_ = false;  // the bug: drop
    if (full_ && fwdTransfer(out)) full_ = false;
    if (fwdTransfer(in)) {
      full_ = true;
      data_ = in.data;
    }
  }
  void packState(StateWriter& w) const override {
    w.writeBool(full_);
    w.writeBitVec(data_);
  }
  void unpackState(StateReader& r) override {
    full_ = r.readBool();
    data_ = r.readBitVec();
  }
  Persistence outputPersistence(unsigned) const override {
    return Persistence::kPersistent;
  }
  std::string kindName() const override { return "dropping-buffer"; }

 private:
  unsigned width_;
  bool full_ = false;
  BitVec data_;
};

/// src -> bad -> sink, the sink ready on even cycles only.
template <typename Bad>
std::vector<std::string> runMisbehavingBuffer(const MonitorConfig& c) {
  Netlist nl;
  auto& src = nl.make<TokenSource>("src", 8, TokenSource::counting(8));
  auto& bad = nl.make<Bad>("bad", 8);
  auto& sink =
      nl.make<TokenSink>("sink", 8, [](std::uint64_t cyc) { return cyc % 2 == 0; });
  nl.connect(src, 0, bad, 0, "in");
  nl.connect(bad, 0, sink, 0, "out");
  sim::Simulator s(nl, monitorOpts(c, false));
  s.run(8);
  return s.ctx().protocolViolations();
}

TEST(ProtocolMonitor, DroppingBufferReportsEveryVanishedRetry) {
  const std::vector<std::string> expected = {
      "cycle 2, channel 'out': Retry+ violated: stopped token vanished",
      "cycle 4, channel 'out': Retry+ violated: stopped token vanished",
      "cycle 6, channel 'out': Retry+ violated: stopped token vanished",
  };
  for (const MonitorConfig& c : kConfigs)
    EXPECT_EQ(runMisbehavingBuffer<DroppingBuffer>(c), expected) << c.label;
}

TEST(ProtocolMonitor, BrokenBufferReportsOverwrittenRetries) {
  const std::vector<std::string> expected = {
      "cycle 2, channel 'out': Retry+ persistence violated: data changed during retry",
      "cycle 6, channel 'out': Retry+ persistence violated: data changed during retry",
  };
  for (const MonitorConfig& c : kConfigs)
    EXPECT_EQ(runMisbehavingBuffer<BrokenBuffer>(c), expected) << c.label;
}

// ---------------------------------------------------------------------------
// Retry obligations across a mid-run relayout
// ---------------------------------------------------------------------------

TEST(ProtocolMonitor, RetryObligationsSurviveMidRunSurgery) {
  // fig1d after one cycle: pc's token sits stopped in the fork's
  // combinational cone. An empty EB spliced onto pc.out cuts every one of
  // those tokens, and the monitor — its cycle-0 obligations carried across
  // the relayout by channel — reports each vanished Retry+.
  const std::vector<std::string> expected = {
      "cycle 1, channel 'pc.g': Retry+ violated: stopped token vanished",
      "cycle 1, channel 'pc.w0': Retry+ violated: stopped token vanished",
      "cycle 1, channel 'pc.w1': Retry+ violated: stopped token vanished",
      "cycle 1, channel 'Fin0': Retry+ violated: stopped token vanished",
      "cycle 1, channel 'Fin1': Retry+ violated: stopped token vanished",
      "cycle 1, channel 'sel': Retry+ violated: stopped token vanished",
  };
  for (const MonitorConfig& c : kConfigs) {
    Netlist nl = frontend::buildEslFile(std::string(ESL_SOURCE_DIR) +
                                        "/examples/designs/fig1d.esl");
    sim::Simulator s(nl, monitorOpts(c, false));
    s.run(1);
    transform::insertBubble(nl, nl.findChannel("pc.out")->id);
    s.run(30);
    EXPECT_EQ(s.ctx().protocolViolations(), expected) << c.label;
  }
}

TEST(ProtocolMonitor, RetryObligationsSurviveAShardCountChange) {
  // A re-shard re-lays the board (slots permute) between the stopped cycle
  // and the check: the obligations follow their channels.
  for (const MonitorConfig& c : kConfigs) {
    Netlist nl = buildScripted(violationPlans());
    sim::Simulator s(nl, monitorOpts(c, false));
    s.run(3);  // cycle 2 recorded the Retry± obligations checked at cycle 3
    s.ctx().setShards(c.shards == 1 ? 2 : 1);
    s.run(9);
    EXPECT_EQ(s.ctx().protocolViolations(), expectedViolations()) << c.label;
  }
}

}  // namespace
}  // namespace esl
