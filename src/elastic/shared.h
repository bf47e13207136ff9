// Shared speculative module (paper §4.1, Fig. 4).
//
// k input channels compete for one copy of a combinational function F. Each
// cycle the scheduler predicts a channel; the controller forwards the
// predicted channel's token through F to the matching output channel
// (V+out_i = (sched==i) ∧ V+in_i), stops the other channels unless they are
// being killed, and passes anti-tokens from each output back to its input
// combinationally. The datapath is an input multiplexer followed by F
// (Fig. 4a), so sharing adds one mux delay to the function path.
//
// The scheduler observes — at the clock edge only, keeping it out of the
// combinational critical path (§4.1.2) — which channels were valid, served,
// killed, and *demanded* (selected-but-empty stop from the early-evaluation
// multiplexer), and corrects its prediction on misprediction.
#pragma once

#include <memory>

#include "elastic/board_io.h"
#include "elastic/node.h"
#include "sched/scheduler.h"

namespace esl {

/// Unary function applied by the shared datapath.
using SharedFn = std::function<BitVec(const BitVec&)>;

class SharedModule : public Node {
 public:
  SharedModule(std::string name, unsigned channels, unsigned inWidth,
               unsigned outWidth, SharedFn fn,
               std::unique_ptr<sched::Scheduler> scheduler,
               logic::Cost fnCost = {1.0, 1.0});

  void reset() override;
  void evalComb(SimContext& ctx) override;
  EvalPurity evalPurity() const override { return EvalPurity::kStateful; }
  void clockEdge(SimContext& ctx) override;
  void packState(StateWriter& w) const override;
  void unpackState(StateReader& r) override;
  unsigned choiceCount() const override;
  logic::Cost cost() const override;
  void timing(TimingModel& m) const override;
  void flowEdges(std::vector<FlowEdge>& out) const override;
  /// §4.2: after a retry the scheduler may change its prediction, so shared
  /// module outputs are exempt from Retry+ persistence.
  Persistence outputPersistence(unsigned) const override {
    return Persistence::kNonPersistent;
  }
  std::string kindName() const override { return "shared"; }

  unsigned channels() const { return channels_; }
  sched::Scheduler& scheduler() { return *scheduler_; }

  /// The channel predicted for the current cycle (e.g. for trace rows).
  unsigned prediction(SimContext& ctx);

  /// Tokens served per channel (forward transfers on the outputs).
  const std::vector<std::uint64_t>& servedPerChannel() const { return served_; }
  /// Cycles in which some output carried a misprediction demand.
  std::uint64_t demandCycles() const { return demandCycles_; }
  std::uint64_t totalServed() const;

  /// Cycle semantics over a port-accessor policy (elastic/board_io.h), shared
  /// by evalComb/clockEdge and the compiled VM. `applyStats == false` (the
  /// compiled edge audit's replay) leaves the statistics alone.
  template <class Io>
  void comb(Io& io);
  template <class Io>
  void edge(Io& io, bool applyStats);

 private:
  template <class Io>
  unsigned predict(Io& io);

  unsigned channels_;
  unsigned inWidth_;
  unsigned outWidth_;
  SharedFn fn_;
  std::unique_ptr<sched::Scheduler> scheduler_;
  logic::Cost fnCost_;

  std::vector<std::uint64_t> served_;
  std::uint64_t demandCycles_ = 0;

  // Size-1 memo of the last fn_ computation (fn_ is pure; retried and
  // re-settled tokens would otherwise recompute it every evaluation).
  bool memoValid_ = false;
  BitVec memoIn_;
  BitVec memoOut_;

  // Scratch reused across cycles to keep the per-cycle path allocation-free.
  unsigned lastPrediction_ = 0;  ///< prediction from the latest evalComb
  std::vector<bool> validScratch_;
  sched::Observation obsScratch_;
};

template <class Io>
inline unsigned SharedModule::predict(Io& io) {
  validScratch_.resize(channels_);
  for (unsigned i = 0; i < channels_; ++i) validScratch_[i] = io.vf(io.in(i));
  const sched::ChoiceReader reader = [&io](unsigned b) { return io.choice(b); };
  const unsigned p = scheduler_->predict(validScratch_, reader);
  ESL_CHECK(p < channels_, "SharedModule: scheduler predicted out of range");
  lastPrediction_ = p;
  return p;
}

template <class Io>
inline void SharedModule::comb(Io& io) {
  const unsigned sched = predict(io);
  for (unsigned i = 0; i < channels_; ++i) {
    const auto& in = io.in(i);
    const auto& out = io.out(i);
    const bool routed = i == sched;

    const bool inVf = io.vf(in);
    const bool outVf = routed && inVf;
    io.setVf(out, outVf);
    if (outVf) {
      if (!memoValid_ || !io.dataEquals(in, memoIn_)) {
        memoIn_ = io.data(in);
        memoOut_ = fn_(memoIn_);
        ESL_CHECK(memoOut_.width() == outWidth_,
                  "SharedModule '" + name() + "': function returned wrong width");
        memoValid_ = true;
      }
      io.setData(out, memoOut_);
    }

    // Anti-tokens pass straight through the controller (Fig. 4b): the module
    // is combinational, so the token seen at out_i *is* the token at in_i and
    // a kill annihilates it at both channel views at once.
    const bool anti = io.vb(out);
    io.setVb(in, anti);
    io.setSb(out, !inVf && io.sb(in));

    // Routed channel sees the downstream stop; others are stopped unless
    // being killed ("stops the other channel (unless it is killed)").
    io.setSf(in, !anti && (routed ? io.sf(out) : true));
  }
}

template <class Io>
inline void SharedModule::edge(Io& io, bool applyStats) {
  // comb ran (at least once) on the settled signals, so lastPrediction_ is
  // the settled prediction; predict() is pure, no need to recompute it.
  sched::Observation& obs = obsScratch_;
  obs.predicted = lastPrediction_;
  obs.valid.resize(channels_);
  obs.demand.resize(channels_);
  obs.served.resize(channels_);
  obs.killed.resize(channels_);
  bool anyDemand = false;
  for (unsigned i = 0; i < channels_; ++i) {
    const PortEvents in = io.events(io.in(i));
    const PortEvents out = io.events(io.out(i));
    obs.valid[i] = in.vf;
    obs.demand[i] = out.sf && !out.vf;  // selected-but-empty at the EE mux
    obs.served[i] = out.fwd;
    obs.killed[i] = in.kill;
    if (out.fwd && applyStats) ++served_[i];
    anyDemand = anyDemand || obs.demand[i];
  }
  if (anyDemand && applyStats) ++demandCycles_;
  scheduler_->observe(obs);
}

}  // namespace esl
