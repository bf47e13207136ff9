// FuncNode: combinational function block with lazy-join elastic semantics.
//
// A conventional elastic block waits for *all* inputs before computing
// (paper §1); the node fires when every input carries a token and the output
// is consumed (transferred or killed). Anti-tokens arriving at the output
// back-propagate atomically into all inputs — the dual-network counterflow of
// [Cortadella & Kishinevsky, DAC'07] — cancelling one whole would-be firing.
//
// FuncNode is stateless (forward latency 0); pipelining comes from explicit
// elastic buffers around it.
#pragma once

#include <functional>
#include <vector>

#include "elastic/board_io.h"
#include "elastic/node.h"

namespace esl {

/// Pure combinational function over the settled input payloads.
using CombFn = std::function<BitVec(const std::vector<BitVec>&)>;

class FuncNode : public Node {
 public:
  FuncNode(std::string name, std::vector<unsigned> inputWidths, unsigned outputWidth,
           CombFn fn, logic::Cost datapathCost = {1.0, 1.0});

  void evalComb(SimContext& ctx) override;
  /// Stateless join (firings_ is edge-only), so fully signal-determined.
  EvalPurity evalPurity() const override { return EvalPurity::kCombPure; }
  /// Only the firing counter advances, on the output transfer event.
  EdgeActivity edgeActivity() const override { return EdgeActivity::kOnEvents; }
  void clockEdge(SimContext& ctx) override;
  logic::Cost cost() const override;
  void timing(TimingModel& m) const override;
  std::string kindName() const override { return "func"; }

  const CombFn& fn() const { return fn_; }
  logic::Cost datapathCost() const { return datapathCost_; }

  /// Structural role tag used by the transformation kit: makeJoinMux tags its
  /// nodes "mux" so Shannon decomposition / early-eval conversion can check
  /// preconditions without introspecting the lambda.
  const std::string& role() const { return role_; }
  void setRole(std::string role) { role_ = std::move(role); }

  /// Forward transfers completed at the output (simulation statistic).
  std::uint64_t firings() const { return firings_; }

  /// Cycle semantics over a port-accessor policy (elastic/board_io.h), shared
  /// by evalComb/clockEdge and the compiled VM. `wordPath(out)` may write
  /// the output payload itself and return true (the compiled word datapath
  /// of catalog `fn=` functions); otherwise the memoized fn_ computes it.
  template <class Io, class WordPath>
  void comb(Io& io, WordPath&& wordPath);
  template <class Io>
  void edge(Io& io, bool applyStats) {
    if (io.events(io.out(0)).fwd && applyStats) ++firings_;
  }

 private:
  CombFn fn_;
  logic::Cost datapathCost_;
  std::string role_;
  std::uint64_t firings_ = 0;

  /// fn_ over the settled input payloads, through the memo below.
  template <class Io>
  const BitVec& apply(Io& io) {
    const unsigned n = io.numIn();
    bool hit = memoValid_;
    for (unsigned i = 0; hit && i < n; ++i)
      hit = io.dataEquals(io.in(i), memoArgs_[i]);
    if (!hit) {
      memoArgs_.resize(n);
      for (unsigned i = 0; i < n; ++i) memoArgs_[i] = io.data(io.in(i));
      memoOut_ = fn_(memoArgs_);
      ESL_CHECK(memoOut_.width() == outputWidth(0),
                "FuncNode '" + name() + "': function returned wrong width");
      memoValid_ = true;
    }
    return memoOut_;
  }

  // Size-1 memo of the last datapath computation. fn_ is pure, so replaying
  // it on identical operands is pure waste — and both settle kernels replay a
  // lot (the sweep on every iteration, retried tokens on every cycle).
  bool memoValid_ = false;
  std::vector<BitVec> memoArgs_;
  BitVec memoOut_;
};

template <class Io, class WordPath>
inline void FuncNode::comb(Io& io, WordPath&& wordPath) {
  const unsigned n = io.numIn();
  const auto& out = io.out(0);

  bool allIn = true;
  for (unsigned i = 0; i < n; ++i) allIn = allIn && io.vf(io.in(i));

  io.setVf(out, allIn);
  if (allIn && !wordPath(out)) io.setData(out, apply(io));

  // Output consumed this cycle: normal transfer or annihilated by an
  // anti-token at the output channel.
  const bool outVb = io.vb(out);
  const bool fire = allIn && (!io.sf(out) || outVb);

  // Counterflow: an anti-token at the output propagates to all inputs
  // atomically when each input channel can absorb it this cycle (by killing
  // its token or moving the anti-token further upstream).
  bool allCan = true;
  for (unsigned i = 0; i < n; ++i) {
    const auto& in = io.in(i);
    allCan = allCan && (io.vf(in) || !io.sb(in));
  }
  const bool back = outVb && !allIn && allCan;

  for (unsigned i = 0; i < n; ++i) {
    const auto& in = io.in(i);
    io.setVb(in, back);
    io.setSf(in, !fire && !back);
  }
  io.setSb(out, !allIn && !allCan);
}

/// Identity function block (a named wire with join semantics).
FuncNode& makeWire(class Netlist& nl, std::string name, unsigned width,
                   logic::Cost cost = {0.0, 0.0});

/// Unary function block from a BitVec->BitVec lambda.
FuncNode& makeUnary(class Netlist& nl, std::string name, unsigned inWidth,
                    unsigned outWidth, std::function<BitVec(const BitVec&)> fn,
                    logic::Cost cost = {1.0, 1.0});

/// Binary function block.
FuncNode& makeBinary(class Netlist& nl, std::string name, unsigned aWidth,
                     unsigned bWidth, unsigned outWidth,
                     std::function<BitVec(const BitVec&, const BitVec&)> fn,
                     logic::Cost cost = {1.0, 1.0});

/// Conventional (non-early) multiplexer: a FuncNode that joins the select
/// channel (input 0) with all data channels and picks the selected payload.
/// This is the mux of Fig. 1(a)-(c) before early-evaluation conversion.
FuncNode& makeJoinMux(class Netlist& nl, std::string name, unsigned dataInputs,
                      unsigned selWidth, unsigned width);

}  // namespace esl
