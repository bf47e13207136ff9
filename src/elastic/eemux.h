// Early-evaluation multiplexer (paper §1, §2, §4; [7] token counterflow).
//
// Logically a join over (select, data_0..data_n-1) — every firing consumes one
// token from *every* input — but it fires early: as soon as the select token
// and the *selected* data token are present. The obligation to consume the
// non-selected tokens is discharged by emitting anti-tokens into every
// non-selected input, combinationally in the firing cycle (this is what
// Table 1 shows at cycle 0); a pending counter per input provides Retry-
// persistence when an anti-token cannot be delivered at once.
//
// Misprediction demand: when the select token points at an input that carries
// no token, the mux asserts S+ on that (empty) input. The shared module
// reports this "selected-but-empty" stop to its scheduler, which corrects the
// prediction — the mechanism behind eq. (1)'s `sel = i ∧ S+_outi` term.
//
// Port map: input 0 = select channel; inputs 1..n = data channels; output 0.
#pragma once

#include <vector>

#include "elastic/context.h"
#include "elastic/node.h"

namespace esl {

class EarlyEvalMux : public Node {
 public:
  EarlyEvalMux(std::string name, unsigned dataInputs, unsigned selWidth,
               unsigned width);

  void evalComb(SimContext& ctx) override;
  EvalPurity evalPurity() const override { return EvalPurity::kStateful; }
  /// Pending anti-tokens grow only on firings (output transfer/kill events)
  /// and shrink only on input kill/backward-transfer events.
  EdgeActivity edgeActivity() const override { return EdgeActivity::kOnEvents; }
  void clockEdge(SimContext& ctx) override;
  /// Arena record: word i counts the anti-tokens still owed to data input i.
  std::uint32_t stateWords() const override { return dataInputs_; }
  void packRecord(const std::uint64_t* s, StateWriter& w) const override;
  void unpackRecord(std::uint64_t* s, StateReader& r) const override;
  logic::Cost cost() const override;
  void timing(TimingModel& m) const override;
  std::string kindName() const override { return "ee-mux"; }

  unsigned dataInputs() const { return dataInputs_; }
  ChannelId selectChannel() const { return input(0); }
  ChannelId dataChannel(unsigned i) const { return input(1 + i); }

  /// Completed firings (forward transfers at the output).
  std::uint64_t firings() const { return firings_; }
  /// Anti-tokens emitted in total.
  std::uint64_t antiTokensEmitted() const { return antiEmitted_; }

 private:
  friend class compile::Vm;

  struct CombView {
    bool selValid = false;
    unsigned selIdx = 0;
    bool fire = false;
  };
  CombView view(SimContext& ctx, const std::uint64_t* s) const;
  /// Anti-tokens input i owes this cycle: pending plus this firing's.
  static std::uint64_t antiAvail(const CombView& v, const std::uint64_t* s,
                                 unsigned i) {
    return s[i] + ((v.fire && i != v.selIdx) ? 1u : 0u);
  }

  unsigned dataInputs_;
  unsigned width_;
  std::uint64_t firings_ = 0;
  std::uint64_t antiEmitted_ = 0;
};

}  // namespace esl
