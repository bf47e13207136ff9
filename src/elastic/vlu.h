// Stalling variable-latency unit (paper §5.1, Fig. 6a).
//
// Computes F in 1 cycle when the approximate result is correct and in 2
// cycles otherwise: the error detector F_err gates the elastic controller
// directly — on error the unit inserts a bubble into the receiver channel,
// stalls the sender, and finishes with F_exact the next cycle. This is the
// baseline the speculative design of Fig. 6(b) is compared against; its
// defining weakness is the combinational path F_err -> global controller
// gating, which the timing model charges via controlGatingCost().
#pragma once

#include "elastic/context.h"
#include "elastic/node.h"

namespace esl {

class StallingVLU : public Node {
 public:
  using UnaryFn = std::function<BitVec(const BitVec&)>;
  using ErrFn = std::function<bool(const BitVec&)>;

  /// `exact` is the golden function; `err(x)` is true when the approximate
  /// unit would be wrong for operand x (the telescopic hold predictor).
  StallingVLU(std::string name, unsigned inWidth, unsigned outWidth, UnaryFn exact,
              ErrFn err, logic::Cost approxCost, logic::Cost exactCost,
              logic::Cost errCost);

  void reset() override;
  void evalComb(SimContext& ctx) override;
  EvalPurity evalPurity() const override { return EvalPurity::kStateful; }
  void clockEdge(SimContext& ctx) override;
  std::uint32_t stateWords() const override {
    return resultOff() + payloadWords(outWidth_);
  }
  void packRecord(const std::uint64_t* s, StateWriter& w) const override;
  void unpackRecord(std::uint64_t* s, StateReader& r) const override;
  logic::Cost cost() const override;
  void timing(TimingModel& m) const override;
  void flowEdges(std::vector<FlowEdge>& out) const override;
  Persistence outputPersistence(unsigned) const override {
    return Persistence::kPersistent;
  }
  std::string kindName() const override { return "stalling-vlu"; }

  std::uint64_t completed() const { return completed_; }
  std::uint64_t stalls() const { return stalls_; }

 private:
  friend class compile::Vm;

  // Arena record: [kFlags] kPending | kResult, then the operand needing its
  // second cycle (from kPendingOff) and the completed result awaiting
  // transfer (from resultOff()).
  static constexpr std::uint32_t kFlags = 0;
  static constexpr std::uint32_t kPendingOff = 1;
  static constexpr std::uint64_t kPending = 1;
  static constexpr std::uint64_t kResult = 2;
  std::uint32_t resultOff() const { return kPendingOff + payloadWords(inWidth_); }

  unsigned inWidth_;
  unsigned outWidth_;
  UnaryFn exact_;
  ErrFn err_;
  logic::Cost approxCost_;
  logic::Cost exactCost_;
  logic::Cost errCost_;

  std::uint64_t completed_ = 0;
  std::uint64_t stalls_ = 0;
};

}  // namespace esl
