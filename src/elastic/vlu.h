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

#include "elastic/board_io.h"
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

  /// Cycle semantics over a port-accessor policy (elastic/board_io.h), shared
  /// by evalComb/clockEdge and the compiled VM. `applyStats == false` (the
  /// compiled edge audit's replay) leaves the statistics alone.
  template <class Io>
  static void comb(Io& io, const std::uint64_t* s);
  template <class Io>
  void edge(Io& io, std::uint64_t* s, bool applyStats);

 private:
  // Arena record: [kFlags] kPending | kResult, then the operand needing its
  // second cycle (from kPendingOff) and the completed result awaiting
  // transfer (from resultOff(), past the operand's payload words).
  static constexpr std::uint32_t kFlags = 0;
  static constexpr std::uint32_t kPendingOff = 1;
  static constexpr std::uint64_t kPending = 1;
  static constexpr std::uint64_t kResult = 2;
  static std::uint32_t resultOff(unsigned inWords) { return kPendingOff + inWords; }
  std::uint32_t resultOff() const { return resultOff(payloadWords(inWidth_)); }

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

template <class Io>
inline void StallingVLU::comb(Io& io, const std::uint64_t* s) {
  const auto& in = io.in(0);
  const auto& out = io.out(0);

  const bool haveResult = (s[kFlags] & kResult) != 0;
  io.setVf(out, haveResult);
  if (haveResult) io.setDataRecord(out, s + resultOff(io.payloadWords(in)));
  io.setSb(out, !haveResult);  // anti-token consumed only against a result

  const bool leave = haveResult && (!io.sf(out) || io.vb(out));
  const bool canAccept = (s[kFlags] & kPending) == 0 && (!haveResult || leave);
  io.setSf(in, !canAccept);
  io.setVb(in, false);
}

template <class Io>
inline void StallingVLU::edge(Io& io, std::uint64_t* s, bool applyStats) {
  const auto& inPort = io.in(0);
  const auto& outPort = io.out(0);
  const PortEvents in = io.events(inPort);
  const PortEvents out = io.events(outPort);
  bool hasPending = (s[kFlags] & kPending) != 0;
  bool hasResult = (s[kFlags] & kResult) != 0;

  if (out.kill || out.fwd) {
    if (out.fwd && applyStats) ++completed_;
    hasResult = false;
  }

  if (hasPending || in.fwd) {
    const unsigned inW = io.width(inPort);
    const unsigned outW = io.width(outPort);
    std::uint64_t* result = s + resultOff(io.payloadWords(inPort));
    if (hasPending) {
      // Second cycle of a mispredicted operand: F_exact finishes the job.
      ESL_ASSERT(!hasResult);
      storePayload(result, exact_(loadPayload(s + kPendingOff, inW)), outW);
      hasResult = true;
      hasPending = false;
    } else {
      const BitVec x = io.data(inPort);
      if (err_(x)) {
        storePayload(s + kPendingOff, x, inW);  // bubble, sender stalled
        hasPending = true;
        if (applyStats) ++stalls_;
      } else {
        // approx == exact when no error is flagged
        storePayload(result, exact_(x), outW);
        hasResult = true;
      }
    }
  }
  s[kFlags] = (hasPending ? kPending : 0) | (hasResult ? kResult : 0);
}

}  // namespace esl
