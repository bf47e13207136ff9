// Environment nodes: token sources and sinks.
//
// Sources/sinks close a netlist for simulation and verification. They follow
// the SELF protocol faithfully: offered tokens persist until consumed
// (Retry+), emitted anti-tokens persist until delivered (Retry-), and sources
// absorb anti-tokens by cancelling the corresponding upcoming token — which is
// exactly what the open-system trace of Table 1 requires.
//
// Nondet* variants consume per-cycle choice bits so the model checker can
// quantify over all environments; their "fair" parameters bound consecutive
// refusals to keep liveness checkable (bounded fairness, DESIGN.md §5).
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "elastic/context.h"
#include "elastic/node.h"

namespace esl {

/// Produces the token stream `gen(0), gen(1), ...` (ended by nullopt).
/// `gate(cycle)` controls when the *next* token may first be offered.
class TokenSource : public Node {
 public:
  using Generator = std::function<std::optional<BitVec>(std::uint64_t index)>;
  using Gate = std::function<bool(std::uint64_t cycle)>;

  TokenSource(std::string name, unsigned width, Generator gen, Gate gate = {});

  /// Convenience: a fixed list of values offered back-to-back.
  static Generator listOf(std::vector<std::uint64_t> values, unsigned width);
  /// Convenience: endless stream counting up from `start`.
  static Generator counting(unsigned width, std::uint64_t start = 0);

  void reset() override;
  void evalComb(SimContext& ctx) override;
  EvalPurity evalPurity() const override { return EvalPurity::kStateDriven; }
  /// Ungated sources only advance on output events (an owed kill is consumed
  /// at the edge of the backward-transfer cycle that created it); a gate makes
  /// the offer decision a function of the cycle counter.
  EdgeActivity edgeActivity() const override {
    return gate_ ? EdgeActivity::kEveryCycle : EdgeActivity::kOnEvents;
  }
  void clockEdge(SimContext& ctx) override;
  std::uint32_t stateWords() const override { return 2; }
  void resetRecord(std::uint64_t* s) const override;
  void packRecord(const std::uint64_t* s, StateWriter& w) const override;
  void unpackRecord(std::uint64_t* s, StateReader& r) const override;
  void timing(TimingModel& m) const override;
  Persistence outputPersistence(unsigned) const override {
    return Persistence::kPersistent;
  }
  std::string kindName() const override { return "source"; }

  std::uint64_t emitted() const { return emitted_; }
  std::uint64_t killed() const { return killedCount_; }

 private:
  friend class compile::Vm;

  std::optional<BitVec> tokenAt(std::uint64_t index) const;

  // Arena record: [kIndex] stream index of the next token, [kOffer] offering
  // | owed kills (absorbed anti-tokens) << 32.
  static constexpr std::uint32_t kIndex = 0;
  static constexpr std::uint32_t kOffer = 1;

  unsigned width_;
  Generator gen_;
  Gate gate_;

  std::uint64_t emitted_ = 0;
  std::uint64_t killedCount_ = 0;

  // Size-1 memo of gen_(index): the stream is a pure function of the index,
  // and a stalled token would otherwise be regenerated on every evaluation.
  mutable bool memoValid_ = false;
  mutable std::uint64_t memoIndex_ = 0;
  mutable std::optional<BitVec> memoTok_;
};

/// Consumes tokens; readiness controlled by `ready(cycle)`; can inject a
/// budget of anti-tokens upstream (`antiBudget` released by `antiGate`).
/// Records the transfer stream — the observable behaviour for transfer
/// equivalence (paper §3.1).
class TokenSink : public Node {
 public:
  using Gate = std::function<bool(std::uint64_t cycle)>;

  TokenSink(std::string name, unsigned width, Gate ready = {},
            unsigned antiBudget = 0, Gate antiGate = {});

  void reset() override;
  void evalComb(SimContext& ctx) override;
  EvalPurity evalPurity() const override { return EvalPurity::kStateDriven; }
  /// Records transfers and resolves its own anti-tokens, all channel events —
  /// except the anti gate, which opens as a function of the cycle counter.
  EdgeActivity edgeActivity() const override {
    return antiGate_ ? EdgeActivity::kEveryCycle : EdgeActivity::kOnEvents;
  }
  /// The readiness and anti gates read the cycle counter inside evalComb.
  bool evalReadsPerCycleInputs() const override {
    return static_cast<bool>(ready_) || static_cast<bool>(antiGate_);
  }
  void clockEdge(SimContext& ctx) override;
  std::uint32_t stateWords() const override { return 1; }
  void resetRecord(std::uint64_t* s) const override;
  void packRecord(const std::uint64_t* s, StateWriter& w) const override;
  void unpackRecord(std::uint64_t* s, StateReader& r) const override;
  void timing(TimingModel& m) const override;
  std::string kindName() const override { return "sink"; }

  struct Transfer {
    std::uint64_t cycle;
    BitVec data;
  };
  const std::vector<Transfer>& transfers() const { return transfers_; }
  std::uint64_t received() const { return transfers_.size(); }

  /// True when behaviour depends on gate closures (then the sink can only be
  /// serialized if it was built from a registry gate spec).
  bool hasGates() const {
    return static_cast<bool>(ready_) || static_cast<bool>(antiGate_);
  }
  unsigned antiBudget() const { return antiBudget_; }

 private:
  friend class compile::Vm;

  // Arena record: [kAnti] anti-token in flight (Retry-) | anti-tokens left
  // in the budget << 32.
  static constexpr std::uint32_t kAnti = 0;

  unsigned width_;
  Gate ready_;
  Gate antiGate_;
  unsigned antiBudget_;

  std::vector<Transfer> transfers_;
};

/// Verification source: nondeterministically offers tokens (1 choice bit) and
/// optionally picks the low `dataBits` of the payload nondeterministically
/// (one extra choice bit each; the value persists while the token retries).
/// Bounded anti-token absorption (killCredit capped, back-pressured via S-).
/// Bounded-fair: after `maxIdle` consecutive refusals an offer is forced, so
/// liveness properties are checkable (DESIGN.md §5).
class NondetSource : public Node {
 public:
  NondetSource(std::string name, unsigned width, unsigned killCreditCap = 2,
               unsigned dataBits = 0, unsigned maxIdle = 2);

  void evalComb(SimContext& ctx) override;
  EvalPurity evalPurity() const override { return EvalPurity::kStateDriven; }
  void clockEdge(SimContext& ctx) override;
  std::uint32_t stateWords() const override { return kValue + payloadWords(width_); }
  void packRecord(const std::uint64_t* s, StateWriter& w) const override;
  void unpackRecord(std::uint64_t* s, StateReader& r) const override;
  unsigned choiceCount() const override { return 1 + dataBits_; }
  Persistence outputPersistence(unsigned) const override {
    return Persistence::kPersistent;
  }
  std::string kindName() const override { return "nondet-source"; }

  unsigned width() const { return width_; }
  unsigned killCreditCap() const { return cap_; }
  unsigned dataBits() const { return dataBits_; }
  unsigned maxIdle() const { return maxIdle_; }

 private:
  friend class compile::Vm;

  bool offeringNow(SimContext& ctx, const std::uint64_t* s) const;
  BitVec valueNow(SimContext& ctx, const std::uint64_t* s) const;

  // Arena record: [kOffer] token held (Retry+), [kCredit] owed kills | idle
  // streak << 32, then the held token's payload (zero when not held).
  static constexpr std::uint32_t kOffer = 0;
  static constexpr std::uint32_t kCredit = 1;
  static constexpr std::uint32_t kValue = 2;

  unsigned width_;
  unsigned cap_;
  unsigned dataBits_;
  unsigned maxIdle_;
};

/// Verification sink: nondeterministically stops (1 choice bit), but at most
/// `maxConsecutiveStops` cycles in a row (bounded fairness). Optionally also
/// nondeterministically emits anti-tokens (second choice bit).
class NondetSink : public Node {
 public:
  NondetSink(std::string name, unsigned width, unsigned maxConsecutiveStops = 2,
             bool emitsAntiTokens = false);

  void evalComb(SimContext& ctx) override;
  EvalPurity evalPurity() const override { return EvalPurity::kStateDriven; }
  void clockEdge(SimContext& ctx) override;
  std::uint32_t stateWords() const override { return 1; }
  void packRecord(const std::uint64_t* s, StateWriter& w) const override;
  void unpackRecord(std::uint64_t* s, StateReader& r) const override;
  unsigned choiceCount() const override { return emitsAnti_ ? 2u : 1u; }
  std::string kindName() const override { return "nondet-sink"; }

  unsigned width() const { return width_; }
  unsigned maxConsecutiveStops() const { return maxStops_; }
  bool emitsAntiTokens() const { return emitsAnti_; }

 private:
  friend class compile::Vm;

  bool stopNow(SimContext& ctx, const std::uint64_t* s) const;
  bool antiNow(SimContext& ctx, const std::uint64_t* s) const;

  // Arena record: [kStops] anti-token in flight (Retry-) | consecutive stops
  // << 32.
  static constexpr std::uint32_t kStops = 0;

  unsigned width_;
  unsigned maxStops_;
  bool emitsAnti_;
};

}  // namespace esl
