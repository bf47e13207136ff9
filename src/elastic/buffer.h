// Elastic buffers (paper §3.2, Figs. 2/3/5).
//
// Behavioural model of the abstract elastic FIFO of Fig. 3: a buffer holds a
// signed occupancy k — tokens when k>0 (with their data, in order), stored
// anti-tokens when k<0 — and tokens/anti-tokens cancel at its boundaries.
//
// * ElasticBuffer: forward latency Lf=1, backward latency Lb=1, capacity C
//   (default 2 = Lf+Lb, the latch implementation of Fig. 2a). The stop to the
//   sender is a function of state only, which is exactly what gives it one
//   cycle of backward latency.
// * ElasticBuffer0: the Fig. 5 variant with Lb=0, C=1 — stop and kill travel
//   combinationally through the controller, so anti-tokens "rush" backwards
//   within the cycle (§4.3).
// * BrokenBuffer: capacity 1 with the *registered* stop of an Lb=1 design,
//   violating C >= Lf+Lb; it loses tokens under back-pressure. Used by the
//   verification tests to show the checker catches the §3.2 capacity theorem.
#pragma once

#include <optional>

#include "elastic/context.h"
#include "elastic/node.h"

namespace esl {

class ElasticBuffer : public Node {
 public:
  /// `initTokens.size()` tokens initially stored (<= capacity); an EB with one
  /// token behaves like a conventional flip-flop stage, an empty EB is a bubble.
  ElasticBuffer(std::string name, unsigned width, unsigned capacity = 2,
                std::vector<BitVec> initTokens = {}, unsigned antiCapacity = 2,
                int initAntiTokens = 0);

  void evalComb(SimContext& ctx) override;
  EvalPurity evalPurity() const override { return EvalPurity::kStateDriven; }
  /// Tokens enter/leave and anti-tokens cancel only on channel events.
  EdgeActivity edgeActivity() const override { return EdgeActivity::kOnEvents; }
  void clockEdge(SimContext& ctx) override;
  std::uint32_t stateWords() const override {
    return kRing + capacity_ * payloadWords(width_);
  }
  void resetRecord(std::uint64_t* s) const override;
  void packRecord(const std::uint64_t* s, StateWriter& w) const override;
  void unpackRecord(std::uint64_t* s, StateReader& r) const override;
  logic::Cost cost() const override;
  void timing(TimingModel& m) const override;
  void flowEdges(std::vector<FlowEdge>& out) const override;
  Persistence outputPersistence(unsigned) const override {
    return Persistence::kPersistent;
  }
  std::string kindName() const override { return "eb"; }

  unsigned width() const { return width_; }
  unsigned capacity() const { return capacity_; }
  unsigned antiCapacity() const { return antiCapacity_; }
  const std::vector<BitVec>& initTokens() const { return init_; }
  int initAntiTokens() const { return initAnti_; }
  /// Current token count in `ctx` (negative = stored anti-tokens).
  int occupancy(const SimContext& ctx) const;

 private:
  friend class compile::Vm;

  // Arena record: [kHeadCount] ring head | token count << 32, [kAnti] stored
  // anti-tokens (two's complement), then the FIFO as a fixed ring of
  // `capacity_` payload slots from kRing on — pushes and pops are index
  // arithmetic plus a payload store.
  static constexpr std::uint32_t kHeadCount = 0;
  static constexpr std::uint32_t kAnti = 1;
  static constexpr std::uint32_t kRing = 2;
  /// Record offset of ring slot i.
  std::uint32_t ringOff(std::uint32_t i) const {
    return kRing + i * payloadWords(width_);
  }

  unsigned width_;
  unsigned capacity_;
  unsigned antiCapacity_;
  std::vector<BitVec> init_;
  int initAnti_;
};

class ElasticBuffer0 : public Node {
 public:
  ElasticBuffer0(std::string name, unsigned width,
                 std::optional<BitVec> initToken = std::nullopt);

  void evalComb(SimContext& ctx) override;
  EvalPurity evalPurity() const override { return EvalPurity::kStateful; }
  /// The slot fills/empties only on channel events (kills at the input
  /// boundary annihilate on the channel and never touch the slot).
  EdgeActivity edgeActivity() const override { return EdgeActivity::kOnEvents; }
  void clockEdge(SimContext& ctx) override;
  std::uint32_t stateWords() const override { return kSlot + payloadWords(width_); }
  void resetRecord(std::uint64_t* s) const override;
  void packRecord(const std::uint64_t* s, StateWriter& w) const override;
  void unpackRecord(std::uint64_t* s, StateReader& r) const override;
  logic::Cost cost() const override;
  void timing(TimingModel& m) const override;
  void flowEdges(std::vector<FlowEdge>& out) const override;
  Persistence outputPersistence(unsigned) const override {
    return Persistence::kPersistent;
  }
  std::string kindName() const override { return "eb0"; }

  unsigned width() const { return width_; }
  const std::optional<BitVec>& initToken() const { return init_; }

 private:
  friend class compile::Vm;

  // Arena record: [kFull] slot occupied, then the slot's payload.
  static constexpr std::uint32_t kFull = 0;
  static constexpr std::uint32_t kSlot = 1;

  unsigned width_;
  std::optional<BitVec> init_;
};

class BrokenBuffer : public Node {
 public:
  BrokenBuffer(std::string name, unsigned width);

  void evalComb(SimContext& ctx) override;
  EvalPurity evalPurity() const override { return EvalPurity::kStateDriven; }
  void clockEdge(SimContext& ctx) override;
  std::uint32_t stateWords() const override { return kSlot + payloadWords(width_); }
  void packRecord(const std::uint64_t* s, StateWriter& w) const override;
  void unpackRecord(std::uint64_t* s, StateReader& r) const override;
  Persistence outputPersistence(unsigned) const override {
    return Persistence::kPersistent;
  }
  std::string kindName() const override { return "broken-eb"; }

 private:
  friend class compile::Vm;

  // Arena record: [kFlags] slot occupied | stop register << 1 (the bug: S+ to
  // the sender lags the state by a cycle), then the slot's payload.
  static constexpr std::uint32_t kFlags = 0;
  static constexpr std::uint32_t kSlot = 1;
  static constexpr std::uint64_t kFull = 1;
  static constexpr std::uint64_t kStopReg = 2;

  unsigned width_;
};

}  // namespace esl
