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

#include "elastic/board_io.h"
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

  /// Cycle semantics over a port-accessor policy (elastic/board_io.h), shared
  /// by evalComb/clockEdge and the compiled VM. `cap`/`antiCap` are
  /// capacity()/antiCapacity().
  template <class Io>
  static void comb(Io& io, const std::uint64_t* s, std::uint32_t cap,
                   std::uint32_t antiCap);
  template <class Io>
  static void edge(Io& io, std::uint64_t* s, std::uint32_t cap);

 private:
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

  template <class Io>
  static void comb(Io& io, const std::uint64_t* s);
  template <class Io>
  static void edge(Io& io, std::uint64_t* s);

 private:
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

  template <class Io>
  static void comb(Io& io, const std::uint64_t* s);
  template <class Io>
  static void edge(Io& io, std::uint64_t* s);

 private:
  // Arena record: [kFlags] slot occupied | stop register << 1 (the bug: S+ to
  // the sender lags the state by a cycle), then the slot's payload.
  static constexpr std::uint32_t kFlags = 0;
  static constexpr std::uint32_t kSlot = 1;
  static constexpr std::uint64_t kFull = 1;
  static constexpr std::uint64_t kStopReg = 2;

  unsigned width_;
};

// ---------------------------------------------------------------------------
// ElasticBuffer (Lf=1, Lb=1, C=cap)
// ---------------------------------------------------------------------------

template <class Io>
inline void ElasticBuffer::comb(Io& io, const std::uint64_t* s, std::uint32_t cap,
                                std::uint32_t antiCap) {
  const auto& in = io.in(0);
  const auto& out = io.out(0);
  const std::int64_t count = hi32(s[kHeadCount]);
  const auto anti = static_cast<std::int64_t>(s[kAnti]);

  const bool hasTok = count > 0;
  // Producer side of the output channel: the head token.
  io.setVf(out, hasTok);
  if (hasTok)
    io.setDataRecord(out, s + kRing + lo32(s[kHeadCount]) * io.payloadWords(out));
  // Anti-tokens from downstream are consumed by killing the head token when
  // one exists; otherwise they are stored, subject to the anti capacity.
  io.setSb(out, !hasTok && anti >= antiCap);

  // Consumer side of the input channel. The stop is a function of state only,
  // which realizes Lb=1 (the sender learns about congestion a cycle late; the
  // spare capacity slot absorbs the in-flight token, hence C >= Lf+Lb).
  io.setSf(in, count - anti >= cap);
  // Stored anti-tokens travel upstream (active anti-tokens).
  io.setVb(in, anti > 0);
}

template <class Io>
inline void ElasticBuffer::edge(Io& io, std::uint64_t* s, std::uint32_t cap) {
  const auto& inPort = io.in(0);
  const PortEvents in = io.events(inPort);
  const PortEvents out = io.events(io.out(0));
  std::uint32_t head = lo32(s[kHeadCount]);
  std::uint32_t count = hi32(s[kHeadCount]);
  auto anti = static_cast<std::int64_t>(s[kAnti]);
  const auto pop = [&] {
    head = head + 1 == cap ? 0 : head + 1;
    --count;
  };

  // Output-side events first (free the head slot before accepting).
  if (out.kill || out.fwd) {
    ESL_ASSERT(count > 0);
    pop();
  } else if (out.bwd) {
    ESL_ASSERT(count == 0);
    ++anti;
  }

  // Input-side events. The payload is only read on an actual transfer.
  if (in.kill) {
    ESL_ASSERT(anti > 0);  // we asserted in.vb
    --anti;
  } else if (in.fwd) {
    std::uint32_t tail = head + count;
    if (tail >= cap) tail -= cap;
    io.storeData(inPort, s + kRing + tail * io.payloadWords(inPort));
    ++count;
    ESL_ASSERT(count <= cap);
  } else if (in.bwd) {
    ESL_ASSERT(anti > 0);
    --anti;
  }

  // Tokens and anti-tokens cancel inside the buffer (Fig. 3: "which cancel
  // each other at the boundaries of the EB"). This arises when a token enters
  // through the input in the same cycle an anti-token enters via the output.
  while (count > 0 && anti > 0) {
    pop();
    --anti;
  }
  ESL_ASSERT(count == 0 || anti == 0);
  s[kHeadCount] = pack32(head, count);
  s[kAnti] = static_cast<std::uint64_t>(anti);
}

// ---------------------------------------------------------------------------
// ElasticBuffer0 (Lf=1, Lb=0, C=1) — Fig. 5
// ---------------------------------------------------------------------------

template <class Io>
void ElasticBuffer0::comb(Io& io, const std::uint64_t* s) {
  const auto& in = io.in(0);
  const auto& out = io.out(0);
  const bool full = s[kFull] != 0;
  io.setVf(out, full);
  if (full) io.setDataRecord(out, s + kSlot);

  // Head leaves this cycle if transferred or killed — computed from the
  // downstream signals, so the stop to the sender is combinational (Lb=0).
  const bool leave = full && (!io.sf(out) || io.vb(out));
  io.setSf(in, full && !leave);

  // Anti-tokens rush through combinationally when the buffer is empty.
  io.setVb(in, !full && io.vb(out));
  // The anti-token is consumed by killing our token, by killing the incoming
  // token at the input boundary, or by moving further upstream.
  io.setSb(out, !full && !io.vf(in) && io.sb(in));
}

template <class Io>
void ElasticBuffer0::edge(Io& io, std::uint64_t* s) {
  const auto& inPort = io.in(0);
  const PortEvents in = io.events(inPort);
  const PortEvents out = io.events(io.out(0));
  if (out.kill || out.fwd) s[kFull] = 0;
  if (in.fwd) {
    ESL_ASSERT(s[kFull] == 0);
    s[kFull] = 1;
    io.storeData(inPort, s + kSlot);
  }
}

// ---------------------------------------------------------------------------
// BrokenBuffer — violates C >= Lf + Lb
// ---------------------------------------------------------------------------

template <class Io>
inline void BrokenBuffer::comb(Io& io, const std::uint64_t* s) {
  const auto& in = io.in(0);
  const auto& out = io.out(0);
  const bool full = (s[kFlags] & kFull) != 0;
  io.setVf(out, full);
  if (full) io.setDataRecord(out, s + kSlot);
  io.setSb(out, true);  // no anti-token support
  // BUG: one cycle stale — the sender overruns the slot.
  io.setSf(in, (s[kFlags] & kStopReg) != 0);
  io.setVb(in, false);
}

template <class Io>
inline void BrokenBuffer::edge(Io& io, std::uint64_t* s) {
  const auto& inPort = io.in(0);
  const PortEvents in = io.events(inPort);
  const PortEvents out = io.events(io.out(0));
  // The Lb=1 stop reflects the occupancy *before* this edge, so the sender
  // learns about a fill one cycle late — with C=1 there is no slack slot to
  // absorb the in-flight token (paper §3.2: the C >= Lf+Lb scenario).
  bool full = (s[kFlags] & kFull) != 0;
  const bool stopReg = full;
  if (out.fwd) full = false;
  if (in.fwd) {  // may overwrite a live token
    full = true;
    io.storeData(inPort, s + kSlot);
  }
  s[kFlags] = (full ? kFull : 0) | (stopReg ? kStopReg : 0);
}

}  // namespace esl
