#include "elastic/buffer.h"

namespace esl {

// ---------------------------------------------------------------------------
// ElasticBuffer (Lf=1, Lb=1, C=capacity)
// ---------------------------------------------------------------------------

ElasticBuffer::ElasticBuffer(std::string name, unsigned width, unsigned capacity,
                             std::vector<BitVec> initTokens, unsigned antiCapacity,
                             int initAntiTokens)
    : Node(std::move(name)),
      width_(width),
      capacity_(capacity),
      antiCapacity_(antiCapacity),
      init_(std::move(initTokens)),
      initAnti_(initAntiTokens) {
  ESL_CHECK(capacity_ >= 2, "ElasticBuffer: capacity must be >= Lf+Lb = 2 "
                            "(use BrokenBuffer to study the violation)");
  ESL_CHECK(init_.size() <= capacity_, "ElasticBuffer: too many initial tokens");
  ESL_CHECK(initAnti_ >= 0 && static_cast<unsigned>(initAnti_) <= antiCapacity_,
            "ElasticBuffer: bad initial anti-token count");
  ESL_CHECK(init_.empty() || initAnti_ == 0,
            "ElasticBuffer: cannot initialize both tokens and anti-tokens");
  for (const BitVec& v : init_)
    ESL_CHECK(v.width() == width_, "ElasticBuffer: init token width mismatch");
  declareInput(width_);
  declareOutput(width_);
}

void ElasticBuffer::resetRecord(std::uint64_t* s) const {
  s[kHeadCount] = pack32(0, static_cast<std::uint32_t>(init_.size()));
  s[kAnti] = static_cast<std::uint64_t>(initAnti_);
  for (std::uint32_t i = 0; i < init_.size(); ++i)
    storePayload(s + ringOff(i), init_[i], width_);
}

int ElasticBuffer::occupancy(const SimContext& ctx) const {
  const std::uint64_t* s = ctx.state(*this);
  return static_cast<int>(hi32(s[kHeadCount])) - static_cast<int>(s[kAnti]);
}

void ElasticBuffer::evalComb(SimContext& ctx) {
  const std::uint64_t* s = ctx.state(*this);
  Sig in = ctx.sig(input(0));
  Sig out = ctx.sig(output(0));
  const std::int64_t count = hi32(s[kHeadCount]);
  const auto anti = static_cast<std::int64_t>(s[kAnti]);

  const bool hasTok = count > 0;
  // Producer side of the output channel.
  out.setVf(hasTok);
  if (hasTok) out.setData(loadPayload(s + ringOff(lo32(s[kHeadCount])), width_));
  // Anti-tokens from downstream are consumed by killing the head token when
  // one exists; otherwise they are stored, subject to the anti capacity.
  out.setSb(!hasTok && anti >= antiCapacity_);

  // Consumer side of the input channel. The stop is a function of state only,
  // which realizes Lb=1 (the sender learns about congestion a cycle late; the
  // spare capacity slot absorbs the in-flight token, hence C >= Lf+Lb).
  in.setSf(count - anti >= capacity_);
  // Stored anti-tokens travel upstream (active anti-tokens).
  in.setVb(anti > 0);
}

void ElasticBuffer::clockEdge(SimContext& ctx) {
  std::uint64_t* s = ctx.state(*this);
  const ConstSig in = ctx.sig(input(0));
  const ConstSig out = ctx.sig(output(0));
  std::uint32_t head = lo32(s[kHeadCount]);
  std::uint32_t count = hi32(s[kHeadCount]);
  auto anti = static_cast<std::int64_t>(s[kAnti]);
  const auto pop = [&] {
    head = head + 1 == capacity_ ? 0 : head + 1;
    --count;
  };

  // Output-side events first (free the head slot before accepting).
  if (killEvent(out) || fwdTransfer(out)) {
    ESL_ASSERT(count > 0);
    pop();
  } else if (bwdTransfer(out)) {
    ESL_ASSERT(count == 0);
    ++anti;
  }

  // Input-side events. The payload is only materialized on an actual
  // transfer — bit reads stay in the planes.
  if (killEvent(in)) {
    ESL_ASSERT(anti > 0);  // we asserted in.vb
    --anti;
  } else if (fwdTransfer(in)) {
    std::uint32_t tail = head + count;
    if (tail >= capacity_) tail -= capacity_;
    storePayload(s + ringOff(tail), in.data(), width_);
    ++count;
    ESL_ASSERT(count <= capacity_);
  } else if (bwdTransfer(in)) {
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

void ElasticBuffer::packRecord(const std::uint64_t* s, StateWriter& w) const {
  const std::uint32_t head = lo32(s[kHeadCount]);
  const std::uint32_t count = hi32(s[kHeadCount]);
  w.writeU32(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t idx = head + i;
    if (idx >= capacity_) idx -= capacity_;
    w.writeBitVec(loadPayload(s + ringOff(idx), width_));
  }
  w.writeU32(static_cast<std::uint32_t>(s[kAnti]));
}

void ElasticBuffer::unpackRecord(std::uint64_t* s, StateReader& r) const {
  const std::uint32_t n = r.readU32();
  ESL_CHECK(n <= capacity_,
            "ElasticBuffer::unpackState: token count exceeds capacity on " + name());
  s[kHeadCount] = pack32(0, n);
  for (std::uint32_t i = 0; i < n; ++i)
    storePayload(s + ringOff(i), r.readBitVec(), width_);
  // The count is serialized as a u32 of a signed field: sign-extend.
  s[kAnti] = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(static_cast<std::int32_t>(r.readU32())));
}

logic::Cost ElasticBuffer::cost() const {
  logic::Cost c = logic::ebCost(width_);
  // Extra latch ranks beyond the C=2 baseline.
  if (capacity_ > 2) c.area += (capacity_ - 2) * logic::latchCost(width_).area;
  return c;
}

void ElasticBuffer::timing(TimingModel& m) const {
  // Fully registered in both directions: launch both nets, no through-arcs.
  m.launch({output(0), NetKind::kFwd}, 1.0);
  m.launch({input(0), NetKind::kBwd}, 1.0);
}

// ---------------------------------------------------------------------------
// ElasticBuffer0 (Lf=1, Lb=0, C=1) — Fig. 5
// ---------------------------------------------------------------------------

ElasticBuffer0::ElasticBuffer0(std::string name, unsigned width,
                               std::optional<BitVec> initToken)
    : Node(std::move(name)), width_(width), init_(std::move(initToken)) {
  if (init_) ESL_CHECK(init_->width() == width_, "ElasticBuffer0: init width mismatch");
  declareInput(width_);
  declareOutput(width_);
}

void ElasticBuffer0::resetRecord(std::uint64_t* s) const {
  if (!init_) return;
  s[kFull] = 1;
  storePayload(s + kSlot, *init_, width_);
}

void ElasticBuffer0::evalComb(SimContext& ctx) {
  const std::uint64_t* s = ctx.state(*this);
  Sig in = ctx.sig(input(0));
  Sig out = ctx.sig(output(0));

  const bool full = s[kFull] != 0;
  out.setVf(full);
  if (full) out.setData(loadPayload(s + kSlot, width_));

  // Head leaves this cycle if transferred or killed — computed from the
  // downstream signals, so the stop to the sender is combinational (Lb=0).
  const bool leave = full && (!out.sf() || out.vb());
  in.setSf(full && !leave);

  // Anti-tokens rush through combinationally when the buffer is empty.
  in.setVb(!full && out.vb());
  // The anti-token is consumed by killing our token, by killing the incoming
  // token at the input boundary, or by moving further upstream.
  out.setSb(!full && !in.vf() && in.sb());
}

void ElasticBuffer0::clockEdge(SimContext& ctx) {
  std::uint64_t* s = ctx.state(*this);
  const ConstSig in = ctx.sig(input(0));
  const ConstSig out = ctx.sig(output(0));

  if (killEvent(out) || fwdTransfer(out)) s[kFull] = 0;
  if (fwdTransfer(in)) {
    ESL_ASSERT(s[kFull] == 0);
    s[kFull] = 1;
    storePayload(s + kSlot, in.data(), width_);
  }
}

void ElasticBuffer0::packRecord(const std::uint64_t* s, StateWriter& w) const {
  w.writeBool(s[kFull] != 0);
  if (s[kFull] != 0) w.writeBitVec(loadPayload(s + kSlot, width_));
}

void ElasticBuffer0::unpackRecord(std::uint64_t* s, StateReader& r) const {
  s[kFull] = r.readBool() ? 1 : 0;
  if (s[kFull] != 0) storePayload(s + kSlot, r.readBitVec(), width_);
}

logic::Cost ElasticBuffer0::cost() const { return logic::eb0Cost(width_); }

void ElasticBuffer0::timing(TimingModel& m) const {
  m.launch({output(0), NetKind::kFwd}, 1.0);
  // Combinational backward paths (§4.3: chaining these accumulates delay).
  m.arc({output(0), NetKind::kBwd}, {input(0), NetKind::kBwd}, 1.0);
  m.arc({input(0), NetKind::kFwd}, {input(0), NetKind::kBwd}, 1.0);
}

// ---------------------------------------------------------------------------
// BrokenBuffer — violates C >= Lf + Lb
// ---------------------------------------------------------------------------

BrokenBuffer::BrokenBuffer(std::string name, unsigned width)
    : Node(std::move(name)), width_(width) {
  declareInput(width_);
  declareOutput(width_);
}

void BrokenBuffer::evalComb(SimContext& ctx) {
  const std::uint64_t* s = ctx.state(*this);
  Sig in = ctx.sig(input(0));
  Sig out = ctx.sig(output(0));
  const bool full = (s[kFlags] & kFull) != 0;
  out.setVf(full);
  if (full) out.setData(loadPayload(s + kSlot, width_));
  out.setSb(true);  // no anti-token support
  // BUG: one cycle stale — the sender overruns the slot.
  in.setSf((s[kFlags] & kStopReg) != 0);
  in.setVb(false);
}

void BrokenBuffer::clockEdge(SimContext& ctx) {
  std::uint64_t* s = ctx.state(*this);
  const ConstSig in = ctx.sig(input(0));
  const ConstSig out = ctx.sig(output(0));
  // The Lb=1 stop reflects the occupancy *before* this edge, so the sender
  // learns about a fill one cycle late — with C=1 there is no slack slot to
  // absorb the in-flight token (paper §3.2: the C >= Lf+Lb scenario).
  bool full = (s[kFlags] & kFull) != 0;
  const bool stopReg = full;
  if (fwdTransfer(out)) full = false;
  if (fwdTransfer(in)) {  // may overwrite a live token
    full = true;
    storePayload(s + kSlot, in.data(), width_);
  }
  s[kFlags] = (full ? kFull : 0) | (stopReg ? kStopReg : 0);
}

void BrokenBuffer::packRecord(const std::uint64_t* s, StateWriter& w) const {
  const bool full = (s[kFlags] & kFull) != 0;
  w.writeBool(full);
  if (full) w.writeBitVec(loadPayload(s + kSlot, width_));
  w.writeBool((s[kFlags] & kStopReg) != 0);
}

void BrokenBuffer::unpackRecord(std::uint64_t* s, StateReader& r) const {
  const bool full = r.readBool();
  if (full) storePayload(s + kSlot, r.readBitVec(), width_);
  s[kFlags] = (full ? kFull : 0) | (r.readBool() ? kStopReg : 0);
}

}  // namespace esl

namespace esl {

void ElasticBuffer::flowEdges(std::vector<FlowEdge>& out) const {
  out.push_back({input(0), output(0), 1.0, static_cast<double>(init_.size())});
}

void ElasticBuffer0::flowEdges(std::vector<FlowEdge>& out) const {
  out.push_back({input(0), output(0), 1.0, init_ ? 1.0 : 0.0});
}

}  // namespace esl
