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
  BoardIo io(ctx, *this);
  comb(io, ctx.state(*this), capacity_, antiCapacity_);
}

void ElasticBuffer::clockEdge(SimContext& ctx) {
  BoardIo io(ctx, *this);
  edge(io, ctx.state(*this), capacity_);
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
  BoardIo io(ctx, *this);
  comb(io, ctx.state(*this));
}

void ElasticBuffer0::clockEdge(SimContext& ctx) {
  BoardIo io(ctx, *this);
  edge(io, ctx.state(*this));
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
  BoardIo io(ctx, *this);
  comb(io, ctx.state(*this));
}

void BrokenBuffer::clockEdge(SimContext& ctx) {
  BoardIo io(ctx, *this);
  edge(io, ctx.state(*this));
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
