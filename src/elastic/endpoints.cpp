#include "elastic/endpoints.h"

namespace esl {

// ---------------------------------------------------------------------------
// TokenSource
// ---------------------------------------------------------------------------

TokenSource::TokenSource(std::string name, unsigned width, Generator gen, Gate gate)
    : Node(std::move(name)), width_(width), gen_(std::move(gen)), gate_(std::move(gate)) {
  ESL_CHECK(static_cast<bool>(gen_), "TokenSource: generator required");
  declareOutput(width);
}

TokenSource::Generator TokenSource::listOf(std::vector<std::uint64_t> values,
                                           unsigned width) {
  return [values = std::move(values), width](std::uint64_t i) -> std::optional<BitVec> {
    if (i >= values.size()) return std::nullopt;
    return BitVec(width, values[i]);
  };
}

TokenSource::Generator TokenSource::counting(unsigned width, std::uint64_t start) {
  return [width, start](std::uint64_t i) -> std::optional<BitVec> {
    return BitVec(width, start + i);
  };
}

std::optional<BitVec> TokenSource::tokenAt(std::uint64_t index) const {
  if (memoValid_ && memoIndex_ == index) return memoTok_;
  std::optional<BitVec> v = gen_(index);
  if (v) ESL_CHECK(v->width() == width_, "TokenSource: generated width mismatch");
  memoIndex_ = index;
  memoTok_ = v;
  memoValid_ = true;
  return v;
}

void TokenSource::reset() {
  emitted_ = 0;
  killedCount_ = 0;
}

void TokenSource::resetRecord(std::uint64_t* s) const {
  s[kOffer] = (!gate_ || gate_(0)) && tokenAt(0).has_value() ? 1 : 0;
}

void TokenSource::evalComb(SimContext& ctx) {
  BoardIo io(ctx, *this);
  comb(io, ctx.state(*this));
}

void TokenSource::clockEdge(SimContext& ctx) {
  BoardIo io(ctx, *this);
  edge(io, ctx.state(*this), true);
}

void TokenSource::packRecord(const std::uint64_t* s, StateWriter& w) const {
  w.writeU64(s[kIndex]);
  w.writeBool((s[kOffer] & 1) != 0);
  w.writeU32(hi32(s[kOffer]));
}

void TokenSource::unpackRecord(std::uint64_t* s, StateReader& r) const {
  s[kIndex] = r.readU64();
  const bool offering = r.readBool();
  s[kOffer] = pack32(offering ? 1 : 0, r.readU32());
}

void TokenSource::timing(TimingModel& m) const {
  m.launch({output(0), NetKind::kFwd}, 0.0);
}

// ---------------------------------------------------------------------------
// TokenSink
// ---------------------------------------------------------------------------

TokenSink::TokenSink(std::string name, unsigned width, Gate ready,
                     unsigned antiBudget, Gate antiGate)
    : Node(std::move(name)),
      width_(width),
      ready_(std::move(ready)),
      antiGate_(std::move(antiGate)),
      antiBudget_(antiBudget) {
  declareInput(width);
}

void TokenSink::reset() { transfers_.clear(); }

void TokenSink::resetRecord(std::uint64_t* s) const { s[kAnti] = pack32(0, antiBudget_); }

void TokenSink::evalComb(SimContext& ctx) {
  BoardIo io(ctx, *this);
  comb(io, ctx.state(*this));
}

void TokenSink::clockEdge(SimContext& ctx) {
  BoardIo io(ctx, *this);
  edge(io, ctx.state(*this), true);
}

void TokenSink::packRecord(const std::uint64_t* s, StateWriter& w) const {
  w.writeU32(hi32(s[kAnti]));
  w.writeBool((s[kAnti] & 1) != 0);
}

void TokenSink::unpackRecord(std::uint64_t* s, StateReader& r) const {
  const std::uint32_t remaining = r.readU32();
  s[kAnti] = pack32(r.readBool() ? 1 : 0, remaining);
}

void TokenSink::timing(TimingModel& m) const {
  m.launch({input(0), NetKind::kBwd}, 0.0);
}

// ---------------------------------------------------------------------------
// NondetSource
// ---------------------------------------------------------------------------

NondetSource::NondetSource(std::string name, unsigned width, unsigned killCreditCap,
                           unsigned dataBits, unsigned maxIdle)
    : Node(std::move(name)),
      width_(width),
      cap_(killCreditCap),
      dataBits_(dataBits),
      maxIdle_(maxIdle) {
  ESL_CHECK(dataBits_ <= width_, "NondetSource: dataBits exceed width");
  declareOutput(width);
}

void NondetSource::evalComb(SimContext& ctx) {
  BoardIo io(ctx, *this);
  comb(io, ctx.state(*this), cap_, maxIdle_);
}

void NondetSource::clockEdge(SimContext& ctx) {
  BoardIo io(ctx, *this);
  edge(io, ctx.state(*this), maxIdle_);
}

void NondetSource::packRecord(const std::uint64_t* s, StateWriter& w) const {
  w.writeBool(s[kOffer] != 0);
  w.writeBitVec(loadPayload(s + kValue, width_));
  w.writeU32(lo32(s[kCredit]));
  w.writeU32(hi32(s[kCredit]));
}

void NondetSource::unpackRecord(std::uint64_t* s, StateReader& r) const {
  s[kOffer] = r.readBool() ? 1 : 0;
  storePayload(s + kValue, r.readBitVec(), width_);
  const std::uint32_t killCredit = r.readU32();
  s[kCredit] = pack32(killCredit, r.readU32());
}

// ---------------------------------------------------------------------------
// NondetSink
// ---------------------------------------------------------------------------

NondetSink::NondetSink(std::string name, unsigned width, unsigned maxConsecutiveStops,
                       bool emitsAntiTokens)
    : Node(std::move(name)),
      width_(width),
      maxStops_(maxConsecutiveStops),
      emitsAnti_(emitsAntiTokens) {
  declareInput(width);
}

void NondetSink::evalComb(SimContext& ctx) {
  BoardIo io(ctx, *this);
  comb(io, ctx.state(*this), maxStops_, emitsAnti_);
}

void NondetSink::clockEdge(SimContext& ctx) {
  BoardIo io(ctx, *this);
  edge(io, ctx.state(*this), maxStops_);
}

void NondetSink::packRecord(const std::uint64_t* s, StateWriter& w) const {
  w.writeU32(hi32(s[kStops]));
  w.writeBool((s[kStops] & 1) != 0);
}

void NondetSink::unpackRecord(std::uint64_t* s, StateReader& r) const {
  const std::uint32_t stops = r.readU32();
  s[kStops] = pack32(r.readBool() ? 1 : 0, stops);
}

}  // namespace esl
