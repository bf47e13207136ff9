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
  const std::uint64_t* s = ctx.state(*this);
  Sig out = ctx.sig(output(0));
  const std::optional<BitVec> tok =
      (s[kOffer] & 1) != 0 ? tokenAt(s[kIndex]) : std::nullopt;
  // A token owed to an absorbed anti-token is never shown.
  const bool offer = tok.has_value() && hi32(s[kOffer]) == 0;
  out.setVf(offer);
  if (offer) out.setData(*tok);
  out.setSb(false);  // sources always absorb anti-tokens
}

void TokenSource::clockEdge(SimContext& ctx) {
  std::uint64_t* s = ctx.state(*this);
  const ConstSig out = ctx.sig(output(0));
  std::uint64_t index = s[kIndex];
  bool offering = (s[kOffer] & 1) != 0;
  std::uint32_t killCredit = hi32(s[kOffer]);

  if (killEvent(out)) {
    ++index;
    ++killedCount_;
    offering = false;
  } else if (fwdTransfer(out)) {
    ++index;
    ++emitted_;
    offering = false;
  } else if (bwdTransfer(out)) {
    ++killCredit;
  }

  // An owed kill silently consumes the next available token (one per cycle).
  if (killCredit > 0 && tokenAt(index).has_value() && !out.vf()) {
    ++index;
    --killCredit;
    ++killedCount_;
    offering = false;
  }

  // Offer the next token when the gate opens for the upcoming cycle.
  if (!offering && (!gate_ || gate_(ctx.cycle() + 1)) && tokenAt(index).has_value() &&
      killCredit == 0)
    offering = true;
  s[kIndex] = index;
  s[kOffer] = pack32(offering ? 1 : 0, killCredit);
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
  const std::uint64_t s = ctx.state(*this)[kAnti];
  Sig in = ctx.sig(input(0));
  const bool wantAnti =
      (s & 1) != 0 || (hi32(s) > 0 && antiGate_ && antiGate_(ctx.cycle()));
  in.setVb(wantAnti);
  // Kill and stop are mutually exclusive; anti-token emission wins.
  in.setSf(!wantAnti && ready_ && !ready_(ctx.cycle()));
}

void TokenSink::clockEdge(SimContext& ctx) {
  const ConstSig in = ctx.sig(input(0));
  if (fwdTransfer(in)) transfers_.push_back({ctx.cycle(), in.data()});

  if (in.vb()) {
    std::uint64_t& s = ctx.state(*this)[kAnti];
    std::uint32_t remaining = hi32(s);
    bool antiActive = true;  // Retry-: persist until delivered
    if (in.vf() || !in.sb()) {  // delivered: killed a token or moved upstream
      ESL_ASSERT(remaining > 0);
      --remaining;
      antiActive = false;
    }
    s = pack32(antiActive ? 1 : 0, remaining);
  }
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

bool NondetSource::offeringNow(SimContext& ctx, const std::uint64_t* s) const {
  return s[kOffer] != 0 || ctx.choice(*this, 0) || hi32(s[kCredit]) >= maxIdle_;
}

BitVec NondetSource::valueNow(SimContext& ctx, const std::uint64_t* s) const {
  // Retry+ persistence: value fixed while held.
  if (s[kOffer] != 0) return loadPayload(s + kValue, width_);
  BitVec v(width_);
  for (unsigned b = 0; b < dataBits_; ++b) v.setBit(b, ctx.choice(*this, 1 + b));
  return v;
}

void NondetSource::evalComb(SimContext& ctx) {
  const std::uint64_t* s = ctx.state(*this);
  Sig out = ctx.sig(output(0));
  const std::uint32_t killCredit = lo32(s[kCredit]);
  const bool offer = offeringNow(ctx, s) && killCredit == 0;
  out.setVf(offer);
  if (offer) out.setData(valueNow(ctx, s));
  out.setSb(!offer && killCredit >= cap_);
}

void NondetSource::clockEdge(SimContext& ctx) {
  std::uint64_t* s = ctx.state(*this);
  const ConstSig out = ctx.sig(output(0));
  bool offered = offeringNow(ctx, s);
  const BitVec v = valueNow(ctx, s);
  std::uint32_t killCredit = lo32(s[kCredit]);
  std::uint32_t idleStreak = hi32(s[kCredit]);
  if (killEvent(out) || fwdTransfer(out)) offered = false;
  if (bwdTransfer(out)) ++killCredit;
  // An owed kill annihilates the (hidden) offered token.
  if (offered && killCredit > 0) {
    offered = false;
    --killCredit;
  }
  s[kOffer] = offered ? 1 : 0;
  storePayload(s + kValue, offered ? v : BitVec(width_), width_);
  // Bounded fairness: count consecutive cycles without an offer (the offer
  // decision re-queried after the update above).
  if (offeringNow(ctx, s))
    idleStreak = 0;
  else if (idleStreak < maxIdle_)
    ++idleStreak;
  s[kCredit] = pack32(killCredit, idleStreak);
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

bool NondetSink::antiNow(SimContext& ctx, const std::uint64_t* s) const {
  return (s[kStops] & 1) != 0 || (emitsAnti_ && ctx.choice(*this, 1));
}

bool NondetSink::stopNow(SimContext& ctx, const std::uint64_t* s) const {
  if (hi32(s[kStops]) >= maxStops_) return false;  // bounded fairness
  return ctx.choice(*this, 0);
}

void NondetSink::evalComb(SimContext& ctx) {
  const std::uint64_t* s = ctx.state(*this);
  Sig in = ctx.sig(input(0));
  const bool anti = antiNow(ctx, s);
  in.setVb(anti);
  in.setSf(!anti && stopNow(ctx, s));
}

void NondetSink::clockEdge(SimContext& ctx) {
  std::uint64_t& s = ctx.state(*this)[kStops];
  const ConstSig in = ctx.sig(input(0));
  std::uint32_t stops = in.sf() ? hi32(s) + 1 : 0;
  if (stops > maxStops_) stops = maxStops_;
  bool antiActive = (s & 1) != 0;
  if (in.vb()) antiActive = !(in.vf() || !in.sb());  // Retry- until delivered
  s = pack32(antiActive ? 1 : 0, stops);
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
