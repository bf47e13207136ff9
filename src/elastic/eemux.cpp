#include "elastic/eemux.h"

namespace esl {

EarlyEvalMux::EarlyEvalMux(std::string name, unsigned dataInputs, unsigned selWidth,
                           unsigned width)
    : Node(std::move(name)), dataInputs_(dataInputs), width_(width) {
  ESL_CHECK(dataInputs >= 2, "EarlyEvalMux: need at least two data inputs");
  declareInput(selWidth);  // input 0: select
  for (unsigned i = 0; i < dataInputs; ++i) declareInput(width);
  declareOutput(width);
}

EarlyEvalMux::CombView EarlyEvalMux::view(SimContext& ctx,
                                          const std::uint64_t* s) const {
  CombView v;
  const ConstSig sel = ctx.sig(selectChannel());
  v.selValid = sel.vf();
  if (v.selValid) {
    const std::uint64_t idx = sel.dataLow64();
    ESL_CHECK(idx < dataInputs_,
              "EarlyEvalMux '" + name() + "': select value out of range");
    v.selIdx = static_cast<unsigned>(idx);
  }

  // The selected token is usable only if it is not owed to a pending
  // anti-token from an earlier firing.
  const bool usable =
      v.selValid && s[v.selIdx] == 0 && ctx.sig(dataChannel(v.selIdx)).vf();
  const ConstSig out = ctx.sig(output(0));
  v.fire = usable && (!out.sf() || out.vb());
  return v;
}

void EarlyEvalMux::evalComb(SimContext& ctx) {
  const std::uint64_t* s = ctx.state(*this);
  const CombView v = view(ctx, s);
  Sig out = ctx.sig(output(0));
  Sig sel = ctx.sig(selectChannel());

  const bool usable = v.selValid && s[v.selIdx] == 0 &&
                      ctx.sig(dataChannel(v.selIdx)).vf();
  out.setVf(usable);
  if (usable) out.setDataFrom(ctx.sig(dataChannel(v.selIdx)));
  // An anti-token at the output is consumed only by annihilating a firing.
  out.setSb(!usable);

  sel.setSf(!v.fire);
  sel.setVb(false);

  for (unsigned i = 0; i < dataInputs_; ++i) {
    Sig in = ctx.sig(dataChannel(i));
    const bool anti = antiAvail(v, s, i) > 0;
    in.setVb(anti);
    if (anti) {
      in.setSf(false);  // kill and stop are mutually exclusive
    } else if (v.selValid && i == v.selIdx) {
      // Selected: released on firing; stopped while waiting — when the channel
      // is empty this stop is the misprediction demand.
      in.setSf(!v.fire);
    } else {
      // Non-selected: hold an arriving token (it will be killed by a future
      // firing's anti-token); keep the channel free otherwise so that an
      // empty non-selected channel never looks like a demand.
      in.setSf(in.vf());
    }
  }
}

void EarlyEvalMux::clockEdge(SimContext& ctx) {
  std::uint64_t* s = ctx.state(*this);
  const CombView v = view(ctx, s);
  for (unsigned i = 0; i < dataInputs_; ++i) {
    const ConstSig in = ctx.sig(dataChannel(i));
    std::uint64_t avail = antiAvail(v, s, i);
    if (in.vb() && (in.vf() || !in.sb())) {
      ESL_ASSERT(avail > 0);
      --avail;  // delivered: killed a token or moved upstream
    }
    if (v.fire && i != v.selIdx) ++antiEmitted_;
    s[i] = avail;
  }
  if (fwdTransfer(ctx.sig(output(0)))) ++firings_;
}

void EarlyEvalMux::packRecord(const std::uint64_t* s, StateWriter& w) const {
  for (unsigned i = 0; i < dataInputs_; ++i)
    w.writeU32(static_cast<std::uint32_t>(s[i]));
}

void EarlyEvalMux::unpackRecord(std::uint64_t* s, StateReader& r) const {
  for (unsigned i = 0; i < dataInputs_; ++i) s[i] = r.readU32();
}

logic::Cost EarlyEvalMux::cost() const {
  return logic::earlyEvalMuxCost(dataInputs_) + logic::muxCost(dataInputs_, width_);
}

void EarlyEvalMux::timing(TimingModel& m) const {
  const double muxDelay = logic::muxCost(dataInputs_, width_).delay;
  for (unsigned i = 0; i < dataInputs_; ++i) {
    m.arc({dataChannel(i), NetKind::kFwd}, {output(0), NetKind::kFwd}, muxDelay);
    m.arc({selectChannel(), NetKind::kFwd}, {dataChannel(i), NetKind::kBwd}, 1.0);
    m.arc({output(0), NetKind::kBwd}, {dataChannel(i), NetKind::kBwd}, 1.0);
    m.arc({dataChannel(i), NetKind::kFwd}, {selectChannel(), NetKind::kBwd}, 1.0);
  }
  m.arc({selectChannel(), NetKind::kFwd}, {output(0), NetKind::kFwd}, muxDelay);
  m.arc({output(0), NetKind::kBwd}, {selectChannel(), NetKind::kBwd}, 1.0);
}

}  // namespace esl
