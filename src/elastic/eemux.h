// Early-evaluation multiplexer (paper §1, §2, §4; [7] token counterflow).
//
// Logically a join over (select, data_0..data_n-1) — every firing consumes one
// token from *every* input — but it fires early: as soon as the select token
// and the *selected* data token are present. The obligation to consume the
// non-selected tokens is discharged by emitting anti-tokens into every
// non-selected input, combinationally in the firing cycle (this is what
// Table 1 shows at cycle 0); a pending counter per input provides Retry-
// persistence when an anti-token cannot be delivered at once.
//
// Misprediction demand: when the select token points at an input that carries
// no token, the mux asserts S+ on that (empty) input. The shared module
// reports this "selected-but-empty" stop to its scheduler, which corrects the
// prediction — the mechanism behind eq. (1)'s `sel = i ∧ S+_outi` term.
//
// Port map: input 0 = select channel; inputs 1..n = data channels; output 0.
#pragma once

#include "elastic/board_io.h"
#include "elastic/node.h"

namespace esl {

class EarlyEvalMux : public Node {
 public:
  EarlyEvalMux(std::string name, unsigned dataInputs, unsigned selWidth,
               unsigned width);

  void evalComb(SimContext& ctx) override;
  EvalPurity evalPurity() const override { return EvalPurity::kStateful; }
  /// Pending anti-tokens grow only on firings (output transfer/kill events)
  /// and shrink only on input kill/backward-transfer events.
  EdgeActivity edgeActivity() const override { return EdgeActivity::kOnEvents; }
  void clockEdge(SimContext& ctx) override;
  /// Arena record: word i counts the anti-tokens still owed to data input i.
  std::uint32_t stateWords() const override { return dataInputs_; }
  void packRecord(const std::uint64_t* s, StateWriter& w) const override;
  void unpackRecord(std::uint64_t* s, StateReader& r) const override;
  logic::Cost cost() const override;
  void timing(TimingModel& m) const override;
  std::string kindName() const override { return "ee-mux"; }

  unsigned dataInputs() const { return dataInputs_; }
  ChannelId selectChannel() const { return input(0); }
  ChannelId dataChannel(unsigned i) const { return input(1 + i); }

  /// Completed firings (forward transfers at the output).
  std::uint64_t firings() const { return firings_; }
  /// Anti-tokens emitted in total.
  std::uint64_t antiTokensEmitted() const { return antiEmitted_; }

  /// Cycle semantics over a port-accessor policy (elastic/board_io.h), shared
  /// by evalComb/clockEdge and the compiled VM. `applyStats == false` (the
  /// compiled edge audit's replay) leaves the statistics alone.
  template <class Io>
  void comb(Io& io, const std::uint64_t* s) const;
  template <class Io>
  void edge(Io& io, std::uint64_t* s, bool applyStats);

 private:
  struct CombView {
    bool selValid = false;
    unsigned selIdx = 0;
    bool usable = false;  ///< selected token present and not owed a kill
    bool fire = false;
  };
  template <class Io>
  CombView view(Io& io, const std::uint64_t* s) const;
  /// Anti-tokens input i owes this cycle: pending plus this firing's.
  static std::uint64_t antiAvail(const CombView& v, const std::uint64_t* s,
                                 unsigned i) {
    return s[i] + ((v.fire && i != v.selIdx) ? 1u : 0u);
  }

  unsigned dataInputs_;
  unsigned width_;
  std::uint64_t firings_ = 0;
  std::uint64_t antiEmitted_ = 0;
};

template <class Io>
inline EarlyEvalMux::CombView EarlyEvalMux::view(Io& io, const std::uint64_t* s) const {
  const unsigned k = io.numIn() - 1;
  CombView v;
  const auto& sel = io.in(0);
  v.selValid = io.vf(sel);
  if (v.selValid) {
    const std::uint64_t idx = io.low64(sel);
    ESL_CHECK(idx < k,
              "EarlyEvalMux '" + name() + "': select value out of range");
    v.selIdx = static_cast<unsigned>(idx);
  }
  // The selected token is usable only if it is not owed to a pending
  // anti-token from an earlier firing.
  v.usable = v.selValid && s[v.selIdx] == 0 && io.vf(io.in(1 + v.selIdx));
  const auto& out = io.out(0);
  v.fire = v.usable && (!io.sf(out) || io.vb(out));
  return v;
}

template <class Io>
inline void EarlyEvalMux::comb(Io& io, const std::uint64_t* s) const {
  const unsigned k = io.numIn() - 1;
  const CombView v = view(io, s);
  const auto& sel = io.in(0);
  const auto& out = io.out(0);

  io.setVf(out, v.usable);
  if (v.usable) io.copyData(out, io.in(1 + v.selIdx));
  // An anti-token at the output is consumed only by annihilating a firing.
  io.setSb(out, !v.usable);

  io.setSf(sel, !v.fire);
  io.setVb(sel, false);

  for (unsigned i = 0; i < k; ++i) {
    const auto& in = io.in(1 + i);
    const bool anti = antiAvail(v, s, i) > 0;
    io.setVb(in, anti);
    if (anti) {
      io.setSf(in, false);  // kill and stop are mutually exclusive
    } else if (v.selValid && i == v.selIdx) {
      // Selected: released on firing; stopped while waiting — when the channel
      // is empty this stop is the misprediction demand.
      io.setSf(in, !v.fire);
    } else {
      // Non-selected: hold an arriving token (it will be killed by a future
      // firing's anti-token); keep the channel free otherwise so that an
      // empty non-selected channel never looks like a demand.
      io.setSf(in, io.vf(in));
    }
  }
}

template <class Io>
inline void EarlyEvalMux::edge(Io& io, std::uint64_t* s, bool applyStats) {
  const unsigned k = io.numIn() - 1;
  const CombView v = view(io, s);
  for (unsigned i = 0; i < k; ++i) {
    const PortEvents in = io.events(io.in(1 + i));
    std::uint64_t avail = antiAvail(v, s, i);
    if (in.vb && (in.vf || !in.sb)) {
      ESL_ASSERT(avail > 0);
      --avail;  // delivered: killed a token or moved upstream
    }
    if (v.fire && i != v.selIdx && applyStats) ++antiEmitted_;
    s[i] = avail;
  }
  if (io.events(io.out(0)).fwd && applyStats) ++firings_;
}

}  // namespace esl
