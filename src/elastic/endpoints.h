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

#include <algorithm>
#include <functional>
#include <optional>
#include <vector>

#include "elastic/board_io.h"
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

  /// Cycle semantics over a port-accessor policy (elastic/board_io.h), shared
  /// by evalComb/clockEdge and the compiled VM. `applyStats == false` (the
  /// compiled edge audit's replay) leaves the statistics alone.
  template <class Io>
  void comb(Io& io, const std::uint64_t* s) const;
  template <class Io>
  void edge(Io& io, std::uint64_t* s, bool applyStats);

 private:
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

  template <class Io>
  void comb(Io& io, const std::uint64_t* s) const;
  template <class Io>
  void edge(Io& io, std::uint64_t* s, bool applyStats);

 private:
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

  /// `cap`/`maxIdle` are killCreditCap()/maxIdle().
  template <class Io>
  void comb(Io& io, const std::uint64_t* s, std::uint32_t cap,
            std::uint32_t maxIdle) const;
  template <class Io>
  void edge(Io& io, std::uint64_t* s, std::uint32_t maxIdle) const;

 private:
  /// The low dataBits_ payload bits of a fresh offer, from this cycle's
  /// choice bits, into `words` record words.
  template <class Io>
  void choiceValue(Io& io, std::uint64_t* v, unsigned words) const {
    std::fill_n(v, words, 0);
    for (unsigned b = 0; b < dataBits_; ++b)
      if (io.choice(1 + b)) v[b / 64] |= std::uint64_t{1} << (b % 64);
  }

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

  /// `maxStops`/`emitsAnti` are maxConsecutiveStops()/emitsAntiTokens().
  template <class Io>
  static void comb(Io& io, const std::uint64_t* s, std::uint32_t maxStops,
                   bool emitsAnti);
  template <class Io>
  static void edge(Io& io, std::uint64_t* s, std::uint32_t maxStops);

 private:
  // Arena record: [kStops] anti-token in flight (Retry-) | consecutive stops
  // << 32.
  static constexpr std::uint32_t kStops = 0;

  unsigned width_;
  unsigned maxStops_;
  bool emitsAnti_;
};

// ---------------------------------------------------------------------------
// TokenSource
// ---------------------------------------------------------------------------

template <class Io>
inline void TokenSource::comb(Io& io, const std::uint64_t* s) const {
  const auto& out = io.out(0);
  const std::optional<BitVec> tok =
      (s[kOffer] & 1) != 0 ? tokenAt(s[kIndex]) : std::nullopt;
  // A token owed to an absorbed anti-token is never shown.
  const bool offer = tok.has_value() && hi32(s[kOffer]) == 0;
  io.setVf(out, offer);
  if (offer) io.setData(out, *tok);
  io.setSb(out, false);  // sources always absorb anti-tokens
}

template <class Io>
inline void TokenSource::edge(Io& io, std::uint64_t* s, bool applyStats) {
  const PortEvents out = io.events(io.out(0));
  std::uint64_t index = s[kIndex];
  bool offering = (s[kOffer] & 1) != 0;
  std::uint32_t killCredit = hi32(s[kOffer]);

  if (out.kill) {
    ++index;
    if (applyStats) ++killedCount_;
    offering = false;
  } else if (out.fwd) {
    ++index;
    if (applyStats) ++emitted_;
    offering = false;
  } else if (out.bwd) {
    ++killCredit;
  }

  // An owed kill silently consumes the next available token (one per cycle).
  if (killCredit > 0 && tokenAt(index).has_value() && !out.vf) {
    ++index;
    --killCredit;
    if (applyStats) ++killedCount_;
    offering = false;
  }

  // Offer the next token when the gate opens for the upcoming cycle.
  if (!offering && (!gate_ || gate_(io.cycle() + 1)) &&
      tokenAt(index).has_value() && killCredit == 0)
    offering = true;
  s[kIndex] = index;
  s[kOffer] = pack32(offering ? 1 : 0, killCredit);
}

// ---------------------------------------------------------------------------
// TokenSink
// ---------------------------------------------------------------------------

template <class Io>
inline void TokenSink::comb(Io& io, const std::uint64_t* s) const {
  const auto& in = io.in(0);
  const std::uint64_t anti = s[kAnti];
  const bool wantAnti =
      (anti & 1) != 0 || (hi32(anti) > 0 && antiGate_ && antiGate_(io.cycle()));
  io.setVb(in, wantAnti);
  // Kill and stop are mutually exclusive; anti-token emission wins.
  io.setSf(in, !wantAnti && ready_ && !ready_(io.cycle()));
}

template <class Io>
inline void TokenSink::edge(Io& io, std::uint64_t* s, bool applyStats) {
  const auto& inPort = io.in(0);
  const PortEvents in = io.events(inPort);
  if (in.fwd && applyStats) transfers_.push_back({io.cycle(), io.data(inPort)});

  if (in.vb) {
    std::uint32_t remaining = hi32(s[kAnti]);
    bool antiActive = true;  // Retry-: persist until delivered
    if (in.vf || !in.sb) {   // delivered: killed a token or moved upstream
      ESL_ASSERT(remaining > 0);
      --remaining;
      antiActive = false;
    }
    s[kAnti] = pack32(antiActive ? 1 : 0, remaining);
  }
}

// ---------------------------------------------------------------------------
// NondetSource
// ---------------------------------------------------------------------------

template <class Io>
inline void NondetSource::comb(Io& io, const std::uint64_t* s, std::uint32_t cap,
                               std::uint32_t maxIdle) const {
  const auto& out = io.out(0);
  const bool held = s[kOffer] != 0;  // Retry+ persistence
  const std::uint32_t killCredit = lo32(s[kCredit]);
  const bool offer =
      (held || io.choice(0) || hi32(s[kCredit]) >= maxIdle) && killCredit == 0;
  io.setVf(out, offer);
  if (offer) {
    // Retry+ persistence: the value is fixed while held.
    const unsigned words = io.payloadWords(out);
    if (held) {
      io.setDataRecord(out, s + kValue);
    } else if (words == 1) {
      std::uint64_t v;
      choiceValue(io, &v, 1);
      io.setDataRecord(out, &v);
    } else {
      std::vector<std::uint64_t> v(words);
      choiceValue(io, v.data(), words);
      io.setDataRecord(out, v.data());
    }
  }
  io.setSb(out, !offer && killCredit >= cap);
}

template <class Io>
inline void NondetSource::edge(Io& io, std::uint64_t* s, std::uint32_t maxIdle) const {
  const auto& outPort = io.out(0);
  const PortEvents out = io.events(outPort);
  const unsigned words = io.payloadWords(outPort);
  const bool held = s[kOffer] != 0;
  std::uint32_t killCredit = lo32(s[kCredit]);
  std::uint32_t idleStreak = hi32(s[kCredit]);
  bool offered = held || io.choice(0) || idleStreak >= maxIdle;
  if (!held) choiceValue(io, s + kValue, words);
  if (out.kill || out.fwd) offered = false;
  if (out.bwd) ++killCredit;
  // An owed kill annihilates the (hidden) offered token.
  if (offered && killCredit > 0) {
    offered = false;
    --killCredit;
  }
  s[kOffer] = offered ? 1 : 0;
  if (!offered) std::fill_n(s + kValue, words, 0);
  // Bounded fairness: count consecutive cycles without an offer (the offer
  // decision re-queried after the update above).
  if (offered || io.choice(0) || idleStreak >= maxIdle)
    idleStreak = 0;
  else if (idleStreak < maxIdle)
    ++idleStreak;
  s[kCredit] = pack32(killCredit, idleStreak);
}

// ---------------------------------------------------------------------------
// NondetSink
// ---------------------------------------------------------------------------

template <class Io>
inline void NondetSink::comb(Io& io, const std::uint64_t* s, std::uint32_t maxStops,
                             bool emitsAnti) {
  const auto& in = io.in(0);
  const std::uint64_t stops = s[kStops];
  const bool anti = (stops & 1) != 0 || (emitsAnti && io.choice(1));
  io.setVb(in, anti);
  // Bounded fairness: at most maxStops consecutive stops.
  io.setSf(in, !anti && hi32(stops) < maxStops && io.choice(0));
}

template <class Io>
inline void NondetSink::edge(Io& io, std::uint64_t* s, std::uint32_t maxStops) {
  const PortEvents in = io.events(io.in(0));
  std::uint32_t stops = in.sf ? hi32(s[kStops]) + 1 : 0;
  if (stops > maxStops) stops = maxStops;
  bool antiActive = (s[kStops] & 1) != 0;
  if (in.vb) antiActive = !(in.vf || !in.sb);  // Retry- until delivered
  s[kStops] = pack32(antiActive ? 1 : 0, stops);
}

}  // namespace esl
