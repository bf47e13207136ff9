#include "compile/vm.h"

#include "base/executor.h"
#include "base/rng.h"
#include "elastic/buffer.h"
#include "elastic/context.h"
#include "elastic/eemux.h"
#include "elastic/endpoints.h"
#include "elastic/fork.h"
#include "elastic/func.h"
#include "elastic/netlist.h"
#include "elastic/shared.h"
#include "elastic/vlu.h"

namespace esl::compile {

namespace {
constexpr unsigned kVf = SignalBoard::kVf;
constexpr unsigned kSf = SignalBoard::kSf;
constexpr unsigned kVb = SignalBoard::kVb;
constexpr unsigned kSb = SignalBoard::kSb;
}  // namespace

// --- lifecycle ---------------------------------------------------------------

void Vm::ensureProgram() {
  // A program is valid for one (topologyVersion, board layoutGeneration)
  // pair: topology moves on splices/transformations, the layout moves on
  // every board re-layout — including shard-count changes, which permute
  // slots WITHOUT a topology bump. Reusing a program across either would
  // store through stale raw offsets.
  // The context lays out the node-state arena together with the board, so
  // the same key covers the record offsets.
  if (hasProgram_ && prog_.topologyVersion == ctx_.netlist_.topologyVersion() &&
      prog_.boardLayout == ctx_.board_.layoutGeneration())
    return;
  prog_ = compileProgram(ctx_.netlist_, ctx_.board_, ctx_.stateOff_,
                         ctx_.shards_ > 1 ? &ctx_.plan_ : nullptr);
  hasProgram_ = true;
}

void Vm::bind() {
  SignalBoard& b = ctx_.board_;
  ctrl_ = b.ctrlData();
  words_ = b.payloadData();
  spill_ = b.spillData();
  changed_ = b.changedData();
  records_ = ctx_.state_.data();
}

void Vm::settle() {
  ctx_.ensureTopologyCache();  // board layout current before addressing it
  ensureProgram();
  bind();
  if (ctx_.shards_ > 1)
    ctx_.settleShardedWith([this](NodeId id) { evalNode(id); });
  else
    ctx_.settleEventDrivenWith([this](NodeId id) { evalNode(id); });
}

void Vm::edge() {
  ctx_.ensureTopologyCache();
  ensureProgram();
  bind();
  if (ctx_.shards_ > 1)
    ctx_.edgeShardedWith([this](NodeId id) { edgeNode(id, true); });
  else
    ctx_.edgeSparseWith([this](NodeId id) { edgeNode(id, true); });
}

void Vm::prepare() {
  ctx_.ensureTopologyCache();
  ensureProgram();
  bind();
}

bool Vm::hasSpecializedOpFor(NodeId id) const {
  if (!hasProgram_ || id >= prog_.opOf.size()) return false;
  const std::uint32_t idx = prog_.opOf[id];
  return idx != Program::kNoOp && prog_.ops[idx].code != OpCode::kGeneric;
}

void Vm::edgeNodeForAudit(NodeId id) { edgeNode(id, false); }

// --- raw payload access (mirrors SignalBoard::setDataAt and friends) ---------

BitVec Vm::rdData(const SlotAddr& a) const {
  if (a.dataOff == SignalBoard::kNoSlot) return BitVec(a.width);
  if (a.dataOff & SignalBoard::kWideFlag)
    return spill_[a.dataOff & ~SignalBoard::kWideFlag];
  return BitVec(a.width, words_[a.dataOff]);
}

std::uint64_t Vm::rdLow64(const SlotAddr& a) const {
  if (a.dataOff == SignalBoard::kNoSlot) return 0;
  if (a.dataOff & SignalBoard::kWideFlag)
    return spill_[a.dataOff & ~SignalBoard::kWideFlag].toUint64();
  return words_[a.dataOff];
}

bool Vm::dataEqualsValue(const SlotAddr& a, const BitVec& v) const {
  if (v.width() != a.width) return false;
  if (a.dataOff == SignalBoard::kNoSlot) return true;
  if (a.dataOff & SignalBoard::kWideFlag)
    return spill_[a.dataOff & ~SignalBoard::kWideFlag] == v;
  return words_[a.dataOff] == v.toUint64();
}

void Vm::wrData(const SlotAddr& a, const BitVec& v) {
  ESL_CHECK(v.width() == a.width, "SignalBoard: payload width mismatch");
  if (a.dataOff == SignalBoard::kNoSlot) return;  // zero-width control token
  if (a.dataOff & SignalBoard::kWideFlag) {
    BitVec& dst = spill_[a.dataOff & ~SignalBoard::kWideFlag];
    if (dst == v) return;
    dst = v;
  } else {
    std::uint64_t& w = words_[a.dataOff];
    const std::uint64_t nv = v.toUint64();
    if (w == nv) return;
    w = nv;
  }
  changed_[a.chWord()] |= a.bitMask();
}

void Vm::copyData(const SlotAddr& dst, const SlotAddr& src) {
  // Same-width routing copy (fork branches, mux selection); widths are equal
  // by construction, audited when the channels were bound.
  if (dst.dataOff == SignalBoard::kNoSlot) return;
  if (dst.dataOff & SignalBoard::kWideFlag) {
    BitVec& out = spill_[dst.dataOff & ~SignalBoard::kWideFlag];
    const BitVec& in = spill_[src.dataOff & ~SignalBoard::kWideFlag];
    if (out == in) return;
    out = in;
  } else {
    std::uint64_t& out = words_[dst.dataOff];
    if (out == words_[src.dataOff]) return;
    out = words_[src.dataOff];
  }
  changed_[dst.chWord()] |= dst.bitMask();
}

std::uint64_t Vm::funcWord(const Op& op, const SlotAddr* P) const {
  const unsigned outW = P[op.nIn].width;
  const auto mask = [outW](std::uint64_t v) {
    return outW >= 64 ? v : v & ((std::uint64_t{1} << outW) - 1);
  };
  switch (op.fnKind) {
    case FuncKind::kId:
      return rdLow64(P[0]);
    case FuncKind::kAddK:
      return mask(rdLow64(P[0]) + op.fnA);
    case FuncKind::kAdd:
      return mask(rdLow64(P[0]) + rdLow64(P[1]));
    case FuncKind::kXor: {
      std::uint64_t acc = rdLow64(P[0]);
      for (unsigned i = 1; i < op.nIn; ++i) acc ^= rdLow64(P[i]);
      return acc;
    }
    case FuncKind::kGray: {
      const std::uint64_t x = rdLow64(P[0]);
      return x ^ (x >> 1);
    }
    case FuncKind::kJoinMux: {
      const std::uint64_t sel = rdLow64(P[0]);
      ESL_CHECK(sel < op.nIn - 1u, "join mux: select out of range");
      return rdLow64(P[1 + sel]);
    }
    case FuncKind::kConcat:
      return rdLow64(P[0]) | rdLow64(P[1]) << P[0].width;
    case FuncKind::kPermille:
      return hashChancePermille(rdLow64(P[0]),
                                static_cast<unsigned>(op.fnA), op.fnB)
                 ? 1
                 : 0;
    case FuncKind::kOpaque:
      break;
  }
  return 0;
}

bool Vm::fwdAt(const SlotAddr& a) const {
  return rdBit(a, kVf) && !rdBit(a, kSf) && !rdBit(a, kVb);
}

bool Vm::killAt(const SlotAddr& a) const {
  return rdBit(a, kVf) && rdBit(a, kVb);
}

bool Vm::bwdAt(const SlotAddr& a) const {
  return rdBit(a, kVb) && !rdBit(a, kSb) && !rdBit(a, kVf);
}

// --- combinational ops -------------------------------------------------------
// Each case is a line-for-line transcription of the node's evalComb against
// raw addresses and the node's arena record (S). The order and values of
// every signal write match the interpreted node exactly, so both backends
// settle to the same fixpoint through the shared worklist loop.

void Vm::evalNode(NodeId id) {
  const Op& op = prog_.ops[prog_.opOf[id]];
  const SlotAddr* P = prog_.ports.data() + op.portBase;
  switch (op.code) {
    case OpCode::kEb: {
      const std::uint64_t* S = records_ + op.stateOff;
      const SlotAddr& in = P[0];
      const SlotAddr& out = P[1];
      const std::uint32_t count = hi32(S[ElasticBuffer::kHeadCount]);
      const std::int64_t anti = static_cast<std::int64_t>(S[ElasticBuffer::kAnti]);
      const bool hasTok = count > 0;
      wrBit(out, kVf, hasTok);
      if (hasTok)  // front = ring[head]
        wrWord(out, S[ElasticBuffer::kRing + lo32(S[ElasticBuffer::kHeadCount])]);
      wrBit(out, kSb, !hasTok && anti >= static_cast<std::int64_t>(op.fnB));
      wrBit(in, kSf,
            static_cast<std::int64_t>(count) - anti >=
                static_cast<std::int64_t>(op.fnA));
      wrBit(in, kVb, anti > 0);
      break;
    }
    case OpCode::kEb0: {
      const std::uint64_t* S = records_ + op.stateOff;
      const SlotAddr& in = P[0];
      const SlotAddr& out = P[1];
      const bool full = S[ElasticBuffer0::kFull] != 0;
      wrBit(out, kVf, full);
      if (full) wrWord(out, S[ElasticBuffer0::kSlot]);
      const bool leave = full && (!rdBit(out, kSf) || rdBit(out, kVb));
      wrBit(in, kSf, full && !leave);
      wrBit(in, kVb, !full && rdBit(out, kVb));
      wrBit(out, kSb, !full && !rdBit(in, kVf) && rdBit(in, kSb));
      break;
    }
    case OpCode::kBrokenEb: {
      const std::uint64_t* S = records_ + op.stateOff;
      const SlotAddr& in = P[0];
      const SlotAddr& out = P[1];
      const bool full = (S[BrokenBuffer::kFlags] & BrokenBuffer::kFull) != 0;
      wrBit(out, kVf, full);
      if (full) wrWord(out, S[BrokenBuffer::kSlot]);
      wrBit(out, kSb, true);
      wrBit(in, kSf, (S[BrokenBuffer::kFlags] & BrokenBuffer::kStopReg) != 0);
      wrBit(in, kVb, false);
      break;
    }
    case OpCode::kFork: {
      const std::uint64_t done = records_[op.stateOff];
      const SlotAddr& in = P[0];
      const unsigned n = op.nOut;
      const bool inVf = rdBit(in, kVf);
      for (unsigned i = 0; i < n; ++i) {
        const SlotAddr& br = P[1 + i];
        const bool pending = inVf && !((done >> i) & 1);
        wrBit(br, kVf, pending);
        if (pending) copyData(br, in);
        wrBit(br, kSb, !pending);
      }
      bool allDone = inVf;
      for (unsigned i = 0; i < n && allDone; ++i) {
        const SlotAddr& br = P[1 + i];
        allDone =
            ((done >> i) & 1) || (inVf && (rdBit(br, kVb) || !rdBit(br, kSf)));
      }
      wrBit(in, kSf, !allDone);
      wrBit(in, kVb, false);
      break;
    }
    case OpCode::kFunc: {
      auto& fn = *static_cast<FuncNode*>(op.obj);
      const unsigned n = op.nIn;
      const SlotAddr& out = P[n];
      bool allIn = true;
      for (unsigned i = 0; i < n; ++i) allIn = allIn && rdBit(P[i], kVf);
      wrBit(out, kVf, allIn);
      if (allIn) {
        if (op.fnKind != FuncKind::kOpaque) {
          // Word-specialized datapath: fn_ is pure, so skipping its memo is
          // unobservable (the memo is a cache, never serialized).
          wrWord(out, funcWord(op, P));
        } else {
          bool hit = fn.memoValid_;
          for (unsigned i = 0; hit && i < n; ++i)
            hit = dataEqualsValue(P[i], fn.memoArgs_[i]);
          if (!hit) {
            fn.memoArgs_.resize(n);
            for (unsigned i = 0; i < n; ++i) fn.memoArgs_[i] = rdData(P[i]);
            fn.memoOut_ = fn.fn_(fn.memoArgs_);
            ESL_CHECK(fn.memoOut_.width() == fn.outputWidth(0),
                      "FuncNode '" + fn.name() +
                          "': function returned wrong width");
            fn.memoValid_ = true;
          }
          wrData(out, fn.memoOut_);
        }
      }
      const bool outVb = rdBit(out, kVb);
      const bool fire = allIn && (!rdBit(out, kSf) || outVb);
      bool allCan = true;
      for (unsigned i = 0; i < n; ++i)
        allCan = allCan && (rdBit(P[i], kVf) || !rdBit(P[i], kSb));
      const bool back = outVb && !allIn && allCan;
      for (unsigned i = 0; i < n; ++i) {
        wrBit(P[i], kVb, back);
        wrBit(P[i], kSf, !fire && !back);
      }
      wrBit(out, kSb, !allIn && !allCan);
      break;
    }
    case OpCode::kEeMux: {
      const std::uint64_t* S = records_ + op.stateOff;
      const unsigned k = op.nIn - 1u;
      const SlotAddr& sel = P[0];
      const SlotAddr& out = P[1 + k];
      const bool selValid = rdBit(sel, kVf);
      unsigned selIdx = 0;
      if (selValid) {
        const std::uint64_t idx = rdLow64(sel);
        ESL_CHECK(idx < k, "EarlyEvalMux '" + op.node->name() +
                               "': select value out of range");
        selIdx = static_cast<unsigned>(idx);
      }
      const bool usable =
          selValid && S[selIdx] == 0 && rdBit(P[1 + selIdx], kVf);
      const bool fire = usable && (!rdBit(out, kSf) || rdBit(out, kVb));
      wrBit(out, kVf, usable);
      if (usable) copyData(out, P[1 + selIdx]);
      wrBit(out, kSb, !usable);
      wrBit(sel, kSf, !fire);
      wrBit(sel, kVb, false);
      for (unsigned i = 0; i < k; ++i) {
        const SlotAddr& in = P[1 + i];
        const bool anti = S[i] + ((fire && i != selIdx) ? 1u : 0u) > 0;
        wrBit(in, kVb, anti);
        if (anti)
          wrBit(in, kSf, false);  // kill and stop are mutually exclusive
        else if (selValid && i == selIdx)
          wrBit(in, kSf, !fire);
        else
          wrBit(in, kSf, rdBit(in, kVf));
      }
      break;
    }
    case OpCode::kSource: {
      auto& src = *static_cast<TokenSource*>(op.obj);
      const std::uint64_t* S = records_ + op.stateOff;
      const SlotAddr& out = P[0];
      const std::uint64_t offering = S[TokenSource::kOffer];
      const std::optional<BitVec> tok =
          (offering & 1) ? src.tokenAt(S[TokenSource::kIndex]) : std::nullopt;
      const bool offer = tok.has_value() && hi32(offering) == 0;
      wrBit(out, kVf, offer);
      if (offer) wrData(out, *tok);
      wrBit(out, kSb, false);  // sources always absorb anti-tokens
      break;
    }
    case OpCode::kSink: {
      auto& sk = *static_cast<TokenSink*>(op.obj);
      const std::uint64_t anti = records_[op.stateOff + TokenSink::kAnti];
      const SlotAddr& in = P[0];
      const bool wantAnti =
          (anti & 1) ||
          (hi32(anti) > 0 && sk.antiGate_ && sk.antiGate_(ctx_.cycle()));
      wrBit(in, kVb, wantAnti);
      wrBit(in, kSf, !wantAnti && sk.ready_ && !sk.ready_(ctx_.cycle()));
      break;
    }
    case OpCode::kNondetSource: {
      const auto& ns = *static_cast<const NondetSource*>(op.obj);
      const std::uint64_t* S = records_ + op.stateOff;
      const SlotAddr& out = P[0];
      const bool held = S[NondetSource::kOffer] != 0;  // Retry+ persistence
      const std::uint64_t credit = S[NondetSource::kCredit];
      const bool offeringNow =
          held || ctx_.choice(*op.node, 0) || hi32(credit) >= op.fnB;
      const bool offer = offeringNow && lo32(credit) == 0;
      wrBit(out, kVf, offer);
      if (offer) {
        std::uint64_t v = S[NondetSource::kValue];
        if (!held) {
          v = 0;
          for (unsigned b = 0; b < ns.dataBits_; ++b)
            if (ctx_.choice(*op.node, 1 + b)) v |= std::uint64_t{1} << b;
        }
        wrWord(out, v);
      }
      wrBit(out, kSb, !offer && lo32(credit) >= op.fnA);
      break;
    }
    case OpCode::kNondetSink: {
      const std::uint64_t* S = records_ + op.stateOff;
      const SlotAddr& in = P[0];
      const std::uint64_t stops = S[NondetSink::kStops];
      const bool anti = (stops & 1) || (op.fnB != 0 && ctx_.choice(*op.node, 1));
      wrBit(in, kVb, anti);
      wrBit(in, kSf, !anti && hi32(stops) < op.fnA && ctx_.choice(*op.node, 0));
      break;
    }
    case OpCode::kShared: {
      auto& sm = *static_cast<SharedModule*>(op.obj);
      const unsigned k = sm.channels_;
      sm.validScratch_.resize(k);
      for (unsigned i = 0; i < k; ++i) sm.validScratch_[i] = rdBit(P[i], kVf);
      const sched::ChoiceReader reader = [this, &sm](unsigned b) {
        return ctx_.choice(sm, b);
      };
      const unsigned sched = sm.scheduler_->predict(sm.validScratch_, reader);
      ESL_CHECK(sched < k, "SharedModule: scheduler predicted out of range");
      sm.lastPrediction_ = sched;
      for (unsigned i = 0; i < k; ++i) {
        const SlotAddr& in = P[i];
        const SlotAddr& out = P[k + i];
        const bool routed = i == sched;
        const bool inVf = rdBit(in, kVf);
        const bool outVf = routed && inVf;
        wrBit(out, kVf, outVf);
        if (outVf) {
          if (!sm.memoValid_ || !dataEqualsValue(in, sm.memoIn_)) {
            sm.memoIn_ = rdData(in);
            sm.memoOut_ = sm.fn_(sm.memoIn_);
            ESL_CHECK(sm.memoOut_.width() == sm.outWidth_,
                      "SharedModule '" + sm.name() +
                          "': function returned wrong width");
            sm.memoValid_ = true;
          }
          wrData(out, sm.memoOut_);
        }
        const bool anti = rdBit(out, kVb);
        wrBit(in, kVb, anti);
        wrBit(out, kSb, !inVf && rdBit(in, kSb));
        wrBit(in, kSf, !anti && (routed ? rdBit(out, kSf) : true));
      }
      break;
    }
    case OpCode::kVlu: {
      const std::uint64_t* S = records_ + op.stateOff;
      const SlotAddr& in = P[0];
      const SlotAddr& out = P[1];
      // Specialized VLUs have one-word operands: the result word follows.
      constexpr std::uint32_t kVluResult = StallingVLU::kPendingOff + 1;
      const std::uint64_t flags = S[StallingVLU::kFlags];
      const bool haveResult = (flags & StallingVLU::kResult) != 0;
      wrBit(out, kVf, haveResult);
      if (haveResult) wrWord(out, S[kVluResult]);
      wrBit(out, kSb, !haveResult);
      const bool leave = haveResult && (!rdBit(out, kSf) || rdBit(out, kVb));
      const bool canAccept =
          !(flags & StallingVLU::kPending) && (!haveResult || leave);
      wrBit(in, kSf, !canAccept);
      wrBit(in, kVb, false);
      break;
    }
    case OpCode::kGeneric:
      op.node->evalComb(ctx_);
      break;
  }
}

// --- clock-edge ops ----------------------------------------------------------
// Transcriptions of each node's clockEdge against the arena records.
// `applyStats == false` (the edge audit's replay) suppresses only the
// statistics that packState() excludes — serialized state always advances, so
// replaying an edge from a rewound snapshot lands on the same bytes.

void Vm::edgeNode(NodeId id, bool applyStats) {
  const Op& op = prog_.ops[prog_.opOf[id]];
  const SlotAddr* P = prog_.ports.data() + op.portBase;
  switch (op.code) {
    case OpCode::kEb: {
      std::uint64_t* S = records_ + op.stateOff;
      const Ev in = evAt(P[0]);
      const Ev out = evAt(P[1]);
      const std::uint32_t cap = static_cast<std::uint32_t>(op.fnA);
      std::uint32_t head = lo32(S[ElasticBuffer::kHeadCount]);
      std::uint32_t count = hi32(S[ElasticBuffer::kHeadCount]);
      std::int64_t anti = static_cast<std::int64_t>(S[ElasticBuffer::kAnti]);
      if (out.kill || out.fwd) {
        ESL_ASSERT(count > 0);
        head = head + 1 == cap ? 0 : head + 1;
        --count;
      } else if (out.bwd) {
        ESL_ASSERT(count == 0);
        ++anti;
      }
      if (in.kill) {
        ESL_ASSERT(anti > 0);
        --anti;
      } else if (in.fwd) {
        std::uint32_t tail = head + count;
        if (tail >= cap) tail -= cap;
        S[ElasticBuffer::kRing + tail] = rdLow64(P[0]);
        ++count;
        ESL_ASSERT(count <= cap);
      } else if (in.bwd) {
        ESL_ASSERT(anti > 0);
        --anti;
      }
      while (count > 0 && anti > 0) {
        head = head + 1 == cap ? 0 : head + 1;
        --count;
        --anti;
      }
      ESL_ASSERT(count == 0 || anti == 0);
      S[ElasticBuffer::kHeadCount] = pack32(head, count);
      S[ElasticBuffer::kAnti] = static_cast<std::uint64_t>(anti);
      break;
    }
    case OpCode::kEb0: {
      std::uint64_t* S = records_ + op.stateOff;
      const Ev in = evAt(P[0]);
      const Ev out = evAt(P[1]);
      bool has = S[ElasticBuffer0::kFull] != 0;
      if (out.kill || out.fwd) has = false;
      if (in.fwd) {
        ESL_ASSERT(!has);
        has = true;
        S[ElasticBuffer0::kSlot] = rdLow64(P[0]);
      }
      S[ElasticBuffer0::kFull] = has ? 1 : 0;
      break;
    }
    case OpCode::kBrokenEb: {
      std::uint64_t* S = records_ + op.stateOff;
      const Ev in = evAt(P[0]);
      const Ev out = evAt(P[1]);
      bool has = (S[BrokenBuffer::kFlags] & BrokenBuffer::kFull) != 0;
      const bool stopReg = has;  // the bug: stop lags the state by a cycle
      if (out.fwd) has = false;
      if (in.fwd) {  // may overwrite a live token
        has = true;
        S[BrokenBuffer::kSlot] = rdLow64(P[0]);
      }
      S[BrokenBuffer::kFlags] = (has ? BrokenBuffer::kFull : 0) |
                                (stopReg ? BrokenBuffer::kStopReg : 0);
      break;
    }
    case OpCode::kFork: {
      std::uint64_t* S = records_ + op.stateOff;
      const SlotAddr& in = P[0];
      const unsigned n = op.nOut;
      if (!rdBit(in, kVf)) break;
      std::uint64_t next = 0;
      bool all = true;
      for (unsigned i = 0; i < n; ++i) {
        const SlotAddr& br = P[1 + i];
        const bool d =
            ((S[0] >> i) & 1) || rdBit(br, kVb) || !rdBit(br, kSf);
        if (d) next |= std::uint64_t{1} << i;
        all = all && d;
      }
      S[0] = all ? 0 : next;
      break;
    }
    case OpCode::kFunc: {
      auto& fn = *static_cast<FuncNode*>(op.obj);
      if (fwdAt(P[op.nIn]) && applyStats) ++fn.firings_;
      break;
    }
    case OpCode::kEeMux: {
      auto& mx = *static_cast<EarlyEvalMux*>(op.obj);
      std::uint64_t* S = records_ + op.stateOff;
      const unsigned k = op.nIn - 1u;
      const SlotAddr& sel = P[0];
      const SlotAddr& out = P[1 + k];
      const bool selValid = rdBit(sel, kVf);
      unsigned selIdx = 0;
      if (selValid) {
        const std::uint64_t idx = rdLow64(sel);
        ESL_CHECK(idx < k, "EarlyEvalMux '" + op.node->name() +
                               "': select value out of range");
        selIdx = static_cast<unsigned>(idx);
      }
      const bool usable =
          selValid && S[selIdx] == 0 && rdBit(P[1 + selIdx], kVf);
      const bool fire = usable && (!rdBit(out, kSf) || rdBit(out, kVb));
      for (unsigned i = 0; i < k; ++i) {
        const Ev in = evAt(P[1 + i]);
        std::uint64_t avail = S[i] + ((fire && i != selIdx) ? 1u : 0u);
        if (in.vb && (in.vf || !in.sb)) {
          ESL_ASSERT(avail > 0);
          --avail;  // delivered: killed a token or moved upstream
        }
        if (fire && i != selIdx && applyStats) ++mx.antiEmitted_;
        S[i] = avail;
      }
      if (fwdAt(out) && applyStats) ++mx.firings_;
      break;
    }
    case OpCode::kSource: {
      auto& src = *static_cast<TokenSource*>(op.obj);
      std::uint64_t* S = records_ + op.stateOff;
      const Ev out = evAt(P[0]);
      std::uint64_t index = S[TokenSource::kIndex];
      bool offering = (S[TokenSource::kOffer] & 1) != 0;
      std::uint32_t killCredit = hi32(S[TokenSource::kOffer]);
      if (out.kill) {
        ++index;
        if (applyStats) ++src.killedCount_;
        offering = false;
      } else if (out.fwd) {
        ++index;
        if (applyStats) ++src.emitted_;
        offering = false;
      } else if (out.bwd) {
        ++killCredit;
      }
      // An owed kill silently consumes the next available token (one per
      // cycle).
      if (killCredit > 0 && src.tokenAt(index).has_value() && !out.vf) {
        ++index;
        --killCredit;
        if (applyStats) ++src.killedCount_;
        offering = false;
      }
      // Offer the next token when the gate opens for the upcoming cycle.
      if (!offering && (!src.gate_ || src.gate_(ctx_.cycle() + 1)) &&
          src.tokenAt(index).has_value() && killCredit == 0)
        offering = true;
      S[TokenSource::kIndex] = index;
      S[TokenSource::kOffer] = pack32(offering ? 1 : 0, killCredit);
      break;
    }
    case OpCode::kSink: {
      auto& sk = *static_cast<TokenSink*>(op.obj);
      std::uint64_t& S = records_[op.stateOff + TokenSink::kAnti];
      const Ev in = evAt(P[0]);
      if (in.fwd && applyStats)
        sk.transfers_.push_back({ctx_.cycle(), rdData(P[0])});
      if (in.vb) {
        bool antiActive = (S & 1) != 0;
        std::uint32_t remaining = hi32(S);
        const bool delivered = in.vf || !in.sb;
        if (delivered) {
          ESL_ASSERT(remaining > 0);
          --remaining;
          antiActive = false;
        } else {
          antiActive = true;  // Retry-: persist until delivered
        }
        S = pack32(antiActive ? 1 : 0, remaining);
      }
      break;
    }
    case OpCode::kNondetSource: {
      const auto& ns = *static_cast<const NondetSource*>(op.obj);
      std::uint64_t* S = records_ + op.stateOff;
      const Ev out = evAt(P[0]);
      const bool held = S[NondetSource::kOffer] != 0;
      std::uint32_t killCredit = lo32(S[NondetSource::kCredit]);
      std::uint32_t idleStreak = hi32(S[NondetSource::kCredit]);
      bool offered =
          held || ctx_.choice(*op.node, 0) || idleStreak >= op.fnB;
      // Retry+ persistence: value fixed while held.
      std::uint64_t v = S[NondetSource::kValue];
      if (!held) {
        v = 0;
        for (unsigned b = 0; b < ns.dataBits_; ++b)
          if (ctx_.choice(*op.node, 1 + b)) v |= std::uint64_t{1} << b;
      }
      if (out.kill || out.fwd) offered = false;
      if (out.bwd) ++killCredit;
      // An owed kill annihilates the (hidden) offered token.
      if (offered && killCredit > 0) {
        offered = false;
        --killCredit;
      }
      S[NondetSource::kOffer] = offered ? 1 : 0;
      S[NondetSource::kValue] = offered ? v : 0;
      // Bounded fairness: count consecutive cycles without an offer. Must
      // re-query the offer decision AFTER the offering update, like the node.
      if (offered || ctx_.choice(*op.node, 0) || idleStreak >= op.fnB)
        idleStreak = 0;
      else if (idleStreak < op.fnB)
        ++idleStreak;
      S[NondetSource::kCredit] = pack32(killCredit, idleStreak);
      break;
    }
    case OpCode::kNondetSink: {
      std::uint64_t& S = records_[op.stateOff + NondetSink::kStops];
      const Ev in = evAt(P[0]);
      std::uint32_t stops = in.sf ? hi32(S) + 1 : 0;
      if (stops > op.fnA) stops = static_cast<std::uint32_t>(op.fnA);
      bool antiActive = (S & 1) != 0;
      if (in.vb) antiActive = !(in.vf || !in.sb);
      S = pack32(antiActive ? 1 : 0, stops);
      break;
    }
    case OpCode::kShared: {
      auto& sm = *static_cast<SharedModule*>(op.obj);
      const unsigned k = sm.channels_;
      // lastPrediction_ is the settled prediction (evalComb ran on the
      // settled signals); predict() is pure, no need to recompute it.
      sched::Observation& obs = sm.obsScratch_;
      obs.predicted = sm.lastPrediction_;
      obs.valid.resize(k);
      obs.demand.resize(k);
      obs.served.resize(k);
      obs.killed.resize(k);
      bool anyDemand = false;
      for (unsigned i = 0; i < k; ++i) {
        const Ev in = evAt(P[i]);
        const Ev out = evAt(P[k + i]);
        obs.valid[i] = in.vf;
        obs.demand[i] = out.sf && !out.vf;
        obs.served[i] = out.fwd;
        obs.killed[i] = in.kill;
        if (obs.served[i] && applyStats) ++sm.served_[i];
        anyDemand = anyDemand || obs.demand[i];
      }
      if (anyDemand && applyStats) ++sm.demandCycles_;
      sm.scheduler_->observe(obs);
      break;
    }
    case OpCode::kVlu: {
      auto& vu = *static_cast<StallingVLU*>(op.obj);
      std::uint64_t* S = records_ + op.stateOff;
      const Ev in = evAt(P[0]);
      const Ev out = evAt(P[1]);
      constexpr std::uint32_t kVluResult = StallingVLU::kPendingOff + 1;
      bool hasPending = (S[StallingVLU::kFlags] & StallingVLU::kPending) != 0;
      bool hasResult = (S[StallingVLU::kFlags] & StallingVLU::kResult) != 0;
      if (out.kill || out.fwd) {
        if (out.fwd && applyStats) ++vu.completed_;
        hasResult = false;
      }
      if (hasPending) {
        ESL_ASSERT(!hasResult);
        storePayload(S + kVluResult,
                     vu.exact_(loadPayload(S + StallingVLU::kPendingOff, P[0].width)),
                     P[1].width);
        hasResult = true;
        hasPending = false;
      } else if (in.fwd) {
        const BitVec x = rdData(P[0]);
        if (vu.err_(x)) {
          S[StallingVLU::kPendingOff] = rdLow64(P[0]);  // bubble, sender stalled
          hasPending = true;
          if (applyStats) ++vu.stalls_;
        } else {
          // approx == exact when no error flagged
          storePayload(S + kVluResult, vu.exact_(x), P[1].width);
          hasResult = true;
        }
      }
      S[StallingVLU::kFlags] = (hasPending ? StallingVLU::kPending : 0) |
                               (hasResult ? StallingVLU::kResult : 0);
      break;
    }
    case OpCode::kGeneric:
      op.node->clockEdge(ctx_);
      break;
  }
}

}  // namespace esl::compile
