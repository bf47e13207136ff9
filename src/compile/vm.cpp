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

/// The compiled VM's port-accessor policy (the surface is listed in
/// elastic/board_io.h). Ports are the op's pre-resolved SlotAddr records.
/// Control-bit and narrow-payload writes are raw, branch-free stores that
/// mirror SignalBoard::setBitAt/setDataAt change tracking, so a kind's
/// comb/edge body settles to the same fixpoint under either policy; reads,
/// BitVec-valued and spilled payloads go through the board's own accessors.
/// The compiler only lowers nodes whose ports are all interior (no boundary
/// staging to honour) and whose record payloads take one word
/// (bindKindConstants), so payloadWords() is the constant 1.
class RawIo {
 public:
  RawIo(const RawArenas& a, const Op& op, const SlotAddr* ports, SimContext& ctx)
      : a_(a), ports_(ports), nIn_(op.nIn), nOut_(op.nOut), node_(*op.node),
        ctx_(ctx) {}

  const SlotAddr& in(unsigned i) const { return ports_[i]; }
  const SlotAddr& out(unsigned i) const { return ports_[nIn_ + i]; }
  unsigned numIn() const { return nIn_; }
  unsigned numOut() const { return nOut_; }

  bool vf(const SlotAddr& p) const { return bit(p, SignalBoard::kVf); }
  bool sf(const SlotAddr& p) const { return bit(p, SignalBoard::kSf); }
  bool vb(const SlotAddr& p) const { return bit(p, SignalBoard::kVb); }
  bool sb(const SlotAddr& p) const { return bit(p, SignalBoard::kSb); }
  void setVf(const SlotAddr& p, bool v) { setBit(p, SignalBoard::kVf, v); }
  void setSf(const SlotAddr& p, bool v) { setBit(p, SignalBoard::kSf, v); }
  void setVb(const SlotAddr& p, bool v) { setBit(p, SignalBoard::kVb, v); }
  void setSb(const SlotAddr& p, bool v) { setBit(p, SignalBoard::kSb, v); }
  PortEvents events(const SlotAddr& p) const { return a_.board->eventsAt(p.slot); }

  unsigned width(const SlotAddr& p) const { return p.width; }
  static unsigned payloadWords(const SlotAddr&) { return 1; }
  std::uint64_t low64(const SlotAddr& p) const {
    return narrow(p) ? a_.words[p.dataOff] : a_.board->dataLow64At(p.slot);
  }
  BitVec data(const SlotAddr& p) const { return a_.board->dataAt(p.slot); }
  bool dataEquals(const SlotAddr& p, const BitVec& v) const {
    return a_.board->dataEqualsValueAt(p.slot, v);
  }
  void setData(const SlotAddr& p, const BitVec& v) {
    a_.board->setDataAt(p.slot, v);
  }
  /// Same-width routing copy (fork branches, mux selection).
  void copyData(const SlotAddr& dst, const SlotAddr& src) {
    if (narrow(dst))
      setWord(dst, a_.words[src.dataOff]);
    else
      a_.board->copyDataFromSlotAt(dst.slot, src.slot);
  }
  void setDataRecord(const SlotAddr& p, const std::uint64_t* rec) {
    setWord(p, rec[0]);
  }
  void storeData(const SlotAddr& p, std::uint64_t* rec) const { rec[0] = low64(p); }
  /// setDataAt() narrow fast path: `v` is already masked to the slot width,
  /// so the width audit holds by construction and no BitVec is materialized.
  void setWord(const SlotAddr& p, std::uint64_t v) {
    if (p.dataOff == SignalBoard::kNoSlot) return;
    std::uint64_t& w = a_.words[p.dataOff];
    const std::uint64_t diff = w == v ? 0 : p.bitMask();  // cmov, not a branch
    w = v;
    a_.changed[p.chWord()] |= diff;
  }

  std::uint64_t cycle() const { return ctx_.cycle(); }
  bool choice(unsigned idx) { return ctx_.choice(node_, idx); }

 private:
  bool bit(const SlotAddr& p, SignalBoard::Plane plane) const {
    return a_.board->bitAt(p.slot, plane);
  }
  void setBit(const SlotAddr& p, SignalBoard::Plane plane, bool v) {
    // Branch-free equivalent of "flip and mark changed iff different": delta
    // is bitMask when the stored bit differs from v, else 0. Signal writes
    // follow token movement, so a compare-then-write branch mispredicts
    // chronically; straight-line xor/or is cheaper than the flush.
    std::uint64_t& w = a_.ctrl[p.ctrlBase() + plane];
    const std::uint64_t delta =
        (w ^ (0 - static_cast<std::uint64_t>(v))) & p.bitMask();
    w ^= delta;
    a_.changed[p.chWord()] |= delta;
  }
  /// Payload in the narrow word arena (width 1..64).
  static bool narrow(const SlotAddr& p) {
    return p.dataOff != SignalBoard::kNoSlot &&
           !(p.dataOff & SignalBoard::kWideFlag);
  }

  RawArenas a_;
  const SlotAddr* ports_;
  unsigned nIn_;
  unsigned nOut_;
  const Node& node_;
  SimContext& ctx_;
};

/// Word-arithmetic datapath of a specialized FuncNode (fnKind != kOpaque).
std::uint64_t funcWord(const RawIo& io, const Op& op) {
  const unsigned outW = io.width(io.out(0));
  const auto mask = [outW](std::uint64_t v) {
    return outW >= 64 ? v : v & ((std::uint64_t{1} << outW) - 1);
  };
  const auto arg = [&io](unsigned i) { return io.low64(io.in(i)); };
  switch (op.fnKind) {
    case FuncKind::kId:
      return arg(0);
    case FuncKind::kAddK:
      return mask(arg(0) + op.fnA);
    case FuncKind::kAdd:
      return mask(arg(0) + arg(1));
    case FuncKind::kXor: {
      std::uint64_t acc = arg(0);
      for (unsigned i = 1; i < op.nIn; ++i) acc ^= arg(i);
      return acc;
    }
    case FuncKind::kGray: {
      const std::uint64_t x = arg(0);
      return x ^ (x >> 1);
    }
    case FuncKind::kJoinMux: {
      const std::uint64_t sel = arg(0);
      ESL_CHECK(sel < op.nIn - 1u, "join mux: select out of range");
      return arg(1 + static_cast<unsigned>(sel));
    }
    case FuncKind::kConcat:
      return arg(0) | arg(1) << io.width(io.in(0));
    case FuncKind::kPermille:
      return hashChancePermille(arg(0), static_cast<unsigned>(op.fnA), op.fnB)
                 ? 1
                 : 0;
    case FuncKind::kOpaque:
      break;
  }
  return 0;
}

}  // namespace

// --- lifecycle ---------------------------------------------------------------

void Vm::ensureProgram() {
  // A program is valid for one (topologyVersion, board layoutGeneration,
  // specialized) triple: splices move the first, every board re-layout the
  // second (shard-count changes permute slots WITHOUT a topology bump) —
  // reusing a program across either would store through stale raw offsets —
  // and setBackend the third. The arena is laid out with the board, so the
  // key covers the record offsets too. A default Program (boardLayout 0)
  // matches no laid-out board.
  const bool specialize = ctx_.backend_ == SimContext::Backend::kCompiled;
  if (prog_.topologyVersion == ctx_.netlist_.topologyVersion() &&
      prog_.boardLayout == ctx_.board_.layoutGeneration() &&
      prog_.specialized == specialize)
    return;
  prog_ = compileProgram(ctx_.netlist_, ctx_.board_, ctx_.stateOff_, specialize,
                         ctx_.shards_ > 1 ? &ctx_.plan_ : nullptr);
}

void Vm::bind() {
  SignalBoard& b = ctx_.board_;
  arenas_ = {&b, b.ctrlData(), b.payloadData(), b.changedData()};
  records_ = ctx_.state_.data();
}

void Vm::prepare() {
  ctx_.ensureTopologyCache();  // board layout current before addressing it
  ensureProgram();
  bind();
}

// A generic op costs what the virtual dispatch alone does: the op load, then
// the virtual call, inline in the loop (no RawIo, no call into the switch).

void Vm::settle() {
  prepare();
  ctx_.settleWith([this](NodeId id) {
    const Op& op = prog_.ops[id];
    op.code == OpCode::kGeneric ? op.node->evalComb(ctx_) : evalNode(op);
  });
}

void Vm::edge() {
  prepare();
  ctx_.edgeWith([this](NodeId id) {
    const Op& op = prog_.ops[id];
    op.code == OpCode::kGeneric ? op.node->clockEdge(ctx_) : edgeNode(op, true);
  });
}

bool Vm::hasSpecializedOpFor(NodeId id) const {
  return id < prog_.ops.size() && prog_.ops[id].code != OpCode::kGeneric;
}

void Vm::edgeNodeForAudit(NodeId id) { edgeNode(prog_.ops[id], false); }

// --- dispatch ----------------------------------------------------------------
// Each specialized opcode runs its kind's one comb/edge body (elastic/*.h)
// over RawIo, with the per-kind constants the compiler stashed in fnA/fnB.
// kGeneric never gets here: settle()/edge() make its virtual call.
// `applyStats == false` (the edge audit's replay) suppresses only the
// statistics that packState() excludes — serialized state always advances, so
// replaying an edge from a rewound snapshot lands on the same bytes.

void Vm::evalNode(const Op& op) {
  RawIo io(arenas_, op, prog_.ports.data() + op.portBase, ctx_);
  switch (op.code) {
    case OpCode::kEb:
      ElasticBuffer::comb(io, state(op), static_cast<std::uint32_t>(op.fnA),
                          static_cast<std::uint32_t>(op.fnB));
      break;
    case OpCode::kEb0:
      ElasticBuffer0::comb(io, state(op));
      break;
    case OpCode::kBrokenEb:
      BrokenBuffer::comb(io, state(op));
      break;
    case OpCode::kFork:
      ForkNode::comb(io, state(op));
      break;
    case OpCode::kFunc:
      static_cast<FuncNode*>(op.node)->comb(io, [&](const SlotAddr& out) {
        if (op.fnKind == FuncKind::kOpaque) return false;
        // fn_ is pure, so skipping its memo is unobservable (the memo is a
        // cache, never serialized).
        io.setWord(out, funcWord(io, op));
        return true;
      });
      break;
    case OpCode::kEeMux:
      static_cast<const EarlyEvalMux*>(op.node)->comb(io, state(op));
      break;
    case OpCode::kSource:
      static_cast<const TokenSource*>(op.node)->comb(io, state(op));
      break;
    case OpCode::kSink:
      static_cast<const TokenSink*>(op.node)->comb(io, state(op));
      break;
    case OpCode::kNondetSource:
      static_cast<const NondetSource*>(op.node)->comb(
          io, state(op), static_cast<std::uint32_t>(op.fnA),
          static_cast<std::uint32_t>(op.fnB));
      break;
    case OpCode::kNondetSink:
      NondetSink::comb(io, state(op), static_cast<std::uint32_t>(op.fnA),
                       op.fnB != 0);
      break;
    case OpCode::kShared:
      static_cast<SharedModule*>(op.node)->comb(io);
      break;
    case OpCode::kVlu:
      StallingVLU::comb(io, state(op));
      break;
    case OpCode::kGeneric:
      ESL_ASSERT(false);
  }
}

void Vm::edgeNode(const Op& op, bool applyStats) {
  RawIo io(arenas_, op, prog_.ports.data() + op.portBase, ctx_);
  switch (op.code) {
    case OpCode::kEb:
      ElasticBuffer::edge(io, state(op), static_cast<std::uint32_t>(op.fnA));
      break;
    case OpCode::kEb0:
      ElasticBuffer0::edge(io, state(op));
      break;
    case OpCode::kBrokenEb:
      BrokenBuffer::edge(io, state(op));
      break;
    case OpCode::kFork:
      ForkNode::edge(io, state(op));
      break;
    case OpCode::kFunc:
      static_cast<FuncNode*>(op.node)->edge(io, applyStats);
      break;
    case OpCode::kEeMux:
      static_cast<EarlyEvalMux*>(op.node)->edge(io, state(op), applyStats);
      break;
    case OpCode::kSource:
      static_cast<TokenSource*>(op.node)->edge(io, state(op), applyStats);
      break;
    case OpCode::kSink:
      static_cast<TokenSink*>(op.node)->edge(io, state(op), applyStats);
      break;
    case OpCode::kNondetSource:
      static_cast<const NondetSource*>(op.node)->edge(
          io, state(op), static_cast<std::uint32_t>(op.fnB));
      break;
    case OpCode::kNondetSink:
      NondetSink::edge(io, state(op), static_cast<std::uint32_t>(op.fnA));
      break;
    case OpCode::kShared:
      static_cast<SharedModule*>(op.node)->edge(io, applyStats);
      break;
    case OpCode::kVlu:
      static_cast<StallingVLU*>(op.node)->edge(io, state(op), applyStats);
      break;
    case OpCode::kGeneric:
      ESL_ASSERT(false);
  }
}

}  // namespace esl::compile
