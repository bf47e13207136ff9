// Bytecode VM for the compiled simulation backend.
//
// Executes the Program produced by compile/compiler.h over the SimContext's
// SignalBoard arena. The VM reuses the context's event-driven kernel loops
// verbatim (the drainShardWith/edgeSparseWith templates — and their sharded
// counterparts settleShardedWith/edgeShardedWith when shards > 1), swapping
// only the per-node dispatch: instead of `nodePtr_[id]->evalComb(ctx)` it
// runs a specialized op over pre-resolved word/bitplane addresses — the
// settle stays a bitmap worklist and the edge stays a hot-group event scan,
// so cycles stay O(active) while per-node cost drops to raw loads/stores.
//
// --- Node state ----------------------------------------------------------------
//
// Per-node sequential state (EB rings, fork done bits, source cursors, VLU
// operands, pending anti-token counters) lives in the SimContext's node-state
// arena — one contiguous u64 array and the only copy of that state, shared
// with the interpreted kernels, packState() and the audits. The VM owns no
// node state: each op addresses its node's record through the precomputed
// stateOff, so a settle step streams the op record, its port records and its
// state record instead of chasing into a heap-allocated node object (~5–8
// cache lines per active op before, ~2–3 sequential streams after). Each kind
// declares its record layout once (elastic/*.h); the ops below use those
// field names. Statistics (firings, transfer logs) stay on the node objects —
// packState excludes them too.
//
// Every specialized op is a line-for-line transcription of the node's
// evalComb/clockEdge against raw addresses and arena words (the VM is a
// friend of the node catalog), preserving exact write order and
// change-tracking semantics; the write helpers mirror
// SignalBoard::setBitAt/setDataAt, so settled fixpoints — and therefore
// packState() — are bit-identical to the interpreted kernels. Cross-check
// mode keeps the interpreted kernels as the runtime oracle.
//
// The program is recompiled whenever the netlist's topologyVersion OR the
// board's layoutGeneration moves (a shard-count change permutes slots without
// a topology bump); the context re-lays the state arena in the same step,
// keeping every surviving node's record, so state survives netlist surgery
// and re-layouts with nothing to copy back. Raw board and arena pointers are
// re-fetched at every phase (bind()).
//
// Sharded composition (shards > 1): the compiler keeps every boundary-
// adjacent node generic (staging-aware Sig accessors), interior specialized
// ops write owner-exclusive planes, and each shard's state records start
// cache-line-aligned — so the staged boundary exchange of the sharded
// kernels carries over unchanged and packState stays bit-identical to the
// serial compiled backend for every shard count.
#pragma once

#include <cstdint>

#include "compile/compiler.h"

namespace esl {
class SimContext;
}

namespace esl::compile {

class Vm {
 public:
  explicit Vm(SimContext& ctx) : ctx_(ctx) {}

  /// Compiled settle: event-driven worklist over specialized ops (sharded
  /// level-synchronous rounds when the context is sharded).
  void settle();
  /// Compiled clock edge: dirty-tracked hot-group scan over specialized ops.
  void edge();

  /// Compiles/binds without running a phase (audit paths).
  void prepare();
  /// True when `id` lowered to a specialized op (generic fallbacks run the
  /// same virtual code as the interpreted kernel, so audits skip them).
  bool hasSpecializedOpFor(NodeId id) const;
  /// Replays one node's compiled clock edge on its (rewound) arena record
  /// without statistics side effects (the edge audit compares it with the
  /// interpreted edge; stats must count once).
  void edgeNodeForAudit(NodeId id);

 private:
  void ensureProgram();
  void bind();
  void evalNode(NodeId id);
  void edgeNode(NodeId id, bool applyStats);

  // --- raw board access (mirrors SignalBoard::setBitAt/setDataAt exactly) ---
  bool rdBit(const SlotAddr& a, unsigned plane) const {
    return (ctrl_[a.ctrlBase() + plane] & a.bitMask()) != 0;
  }
  void wrBit(const SlotAddr& a, unsigned plane, bool v) {
    // Branch-free equivalent of "flip and mark changed iff different": delta
    // is bitMask when the stored bit differs from v, else 0. Signal writes
    // follow token movement, so a compare-then-write branch mispredicts
    // chronically; straight-line xor/or is cheaper than the flush.
    std::uint64_t& w = ctrl_[a.ctrlBase() + plane];
    const std::uint64_t delta =
        (w ^ (0 - static_cast<std::uint64_t>(v))) & a.bitMask();
    w ^= delta;
    changed_[a.chWord()] |= delta;
  }
  BitVec rdData(const SlotAddr& a) const;
  std::uint64_t rdLow64(const SlotAddr& a) const;
  bool dataEqualsValue(const SlotAddr& a, const BitVec& v) const;
  void wrData(const SlotAddr& a, const BitVec& v);
  void copyData(const SlotAddr& dst, const SlotAddr& src);
  /// setDataAt() narrow fast path for word-specialized datapaths: `v` is
  /// already masked to the slot width, so the width audit holds by
  /// construction and no BitVec is materialized.
  void wrWord(const SlotAddr& a, std::uint64_t v) {
    if (a.dataOff == SignalBoard::kNoSlot) return;
    std::uint64_t& w = words_[a.dataOff];
    const std::uint64_t diff = w == v ? 0 : a.bitMask();  // cmov, not a branch
    w = v;
    changed_[a.chWord()] |= diff;
  }
  /// True when the slot's payload lives in the narrow word arena (width in
  /// [1, 64]) — the precondition for the wrWord/word0 fast paths.
  static bool narrow(const SlotAddr& a) {
    return a.dataOff != SignalBoard::kNoSlot &&
           !(a.dataOff & SignalBoard::kWideFlag);
  }
  /// Word-arithmetic datapath of a specialized FuncNode (fnKind != kOpaque).
  std::uint64_t funcWord(const Op& op, const SlotAddr* P) const;

  // Event predicates over the settled planes (edge phase).
  bool fwdAt(const SlotAddr& a) const;
  bool killAt(const SlotAddr& a) const;
  bool bwdAt(const SlotAddr& a) const;
  /// All three event predicates from one pass over the slot's plane words
  /// (edge ops branch on several of them; one load per plane, not per use).
  struct Ev {
    bool vf, sf, vb, sb;
    bool fwd, kill, bwd;
  };
  Ev evAt(const SlotAddr& a) const {
    const std::uint32_t base = a.ctrlBase();
    const std::uint64_t m = a.bitMask();
    const bool vf = (ctrl_[base + 0] & m) != 0;
    const bool sf = (ctrl_[base + 1] & m) != 0;
    const bool vb = (ctrl_[base + 2] & m) != 0;
    const bool sb = (ctrl_[base + 3] & m) != 0;
    return {vf, sf, vb, sb, vf && !sf && !vb, vf && vb, vb && !sb && !vf};
  }

  SimContext& ctx_;
  Program prog_;
  bool hasProgram_ = false;

  // Raw board and node-state arena pointers, re-fetched by bind() before
  // every phase.
  std::uint64_t* ctrl_ = nullptr;
  std::uint64_t* words_ = nullptr;
  BitVec* spill_ = nullptr;
  std::uint64_t* changed_ = nullptr;
  std::uint64_t* records_ = nullptr;
};

}  // namespace esl::compile
