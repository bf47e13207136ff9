// Bytecode VM: the one per-node dispatcher of the event-driven kernel.
//
// Executes the Program produced by compile/compiler.h over the SimContext's
// SignalBoard arena, for both backends. The VM runs the context's one
// event-kernel loop per phase verbatim — the settleWith and edgeWith
// templates, which serve every shard count and are instantiated only here —
// and supplies the per-node dispatch: a kGeneric op is one op load and the
// virtual evalComb/clockEdge (BoardIo policy), a specialized op runs its
// kind's body over pre-resolved word/bitplane addresses. The backend is only
// the lowering mode: SimContext::Backend::kInterpreted lowers every node to
// kGeneric, kCompiled specializes. The settle stays a bitmap worklist and the
// edge stays a hot-group event scan, so cycles stay O(active) either way,
// while a specialized op's per-node cost drops to raw loads/stores.
//
// --- Node state ----------------------------------------------------------------
//
// Per-node sequential state (EB rings, fork done bits, source cursors, VLU
// operands, pending anti-token counters) lives in the SimContext's node-state
// arena — one contiguous u64 array and the only copy of that state, shared
// by both lowerings, packState() and the audits. The VM owns no node state:
// each specialized op addresses its node's record through the precomputed
// stateOff, so a settle step streams the op record, its port records and its
// state record. Statistics (firings, transfer logs) stay on the node objects —
// packState excludes them too.
//
// --- One semantics, two accessor policies --------------------------------------
//
// The VM holds no per-kind logic. Each catalog kind writes its cycle
// semantics once, as comb/edge member templates in its header
// (elastic/*.h), over a port-accessor policy; evalNode/edgeNode only switch
// on the opcode and run that body over RawIo (vm.cpp), which reads and
// writes the board's planes and payload words through the op's pre-resolved
// SlotAddrs, mirroring SignalBoard::setBitAt/setDataAt change tracking.
// The virtual evalComb/clockEdge run the same body over BoardIo
// (elastic/board_io.h). Per-kind constants the compiler stashed in
// Op::fnA/fnB are passed in as arguments (no load from the node object),
// and the bodies are inline templates that the compiler instantiates over
// RawIo's word loads and stores — no virtual call, no slot lookup, no Sig
// proxy. Settled fixpoints — and therefore packState() — are bit-identical
// between the lowerings; cross-check mode keeps the sweep kernel as the
// runtime settle oracle, and its edge audit replays each specialized op
// against the virtual clockEdge, i.e. checks that the two policies agree.
//
// The program is re-lowered whenever the netlist's topologyVersion, the
// board's layoutGeneration (a shard-count change permutes slots without a
// topology bump) or the backend moves; the context re-lays the state arena
// with the board, keeping every surviving node's record, so state survives
// netlist surgery, re-layouts and backend switches with nothing to copy
// back. Raw board and arena pointers are re-fetched at every phase (bind()).
//
// Sharded composition (shards > 1): the compiler keeps every boundary-
// adjacent node generic (BoardIo's staging-aware Sig accessors), interior
// specialized ops write owner-exclusive planes, and each shard's state
// records start cache-line-aligned — so the staged boundary exchange of the
// shared loop carries over unchanged and packState stays bit-identical to
// the one-shard cycle for every shard count.
#pragma once

#include <cstdint>

#include "compile/compiler.h"

namespace esl {
class SimContext;
}

namespace esl::compile {

/// The board the raw port-accessor policy (RawIo, vm.cpp) reads through,
/// and the storage it writes directly: control planes, narrow payload words
/// and the changed bitmap.
struct RawArenas {
  SignalBoard* board = nullptr;
  std::uint64_t* ctrl = nullptr;
  std::uint64_t* words = nullptr;
  std::uint64_t* changed = nullptr;
};

class Vm {
 public:
  explicit Vm(SimContext& ctx) : ctx_(ctx) {}

  /// The event-driven settle: the context's worklist loop over the program's
  /// ops (level-synchronous rounds when the context is sharded).
  void settle();
  /// The dirty-tracked clock edge: the context's edge loop over the ops.
  void edge();

  /// Refreshes the context's topology cache, then compiles (if the program
  /// is stale) and binds the raw pointers; settle() and edge() start with it.
  void prepare();
  /// True when `id` lowered to a specialized op (generic ops run the virtual
  /// clockEdge itself, so audits skip them; never true for kInterpreted).
  bool hasSpecializedOpFor(NodeId id) const;
  /// Replays one node's compiled clock edge on its (rewound) arena record
  /// without statistics side effects (the edge audit compares it with the
  /// interpreted edge; stats must count once).
  void edgeNodeForAudit(NodeId id);

 private:
  void ensureProgram();
  void bind();
  void evalNode(const Op& op);
  void edgeNode(const Op& op, bool applyStats);
  std::uint64_t* state(const Op& op) const { return records_ + op.stateOff; }

  SimContext& ctx_;
  Program prog_;

  // Raw board and node-state arena pointers, re-fetched by bind() before
  // every phase.
  RawArenas arenas_;
  std::uint64_t* records_ = nullptr;
};

}  // namespace esl::compile
