// Bytecode compiler: the one lowering both simulation backends run.
//
// compileProgram() lowers a netlist once into a flat program of per-node ops,
// indexed by NodeId: each op carries the node's kind (resolved to a
// specialized opcode by exact type), the offset of the node's record in the
// SimContext's node-state arena, the kind's per-evaluation constants, and a
// table of port addresses resolved against the board's current layout. The
// opcode selects which kind's comb/edge body the VM (src/compile/vm.h) runs
// over its raw accessor policy — the same body the virtual evalComb/clockEdge
// run through the Sig proxies — so a specialized op has no virtual dispatch,
// no Sig proxies and no slot lookups, only raw word loads/stores.
//
// This is the one place the backend is decided, as the `specialize` flag.
// Off (the interpreted backend) is the unspecialized lowering: every op is
// OpCode::kGeneric, a virtual evalComb/clockEdge through the BoardIo policy.
// On (the compiled backend) specializes every node it can; the rest stay
// kGeneric:
//   * nodes whose exact type is not in the catalog (user subclasses);
//   * nodes with unbound ports;
//   * nodes whose record the ops cannot address word-per-payload (payloads
//     wider than 64 bits, forks with more than 64 branches);
//   * under sharding, nodes touching a boundary slot (kGeneric's BoardIo is
//     staging-aware).
// Either way the program is total over the netlist.
//
// The compiler decides no record sizes or offsets: each node kind declares
// its record (Node::stateWords() and the kind's field layout) and the
// context lays the arena out; the program only copies each node's offset.
//
// The op and port records are deliberately flat and small (SlotAddr is 12
// bytes; derived coordinates are shifts off the slot index) so one settle
// step streams the op, its ports and its arena record from a couple of cache
// lines instead of touching 5–8 scattered heap objects per active node.
//
// A Program is valid for one (topologyVersion, board layoutGeneration,
// specialized) triple; the VM re-lowers whenever any of them moves. Topology
// changes (transformations, splices) bump the first; shard-count changes
// permute the board WITHOUT a topology bump, which only the second catches;
// SimContext::setBackend moves the third.
#pragma once

#include <cstdint>
#include <vector>

#include "elastic/signal_board.h"

namespace esl {
class Netlist;
class Node;
}  // namespace esl

namespace esl::compile {

/// Specialized per-kind opcodes (exact-type match; subclasses stay generic).
enum class OpCode : std::uint8_t {
  kEb,            ///< ElasticBuffer
  kEb0,           ///< ElasticBuffer0
  kBrokenEb,      ///< BrokenBuffer
  kFork,          ///< ForkNode
  kFunc,          ///< FuncNode
  kEeMux,         ///< EarlyEvalMux
  kSource,        ///< TokenSource
  kSink,          ///< TokenSink
  kNondetSource,  ///< NondetSource
  kNondetSink,    ///< NondetSink
  kShared,        ///< SharedModule
  kVlu,           ///< StallingVLU
  kGeneric,       ///< fallback: virtual evalComb/clockEdge
};

/// One channel endpoint, 12 bytes. The plane/word coordinates the VM needs
/// are pure shifts of the slot index, computed inline — keeping the record
/// small matters more than pre-computing two shifts: a node's whole port
/// table now fits one cache line.
struct SlotAddr {
  std::uint32_t slot = SignalBoard::kNoSlot;
  std::uint32_t dataOff = SignalBoard::kNoSlot;  ///< words_ | spill_+kWideFlag
  std::uint32_t width = 0;                       ///< payload width

  bool bound() const { return slot != SignalBoard::kNoSlot; }
  std::uint32_t ctrlBase() const { return (slot >> 6) * 4; }
  std::uint32_t chWord() const { return slot >> 6; }
  std::uint64_t bitMask() const { return std::uint64_t{1} << (slot & 63); }
};

/// Datapath specialization of a registry-built FuncNode: known catalog
/// functions whose operands all fit one word lower to direct word arithmetic
/// — no memo probe, no std::function call, no BitVec temporaries. kOpaque
/// keeps the node's memoized fn_ call (arbitrary C++ closures).
enum class FuncKind : std::uint8_t {
  kOpaque,
  kId,        ///< out = in0
  kAddK,      ///< out = (in0 + fnA) mod 2^w
  kAdd,       ///< out = (in0 + in1) mod 2^w
  kXor,       ///< out = in0 ^ in1 ^ ...
  kGray,      ///< out = in0 ^ (in0 >> 1)
  kJoinMux,   ///< out = in[1 + in0]
  kConcat,    ///< out = in0 | in1 << width(in0)
  kPermille,  ///< out = hashChancePermille(in0, fnA, fnB)
};

/// One node lowered to an op (a dead NodeId's op is a default, node-less
/// kGeneric that no kernel dispatches). Ports live in Program::ports at [portBase,
/// portBase + nIn + nOut): inputs first, then outputs. Sequential state lives
/// in the context's node-state arena at stateOff (kNoState: the node keeps
/// no arena record — kFunc/kShared, whose "state" is memos/a polymorphic
/// scheduler, and user subclasses).
struct Op {
  static constexpr std::uint32_t kNoState = ~std::uint32_t{0};

  OpCode code = OpCode::kGeneric;
  FuncKind fnKind = FuncKind::kOpaque;  ///< kFunc only
  std::uint16_t nIn = 0;
  std::uint16_t nOut = 0;
  std::uint32_t portBase = 0;
  std::uint32_t stateOff = kNoState;  ///< node-state arena word offset
  std::uint64_t fnA = 0;  ///< kFunc: addk constant / permille threshold;
                          ///< kEb: capacity; kNondetSource: killCredit cap;
                          ///< kNondetSink: max consecutive stops
  std::uint64_t fnB = 0;  ///< kFunc: permille salt; kEb: anti capacity;
                          ///< kNondetSource: maxIdle; kNondetSink: emitsAnti
  Node* node = nullptr;  ///< always set; its exact type is the opcode's kind
};

struct Program {
  std::vector<Op> ops;                ///< indexed by NodeId
  std::vector<SlotAddr> ports;
  std::uint64_t topologyVersion = 0;  ///< netlist version compiled against
  std::uint64_t boardLayout = 0;      ///< board layoutGeneration compiled against
  bool specialized = false;           ///< lowering mode (false: all kGeneric)
};

/// Lowers the netlist against the board's current layout, specializing ops
/// when `specialize` (the compiled backend; otherwise every op stays generic,
/// the interpreted backend). `stateOff` maps each NodeId to its
/// node-state arena record (SimContext's layout, made with the same board
/// layout). With a shard plan (shards > 1) nodes touching boundary slots stay
/// generic.
Program compileProgram(Netlist& nl, const SignalBoard& board,
                       const std::vector<std::uint32_t>& stateOff,
                       bool specialize, const ShardPlan* plan = nullptr);

}  // namespace esl::compile
