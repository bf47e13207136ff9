#include "compile/compiler.h"

#include <typeinfo>

#include "elastic/buffer.h"
#include "elastic/eemux.h"
#include "elastic/endpoints.h"
#include "elastic/fork.h"
#include "elastic/func.h"
#include "elastic/netlist.h"
#include "elastic/params.h"
#include "elastic/shared.h"
#include "elastic/vlu.h"

namespace esl::compile {

namespace {

SlotAddr addrFor(const SignalBoard& board, ChannelId ch) {
  SlotAddr a;
  if (ch == kNoChannel) return a;
  const std::uint32_t slot = board.slotOf(ch);
  if (slot == SignalBoard::kNoSlot) return a;
  a.slot = slot;
  a.dataOff = board.dataOffAt(slot);
  a.width = board.widthAtSlot(slot);
  return a;
}

/// Exact-type kind resolution: a user *subclass* of a catalog node may
/// override evalComb/clockEdge, so only a typeid match may specialize.
OpCode classify(const Node& node) {
  const std::type_info& t = typeid(node);
  if (t == typeid(ElasticBuffer)) return OpCode::kEb;
  if (t == typeid(ElasticBuffer0)) return OpCode::kEb0;
  if (t == typeid(BrokenBuffer)) return OpCode::kBrokenEb;
  if (t == typeid(ForkNode)) return OpCode::kFork;
  if (t == typeid(FuncNode)) return OpCode::kFunc;
  if (t == typeid(EarlyEvalMux)) return OpCode::kEeMux;
  if (t == typeid(TokenSource)) return OpCode::kSource;
  if (t == typeid(TokenSink)) return OpCode::kSink;
  if (t == typeid(NondetSource)) return OpCode::kNondetSource;
  if (t == typeid(NondetSink)) return OpCode::kNondetSink;
  if (t == typeid(SharedModule)) return OpCode::kShared;
  if (t == typeid(StallingVLU)) return OpCode::kVlu;
  return OpCode::kGeneric;
}

/// Attempts to lower a FuncNode's datapath to word arithmetic. Registry-built
/// nodes carry `fn=<catalog name>` in their stored build attributes; the
/// catalog factory already validated the width signature at construction, but
/// every invariant the word kernels rely on is re-checked here — any mismatch
/// (or any operand wider than a word) keeps the memoized opaque path.
FuncKind specializeFunc(const Node& node, const Op& op,
                        const std::vector<SlotAddr>& ports, std::uint64_t* fnA,
                        std::uint64_t* fnB) {
  if (!node.hasBuildParams()) return FuncKind::kOpaque;
  const Params& p = node.buildParams();
  const std::string fn = p.str("fn", "");
  if (fn.empty()) return FuncKind::kOpaque;
  const unsigned n = op.nIn;
  const SlotAddr* P = ports.data() + op.portBase;
  const unsigned outW = P[n].width;
  for (unsigned i = 0; i <= n; ++i)
    if (P[i].width > 64) return FuncKind::kOpaque;
  const auto unarySameWidth = [&] { return n == 1 && P[0].width == outW; };
  if (fn == "id" && unarySameWidth()) return FuncKind::kId;
  if (fn == "gray" && unarySameWidth()) return FuncKind::kGray;
  if (fn == "addk" && unarySameWidth() && p.has("fn.k")) {
    // Same truncation the factory applies: k is taken modulo the width.
    *fnA = outW >= 64 ? p.u64("fn.k")
                      : p.u64("fn.k") & ((std::uint64_t{1} << outW) - 1);
    return FuncKind::kAddK;
  }
  if (fn == "add" && n == 2 && P[0].width == outW && P[1].width == outW)
    return FuncKind::kAdd;
  if (fn == "xor" && n >= 1) {
    for (unsigned i = 0; i < n; ++i)
      if (P[i].width != outW) return FuncKind::kOpaque;
    return FuncKind::kXor;
  }
  if (fn == "joinmux" && n >= 3) {
    for (unsigned i = 1; i < n; ++i)
      if (P[i].width != outW) return FuncKind::kOpaque;
    return FuncKind::kJoinMux;
  }
  if (fn == "concat" && n == 2 && P[0].width + P[1].width == outW &&
      P[0].width < 64)
    return FuncKind::kConcat;
  if (fn == "permille" && n == 1 && outW == 1 && p.has("fn.permille")) {
    *fnA = p.u64("fn.permille");
    *fnB = p.u64("fn.salt", 0);
    return FuncKind::kPermille;
  }
  return FuncKind::kOpaque;
}

/// Stashes the per-kind constants the VM reads every evaluation in fnA/fnB
/// (one op load instead of a node-object load). Returns false when the VM's
/// op cannot address the node's arena record: the ops assume one word per
/// payload and one done-mask word per fork, so payloads wider than 64 bits
/// and forks wider than 64 branches keep the virtual (interpreter) path,
/// which reads the same record through the context at any width.
bool bindKindConstants(Op& op, const std::vector<SlotAddr>& ports) {
  const SlotAddr* P = ports.data() + op.portBase;
  switch (op.code) {
    case OpCode::kEb: {
      const auto& eb = static_cast<const ElasticBuffer&>(*op.node);
      op.fnA = eb.capacity();
      op.fnB = eb.antiCapacity();
      return P[1].width <= 64;
    }
    case OpCode::kEb0:
    case OpCode::kBrokenEb:
      return P[1].width <= 64;
    case OpCode::kFork:
      return op.nOut <= 64;
    case OpCode::kNondetSource: {
      const auto& ns = static_cast<const NondetSource&>(*op.node);
      op.fnA = ns.killCreditCap();
      op.fnB = ns.maxIdle();
      return P[0].width <= 64;
    }
    case OpCode::kNondetSink: {
      const auto& nk = static_cast<const NondetSink&>(*op.node);
      op.fnA = nk.maxConsecutiveStops();
      op.fnB = nk.emitsAntiTokens() ? 1 : 0;
      return true;
    }
    case OpCode::kVlu:
      return P[0].width <= 64 && P[1].width <= 64;
    default:
      return true;
  }
}

}  // namespace

Program compileProgram(Netlist& nl, const SignalBoard& board,
                       const std::vector<std::uint32_t>& stateOff,
                       bool specialize, const ShardPlan* plan) {
  Program prog;
  prog.topologyVersion = nl.topologyVersion();
  prog.boardLayout = board.layoutGeneration();
  prog.specialized = specialize;
  prog.ops.resize(nl.nodeCapacity());
  const bool sharded = plan != nullptr && plan->shards > 1;
  for (const NodeId id : nl.nodeIds()) {
    Node& node = nl.node(id);
    Op& op = prog.ops[id];
    op.node = &node;
    // The unspecialized lowering: every op stays kGeneric.
    if (!specialize) continue;
    op.stateOff = stateOff[id];
    op.nIn = static_cast<std::uint16_t>(node.numInputs());
    op.nOut = static_cast<std::uint16_t>(node.numOutputs());
    op.portBase = static_cast<std::uint32_t>(prog.ports.size());
    bool allBound = true;
    bool anyBoundary = false;
    for (unsigned i = 0; i < node.numInputs(); ++i) {
      prog.ports.push_back(addrFor(board, node.input(i)));
      allBound = allBound && prog.ports.back().bound();
      anyBoundary = anyBoundary || (prog.ports.back().bound() &&
                                    board.inBoundary(prog.ports.back().slot));
    }
    for (unsigned o = 0; o < node.numOutputs(); ++o) {
      prog.ports.push_back(addrFor(board, node.output(o)));
      allBound = allBound && prog.ports.back().bound();
      anyBoundary = anyBoundary || (prog.ports.back().bound() &&
                                    board.inBoundary(prog.ports.back().slot));
    }
    // An op may only touch raw addresses when every port resolved; a node
    // caught mid-surgery (dangling port) keeps the virtual path, which throws
    // the usual accessor error if the dangling channel is actually touched.
    // Under sharding, a node adjacent to a boundary slot also stays generic:
    // boundary writes must go through the staging-aware Sig accessors.
    op.code = allBound && !(sharded && anyBoundary) ? classify(node) : OpCode::kGeneric;
    if (op.code == OpCode::kFunc)
      op.fnKind = specializeFunc(node, op, prog.ports, &op.fnA, &op.fnB);
    if (!bindKindConstants(op, prog.ports)) {
      op.code = OpCode::kGeneric;
      op.fnA = op.fnB = 0;
    }
  }
  return prog;
}

}  // namespace esl::compile
