// BoardIo: the interpreter's port-accessor policy for the node catalog.
//
// Each catalog kind writes its cycle semantics once, as member templates
// `comb(Io&, record)` / `edge(Io&, record, applyStats)` over a port-accessor
// policy (the contract is in elastic/node.h). Two policies implement it:
//   * BoardIo (here) — the virtual evalComb/clockEdge. Ports are Sig proxies,
//     so every write goes through SignalBoard::setBitAt/setDataAt and honours
//     sharded boundary staging; payloads of any width.
//   * compile::RawIo (compile/vm.cpp) — the compiled VM's ops. Ports are
//     pre-resolved SlotAddr records written with raw word stores; only
//     interior slots and one-word record payloads (the compiler keeps
//     everything else on the virtual path).
// Policy surface, by port handle `p` (in(i)/out(i)):
//   vf/sf/vb/sb(p), setVf/setSf/setVb/setSb(p, v), events(p)
//   width(p), payloadWords(p) (record words of p's payload), low64(p),
//   data(p), dataEquals(p, v), setData(p, v), copyData(dst, src),
//   setDataRecord(p, rec) (record words -> p), storeData(p, rec) (p -> record)
//   numIn(), numOut(), cycle(), choice(idx)
#pragma once

#include <cstdint>

#include "elastic/context.h"
#include "elastic/node.h"

namespace esl {

class BoardIo {
 public:
  BoardIo(SimContext& ctx, const Node& node) : ctx_(ctx), node_(node) {}

  Sig in(unsigned i) { return ctx_.sig(node_.input(i)); }
  Sig out(unsigned i) { return ctx_.sig(node_.output(i)); }
  unsigned numIn() const { return node_.numInputs(); }
  unsigned numOut() const { return node_.numOutputs(); }

  static bool vf(const ConstSig& p) { return p.vf(); }
  static bool sf(const ConstSig& p) { return p.sf(); }
  static bool vb(const ConstSig& p) { return p.vb(); }
  static bool sb(const ConstSig& p) { return p.sb(); }
  static void setVf(Sig p, bool v) { p.setVf(v); }
  static void setSf(Sig p, bool v) { p.setSf(v); }
  static void setVb(Sig p, bool v) { p.setVb(v); }
  static void setSb(Sig p, bool v) { p.setSb(v); }
  static PortEvents events(const ConstSig& p) {
    return p.board().eventsAt(p.slot());
  }

  static unsigned width(const ConstSig& p) { return p.width(); }
  static unsigned payloadWords(const ConstSig& p) {
    return esl::payloadWords(p.width());
  }
  static std::uint64_t low64(const ConstSig& p) { return p.dataLow64(); }
  static BitVec data(const ConstSig& p) { return p.data(); }
  static bool dataEquals(const ConstSig& p, const BitVec& v) {
    return p.dataEquals(v);
  }
  static void setData(Sig p, const BitVec& v) { p.setData(v); }
  static void copyData(Sig dst, const ConstSig& src) { dst.setDataFrom(src); }
  static void setDataRecord(Sig p, const std::uint64_t* rec) {
    p.setData(loadPayload(rec, p.width()));
  }
  static void storeData(const ConstSig& p, std::uint64_t* rec) {
    storePayload(rec, p.data(), p.width());
  }

  std::uint64_t cycle() const { return ctx_.cycle(); }
  bool choice(unsigned idx) { return ctx_.choice(node_, idx); }

 private:
  SimContext& ctx_;
  const Node& node_;
};

}  // namespace esl
