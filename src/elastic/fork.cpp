#include "elastic/fork.h"

#include <algorithm>

namespace esl {

ForkNode::ForkNode(std::string name, unsigned width, unsigned branches)
    : Node(std::move(name)), width_(width) {
  ESL_CHECK(branches >= 2, "ForkNode: need at least two branches");
  declareInput(width);
  for (unsigned i = 0; i < branches; ++i) declareOutput(width);
}

bool ForkNode::branchDoneNow(SimContext& ctx, const std::uint64_t* s, unsigned i,
                             bool inVf) const {
  if (done(s, i)) return true;
  // The branch's vf is OUR driven value (inVf && !done); recompute it instead
  // of reading it back (the accessor contract forbids read-after-write of
  // self-driven fields, and under sharding the read would be stale). The
  // consumer-driven sf/vb are read normally: done = kill or forward transfer
  // = vf && (vb || !sf).
  const ConstSig br = ctx.sig(output(i));
  return inVf && (br.vb() || !br.sf());
}

void ForkNode::evalComb(SimContext& ctx) {
  const std::uint64_t* s = ctx.state(*this);
  Sig in = ctx.sig(input(0));
  const bool inVf = in.vf();

  for (unsigned i = 0; i < branches(); ++i) {
    Sig br = ctx.sig(output(i));
    const bool pending = inVf && !done(s, i);
    br.setVf(pending);
    if (pending) br.setDataFrom(in);
    // An anti-token on the branch is only consumable against a pending copy;
    // otherwise it waits downstream for the copy to materialize.
    br.setSb(!pending);
  }

  bool allDone = inVf;
  for (unsigned i = 0; i < branches() && allDone; ++i)
    allDone = branchDoneNow(ctx, s, i, inVf);
  in.setSf(!allDone);
  in.setVb(false);
}

void ForkNode::clockEdge(SimContext& ctx) {
  const bool inVf = ctx.sig(input(0)).vf();
  if (!inVf) return;
  // Each branch's next bit depends only on its own bit, so update in place.
  std::uint64_t* s = ctx.state(*this);
  bool all = true;
  for (unsigned i = 0; i < branches(); ++i) {
    if (branchDoneNow(ctx, s, i, inVf))
      s[i / 64] |= std::uint64_t{1} << (i % 64);
    else
      all = false;
  }
  if (all) std::fill_n(s, stateWords(), 0);
}

void ForkNode::packRecord(const std::uint64_t* s, StateWriter& w) const {
  for (unsigned i = 0; i < branches(); ++i) w.writeBool(done(s, i));
}

void ForkNode::unpackRecord(std::uint64_t* s, StateReader& r) const {
  std::fill_n(s, stateWords(), 0);
  for (unsigned i = 0; i < branches(); ++i)
    if (r.readBool()) s[i / 64] |= std::uint64_t{1} << (i % 64);
}

logic::Cost ForkNode::cost() const { return logic::forkJoinCost(branches()); }

void ForkNode::timing(TimingModel& m) const {
  for (unsigned i = 0; i < branches(); ++i) {
    m.arc({input(0), NetKind::kFwd}, {output(i), NetKind::kFwd}, 1.0);
    m.arc({output(i), NetKind::kBwd}, {input(0), NetKind::kBwd}, 1.0);
  }
}

}  // namespace esl
