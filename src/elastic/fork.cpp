#include "elastic/fork.h"

#include <algorithm>

namespace esl {

ForkNode::ForkNode(std::string name, unsigned width, unsigned branches)
    : Node(std::move(name)), width_(width) {
  ESL_CHECK(branches >= 2, "ForkNode: need at least two branches");
  declareInput(width);
  for (unsigned i = 0; i < branches; ++i) declareOutput(width);
}

void ForkNode::evalComb(SimContext& ctx) {
  BoardIo io(ctx, *this);
  comb(io, ctx.state(*this));
}

void ForkNode::clockEdge(SimContext& ctx) {
  BoardIo io(ctx, *this);
  edge(io, ctx.state(*this));
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
