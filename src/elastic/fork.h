// Eager fork: replicates each input token to every output branch.
//
// Each branch may consume its copy independently (eager semantics, tracked by
// per-branch done bits); the stem token is consumed once all branches have
// taken or killed their copy. Anti-tokens arriving on a branch annihilate the
// pending copy for that branch — they never cross into the stem, because the
// stem token also feeds the other branches (paper §4.1: the anti-token must
// cancel exactly the non-selected copy).
#pragma once

#include <vector>

#include "elastic/context.h"
#include "elastic/node.h"

namespace esl {

class ForkNode : public Node {
 public:
  ForkNode(std::string name, unsigned width, unsigned branches);

  void evalComb(SimContext& ctx) override;
  EvalPurity evalPurity() const override { return EvalPurity::kStateful; }
  /// Done bits set on branch events and clear on the stem transfer event.
  EdgeActivity edgeActivity() const override { return EdgeActivity::kOnEvents; }
  void clockEdge(SimContext& ctx) override;
  /// Arena record: one done bit per branch, 64 branches per word.
  std::uint32_t stateWords() const override { return (branches() + 63) / 64; }
  void packRecord(const std::uint64_t* s, StateWriter& w) const override;
  void unpackRecord(std::uint64_t* s, StateReader& r) const override;
  logic::Cost cost() const override;
  void timing(TimingModel& m) const override;
  std::string kindName() const override { return "fork"; }

  unsigned branches() const { return numOutputs(); }

 private:
  friend class compile::Vm;

  /// Branch i's copy was consumed in an earlier cycle of this stem token.
  static bool done(const std::uint64_t* s, unsigned i) {
    return (s[i / 64] >> (i % 64)) & 1;
  }
  /// Branch copy consumed by the end of this cycle (settled signals).
  bool branchDoneNow(SimContext& ctx, const std::uint64_t* s, unsigned i,
                     bool inVf) const;

  unsigned width_;
};

}  // namespace esl
