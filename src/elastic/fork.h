// Eager fork: replicates each input token to every output branch.
//
// Each branch may consume its copy independently (eager semantics, tracked by
// per-branch done bits); the stem token is consumed once all branches have
// taken or killed their copy. Anti-tokens arriving on a branch annihilate the
// pending copy for that branch — they never cross into the stem, because the
// stem token also feeds the other branches (paper §4.1: the anti-token must
// cancel exactly the non-selected copy).
#pragma once

#include "elastic/board_io.h"
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

  /// Cycle semantics over a port-accessor policy (elastic/board_io.h), shared
  /// by evalComb/clockEdge and the compiled VM.
  template <class Io>
  static void comb(Io& io, const std::uint64_t* s);
  template <class Io>
  static void edge(Io& io, std::uint64_t* s);

 private:
  /// Branch i's copy was consumed in an earlier cycle of this stem token.
  static bool done(const std::uint64_t* s, unsigned i) {
    return (s[i / 64] >> (i % 64)) & 1;
  }
  /// Branch copy consumed by the end of this cycle (settled signals).
  template <class Io>
  static bool branchDoneNow(Io& io, const std::uint64_t* s, unsigned i,
                            bool inVf) {
    if (done(s, i)) return true;
    // The branch's vf is OUR driven value (inVf && !done); recompute it
    // instead of reading it back (the accessor contract forbids
    // read-after-write of self-driven fields, and under sharding the read
    // would be stale). The consumer-driven sf/vb are read normally: done =
    // kill or forward transfer = vf && (vb || !sf).
    const auto& br = io.out(i);
    return inVf && (io.vb(br) || !io.sf(br));
  }

  unsigned width_;
};

template <class Io>
inline void ForkNode::comb(Io& io, const std::uint64_t* s) {
  const auto& in = io.in(0);
  const unsigned n = io.numOut();
  const bool inVf = io.vf(in);

  for (unsigned i = 0; i < n; ++i) {
    const auto& br = io.out(i);
    const bool pending = inVf && !done(s, i);
    io.setVf(br, pending);
    if (pending) io.copyData(br, in);
    // An anti-token on the branch is only consumable against a pending copy;
    // otherwise it waits downstream for the copy to materialize.
    io.setSb(br, !pending);
  }

  bool allDone = inVf;
  for (unsigned i = 0; i < n && allDone; ++i)
    allDone = branchDoneNow(io, s, i, inVf);
  io.setSf(in, !allDone);
  io.setVb(in, false);
}

template <class Io>
inline void ForkNode::edge(Io& io, std::uint64_t* s) {
  if (!io.vf(io.in(0))) return;
  // Each branch's next bit depends only on its own bit; the stem token
  // retires (every bit clears) once all branches are done.
  const unsigned n = io.numOut();
  const unsigned words = (n + 63) / 64;
  bool all = true;
  for (unsigned w = 0; w < words; ++w) {
    std::uint64_t next = s[w];
    for (unsigned b = 0; b < 64 && 64 * w + b < n; ++b) {
      const auto& br = io.out(64 * w + b);
      if (((next >> b) & 1) || io.vb(br) || !io.sf(br))
        next |= std::uint64_t{1} << b;
      else
        all = false;
    }
    s[w] = next;
  }
  // Word 0 apart: a fork of at most 64 branches (every compiled one) clears
  // with one store instead of a memset call.
  if (all) {
    s[0] = 0;
    for (unsigned w = 1; w < words; ++w) s[w] = 0;
  }
}

}  // namespace esl
