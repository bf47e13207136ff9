#include "sched/scheduler.h"

#include <algorithm>

namespace esl::sched {

// --- CorrectingScheduler ----------------------------------------------------

unsigned CorrectingScheduler::predict(const std::vector<bool>& valid,
                                      const ChoiceReader& choice) {
  if (pending_ >= 0) return static_cast<unsigned>(pending_);
  const unsigned p = basePredict(valid, choice);
  ESL_CHECK(p < channels(), "scheduler: base prediction out of range");
  return p;
}

void CorrectingScheduler::observe(const Observation& obs) {
  // Release the lock once the owed channel is served or its token killed,
  // or when it ages out (false demand from an intervening buffer).
  if (pending_ >= 0) {
    const auto i = static_cast<std::size_t>(pending_);
    const bool done = (i < obs.served.size() && obs.served[i]) ||
                      (i < obs.killed.size() && obs.killed[i]);
    if (done || ++pendingAge_ > kMaxLockAge) {
      pending_ = -1;
      pendingAge_ = 0;
    }
  }
  // A new demand (selected-but-empty) locks the prediction onto that channel.
  for (unsigned i = 0; i < obs.demand.size(); ++i)
    if (obs.demand[i] && pending_ != static_cast<int>(i)) {
      pending_ = static_cast<int>(i);
      pendingAge_ = 0;
    }
  observeBase(obs);
}

void CorrectingScheduler::reset() {
  pending_ = -1;
  pendingAge_ = 0;
  resetBase();
}

void CorrectingScheduler::packState(StateWriter& w) const {
  w.writeU32(static_cast<std::uint32_t>(pending_ + 1));
  w.writeU32(pendingAge_);
  packBase(w);
}

void CorrectingScheduler::unpackState(StateReader& r) {
  pending_ = static_cast<int>(r.readU32()) - 1;
  pendingAge_ = r.readU32();
  unpackBase(r);
}

// --- StaticScheduler --------------------------------------------------------

StaticScheduler::StaticScheduler(unsigned channels, unsigned pick)
    : channels_(channels), pick_(pick) {
  ESL_CHECK(pick < channels, "StaticScheduler: pick out of range");
}

// --- RoundRobinScheduler ----------------------------------------------------

RoundRobinScheduler::RoundRobinScheduler(unsigned channels) : channels_(channels) {
  ESL_CHECK(channels >= 1, "RoundRobinScheduler: need at least one channel");
}

void RoundRobinScheduler::observeBase(const Observation& obs) {
  // The rotation advances every cycle; a demand re-anchors it (Table 1).
  int demanded = -1;
  for (unsigned i = 0; i < obs.demand.size(); ++i)
    if (obs.demand[i]) demanded = static_cast<int>(i);
  current_ = demanded >= 0 ? static_cast<unsigned>(demanded)
                           : (current_ + 1) % channels_;
}

// --- LastServedScheduler ----------------------------------------------------

LastServedScheduler::LastServedScheduler(unsigned channels) : channels_(channels) {
  ESL_CHECK(channels >= 1, "LastServedScheduler: need at least one channel");
}

void LastServedScheduler::observeBase(const Observation& obs) {
  for (unsigned i = 0; i < obs.served.size(); ++i)
    if (obs.served[i]) current_ = i;
  for (unsigned i = 0; i < obs.demand.size(); ++i)
    if (obs.demand[i]) current_ = i;
}

// --- TwoBitScheduler --------------------------------------------------------

TwoBitScheduler::TwoBitScheduler() = default;

void TwoBitScheduler::observeBase(const Observation& obs) {
  int demanded = -1;
  for (unsigned i = 0; i < obs.demand.size(); ++i)
    if (obs.demand[i]) demanded = static_cast<int>(i);
  if (demanded >= 0) {
    // A demand is ground truth about the current select; saturate toward it.
    counter_ = demanded == 1 ? 3 : 0;
    return;
  }
  if (obs.served.size() >= 2) {
    if (obs.served[1] && counter_ < 3) ++counter_;
    if (obs.served[0] && counter_ > 0) --counter_;
  }
}

// --- OracleScheduler --------------------------------------------------------

OracleScheduler::OracleScheduler(unsigned channels,
                                 std::function<unsigned(std::uint64_t)> truth)
    : channels_(channels), truth_(std::move(truth)) {
  ESL_CHECK(static_cast<bool>(truth_), "OracleScheduler: truth function required");
}

unsigned OracleScheduler::basePredict(const std::vector<bool>&, const ChoiceReader&) {
  const unsigned t = truth_(firings_);
  ESL_CHECK(t < channels_, "OracleScheduler: truth out of range");
  return t;
}

void OracleScheduler::observeBase(const Observation& obs) {
  for (unsigned i = 0; i < obs.served.size(); ++i)
    if (obs.served[i]) ++firings_;
}

// --- TimeoutScheduler ---------------------------------------------------------

TimeoutScheduler::TimeoutScheduler(unsigned channels, unsigned timeout)
    : channels_(channels), timeout_(timeout) {
  ESL_CHECK(channels >= 1, "TimeoutScheduler: need at least one channel");
  ESL_CHECK(timeout >= 1, "TimeoutScheduler: timeout must be positive");
}

void TimeoutScheduler::observeBase(const Observation& obs) {
  bool servedAny = false;
  for (unsigned i = 0; i < obs.served.size(); ++i)
    if (obs.served[i]) {
      current_ = i;  // last-value prediction
      servedAny = true;
    }
  for (unsigned i = 0; i < obs.demand.size(); ++i)
    if (obs.demand[i]) current_ = i;
  if (servedAny) {
    stalled_ = 0;
    return;
  }
  // Valid work exists but nothing moved: count toward the rotation timeout.
  bool pendingWork = false;
  for (unsigned i = 0; i < obs.valid.size(); ++i) pendingWork |= obs.valid[i];
  if (!pendingWork) {
    stalled_ = 0;
    return;
  }
  if (++stalled_ > timeout_) {
    current_ = (current_ + 1) % channels_;
    stalled_ = 0;
  }
}

// --- BoundedFairScheduler ---------------------------------------------------

BoundedFairScheduler::BoundedFairScheduler(unsigned channels) : channels_(channels) {
  ESL_CHECK(channels >= 1, "BoundedFairScheduler: need at least one channel");
}

unsigned BoundedFairScheduler::basePredict(const std::vector<bool>&,
                                           const ChoiceReader& choice) {
  unsigned idx = 0;
  for (unsigned b = 0; b < choiceBits(); ++b)
    if (choice(b)) idx |= 1u << b;
  return idx % channels_;
}

unsigned BoundedFairScheduler::choiceBits() const {
  unsigned bits = 0;
  while ((1u << bits) < channels_) ++bits;
  return bits == 0 ? 1 : bits;
}

}  // namespace esl::sched
