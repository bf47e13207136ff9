// Unit tests for the scheduler library (paper §4.1.1), exercised directly
// through the Scheduler interface (no netlist).
#include "sched/scheduler.h"

#include <gtest/gtest.h>

namespace esl::sched {
namespace {

const ChoiceReader kNoChoice = [](unsigned) { return false; };

Observation obs(unsigned channels) {
  Observation o;
  o.valid.assign(channels, false);
  o.demand.assign(channels, false);
  o.served.assign(channels, false);
  o.killed.assign(channels, false);
  return o;
}

TEST(StaticScheduler, AlwaysPredictsPick) {
  StaticScheduler s(2, 1);
  EXPECT_EQ(s.predict({}, kNoChoice), 1u);
  auto o = obs(2);
  o.served[1] = true;
  s.observe(o);
  EXPECT_EQ(s.predict({}, kNoChoice), 1u);
}

TEST(StaticScheduler, PickOutOfRangeThrows) {
  EXPECT_THROW(StaticScheduler(2, 2), EslError);
}

TEST(StaticScheduler, DemandLocksUntilServed) {
  StaticScheduler s(2, 0);
  auto demand1 = obs(2);
  demand1.demand[1] = true;
  s.observe(demand1);
  EXPECT_EQ(s.predict({}, kNoChoice), 1u);  // corrected
  // Not served yet: the lock holds even over idle cycles.
  s.observe(obs(2));
  EXPECT_EQ(s.predict({}, kNoChoice), 1u);
  auto served1 = obs(2);
  served1.served[1] = true;
  s.observe(served1);
  EXPECT_EQ(s.predict({}, kNoChoice), 0u);  // back to the base pick
}

TEST(StaticScheduler, KillReleasesTheLock) {
  StaticScheduler s(2, 0);
  auto demand1 = obs(2);
  demand1.demand[1] = true;
  s.observe(demand1);
  auto killed1 = obs(2);
  killed1.killed[1] = true;
  s.observe(killed1);
  EXPECT_EQ(s.predict({}, kNoChoice), 0u);
}

TEST(StaticScheduler, FalseDemandAgesOut) {
  // A demand that is never served or killed (back-pressure from a full EB
  // masquerading as a demand) must not wedge the scheduler forever.
  StaticScheduler s(2, 0);
  auto demand1 = obs(2);
  demand1.demand[1] = true;
  s.observe(demand1);
  EXPECT_EQ(s.predict({}, kNoChoice), 1u);
  for (int i = 0; i < 10; ++i) s.observe(obs(2));
  EXPECT_EQ(s.predict({}, kNoChoice), 0u);  // lock released
}

TEST(RoundRobinScheduler, AlternatesEveryCycle) {
  RoundRobinScheduler s(2);
  EXPECT_EQ(s.predict({}, kNoChoice), 0u);
  s.observe(obs(2));
  EXPECT_EQ(s.predict({}, kNoChoice), 1u);
  s.observe(obs(2));
  EXPECT_EQ(s.predict({}, kNoChoice), 0u);
}

TEST(RoundRobinScheduler, DemandReanchorsRotation) {
  // This is exactly the Sched row of Table 1.
  RoundRobinScheduler s(2);
  const bool demandAt[] = {false, false, true, false, false, true, false};
  const unsigned expect[] = {0, 1, 0, 1, 0, 1, 0};
  const bool servedAt[] = {true, true, false, true, true, false, true};
  for (int c = 0; c < 7; ++c) {
    EXPECT_EQ(s.predict({}, kNoChoice), expect[c]) << "cycle " << c;
    auto o = obs(2);
    if (demandAt[c]) o.demand[1 - expect[c]] = true;
    if (servedAt[c]) o.served[expect[c]] = true;
    s.observe(o);
  }
}

TEST(LastServedScheduler, TracksLastService) {
  LastServedScheduler s(2);
  EXPECT_EQ(s.predict({}, kNoChoice), 0u);
  auto o = obs(2);
  o.served[1] = true;
  s.observe(o);
  EXPECT_EQ(s.predict({}, kNoChoice), 1u);
  s.observe(obs(2));
  EXPECT_EQ(s.predict({}, kNoChoice), 1u);  // sticky until contradicted
}

TEST(TwoBitScheduler, SaturatesLikeABranchPredictor) {
  TwoBitScheduler s;
  EXPECT_EQ(s.predict({}, kNoChoice), 0u);  // weakly 0 initially
  auto serve1 = obs(2);
  serve1.served[1] = true;
  s.observe(serve1);  // counter 1 -> 2
  EXPECT_EQ(s.predict({}, kNoChoice), 1u);
  auto serve0 = obs(2);
  serve0.served[0] = true;
  s.observe(serve0);  // 2 -> 1
  EXPECT_EQ(s.predict({}, kNoChoice), 0u);
  // One stray service does not flip a saturated counter.
  s.observe(serve0);  // 1 -> 0
  s.observe(serve1);  // 0 -> 1
  EXPECT_EQ(s.predict({}, kNoChoice), 0u);
}

TEST(OracleScheduler, FollowsTruthPerFiring) {
  OracleScheduler s(2, [](std::uint64_t k) { return unsigned(k % 2); });
  EXPECT_EQ(s.predict({}, kNoChoice), 0u);
  auto o = obs(2);
  o.served[0] = true;
  s.observe(o);
  EXPECT_EQ(s.predict({}, kNoChoice), 1u);
  // No service -> prediction does not advance.
  s.observe(obs(2));
  EXPECT_EQ(s.predict({}, kNoChoice), 1u);
}

TEST(TimeoutScheduler, RotatesOnlyWhenWorkIsStuck) {
  TimeoutScheduler s(2, 1);
  EXPECT_EQ(s.predict({}, kNoChoice), 0u);
  // Idle (no valid input): never rotates.
  for (int i = 0; i < 5; ++i) s.observe(obs(2));
  EXPECT_EQ(s.predict({}, kNoChoice), 0u);
  // Valid work but nothing served: rotates after the timeout.
  auto stuck = obs(2);
  stuck.valid[1] = true;
  s.observe(stuck);
  EXPECT_EQ(s.predict({}, kNoChoice), 0u);  // within timeout
  s.observe(stuck);
  EXPECT_EQ(s.predict({}, kNoChoice), 1u);  // rotated
}

TEST(TimeoutScheduler, ServiceResetsTheTimer) {
  TimeoutScheduler s(2, 1);
  auto busy = obs(2);
  busy.valid[0] = busy.valid[1] = true;
  busy.served[0] = true;
  for (int i = 0; i < 6; ++i) s.observe(busy);
  EXPECT_EQ(s.predict({}, kNoChoice), 0u);  // kept serving channel 0
}

TEST(BoundedFairScheduler, ChoiceBitsDrivePrediction) {
  BoundedFairScheduler s(2);
  EXPECT_EQ(s.choiceBits(), 1u);
  EXPECT_EQ(s.predict({}, [](unsigned) { return false; }), 0u);
  EXPECT_EQ(s.predict({}, [](unsigned) { return true; }), 1u);
}

TEST(Schedulers, StatePackUnpackRoundTrip) {
  RoundRobinScheduler a(2);
  auto o = obs(2);
  o.demand[1] = true;
  a.observe(o);

  StateWriter w;
  a.packState(w);
  const auto bytes = w.take();

  RoundRobinScheduler b(2);
  StateReader r(bytes);
  b.unpackState(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(a.predict({}, kNoChoice), b.predict({}, kNoChoice));
}

TEST(Schedulers, Names) {
  EXPECT_EQ(StaticScheduler(2, 0).name(), "static");
  EXPECT_EQ(RoundRobinScheduler(2).name(), "round-robin");
  EXPECT_EQ(LastServedScheduler(2).name(), "last-served");
  EXPECT_EQ(TwoBitScheduler().name(), "two-bit");
  EXPECT_EQ(TimeoutScheduler(2).name(), "timeout");
  EXPECT_EQ(BoundedFairScheduler(2).name(), "bounded-fair");
  EXPECT_EQ(StarvingScheduler(2).name(), "starving");
}

}  // namespace
}  // namespace esl::sched
