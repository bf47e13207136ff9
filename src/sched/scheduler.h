// Scheduler interface for shared speculative modules (paper §4.1.1).
//
// A scheduler predicts, every clock cycle, which input channel of a shared
// module may use the shared resource — implicitly predicting the future value
// of the multiplexer select. For correctness it must satisfy the leads-to
// property (paper eq. 1): every valid input token is eventually served or
// killed; the practical mechanism is that the early-evaluation multiplexer
// asserts S+ on its *selected-but-empty* input (a "demand"), which the shared
// module reports to the scheduler so it can correct a misprediction.
//
// predict() is called during combinational settling and MUST be a pure
// function of (internal state, the argument vectors, the per-cycle choice
// bits); all state updates happen in observe(), called once per clock edge.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/error.h"
#include "base/rng.h"
#include "elastic/state_io.h"

namespace esl::sched {

/// Everything a scheduler may learn at a clock edge.
struct Observation {
  std::vector<bool> valid;   ///< input channel carried a token this cycle
  std::vector<bool> demand;  ///< output channel was selected-but-empty (mispredict)
  std::vector<bool> served;  ///< output channel completed a forward transfer
  std::vector<bool> killed;  ///< input token was cancelled by an anti-token
  unsigned predicted = 0;    ///< the prediction that was in force this cycle
};

/// Reads one of the per-cycle nondeterministic choice bits owned by the
/// enclosing shared module (used only by verification schedulers).
using ChoiceReader = std::function<bool(unsigned)>;

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Number of channels this scheduler arbitrates.
  virtual unsigned channels() const = 0;

  /// Channel predicted for the current cycle. Pure (see file comment).
  virtual unsigned predict(const std::vector<bool>& valid,
                           const ChoiceReader& choice) = 0;

  /// Clock-edge update with the cycle's outcome.
  virtual void observe(const Observation& obs) { (void)obs; }

  virtual void reset() {}

  /// Nondeterministic choice bits consumed per cycle (verification only).
  virtual unsigned choiceBits() const { return 0; }

  virtual void packState(StateWriter& w) const { (void)w; }
  virtual void unpackState(StateReader& r) { (void)r; }

  virtual std::string name() const = 0;
};

/// Base for schedulers that correct mispredictions: when the early-eval mux
/// demands a channel (selected-but-empty stop), the prediction locks onto
/// that channel until its token is served or killed. Without the lock an
/// adversarial consumer can livelock the system — the mux's demand disappears
/// while the channel is routed, the scheduler drifts away, and the token is
/// never served (a leads-to violation our model checker finds).
class CorrectingScheduler : public Scheduler {
 public:
  unsigned predict(const std::vector<bool>& valid, const ChoiceReader& choice) final;
  void observe(const Observation& obs) final;
  void reset() final;
  void packState(StateWriter& w) const final;
  void unpackState(StateReader& r) final;

 protected:
  /// Prediction when no correction is pending.
  virtual unsigned basePredict(const std::vector<bool>& valid,
                               const ChoiceReader& choice) = 0;
  /// Policy-specific part of observe().
  virtual void observeBase(const Observation& obs) { (void)obs; }
  virtual void resetBase() {}
  virtual void packBase(StateWriter& w) const { (void)w; }
  virtual void unpackBase(StateReader& r) { (void)r; }

 private:
  /// The correction lock ages out after this many cycles without service.
  /// A demand from the early-eval mux is always serviced within a couple of
  /// cycles (bounded-fair consumers), so a lock that persists longer is a
  /// *false* demand: an intervening elastic buffer back-pressuring an
  /// unrouted output looks identical to a mux demand at the shared module's
  /// ports, and without the age-out the scheduler would wedge on it.
  static constexpr unsigned kMaxLockAge = 4;

  int pending_ = -1;  ///< channel owed service after a demand, -1 if none
  unsigned pendingAge_ = 0;
};

/// Always predicts a fixed channel. Relies entirely on demand correction;
/// this is the "always speculate no-error" scheduler of the §5.1/§5.2 case
/// studies (with correction toward the replay channel).
class StaticScheduler : public CorrectingScheduler {
 public:
  StaticScheduler(unsigned channels, unsigned pick);
  unsigned channels() const override { return channels_; }
  unsigned pick() const { return pick_; }
  std::string name() const override { return "static"; }

 protected:
  unsigned basePredict(const std::vector<bool>&, const ChoiceReader&) override {
    return pick_;
  }

 private:
  unsigned channels_;
  unsigned pick_;
};

/// Alternates channels every cycle; a demand overrides the rotation.
/// This is the scheduler that reproduces Table 1.
class RoundRobinScheduler : public CorrectingScheduler {
 public:
  explicit RoundRobinScheduler(unsigned channels);
  unsigned channels() const override { return channels_; }
  std::string name() const override { return "round-robin"; }

 protected:
  unsigned basePredict(const std::vector<bool>&, const ChoiceReader&) override {
    return current_;
  }
  void observeBase(const Observation& obs) override;
  void resetBase() override { current_ = 0; }
  void packBase(StateWriter& w) const override { w.writeU32(current_); }
  void unpackBase(StateReader& r) override { current_ = r.readU32(); }

 private:
  unsigned channels_;
  unsigned current_ = 0;
};

/// Predicts the channel that was most recently actually used (last-value
/// prediction); demands override immediately.
class LastServedScheduler : public CorrectingScheduler {
 public:
  explicit LastServedScheduler(unsigned channels);
  unsigned channels() const override { return channels_; }
  std::string name() const override { return "last-served"; }

 protected:
  unsigned basePredict(const std::vector<bool>&, const ChoiceReader&) override {
    return current_;
  }
  void observeBase(const Observation& obs) override;
  void resetBase() override { current_ = 0; }
  void packBase(StateWriter& w) const override { w.writeU32(current_); }
  void unpackBase(StateReader& r) override { current_ = r.readU32(); }

 private:
  unsigned channels_;
  unsigned current_ = 0;
};

/// Two-bit saturating counter between two channels (branch-predictor style).
class TwoBitScheduler : public CorrectingScheduler {
 public:
  TwoBitScheduler();
  unsigned channels() const override { return 2; }
  std::string name() const override { return "two-bit"; }

 protected:
  unsigned basePredict(const std::vector<bool>&, const ChoiceReader&) override {
    return counter_ >= 2 ? 1 : 0;
  }
  void observeBase(const Observation& obs) override;
  void resetBase() override { counter_ = 1; }
  void packBase(StateWriter& w) const override { w.writeU32(counter_); }
  void unpackBase(StateReader& r) override { counter_ = r.readU32(); }

 private:
  unsigned counter_ = 1;  // 0..3; >=2 predicts channel 1
};

/// Perfect prediction: told the true channel of each upcoming firing.
/// `truth(k)` must return the channel of the k-th firing (0-based).
class OracleScheduler : public CorrectingScheduler {
 public:
  OracleScheduler(unsigned channels, std::function<unsigned(std::uint64_t)> truth);
  unsigned channels() const override { return channels_; }
  std::string name() const override { return "oracle"; }

 protected:
  unsigned basePredict(const std::vector<bool>&, const ChoiceReader&) override;
  void observeBase(const Observation& obs) override;
  void resetBase() override { firings_ = 0; }
  void packBase(StateWriter& w) const override { w.writeU64(firings_); }
  void unpackBase(StateReader& r) override { firings_ = r.readU64(); }

 private:
  unsigned channels_;
  std::function<unsigned(std::uint64_t)> truth_;
  std::uint64_t firings_ = 0;
};

/// Last-served prediction with a stall timeout: if the predicted channel has
/// a valid token but nothing is served for `timeout` consecutive cycles, the
/// prediction rotates. Needed when elastic buffers sit between the shared
/// module and the early-evaluation mux (§4.1): the mux's misprediction demand
/// cannot reach the scheduler through the buffer, so liveness (eq. 1) must
/// come from the scheduler's own rotation.
class TimeoutScheduler : public CorrectingScheduler {
 public:
  TimeoutScheduler(unsigned channels, unsigned timeout = 1);
  unsigned channels() const override { return channels_; }
  unsigned timeout() const { return timeout_; }
  std::string name() const override { return "timeout"; }

 protected:
  unsigned basePredict(const std::vector<bool>&, const ChoiceReader&) override {
    return current_;
  }
  void observeBase(const Observation& obs) override;
  void resetBase() override {
    current_ = 0;
    stalled_ = 0;
  }
  void packBase(StateWriter& w) const override {
    w.writeU32(current_);
    w.writeU32(stalled_);
  }
  void unpackBase(StateReader& r) override {
    current_ = r.readU32();
    stalled_ = r.readU32();
  }

 private:
  unsigned channels_;
  unsigned timeout_;
  unsigned current_ = 0;
  unsigned stalled_ = 0;
};

/// Nondeterministic scheduler with bounded-fairness demand correction: free
/// choice each cycle, but an outstanding demand locks the prediction onto
/// that channel at once (CorrectingScheduler). Used by the verifier as an
/// executable over-approximation of "any scheduler satisfying the leads-to
/// property".
class BoundedFairScheduler : public CorrectingScheduler {
 public:
  explicit BoundedFairScheduler(unsigned channels);
  unsigned channels() const override { return channels_; }
  unsigned choiceBits() const override;
  std::string name() const override { return "bounded-fair"; }

 protected:
  unsigned basePredict(const std::vector<bool>&, const ChoiceReader& choice) override;

 private:
  unsigned channels_;
};

/// Deliberately unfair: ignores demands and always predicts channel 0.
/// Violates the leads-to property — negative test input for the verifier.
class StarvingScheduler : public Scheduler {
 public:
  explicit StarvingScheduler(unsigned channels) : channels_(channels) {}
  unsigned channels() const override { return channels_; }
  unsigned predict(const std::vector<bool>&, const ChoiceReader&) override { return 0; }
  std::string name() const override { return "starving"; }

 private:
  unsigned channels_;
};

}  // namespace esl::sched
