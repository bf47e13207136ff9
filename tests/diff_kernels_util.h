// Shared driver for the three-way kernel differential fuzz (PR-fast suite in
// test_diff_kernels.cpp, large seeded campaign in test_diff_nightly.cpp).
//
// One trial builds the same synthetic system three times — reference sweep,
// event-driven interpreter, compiled bytecode VM — runs the instances in
// lockstep, and asserts identical packed netlist state and SELF protocol
// monitor reports after EVERY cycle (plus identical sink transfer streams at
// the end) — a much stronger oracle than end-of-run outputs, since a
// divergence that later self-corrects still fails. Every harness runs at the
// simulator's default options (monitor and channel statistics on), except
// that a violation is collected rather than thrown so it can be compared. On
// failure the driver greedily shrinks the offending SynthConfig (fewer nodes,
// plainer traffic, fewer cycles) while the mismatch reproduces, so the
// reported seed/config is a minimal repro.
#pragma once

#include <optional>
#include <string>

#include "netlist/synth.h"
#include "sim/simulator.h"

namespace esl::test {

/// The harnesses' options: SimOptions defaults, violations collected, on the
/// interpreted reference backend (the compiled side sets its own).
inline sim::SimOptions diffBaseOptions() {
  sim::SimOptions o;
  o.throwOnViolation = false;
  o.backend = SimContext::Backend::kInterpreted;
  return o;
}

/// Compares two instances' monitor reports; `label` names the pair.
inline std::optional<std::string> diffViolations(sim::Simulator& a,
                                                 sim::Simulator& b,
                                                 const std::string& label) {
  const auto& va = a.ctx().protocolViolations();
  const auto& vb = b.ctx().protocolViolations();
  if (va == vb) return std::nullopt;
  return label + ": protocol monitor reports differ at cycle " +
         std::to_string(a.cycle()) + " (" + std::to_string(va.size()) + " vs " +
         std::to_string(vb.size()) + " violations)";
}

/// Compares the two sinks' transfer streams; `label` names the pair.
inline std::optional<std::string> diffSinkStreams(const TokenSink* a,
                                                  const TokenSink* b,
                                                  const std::string& label) {
  if (a == nullptr || b == nullptr) return std::nullopt;
  const auto& ta = a->transfers();
  const auto& tb = b->transfers();
  if (ta.size() != tb.size())
    return label + ": sink transfer counts differ (" +
           std::to_string(ta.size()) + " vs " + std::to_string(tb.size()) + ")";
  for (std::size_t i = 0; i < ta.size(); ++i)
    if (ta[i].cycle != tb[i].cycle || !(ta[i].data == tb[i].data))
      return label + ": sink transfer " + std::to_string(i) + " differs";
  return std::nullopt;
}

/// Runs one three-way differential trial (sweep vs event vs compiled);
/// returns a description of the first mismatch naming the diverging pair, or
/// nullopt when all three agree everywhere.
inline std::optional<std::string> diffKernelsOnce(const synth::SynthConfig& cfg,
                                                  std::uint64_t cycles) {
  synth::SynthSystem sweep = synth::build(cfg);
  synth::SynthSystem event = synth::build(cfg);
  synth::SynthSystem comp = synth::build(cfg);
  const sim::SimOptions base = diffBaseOptions();
  sim::SimOptions sweepOpts = base, eventOpts = base, compOpts = base;
  sweepOpts.kernel = SimContext::SettleKernel::kSweep;
  eventOpts.kernel = SimContext::SettleKernel::kEventDriven;
  compOpts.kernel = SimContext::SettleKernel::kEventDriven;
  compOpts.backend = SimContext::Backend::kCompiled;
  sim::Simulator ss(sweep.nl, sweepOpts);
  sim::Simulator se(event.nl, eventOpts);
  sim::Simulator sc(comp.nl, compOpts);

  for (std::uint64_t c = 0; c < cycles; ++c) {
    ss.step();
    se.step();
    sc.step();
    if (ss.ctx().packState() != se.ctx().packState())
      return "sweep-vs-event: packed state diverged at cycle " +
             std::to_string(c);
    if (se.ctx().packState() != sc.ctx().packState())
      return "event-vs-compiled: packed state diverged at cycle " +
             std::to_string(c);
    if (auto d = diffViolations(ss, se, "sweep-vs-event")) return d;
    if (auto d = diffViolations(se, sc, "event-vs-compiled")) return d;
  }
  if (auto d = diffSinkStreams(sweep.mainSink, event.mainSink, "sweep-vs-event"))
    return d;
  if (auto d =
          diffSinkStreams(event.mainSink, comp.mainSink, "event-vs-compiled"))
    return d;
  return std::nullopt;
}

/// Two-way compiled-vs-interpreted differential (the compiled-kernel suite's
/// workhorse; the three-way diffKernelsOnce subsumes it but costs a third
/// sweep-kernel run).
inline std::optional<std::string> diffCompiledOnce(const synth::SynthConfig& cfg,
                                                   std::uint64_t cycles) {
  synth::SynthSystem interp = synth::build(cfg);
  synth::SynthSystem comp = synth::build(cfg);
  const sim::SimOptions base = diffBaseOptions();
  sim::SimOptions compOpts = base;
  compOpts.backend = SimContext::Backend::kCompiled;
  sim::Simulator si(interp.nl, base);
  sim::Simulator sc(comp.nl, compOpts);

  for (std::uint64_t c = 0; c < cycles; ++c) {
    si.step();
    sc.step();
    if (si.ctx().packState() != sc.ctx().packState())
      return "packed state diverged at cycle " + std::to_string(c);
    if (auto d = diffViolations(si, sc, "interp-vs-compiled")) return d;
  }
  return diffSinkStreams(interp.mainSink, comp.mainSink, "interp-vs-compiled");
}

/// Sharded-vs-serial differential: the same system, one instance on the
/// serial event kernel and one sharded across `shards` worker lanes, asserted
/// packState-identical after EVERY cycle (the sharded settle must reach the
/// exact fixed point the serial kernel does, cycle by cycle).
inline std::optional<std::string> diffShardedOnce(const synth::SynthConfig& cfg,
                                                  std::uint64_t cycles,
                                                  unsigned shards) {
  synth::SynthSystem serial = synth::build(cfg);
  synth::SynthSystem sharded = synth::build(cfg);
  const sim::SimOptions base = diffBaseOptions();
  sim::SimOptions shardedOpts = base;
  shardedOpts.shards = shards;
  sim::Simulator ss(serial.nl, base);
  sim::Simulator sh(sharded.nl, shardedOpts);

  for (std::uint64_t c = 0; c < cycles; ++c) {
    ss.step();
    sh.step();
    if (ss.ctx().packState() != sh.ctx().packState())
      return "packed state diverged at cycle " + std::to_string(c) + " (" +
             std::to_string(shards) + " shards)";
    if (auto d = diffViolations(ss, sh, "serial-vs-sharded")) return d;
  }
  if (serial.mainSink != nullptr && sharded.mainSink != nullptr) {
    const auto& a = serial.mainSink->transfers();
    const auto& b = sharded.mainSink->transfers();
    if (a.size() != b.size())
      return "sink transfer counts differ (" + std::to_string(a.size()) + " vs " +
             std::to_string(b.size()) + ")";
    for (std::size_t i = 0; i < a.size(); ++i)
      if (a[i].cycle != b[i].cycle || !(a[i].data == b[i].data))
        return "sink transfer " + std::to_string(i) + " differs";
  }
  return std::nullopt;
}

/// Compiled×sharded differential: the compiled backend sharded across
/// `shards` lanes against the serial compiled backend, packState-identical
/// after every cycle. Interior nodes run specialized arena ops while
/// boundary-adjacent nodes take the staging-aware interpreted path, so this
/// pins both the shard-sliced arena and the mixed-dispatch seam.
inline std::optional<std::string> diffCompiledShardedOnce(
    const synth::SynthConfig& cfg, std::uint64_t cycles, unsigned shards) {
  synth::SynthSystem serial = synth::build(cfg);
  synth::SynthSystem sharded = synth::build(cfg);
  sim::SimOptions base = diffBaseOptions();
  base.backend = SimContext::Backend::kCompiled;
  sim::SimOptions shardedOpts = base;
  shardedOpts.shards = shards;
  sim::Simulator ss(serial.nl, base);
  sim::Simulator sh(sharded.nl, shardedOpts);

  for (std::uint64_t c = 0; c < cycles; ++c) {
    ss.step();
    sh.step();
    if (ss.ctx().packState() != sh.ctx().packState())
      return "compiled packed state diverged at cycle " + std::to_string(c) +
             " (" + std::to_string(shards) + " shards)";
    if (auto d = diffViolations(ss, sh, "compiled-serial-vs-sharded")) return d;
  }
  return diffSinkStreams(serial.mainSink, sharded.mainSink,
                         "compiled-serial-vs-sharded");
}

struct DiffFailure {
  synth::SynthConfig config;  ///< minimal failing config
  std::uint64_t cycles = 0;
  std::string mismatch;
  std::string describe() const {
    return "kernel divergence on " + synth::describe(config) + " (seed " +
           std::to_string(config.seed) + ", " + std::to_string(cycles) +
           " cycles): " + mismatch;
  }
};

/// Greedy config shrinker shared by the property-based harnesses (kernel
/// differential fuzz, `.esl` round-trip equivalence): given a failing
/// (cfg, cycles) pair and a predicate that re-runs the trial, shrinks one
/// knob at a time, keeping each shrink only while the failure reproduces.
/// Structural shrinks first (smaller netlist), then traffic, then time.
template <typename StillFails>
inline void shrinkSynthConfig(synth::SynthConfig& cfg, std::uint64_t& cycles,
                              const StillFails& stillFails) {
  while (cfg.targetNodes > 6) {
    synth::SynthConfig candidate = cfg;
    candidate.targetNodes = cfg.targetNodes / 2 < 6 ? 6 : cfg.targetNodes / 2;
    if (!stillFails(candidate, cycles)) break;
    cfg = candidate;
  }
  for (const auto knob : {0, 1, 2, 3}) {
    synth::SynthConfig candidate = cfg;
    switch (knob) {
      case 0: candidate.vluPermille = 0; break;
      case 1: candidate.injectPeriod = 1; break;
      case 2: candidate.bufferCapacity = 2; break;
      case 3: candidate.width = 1; break;
    }
    if (stillFails(candidate, cycles)) cfg = candidate;
  }
  while (cycles > 8 && stillFails(cfg, cycles / 2)) cycles /= 2;
}

/// Runs the trial and, if it fails, shrinks the config before reporting.
inline std::optional<DiffFailure> diffKernelsShrinking(synth::SynthConfig cfg,
                                                       std::uint64_t cycles) {
  auto mismatch = diffKernelsOnce(cfg, cycles);
  if (!mismatch) return std::nullopt;

  shrinkSynthConfig(cfg, cycles,
                    [](const synth::SynthConfig& candidate,
                       std::uint64_t candidateCycles) {
                      return diffKernelsOnce(candidate, candidateCycles).has_value();
                    });

  DiffFailure failure;
  failure.config = cfg;
  failure.cycles = cycles;
  failure.mismatch = *diffKernelsOnce(cfg, cycles);
  return failure;
}

}  // namespace esl::test
