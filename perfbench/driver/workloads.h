// The benchmark's workloads and the layer probes they share.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "elastic/endpoints.h"
#include "sim/simulator.h"

namespace perfbench {

// --- Simulation rig (layers.cpp) --------------------------------------------

/// `esl --sim` options: SELF monitor on, violations recorded rather than
/// thrown, channel stats on (the shell `sim` verb's configuration).
esl::sim::SimOptions cliSimOptions(esl::SimContext::Backend backend);

/// One design simulated on both backends in lockstep.
struct SimPair {
  std::unique_ptr<esl::Netlist> nlInterp;
  std::unique_ptr<esl::Netlist> nlCompiled;
  std::unique_ptr<esl::sim::Simulator> interp;
  std::unique_ptr<esl::sim::Simulator> compiled;
};

/// Parses `text`, builds two netlists and their simulators.
SimPair makeSimPair(const std::string& text);

/// Deterministic work counts over a fixed cycle range: simulated cycles and
/// the token transfers and kills on all channels in them. A speed-only
/// change leaves them identical.
struct WorkCounts {
  std::uint64_t cycles = 0;
  std::uint64_t tokens = 0;
  std::uint64_t kills = 0;
};

/// Steps both backends `cycles` cycles and counts the interpreted side's
/// work (the pair must be at a deterministic cycle).
WorkCounts countedRun(SimPair& pair, std::uint64_t cycles);

/// Compares the two backends' run reports and packState() digests, and
/// checks for protocol violations and delivered tokens.
void checkPairIdentity(SimPair& pair, const std::string& label, Result& r);

/// Per-layer probes over a simulator pair at its current (warm) state:
/// per-cycle settle/monitor/edge on both backends for about `budgetS`
/// seconds, Simulator::step and runReport. Records spans only.
void probeCycles(SimPair& pair, double budgetS);

/// Per-layer probes over design texts: parse, print, build, pack/unpack.
/// Records spans only; returns mean text and state sizes in KiB.
struct SizeStats {
  double textKb = 0.0;
  double stateKb = 0.0;
};
SizeStats probeFrontendElastic(const std::vector<std::string>& texts);

/// Times setup of the compiled simulator from text: parse → build →
/// Simulator constructed → first cycle done. Spans frontend.parse,
/// elastic.build and compile.first_cycle when tracing.
double timeCompiledSetup(const std::string& text);

/// Fills the per-layer metrics that come from the span summaries.
void layerMetricsFromSpans(const WorkCounts& counts, const SizeStats& sizes,
                           Result& r);

// --- Workloads --------------------------------------------------------------

Result runSimWorkload(const RunArgs& args);    ///< sim-sparse, sim-spec
Result runServeWorkload(const RunArgs& args);  ///< serve-churn, serve-hot

/// Serve-layer probes over one design for workloads that do not run a
/// daemon otherwise (sim-*): a short client session against a daemon plus
/// in-process Service/SimSession/spool timings. Records spans and fills the
/// serve.* per-layer metrics.
void probeServeLayers(const RunArgs& args, const std::string& text,
                      std::uint64_t stepCycles, Result& r);

}  // namespace perfbench
