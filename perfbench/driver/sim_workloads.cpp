// sim-sparse and sim-spec: the `esl --sim` path at default options.
//
// The program sees a generated `.esl` text; the benchmark parses and builds
// it, then simulates it on the interpreted (default) and the compiled
// backend in alternating chunks, so both backends meet the same machine
// noise and end at the same cycle, where their reports and state digests
// must agree. Every CPU but one runs one such lane at once and the samples
// are pooled.
#include <barrier>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <thread>

#include "frontend/esl_format.h"
#include "netlist/synth.h"
#include "workloads.h"

namespace perfbench {

using esl::SimContext;
using Span = Tracer::Span;

namespace {

struct SimShape {
  esl::synth::SynthConfig cfg;
  std::uint64_t warmup = 0;       ///< cycles simulated before anything is timed
  std::uint64_t chunk = 1;        ///< cycles per timed op
  std::uint64_t countCycles = 0;  ///< fixed range for the work counts
};

SimShape shapeFor(const std::string& workload, std::uint64_t seed) {
  SimShape s;
  s.cfg.seed = seed;
  if (workload == "sim-sparse") {
    // A deep pipeline with one token offered every 64 cycles: almost every
    // channel is idle, so per-cycle cost is the SELF monitor's full scan.
    s.cfg.topology = esl::synth::Topology::kPipeline;
    s.cfg.targetNodes = 10000;
    s.cfg.injectPeriod = 64;
    s.cfg.vluPermille = 20;
    // The first token reaches the sink after about 6000 cycles; from then on
    // every cycle does the same work.
    s.warmup = 8000;
    s.chunk = 10;
    s.countCycles = 1000;
  } else {
    // Speculation ladder at saturated injection: early-evaluation muxes and
    // anti-tokens keep settle and edge busy on every rung.
    s.cfg.topology = esl::synth::Topology::kSpecLadder;
    s.cfg.targetNodes = 3000;
    s.cfg.injectPeriod = 1;
    // Full after about 1000 cycles.
    s.warmup = 1500;
    s.chunk = 6;
    s.countCycles = 500;
  }
  return s;
}

/// Chunk latencies are summarised by their 1st percentile. On a shared
/// machine each CPU runs at one of a few speeds up to about 2x apart,
/// switching every few seconds with the neighbours' load, and how long each
/// speed lasts differs from run to run; means, medians and even the lower
/// decile follow that mix. Every run spends at least a few percent of its
/// chunks at the fastest speed, so a low percentile of many short chunks is
/// the program's own speed there.
constexpr double kFastQuantile = 0.01;

struct Window {
  std::uint64_t cycles = 0;  ///< per backend
  Samples opLatency;        ///< interpreted chunk latencies, seconds
  Samples compiledLatency;  ///< compiled chunk latencies, seconds

  void merge(const Window& o) {
    cycles += o.cycles;
    opLatency.append(o.opLatency);
    compiledLatency.append(o.compiledLatency);
  }
};

/// Cycles per second of `chunk`-cycle ops with these latencies.
double rate(const Samples& latency, std::uint64_t chunk) {
  return static_cast<double>(chunk) / latency.quantile(kFastQuantile);
}

/// The design's state after `cycles` cycles, simulated on the compiled
/// backend with the monitor off: the monitor only observes, so this is the
/// state the monitored simulators reach, at a tenth of the cost. Loading it
/// is what `esl --load-state` does.
std::vector<std::uint8_t> warmState(const std::string& text, std::uint64_t cycles) {
  esl::Netlist nl(esl::frontend::parseEsl(text, "<bench>").build());
  esl::sim::SimOptions opts{.checkProtocol = false};
  opts.backend = SimContext::Backend::kCompiled;
  esl::sim::Simulator sim(nl, opts);
  sim.run(cycles);
  return sim.ctx().packState();
}

/// Alternates interpreted and compiled chunks until `seconds` have passed.
/// With tracing on every Simulator::step gets its own span.
Window runWindow(SimPair& pair, std::uint64_t chunk, double seconds) {
  Window w;
  const bool traced = Tracer::enabled();
  const double end = now() + seconds;
  while (now() < end) {
    double t0 = now();
    if (traced) {
      Span c("sim.chunk");
      for (std::uint64_t i = 0; i < chunk; ++i) {
        Span s("sim.step");
        pair.interp->step();
      }
    } else {
      pair.interp->run(chunk);
    }
    double t1 = now();
    w.opLatency.add(t1 - t0);
    w.cycles += chunk;
    t0 = now();
    if (traced) {
      Span c("sim.chunk_compiled");
      for (std::uint64_t i = 0; i < chunk; ++i) {
        Span s("sim.step_compiled");
        pair.compiled->step();
      }
    } else {
      pair.compiled->run(chunk);
    }
    t1 = now();
    w.compiledLatency.add(t1 - t0);
  }
  return w;
}

/// Resumes from `snap` the way `esl --load-state` does: text → parse →
/// build → simulator → unpackState → first cycle. Returns the seconds taken
/// and the state digest after that cycle.
std::pair<double, std::uint64_t> timeRestart(const std::string& text,
                                             const std::vector<std::uint8_t>& snap) {
  std::unique_ptr<esl::Netlist> nl;
  std::unique_ptr<esl::sim::Simulator> sim;
  const double t0 = now();
  nl = std::make_unique<esl::Netlist>(esl::frontend::parseEsl(text).build());
  sim = std::make_unique<esl::sim::Simulator>(
      *nl, cliSimOptions(SimContext::Backend::kInterpreted));
  sim->ctx().unpackState(snap);
  sim->step();
  const double secs = now() - t0;
  return {secs, digest(sim->ctx().packState())};
}

/// What one lane measured and checked. A lane loads the warm state into a
/// simulator pair, runs the timed window(s) and checks identity. Lanes run
/// together and meet at a barrier between phases, so every timed phase has
/// every lane busy.
struct Lane {
  Samples setup;
  Samples restart;
  Window untraced, traced;
  WorkCounts counts;
  Result checks;
  SimPair pair;
};

constexpr int kPauses = 12;
constexpr int kSetupsPerPause = 3;

void runLane(const RunArgs& args, const SimShape& shape, const std::string& text,
             const std::vector<std::uint8_t>& warm, bool startsUp,
             std::barrier<std::function<void()>>& sync, Lane& lane) {
  lane.pair = makeSimPair(text);
  lane.pair.interp->ctx().unpackState(warm);
  lane.pair.compiled->ctx().unpackState(warm);
  lane.counts = countedRun(lane.pair, shape.countCycles);
  // setup_s and restart_s: the untraced window is cut into segments;
  // between them the lanes pause while the first one sets up from the text
  // and resumes from a snapshot a few times, in a single thread as
  // `esl --sim` and `esl --load-state` do. So the set-ups sample the
  // machine over the whole window as the chunks do, and no chunk is timed
  // during one.
  const std::vector<std::uint8_t> snap = lane.pair.interp->ctx().packState();
  const double window = args.trace ? args.seconds / 2 : args.seconds;
  sync.arrive_and_wait();  // peak memory read; tracing off
  for (int k = 0; k <= kPauses; ++k) {
    if (k > 0) {
      sync.arrive_and_wait();
      for (int i = 0; startsUp && i < kSetupsPerPause; ++i) {
        lane.setup.add(timeCompiledSetup(text));
        lane.restart.add(timeRestart(text, snap).first);
      }
      sync.arrive_and_wait();
    }
    lane.untraced.merge(runWindow(lane.pair, shape.chunk, window / (kPauses + 1)));
  }
  sync.arrive_and_wait();  // tracing back on
  if (args.trace) lane.traced = runWindow(lane.pair, shape.chunk, args.seconds / 2);
  sync.arrive_and_wait();
  checkPairIdentity(lane.pair, args.workload, lane.checks);

  // A resume from the final state must match the original one cycle on.
  const std::uint64_t restored =
      timeRestart(text, lane.pair.interp->ctx().packState()).second;
  lane.pair.interp->step();
  lane.checks.attempted += 1;
  if (restored != digest(lane.pair.interp->ctx().packState()))
    lane.checks.mismatch("state restored from a snapshot diverges after one cycle");
}

}  // namespace

Result runSimWorkload(const RunArgs& args) {
  Result r;
  const SimShape shape = shapeFor(args.workload, args.seed);
  const std::string text =
      esl::frontend::printEsl(esl::synth::spec(shape.cfg));
  r.notes.push_back("design: " + esl::synth::describe(shape.cfg) + ", " +
                    std::to_string(text.size()) + " bytes of .esl text");

  const std::vector<std::uint8_t> warm = warmState(text, shape.warmup);

  // One lane per CPU but one, each simulating its own copy of the design. On
  // a shared machine each CPU's speed varies with its neighbours' load for
  // seconds at a time, independently of the others; pooling the CPUs'
  // samples gives every run more time at the faster speeds. The spare CPU
  // takes the rest of the system's work, which would otherwise preempt
  // lanes.
  const unsigned lanes = std::max(1u, args.nproc - 1);
  std::vector<Lane> lane(lanes);
  const bool tracing = Tracer::enabled();
  double peakRss = 0.0;
  // Barrier phases: 0 before the window, then two per pause, then the end of
  // the untraced window.
  int phase = 0;
  std::barrier<std::function<void()>> sync(lanes, [&] {
    if (phase == 0) {
      // Peak memory after a fixed amount of work, so it does not grow with
      // throughput (sinks keep a log of every transfer).
      peakRss = peakRssMb();
      Tracer::setEnabled(false);
    } else if (phase == 2 * kPauses + 1) {
      Tracer::setEnabled(tracing);
    }
    ++phase;
  });
  std::vector<std::thread> threads;
  std::vector<std::string> errors(lanes);
  for (unsigned i = 0; i < lanes; ++i)
    threads.emplace_back([&, i] {
      try {
        runLane(args, shape, text, warm, i == 0, sync, lane[i]);
      } catch (const std::exception& e) {
        errors[i] = e.what();
        sync.arrive_and_drop();
      }
    });
  for (std::thread& t : threads) t.join();
  for (const std::string& e : errors)
    if (!e.empty()) throw std::runtime_error(e);

  Samples setup, restart;
  Window w, tw;
  for (const Lane& l : lane) {
    setup.append(l.setup);
    restart.append(l.restart);
    w.merge(l.untraced);
    tw.merge(l.traced);
    r.attempted += l.checks.attempted + l.untraced.opLatency.size() * 2;
    r.failed += l.checks.failed;
    r.mismatches += l.checks.mismatches;
  }
  for (const std::string& note : lane[0].checks.notes) r.notes.push_back(note);
  for (std::size_t i = 1; i < lanes; ++i)
    for (const std::string& note : lane[i].checks.notes)
      if (note.rfind("MISMATCH", 0) == 0) r.notes.push_back(note);

  const double cps = rate(w.opLatency, shape.chunk);
  if (args.trace) {
    const double tracedCps = rate(tw.opLatency, shape.chunk);
    r.layer("trace.overhead_pct", (cps - tracedCps) / cps * 100.0, "%");
    char line[160];
    std::snprintf(line, sizeof line,
                  "tracing overhead: %.0f cycles/s untraced, %.0f traced",
                  cps, tracedCps);
    r.notes.push_back(line);
    probeCycles(lane[0].pair, args.seconds / 8);
    for (int i = 0; i < 3; ++i) timeCompiledSetup(text);
    const SizeStats sizes = probeFrontendElastic({text});
    probeServeLayers(args, text, shape.chunk, r);
    layerMetricsFromSpans(lane[0].counts, sizes, r);
  }

  r.notes.push_back("timed window: " + std::to_string(lanes) + " lanes, " +
                    std::to_string(w.cycles) + " cycles per backend (samples: " +
                    std::to_string(w.opLatency.size()) + " ops, " +
                    std::to_string(setup.size()) + " setups, " +
                    std::to_string(restart.size()) + " restarts)");
  r.e2e("setup_s", setup.median(), "s");
  r.e2e("cycles_per_s", cps, "1/s");
  r.e2e("cycles_per_s.compiled", rate(w.compiledLatency, shape.chunk), "1/s");
  r.e2e("ops_per_s", rate(w.opLatency, 1), "1/s");
  r.printOnly("op_p50_ms", w.opLatency.median() * 1e3, "ms");
  r.printOnly("op_p99_ms", w.opLatency.quantile(0.99) * 1e3, "ms");
  r.printOnly("restart_s", restart.median(), "s");
  r.e2e("peak_rss_mb", peakRss, "MiB");
  return r;
}

}  // namespace perfbench
