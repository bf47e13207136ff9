// Simulation rig and the per-layer probes shared by every workload.
#include <cstdio>
#include <stdexcept>

#include "frontend/esl_format.h"
#include "workloads.h"

namespace perfbench {

using esl::SimContext;
using Span = Tracer::Span;

namespace {

/// Forward token transfers summed over every channel's stats.
std::uint64_t tokenTransfers(const esl::Netlist& nl, const esl::sim::Simulator& s) {
  std::uint64_t n = 0;
  for (const esl::ChannelId ch : nl.channelIds())
    n += s.channelStatsOrZero(ch).fwdTransfers;
  return n;
}

/// Tokens received by every sink of `nl` so far.
std::uint64_t tokensDelivered(const esl::Netlist& nl) {
  std::uint64_t n = 0;
  for (const esl::NodeId id : nl.nodeIds())
    if (const auto* sink = dynamic_cast<const esl::TokenSink*>(&nl.node(id)))
      n += sink->received();
  return n;
}

/// Kill events summed over every channel's stats.
std::uint64_t killEvents(const esl::Netlist& nl, const esl::sim::Simulator& s) {
  std::uint64_t n = 0;
  for (const esl::ChannelId ch : nl.channelIds()) n += s.channelStatsOrZero(ch).kills;
  return n;
}

}  // namespace

esl::sim::SimOptions cliSimOptions(SimContext::Backend backend) {
  esl::sim::SimOptions opts{.checkProtocol = true, .throwOnViolation = false};
  opts.backend = backend;
  return opts;
}

SimPair makeSimPair(const std::string& text) {
  const esl::NetlistSpec spec = esl::frontend::parseEsl(text, "<bench>");
  SimPair p;
  p.nlInterp = std::make_unique<esl::Netlist>(spec.build());
  p.nlCompiled = std::make_unique<esl::Netlist>(spec.build());
  p.interp = std::make_unique<esl::sim::Simulator>(
      *p.nlInterp, cliSimOptions(SimContext::Backend::kInterpreted));
  p.compiled = std::make_unique<esl::sim::Simulator>(
      *p.nlCompiled, cliSimOptions(SimContext::Backend::kCompiled));
  return p;
}

WorkCounts countedRun(SimPair& pair, std::uint64_t cycles) {
  const std::uint64_t tokens0 = tokenTransfers(*pair.nlInterp, *pair.interp);
  const std::uint64_t kills0 = killEvents(*pair.nlInterp, *pair.interp);
  pair.interp->run(cycles);
  pair.compiled->run(cycles);
  return {cycles, tokenTransfers(*pair.nlInterp, *pair.interp) - tokens0,
          killEvents(*pair.nlInterp, *pair.interp) - kills0};
}

void checkPairIdentity(SimPair& pair, const std::string& label, Result& r) {
  r.attempted += 1;
  if (pair.interp->cycle() != pair.compiled->cycle()) {
    r.mismatch(label + ": backends at different cycles");
    return;
  }
  const std::string repI = esl::sim::runReport(*pair.nlInterp, pair.interp->ctx());
  const std::string repC =
      esl::sim::runReport(*pair.nlCompiled, pair.compiled->ctx());
  const std::uint64_t digI = digest(pair.interp->ctx().packState());
  const std::uint64_t digC = digest(pair.compiled->ctx().packState());
  char line[160];
  std::snprintf(line, sizeof line,
                "%s: cycle %llu, state digest %016llx (interpreted) %016llx "
                "(compiled)",
                label.c_str(),
                static_cast<unsigned long long>(pair.interp->cycle()),
                static_cast<unsigned long long>(digI),
                static_cast<unsigned long long>(digC));
  r.notes.push_back(line);
  if (repI != repC) r.mismatch(label + ": run reports differ between backends");
  if (digI != digC) r.mismatch(label + ": packState digests differ between backends");
  if (!pair.interp->ctx().protocolViolations().empty() ||
      !pair.compiled->ctx().protocolViolations().empty())
    r.mismatch(label + ": protocol violations reported");
  if (tokensDelivered(*pair.nlInterp) == 0)
    r.mismatch(label + ": no tokens delivered");
}

namespace {

/// One cycle split at the SimContext layer boundaries (the work
/// Simulator::step does, minus its channel-stats sweep).
template <typename Names>
void tracedCycle(SimContext& ctx) {
  Span cycle(Names::cycle);
  {
    Span s(Names::settle);
    ctx.settle();
  }
  {
    Span s(Names::monitor);
    ctx.checkProtocol();
  }
  {
    Span s(Names::edge);
    ctx.edge();
  }
}

struct InterpNames {
  static constexpr const char* cycle = "probe.cycle";
  static constexpr const char* settle = "elastic.settle";
  static constexpr const char* monitor = "elastic.monitor";
  static constexpr const char* edge = "elastic.edge";
};
struct CompiledNames {
  static constexpr const char* cycle = "probe.cycle_compiled";
  static constexpr const char* settle = "compile.settle";
  static constexpr const char* monitor = "compile.monitor";
  static constexpr const char* edge = "compile.edge";
};

/// At least `minCalls` calls of `fn`, then more until `budgetS` has passed.
template <typename F>
void repeatFor(double budgetS, unsigned minCalls, F fn) {
  const double end = now() + budgetS;
  for (unsigned i = 0; i < minCalls || now() < end; ++i) fn();
}

}  // namespace

void probeCycles(SimPair& pair, double budgetS) {
  repeatFor(budgetS * 0.35, 20, [&] { tracedCycle<InterpNames>(pair.interp->ctx()); });
  repeatFor(budgetS * 0.35, 20,
            [&] { tracedCycle<CompiledNames>(pair.compiled->ctx()); });
  repeatFor(budgetS * 0.25, 20, [&] {
    Span s("sim.step");
    pair.interp->step();
  });
  std::string report;
  repeatFor(budgetS * 0.05, 5, [&] {
    Span s("sim.report");
    report = esl::sim::runReport(*pair.nlInterp, pair.interp->ctx());
  });
}

SizeStats probeFrontendElastic(const std::vector<std::string>& texts) {
  SizeStats sizes;
  const std::size_t n = std::min<std::size_t>(texts.size(), 8);
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& text = texts[i];
    const unsigned reps = text.size() > (256u << 10) ? 2 : 5;
    esl::NetlistSpec spec;
    for (unsigned k = 0; k < reps; ++k) {
      Span s("frontend.parse");
      spec = esl::frontend::parseEsl(text, "<bench>");
    }
    std::string printed;
    for (unsigned k = 0; k < reps; ++k) {
      Span s("frontend.print");
      printed = esl::frontend::printEsl(spec);
    }
    if (printed != text) throw std::runtime_error("print(parse(text)) != text");
    std::unique_ptr<esl::Netlist> nl;
    for (unsigned k = 0; k < reps; ++k) {
      Span s("elastic.build");
      nl = std::make_unique<esl::Netlist>(spec.build());
    }
    esl::sim::Simulator sim(*nl, cliSimOptions(SimContext::Backend::kInterpreted));
    sim.run(8);
    std::vector<std::uint8_t> state;
    for (unsigned k = 0; k < reps; ++k) {
      Span s("elastic.pack");
      state = sim.ctx().packState();
    }
    for (unsigned k = 0; k < reps; ++k) {
      Span s("elastic.unpack");
      sim.ctx().unpackState(state);
    }
    sizes.textKb += static_cast<double>(text.size()) / 1024.0;
    sizes.stateKb += static_cast<double>(state.size()) / 1024.0;
  }
  if (n > 0) {
    sizes.textKb /= static_cast<double>(n);
    sizes.stateKb /= static_cast<double>(n);
  }
  return sizes;
}

double timeCompiledSetup(const std::string& text) {
  std::unique_ptr<esl::Netlist> nl;
  std::unique_ptr<esl::sim::Simulator> sim;
  const double t0 = now();
  {
    Span setup("setup.sim");
    esl::NetlistSpec spec;
    {
      Span s("frontend.parse");
      spec = esl::frontend::parseEsl(text, "<bench>");
    }
    {
      Span s("elastic.build");
      nl = std::make_unique<esl::Netlist>(spec.build());
    }
    Span first("compile.first_cycle");
    sim = std::make_unique<esl::sim::Simulator>(
        *nl, cliSimOptions(SimContext::Backend::kCompiled));
    sim->step();
  }
  return now() - t0;
}

void layerMetricsFromSpans(const WorkCounts& counts, const SizeStats& sizes,
                           Result& r) {
  const auto spans = Tracer::summarize();
  const auto p50 = [&](const char* span, double scale) {
    const auto it = spans.find(span);
    if (it == spans.end()) {
      r.mismatch(std::string("trace has no '") + span + "' spans");
      return 0.0;
    }
    return it->second.p50 * scale;
  };
  r.layer("frontend.parse_ms", p50("frontend.parse", 1e3), "ms");
  r.layer("frontend.print_ms", p50("frontend.print", 1e3), "ms");
  r.layer("frontend.text_kb", sizes.textKb, "KiB");
  r.layer("elastic.build_ms", p50("elastic.build", 1e3), "ms");
  r.layer("elastic.pack_ms", p50("elastic.pack", 1e3), "ms");
  r.layer("elastic.unpack_ms", p50("elastic.unpack", 1e3), "ms");
  r.layer("elastic.state_kb", sizes.stateKb, "KiB");
  r.layer("elastic.settle_us", p50("elastic.settle", 1e6), "us");
  r.layer("elastic.edge_us", p50("elastic.edge", 1e6), "us");
  r.layer("elastic.monitor_us", p50("elastic.monitor", 1e6), "us");
  r.layer("compile.first_cycle_ms", p50("compile.first_cycle", 1e3), "ms");
  r.layer("compile.settle_us", p50("compile.settle", 1e6), "us");
  r.layer("compile.edge_us", p50("compile.edge", 1e6), "us");
  r.layer("sim.step_us", p50("sim.step", 1e6), "us");
  r.layer("sim.report_us", p50("sim.report", 1e6), "us");
  const double kc = static_cast<double>(counts.cycles) / 1000.0;
  r.layer("sim.tokens_per_kcycle", static_cast<double>(counts.tokens) / kc, "count");
  r.layer("sim.kills_per_kcycle", static_cast<double>(counts.kills) / kc, "count");
  r.layer("serve.open_ms", p50("serve.open", 1e3), "ms");
  r.layer("serve.step_ms", p50("serve.step", 1e3), "ms");
  r.layer("serve.query_ms", p50("serve.query", 1e3), "ms");
  r.layer("serve.snapshot_ms", p50("serve.snapshot", 1e3), "ms");
  r.layer("serve.cmd_ms", p50("serve.cmd", 1e3), "ms");
  r.layer("serve.inproc_step_ms", p50("serve.inproc_step", 1e3), "ms");
  r.layer("serve.session_step_ms", p50("serve.session_step", 1e3), "ms");
  r.layer("serve.spool_save_ms", p50("serve.spool_save", 1e3), "ms");
  r.layer("serve.spool_load_ms", p50("serve.spool_load", 1e3), "ms");
  r.layer("serve.spool_write_ms", p50("serve.spool_write", 1e3), "ms");
  r.layer("serve.spool_read_ms", p50("serve.spool_read", 1e3), "ms");
}

}  // namespace perfbench
