// Google-benchmark microbenchmarks of the toolkit itself: cycle-accurate
// simulation rate on the paper systems, transformation cost ("all
// transformations are local they are very fast to compute"), timing analysis
// and explicit-state exploration.
//
// The simulation benchmarks take a kernel argument (0 = dense sweep,
// 1 = event-driven worklist) so the speedup of the sparse kernel is tracked
// per checkout; `cmake --build build --target bench` records the results as
// machine-readable JSON in build/BENCH_sim.json. The simulation rows name the
// interpreted backend (the lowering bench/BENCH_baseline.json was recorded
// on), so the regression gate compares like with like.
#include <benchmark/benchmark.h>

#include "elastic/endpoints.h"
#include "netlist/patterns.h"
#include "perf/timing.h"
#include "sim/farm.h"
#include "sim/simulator.h"
#include "transform/transform.h"
#include "verify/checker.h"

using namespace esl;

namespace {

constexpr SimContext::Backend kInterp = SimContext::Backend::kInterpreted;

SimContext::SettleKernel kernelArg(const benchmark::State& state) {
  return state.range(0) == 0 ? SimContext::SettleKernel::kSweep
                             : SimContext::SettleKernel::kEventDriven;
}

void BM_SimulateFig1Speculative(benchmark::State& state) {
  auto sys = patterns::buildFig1(patterns::Fig1Variant::kSpeculative);
  sim::Simulator s(sys.nl, {.checkProtocol = false,
                            .kernel = kernelArg(state),
                            .backend = kInterp});
  for (auto _ : state) s.step();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulateFig1Speculative)->ArgName("kernel")->Arg(0)->Arg(1);

void BM_SimulateFig1WithProtocolMonitor(benchmark::State& state) {
  auto sys = patterns::buildFig1(patterns::Fig1Variant::kSpeculative);
  sim::Simulator s(sys.nl, {.checkProtocol = true,
                            .throwOnViolation = false,
                            .kernel = kernelArg(state),
                            .backend = kInterp});
  for (auto _ : state) s.step();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulateFig1WithProtocolMonitor)->ArgName("kernel")->Arg(0)->Arg(1);

void BM_SimulateSecdedSpeculative(benchmark::State& state) {
  auto sys = patterns::buildSecdedSpeculative();
  sim::Simulator s(sys.nl, {.checkProtocol = false,
                            .kernel = kernelArg(state),
                            .backend = kInterp});
  for (auto _ : state) s.step();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulateSecdedSpeculative)->ArgName("kernel")->Arg(0)->Arg(1);

void BM_SimulateKernelCrossCheck(benchmark::State& state) {
  // Both kernels every cycle + comparison: the cost ceiling of paranoia mode.
  auto sys = patterns::buildFig1(patterns::Fig1Variant::kSpeculative);
  sim::Simulator s(sys.nl, {.checkProtocol = false,
                            .crossCheckKernels = true,
                            .backend = kInterp});
  for (auto _ : state) s.step();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulateKernelCrossCheck);

void BM_SimFarmSchedulerSweep(benchmark::State& state) {
  // Multi-seed Monte Carlo sweep of the Fig. 1(d) loop across worker threads.
  const unsigned threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    sim::SimFarm farm(
        [](const sim::SimFarm::Task& task, sim::SimFarm::Instance& inst) {
          patterns::Fig1Config cfg;
          cfg.takenPermille = static_cast<unsigned>(task.config);
          auto sys = patterns::buildFig1(patterns::Fig1Variant::kSpeculative, cfg);
          inst.nl = std::move(sys.nl);
          inst.watch.emplace_back("loop", sys.loopChannel);
        },
        {.checkProtocol = false, .backend = kInterp});
    for (std::uint64_t seed = 1; seed <= 16; ++seed)
      farm.add({.seed = seed, .cycles = 500, .config = 300});
    const auto results = farm.run(threads);
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(state.iterations() * 16 * 500);
}
BENCHMARK(BM_SimFarmSchedulerSweep)->ArgName("threads")->Arg(1)->Arg(4);

void BM_SpeculationRecipe(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    auto sys = patterns::buildFig1(patterns::Fig1Variant::kNonSpeculative);
    const auto cands = transform::findSpeculationCandidates(sys.nl);
    state.ResumeTiming();
    transform::speculate(sys.nl, cands[0].mux, cands[0].func,
                         std::make_unique<sched::LastServedScheduler>(2));
    benchmark::DoNotOptimize(sys.nl.nodeIds());
  }
}
BENCHMARK(BM_SpeculationRecipe);

void BM_TimingAnalysis(benchmark::State& state) {
  auto sys = patterns::buildSecdedSpeculative();
  for (auto _ : state) {
    auto report = perf::analyzeTiming(sys.nl);
    benchmark::DoNotOptimize(report.cycleTime);
  }
}
BENCHMARK(BM_TimingAnalysis);

void BM_ExplicitStateExploration(benchmark::State& state) {
  for (auto _ : state) {
    Netlist nl;
    auto& src = nl.make<NondetSource>("env.src", 1);
    auto& buf = nl.make<ElasticBuffer>("buf", 1);
    auto& sink = nl.make<NondetSink>("env.sink", 1, 2, true);
    nl.connect(src, 0, buf, 0, "up");
    nl.connect(buf, 0, sink, 0, "down");
    verify::ModelChecker mc(nl);
    auto result = mc.explore();
    benchmark::DoNotOptimize(result.states);
  }
}
BENCHMARK(BM_ExplicitStateExploration);

}  // namespace

BENCHMARK_MAIN();
