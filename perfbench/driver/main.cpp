// perfbench_driver: runs one workload of the end-to-end benchmark and prints
// its metrics. Normally started by perfbench/run.py, which builds it first:
//
//   perfbench_driver --workload sim-sparse --seed 1 --seconds 10
//       --trace 0 --esl <path of the esl binary> --work-dir <scratch dir>
//
// The last line of standard output is one JSON object:
//   {"correct": true, "attempted": N, "failed": N, "metrics": {...}}
// holding the end-to-end metrics, or with --trace 1 the per-layer metrics
// (tracing on everywhere except an untraced reference window). Exit code 1
// when any output mismatched, 2 when the run could not complete.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Metric;

std::string jsonMetrics(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  char buf[128];
  for (const auto& [name, m] : metrics) {
    if (out.size() > 1) out += ", ";
    std::snprintf(buf, sizeof buf, "{\"value\": %.17g, \"unit\": \"", m.value);
    out += "\"" + name + "\": " + buf + m.unit + "\"}";
  }
  return out + "}";
}

void printMetrics(const char* kind, const std::map<std::string, Metric>& metrics) {
  for (const auto& [name, m] : metrics)
    std::printf("%s %-26s %14.6g %s\n", kind, name.c_str(), m.value, m.unit.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload W --seed N --seconds S "
               "--trace 0|1 --esl PATH --work-dir DIR\n"
               "workloads: sim-sparse sim-spec serve-churn serve-hot\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") args.seconds = std::strtod(value.c_str(), nullptr);
    else if (flag == "--trace") args.trace = value == "1";
    else if (flag == "--esl") args.eslBinary = value;
    else if (flag == "--work-dir") args.workDir = value;
    else return usage();
  }
  const bool sim = args.workload == "sim-sparse" || args.workload == "sim-spec";
  const bool serve = args.workload == "serve-churn" || args.workload == "serve-hot";
  if ((!sim && !serve) || args.eslBinary.empty() || args.workDir.empty() ||
      args.seconds <= 0)
    return usage();
  args.nproc = std::max(1u, std::thread::hardware_concurrency());
  ::mkdir(args.workDir.c_str(), 0755);

  std::printf("workload %s, seed %llu, %.0f s, trace %d, nproc %u, build %s, "
              "compiler %s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, args.nproc, PERFBENCH_BUILD_TYPE,
              __VERSION__);
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release")
    std::printf("WARNING: not a Release build; timings are not comparable\n");

  perfbench::Tracer::setEnabled(args.trace);
  perfbench::Result r;
  try {
    r = sim ? perfbench::runSimWorkload(args) : perfbench::runServeWorkload(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", args.workload.c_str(), e.what());
    return 2;
  }

  for (const std::string& note : r.notes) std::printf("%s\n", note.c_str());
  std::printf("fail_frac %.6g (%llu failed of %llu attempted, %llu mismatches)\n",
              static_cast<double>(r.failed) / static_cast<double>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.mismatches));
  printMetrics("end-to-end", r.endToEnd);
  printMetrics("end-to-end (not gated)", r.printed);
  if (args.trace) {
    const std::string path = args.workDir + "/trace-" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".tsv";
    const std::size_t spans = perfbench::Tracer::write(path);
    std::printf("trace: %zu spans written to %s; self time per span name:\n",
                spans, path.c_str());
    for (const auto& [name, s] : perfbench::Tracer::summarize())
      std::printf("  %-30s %9zu calls  p50 %12.3f us  self %12.3f ms total\n",
                  name.c_str(), s.count, s.p50 * 1e6, s.totalSelf * 1e3);
    printMetrics("per-layer", r.perLayer);
  }
  const bool correct = r.mismatches == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              jsonMetrics(args.trace ? r.perLayer : r.endToEnd).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
