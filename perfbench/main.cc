// perfbench: Mumak's campaign benchmark. Runs one workload for a fixed
// time and prints every metric by name with its unit; the last line of
// stdout is one JSON object {correct, attempted, failed, metrics}.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--ops-scale <x>] [--perturb] [--trace-out <file>]
//
// --trace 0 is the timed run (end-to-end metrics, no spans recorded), over
// kInputSets workload seeds derived from --seed; --trace 1 is the traced
// run (per-layer metrics, spans written to --trace-out as Chrome
// trace-event JSON), on the workload at --seed itself. --ops-scale shrinks
// the workload for smoke tests; --perturb alters every checked report so
// the smoke test can see the correctness check fail.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "perfbench/campaign.h"
#include "perfbench/layers.h"
#include "perfbench/workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10;
  int trace = 0;
  double ops_scale = 1.0;
  bool perturb = false;
  std::string trace_out = "perfbench_trace.json";
};

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr, "perfbench: %s\n", error.c_str());
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--ops-scale <x>] [--perturb] "
               "[--trace-out <file>]\nworkloads:");
  for (const Workload& w : AllWorkloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

double ParseNumber(const std::string& flag, const char* text) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(value) || value < 0) {
    Usage("bad value for " + flag + ": " + text);
  }
  return value;
}

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--perturb") {
      args.perturb = true;
      continue;
    }
    if (i + 1 >= argc) {
      Usage("missing value for " + flag);
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = static_cast<uint64_t>(ParseNumber(flag, value));
    } else if (flag == "--seconds") {
      args.seconds = ParseNumber(flag, value);
    } else if (flag == "--trace") {
      args.trace = static_cast<int>(ParseNumber(flag, value));
      if (args.trace != 0 && args.trace != 1) {
        Usage("--trace takes 0 or 1");
      }
    } else if (flag == "--ops-scale") {
      args.ops_scale = ParseNumber(flag, value);
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (FindWorkload(args.workload) == nullptr) {
    Usage("unknown workload '" + args.workload + "'");
  }
  return args;
}

void PrintResult(const RunResult& result) {
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  char buffer[256];
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    std::snprintf(buffer, sizeof(buffer),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(),
                  std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    json += buffer;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = Parse(argc, argv);
  const Workload& workload = *FindWorkload(args.workload);
  const std::vector<mumak::WorkloadSpec> inputs =
      InputSets(workload, args.seed, args.ops_scale);
  std::printf("workload %s: target %s, %llu ops, seed %llu, %s run\n",
              workload.name.c_str(), workload.target.c_str(),
              static_cast<unsigned long long>(inputs.front().operations),
              static_cast<unsigned long long>(args.seed),
              args.trace != 0 ? "traced" : "timed");
  std::fflush(stdout);
  try {
    const RunResult result =
        args.trace != 0
            ? RunTraced(workload, inputs.front(), args.seconds,
                        args.trace_out, args.perturb)
            : RunTimed(workload, inputs, args.seconds, args.perturb);
    PrintResult(result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: run failed: %s\n", e.what());
    return 1;
  }
  return 0;
}
