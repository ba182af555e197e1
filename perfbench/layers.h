// The traced run: times the benchmark's own calls into each layer's public
// API, in spans kept in memory and written as Chrome trace-event JSON at
// the end, and reports the per-layer metrics listed in BENCHMARK.json.

#ifndef MUMAK_PERFBENCH_LAYERS_H_
#define MUMAK_PERFBENCH_LAYERS_H_

#include <string>

#include "perfbench/campaign.h"
#include "perfbench/workloads.h"

namespace perfbench {

// Repeats one pass over every layer probe until `seconds` have elapsed
// (at least one pass). Writes the spans to `trace_path`.
RunResult RunTraced(const Workload& workload, const mumak::WorkloadSpec& spec,
                    double seconds, const std::string& trace_path,
                    bool perturb);

}  // namespace perfbench

#endif  // MUMAK_PERFBENCH_LAYERS_H_
