// Timed closed-loop runs and the correctness check shared by timed and
// traced runs.

#ifndef MUMAK_PERFBENCH_CAMPAIGN_H_
#define MUMAK_PERFBENCH_CAMPAIGN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/workloads.h"
#include "src/core/report.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What one benchmark run prints as its final line.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

// How a campaign's report must match the reference.
//  - kByteIdentical: what the fleet and sharded-analysis tests promise
//    (tests/fleet_test.cc, tests/analysis_determinism_test.cc).
//  - kSameBugSet: what in-process injection lanes promise
//    (tests/replay_test.cc ParallelReplayMatchesSerialUniqueBugSet): the
//    same unique bugs. Findings are deduplicated by recovery detail and
//    keep whichever failure point's verdict landed first, so a lane run
//    may report a bug at another failure point, even one with another
//    call stack, and in another order. Fault-injection findings are
//    compared by kind and detail only; trace-analysis findings in full.
enum class MatchRule { kByteIdentical, kSameBugSet };

MatchRule RuleFor(const Workload& workload);

// The report in the form `rule` compares: RenderJson with ASLR-varying
// "pc:0x..." frames blanked and with `dedup_of` provenance and recovery
// wall times cleared (they depend on which check ran first and on timing,
// not on what was found). kSameBugSet also clears fault-injection
// findings' seq and location and sorts the findings.
std::string CanonicalReport(const mumak::Report& report, MatchRule rule);

// A copy of `report` with one finding's detail changed; the smoke test's
// stand-in for a wrong result.
mumak::Report PerturbedReport(const mumak::Report& report);

// True when every seeded bug of `workload` is detected in `report` (the
// coverage corpus rule, src/core/coverage.h). Fills `missing` otherwise.
bool SeededBugsFound(const Workload& workload, const mumak::Report& report,
                     std::string* missing);

// Median and quantile over a sample (linear interpolation); 0 when empty.
double Quantile(std::vector<double> values, double q);

// The timed run: a single client calls Mumak::Analyze once per campaign,
// in a closed loop, for `seconds`, rotating over `inputs`; every report is
// checked against a reference computed beforehand, per input set, on the
// 1-lane in-process path.
RunResult RunTimed(const Workload& workload,
                   const std::vector<mumak::WorkloadSpec>& inputs,
                   double seconds, bool perturb);

}  // namespace perfbench

#endif  // MUMAK_PERFBENCH_CAMPAIGN_H_
