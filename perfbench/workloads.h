// The benchmark's workloads: one Mumak campaign configuration each, sized
// for a 4-core host (one client thread plus at most 3 lanes, shards or
// workers). perfbench/README.md records why each one exists and which
// layers it stresses.

#ifndef MUMAK_PERFBENCH_WORKLOADS_H_
#define MUMAK_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/mumak.h"
#include "src/instrument/trace.h"

namespace perfbench {

struct Workload {
  std::string name;
  // Registry target name, or "flush_heavy" for the bench's FlushHeavyTarget.
  std::string target;
  uint64_t operations = 0;
  std::vector<std::string> bugs;
  bool fault_injection = true;
  mumak::InjectionStrategy strategy = mumak::InjectionStrategy::kReExecute;
  uint32_t lanes = 1;          // in-process injection worker threads
  uint32_t fleet_workers = 0;  // forked fleet workers (0 = no fleet)
  mumak::SandboxPolicy sandbox = mumak::SandboxPolicy::kInProcess;
  uint32_t analysis_jobs = 1;  // trace-analysis shards
};

const std::vector<Workload>& AllWorkloads();
// Null when no workload has this name.
const Workload* FindWorkload(const std::string& name);

// The generated inputs: mix 34/33/33, one put per transaction, default key
// space. `seed` feeds WorkloadSpec::seed and nothing else; `ops_scale`
// shrinks the operation count for smoke tests.
mumak::WorkloadSpec SpecFor(const Workload& workload, uint64_t seed,
                            double ops_scale);

// The input sets of one timed run: SpecFor at kInputSets workload seeds
// derived from `seed` (the first is `seed` itself, the others sit
// kSeedStride apart so nearby seeds share no input). Campaign cost varies
// by about a quarter from one workload seed to the next (how many failure
// points a seed reaches, and how deep into the trace); rotating a run's
// campaigns over several inputs keeps that out of the run-to-run spread.
inline constexpr size_t kInputSets = 4;
inline constexpr uint64_t kSeedStride = 1000003;
std::vector<mumak::WorkloadSpec> InputSets(const Workload& workload,
                                           uint64_t seed, double ops_scale);

mumak::TargetFactory FactoryFor(const Workload& workload);

// Mumak::Analyze options for a timed campaign: default stages, the
// workload's lanes/fleet/sandbox/shards.
mumak::MumakOptions CampaignOptions(const Workload& workload);

// The reference path: the same stages on one in-process lane, in-process
// oracle, one analysis shard, no fleet.
mumak::MumakOptions ReferenceOptions(const Workload& workload);

// Engine options the way Mumak::Analyze derives them from
// CampaignOptions, with `lanes` injection threads (the fleet forces the
// replay strategy).
mumak::FaultInjectionOptions EngineOptions(const Workload& workload,
                                           uint32_t lanes);

// The spool Mumak::Analyze writes when trace analysis runs offline.
mumak::TraceSinkOptions SpoolOptions();

// Per-process unique spool path under $TMPDIR.
std::string SpoolPath(const std::string& tag);

}  // namespace perfbench

#endif  // MUMAK_PERFBENCH_WORKLOADS_H_
