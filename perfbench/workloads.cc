#include "perfbench/workloads.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>

#include "bench/flush_heavy_target.h"

namespace perfbench {

using mumak::InjectionStrategy;
using mumak::SandboxPolicy;

const std::vector<Workload>& AllWorkloads() {
  static const std::vector<Workload> workloads = [] {
    const std::vector<std::string> btree_bugs = {
        "btree.split_unlogged", "btree.merge_unlogged", "btree.rf_split"};
    std::vector<Workload> all;

    Workload replay;
    replay.name = "replay-threads";
    replay.target = "btree";
    replay.operations = 6000;
    replay.bugs = btree_bugs;
    replay.strategy = InjectionStrategy::kReplay;
    replay.lanes = 3;
    all.push_back(replay);

    Workload reexec;
    reexec.name = "reexec-threads";
    reexec.target = "btree";
    reexec.operations = 2000;
    reexec.bugs = btree_bugs;
    reexec.strategy = InjectionStrategy::kReExecute;
    reexec.lanes = 3;
    all.push_back(reexec);

    Workload analysis;
    analysis.name = "analysis-only";
    analysis.target = "redis";
    analysis.operations = 40000;
    analysis.bugs = {"redis.c2_aof_seq_unflushed", "redis.p1_rf_aof_double",
                     "redis.p2_rfence_set", "redis.p4_transient_clients"};
    analysis.fault_injection = false;
    analysis.analysis_jobs = 3;
    all.push_back(analysis);

    Workload fleet;
    fleet.name = "fleet-dedup";
    fleet.target = "flush_heavy";
    fleet.operations = 2000;
    fleet.strategy = InjectionStrategy::kReplay;
    fleet.fleet_workers = 3;
    fleet.sandbox = SandboxPolicy::kForkServer;
    all.push_back(fleet);
    return all;
  }();
  return workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : AllWorkloads()) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

mumak::WorkloadSpec SpecFor(const Workload& workload, uint64_t seed,
                            double ops_scale) {
  mumak::WorkloadSpec spec;
  spec.operations = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::llround(
             static_cast<double>(workload.operations) * ops_scale)));
  spec.seed = seed;
  spec.put_pct = 34;
  spec.get_pct = 33;
  spec.delete_pct = 33;
  spec.single_put_per_tx = true;
  return spec;
}

std::vector<mumak::WorkloadSpec> InputSets(const Workload& workload,
                                           uint64_t seed, double ops_scale) {
  std::vector<mumak::WorkloadSpec> inputs;
  for (size_t i = 0; i < kInputSets; ++i) {
    inputs.push_back(SpecFor(workload, seed + i * kSeedStride, ops_scale));
  }
  return inputs;
}

mumak::TargetFactory FactoryFor(const Workload& workload) {
  if (workload.target == "flush_heavy") {
    return [] { return std::make_unique<mumak::FlushHeavyTarget>(); };
  }
  mumak::TargetOptions options;
  options.pmdk_version = mumak::PmdkVersion::k16;
  options.bugs.insert(workload.bugs.begin(), workload.bugs.end());
  const std::string target = workload.target;
  return [target, options] { return mumak::CreateTarget(target, options); };
}

mumak::MumakOptions CampaignOptions(const Workload& workload) {
  mumak::MumakOptions options;
  options.fault_injection = workload.fault_injection;
  options.injection_strategy = workload.strategy;
  options.injection_workers = workload.lanes;
  options.fleet.workers = workload.fleet_workers;
  options.sandbox.policy = workload.sandbox;
  options.analysis_jobs = workload.analysis_jobs;
  return options;
}

mumak::MumakOptions ReferenceOptions(const Workload& workload) {
  mumak::MumakOptions options = CampaignOptions(workload);
  options.injection_workers = 1;
  options.fleet.workers = 0;
  options.sandbox.policy = SandboxPolicy::kInProcess;
  options.analysis_jobs = 1;
  return options;
}

mumak::FaultInjectionOptions EngineOptions(const Workload& workload,
                                           uint32_t lanes) {
  mumak::FaultInjectionOptions options;
  options.workers = lanes;
  options.strategy = workload.strategy;
  if (workload.fleet_workers > 1) {
    options.strategy = InjectionStrategy::kReplay;
  }
  options.sandbox.policy = workload.sandbox;
  return options;
}

mumak::TraceSinkOptions SpoolOptions() {
  mumak::TraceSinkOptions options;
  options.format = 3;
  return options;
}

std::string SpoolPath(const std::string& tag) {
  const char* tmp = std::getenv("TMPDIR");
  return std::string(tmp != nullptr ? tmp : ".") + "/perfbench_" + tag +
         "_" + std::to_string(::getpid()) + ".bin";
}

}  // namespace perfbench
