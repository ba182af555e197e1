#include "perfbench/layers.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <optional>
#include <vector>

#include "perfbench/spans.h"
#include "src/analysis/trace_analysis.h"
#include "src/core/fault_injection.h"
#include "src/core/verdict_cache.h"
#include "src/fleet/scheduler.h"
#include "src/instrument/trace.h"
#include "src/pmem/pm_pool.h"
#include "src/pmem/replay_cursor.h"
#include "src/sandbox/recovery_sandbox.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using mumak::FailurePointTree;
using mumak::FaultInjectionEngine;
using mumak::FaultInjectionOptions;
using mumak::FaultInjectionStats;
using mumak::InjectionStrategy;
using mumak::ReplayPoint;
using mumak::Report;

// Per-pass caps on the expensive per-check probes: crash images handed to
// the oracle and the sandbox, and re-executions (each replays the
// workload up to its failure point). Samples are spread evenly over the
// schedule.
constexpr size_t kMaxImageSamples = 128;
constexpr size_t kMaxReexecSamples = 32;
constexpr double kReexecBudgetS = 2.0;
constexpr double kMiB = 1024.0 * 1024.0;

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) {
    sum += x;
  }
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

// Up to `limit` indices into [0, n), evenly spaced, first and last
// included.
std::vector<size_t> EvenSample(size_t n, size_t limit) {
  std::vector<size_t> out;
  if (n == 0 || limit == 0) {
    return out;
  }
  const size_t k = std::min(n, limit);
  for (size_t i = 0; i < k; ++i) {
    out.push_back(k == 1 ? 0 : i * (n - 1) / (k - 1));
  }
  return out;
}

// Every sample and per-pass value the traced run reports, keyed by metric
// name; per-check samples in microseconds.
using Samples = std::map<std::string, std::vector<double>>;

struct PassCheck {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

class TracedPass {
 public:
  TracedPass(const Workload& workload, const mumak::WorkloadSpec& spec,
             SpanLog* log, bool perturb)
      : workload_(workload),
        spec_(spec),
        factory_(FactoryFor(workload)),
        log_(log),
        perturb_(perturb) {
    // Injection probes run with the workload's settings; a workload with
    // injection off borrows replay-threads' (replay, 3 lanes), so every
    // layer is timed on every workload.
    probe_ = workload;
    if (!workload.fault_injection) {
      probe_.strategy = InjectionStrategy::kReplay;
      probe_.lanes = 3;
    }
    lanes_ = probe_.fleet_workers > 1 ? probe_.fleet_workers : probe_.lanes;
  }

  PassCheck Run(Samples* out) {
    ScopedSpan pass(log_, "perfbench.pass");
    out_ = out;
    Vanilla();
    ProfileAndSpool();
    Report analysis = Analyze();
    Report injected = Inject();
    CursorProbes();
    ImageProbes();
    ReexecProbes();
    Render(injected, analysis);
    Unattributed();
    return check_;
  }

 private:
  void Add(const std::string& name, double value) {
    (*out_)[name].push_back(value);
    pass_[name].push_back(value);
  }

  void Vanilla() {
    ScopedSpan span(log_, "targets.vanilla");
    mumak::TargetPtr target = factory_();
    mumak::PmPool pool(target->DefaultPoolSize());
    FaultInjectionEngine::ExecuteWorkload(*target, pool, spec_);
    Add("targets.vanilla_s", span.Stop());
  }

  // core.profile_s on the workload's own engine options, then the same
  // profile with the v3 spool sink Analyze attaches; the difference is
  // the spool's cost.
  void ProfileAndSpool() {
    FaultInjectionEngine engine(factory_, spec_,
                                EngineOptions(workload_, workload_.lanes));
    double profile_s = 0;
    {
      ScopedSpan span(log_, "core.profile");
      const FailurePointTree tree = engine.Profile();
      profile_s = span.Stop();
      Add("core.failure_points",
          static_cast<double>(tree.FailurePointCount()));
    }
    Add("core.profile_s", profile_s);
    Add("core.replay_trace_mb",
        static_cast<double>(engine.replay_trace().FootprintBytes()) / kMiB);

    spool_ = SpoolPath("traced");
    FaultInjectionEngine spooled(factory_, spec_,
                                 EngineOptions(workload_, workload_.lanes));
    {
      ScopedSpan span(log_, "instrument.spool");
      mumak::TraceFileSink sink(spool_, SpoolOptions());
      spooled.Profile(&sink);
      sink.Close();
      Add("instrument.spool_s", span.Stop() - profile_s);
    }
    std::FILE* f = std::fopen(spool_.c_str(), "rb");
    if (f != nullptr) {
      std::fseek(f, 0, SEEK_END);
      Add("instrument.spool_mb", static_cast<double>(std::ftell(f)) / kMiB);
      std::fclose(f);
    }
  }

  Report Analyze() {
    mumak::TraceAnalysisOptions options;
    options.jobs = workload_.analysis_jobs;
    mumak::TraceAnalyzer analyzer(options);
    mumak::TraceStats stats;
    Report report;
    {
      ScopedSpan span(log_, "analysis.analyze_file");
      report = analyzer.AnalyzeFile(spool_, &stats);
      const double seconds = span.Stop();
      Add("analysis.analyze_s", seconds);
      Add("analysis.events_per_s",
          seconds > 0 ? static_cast<double>(stats.events) / seconds : 0);
    }
    Add("analysis.findings", static_cast<double>(report.findings().size()));
    std::remove(spool_.c_str());
    return report;
  }

  // The injection phase at the workload's setting, then at one in-process
  // lane (in-process oracle, no fleet) for the lane speedup. The two
  // reports must agree.
  Report Inject() {
    injector_.emplace(factory_, spec_, EngineOptions(probe_, probe_.lanes));
    {
      ScopedSpan span(log_, "core.profile_for_inject");
      tree_ = injector_->Profile();
    }
    // Snapshot the schedule before injection marks points visited.
    schedule_ = injector_->BuildReplaySchedule(*tree_);
    if (!injector_->replay_ready()) {
      // The cursor probes need recorded payloads: profile once more with
      // the replay strategy (same inputs, same failure points).
      Workload replay = probe_;
      replay.strategy = InjectionStrategy::kReplay;
      replayer_.emplace(factory_, spec_, EngineOptions(replay, 1));
      ScopedSpan span(log_, "core.profile_for_replay");
      const FailurePointTree tree = replayer_->Profile();
      replay_schedule_ = replayer_->BuildReplaySchedule(tree);
    }

    Report report;
    {
      ScopedSpan span(log_, "core.inject");
      if (probe_.fleet_workers > 1) {
        mumak::FleetConfig config;
        config.workers = probe_.fleet_workers;
        report = mumak::RunFleetCampaign(&*injector_, &*tree_, &stats_,
                                         config);
      } else {
        report = injector_->InjectAll(&*tree_, &stats_);
      }
      inject_s_ = span.Stop();
    }
    Add("core.inject_s", inject_s_);
    Add("core.checks", static_cast<double>(stats_.injections));
    Add("core.checks_per_s",
        inject_s_ > 0 ? static_cast<double>(stats_.injections) / inject_s_
                      : 0);

    Workload single = probe_;
    single.fleet_workers = 0;
    single.sandbox = mumak::SandboxPolicy::kInProcess;
    FaultInjectionOptions options = EngineOptions(single, 1);
    options.strategy = injector_->options().strategy;  // replay, if fleet
    FaultInjectionEngine one_lane(factory_, spec_, options);
    FailurePointTree tree;
    {
      ScopedSpan span(log_, "core.profile_for_inject");
      tree = one_lane.Profile();
    }
    FaultInjectionStats stats;
    Report reference;
    {
      ScopedSpan span(log_, "core.inject_one_lane");
      reference = one_lane.InjectAll(&tree, &stats);
      const double seconds = span.Stop();
      Add("core.lane_speedup", inject_s_ > 0 ? seconds / inject_s_ : 0);
    }
    ++check_.attempted;
    const Report& compared = perturb_ ? PerturbedReport(report) : report;
    const MatchRule rule = RuleFor(probe_);
    if (CanonicalReport(compared, rule) != CanonicalReport(reference, rule)) {
      ++check_.failed;
      std::printf("traced: injection report differs from the 1-lane "
                  "reference\n");
    }
    return report;
  }

  const FaultInjectionEngine& ReplayEngine() const {
    return replayer_.has_value() ? *replayer_ : *injector_;
  }
  const std::vector<ReplayPoint>& ReplaySchedule() const {
    return replayer_.has_value() ? replay_schedule_ : schedule_;
  }

  // Cursor advance, digest and verdict-cache probe at every point of the
  // replay schedule, in seq order, as the replay paths do.
  void CursorProbes() {
    const FaultInjectionEngine& engine = ReplayEngine();
    const std::vector<ReplayPoint>& schedule = ReplaySchedule();
    mumak::ReplayCursor cursor(engine.replay_trace(),
                               engine.profiled_pool_size(),
                               /*track_digest=*/true);
    mumak::VerdictCache cache;
    distinct_.clear();
    for (size_t i = 0; i < schedule.size(); ++i) {
      {
        ScopedSpan span(log_, "pmem.advance");
        cursor.AdvanceTo(schedule[i].seq);
        Add("pmem.advance_us", span.Stop() * 1e6);
      }
      mumak::ImageDigest digest;
      {
        ScopedSpan span(log_, "pmem.digest");
        digest = cursor.Digest();
        Add("pmem.digest_us", span.Stop() * 1e6);
      }
      ScopedSpan span(log_, "verdict_cache.probe");
      mumak::VerdictCacheEntry cached;
      const auto outcome = cache.Lookup(digest, nullptr, 0, &cached);
      if (outcome == mumak::VerdictCache::Outcome::kMiss) {
        mumak::VerdictCacheEntry entry;
        entry.first_seq = schedule[i].seq;
        cache.Insert(digest, std::move(entry), nullptr, 0);
        distinct_.push_back(i);
      }
      Add("verdict_cache.probe_us", span.Stop() * 1e6);
    }
    const double probes = static_cast<double>(cache.hits() + cache.misses());
    Add("verdict_cache.hit_ratio",
        probes > 0 ? static_cast<double>(cache.hits()) / probes : 0);
  }

  // For a sample of distinct images: the in-process handoff (owned copy +
  // PmPool::FromImage), the recovery oracle on a fresh target, and the
  // same check through a fork-server sandbox.
  void ImageProbes() {
    const FaultInjectionEngine& engine = ReplayEngine();
    const std::vector<ReplayPoint>& schedule = ReplaySchedule();
    const size_t pool_size = engine.profiled_pool_size();
    Add("pmem.image_mb", static_cast<double>(pool_size) / kMiB);
    mumak::ReplayCursor cursor(engine.replay_trace(), pool_size);
    mumak::SandboxOptions sandbox_options;
    sandbox_options.policy = mumak::SandboxPolicy::kForkServer;
    std::optional<mumak::RecoverySandbox> sandbox;
    {
      ScopedSpan span(log_, "sandbox.start");
      sandbox.emplace(factory_, pool_size, 1, sandbox_options);
    }
    double nonok = 0;
    double sandbox_failed = 0;
    for (const size_t pick : EvenSample(distinct_.size(), kMaxImageSamples)) {
      const std::vector<uint8_t>& image =
          cursor.AdvanceTo(schedule[distinct_[pick]].seq);
      std::optional<mumak::PmPool> pool;
      {
        ScopedSpan span(log_, "pmem.handoff");
        std::vector<uint8_t> owned = image;
        pool.emplace(mumak::PmPool::FromImage(std::move(owned)));
        Add("pmem.handoff_us", span.Stop() * 1e6);
      }
      mumak::RecoveryResult result;
      double oracle_us = 0;
      {
        ScopedSpan span(log_, "targets.oracle");
        mumak::TargetPtr target = factory_();
        result = mumak::RunRecoveryOracle(*target, *pool);
        oracle_us = span.Stop() * 1e6;
        Add("targets.oracle_us", oracle_us);
      }
      nonok += result.ok() ? 0 : 1;
      ScopedSpan span(log_, "sandbox.check");
      const mumak::SandboxVerdict verdict =
          sandbox->Check(0, image.data(), image.size());
      const double check_us = span.Stop() * 1e6;
      Add("sandbox.check_us", check_us);
      Add("sandbox.overhead_us", check_us - oracle_us);
      if (verdict.status != result.status || verdict.timed_out ||
          verdict.signal != 0) {
        ++sandbox_failed;
      }
    }
    Add("targets.oracle_nonok", nonok);
    Add("sandbox.failed_checks", sandbox_failed);
    ++check_.attempted;
    if (sandbox_failed != 0) {
      ++check_.failed;
      std::printf("traced: sandbox verdicts differ from in-process\n");
    }
  }

  // Re-execution to a failure point, as kReExecute pays per check: fresh
  // target and pool, a kInjectAt sink, run until the CrashSignal.
  void ReexecProbes() {
    const auto start = Clock::now();
    for (const size_t pick : EvenSample(schedule_.size(), kMaxReexecSamples)) {
      if (std::chrono::duration<double>(Clock::now() - start).count() >
          kReexecBudgetS) {
        break;
      }
      ScopedSpan span(log_, "core.reexec_check");
      mumak::TargetPtr target = factory_();
      mumak::PmPool pool(target->DefaultPoolSize());
      mumak::FailurePointSink sink(&*tree_,
                                   mumak::FailurePointSink::Mode::kInjectAt,
                                   injector_->options().granularity);
      sink.set_inject_target(schedule_[pick].node, schedule_[pick].seq);
      mumak::ScopedSink attach(pool.hub(), &sink);
      try {
        FaultInjectionEngine::ExecuteWorkload(*target, pool, spec_);
      } catch (const mumak::CrashSignal&) {
      }
      Add("core.reexec_check_us", span.Stop() * 1e6);
    }
  }

  void Render(const Report& injected, const Report& analysis) {
    Report merged = injected;
    merged.Merge(analysis);
    {
      ScopedSpan span(log_, "report.render");
      const std::string text = merged.Render();
      Add("report.render_us", span.Stop() * 1e6);
    }
    std::string missing;
    ++check_.attempted;
    if (!SeededBugsFound(workload_, merged, &missing)) {
      ++check_.failed;
      std::printf("traced: seeded bugs not detected: %s\n", missing.c_str());
    }
  }

  // Injection time no layer call explains: core.inject_s minus the
  // per-check stage costs (means from this pass times the campaign's check
  // and distinct-image counts) divided by the lanes sharing them.
  void Unattributed() {
    const double checks = static_cast<double>(stats_.injections);
    double distinct = static_cast<double>(stats_.distinct_images);
    if (distinct == 0 && !ReplaySchedule().empty()) {
      distinct = checks * static_cast<double>(distinct_.size()) /
                 static_cast<double>(ReplaySchedule().size());
    }
    double per_check_us = Mean(pass_["verdict_cache.probe_us"]);
    double per_image_us = 0;
    if (injector_->replay_ready()) {
      per_check_us += Mean(pass_["pmem.advance_us"]) +
                      Mean(pass_["pmem.digest_us"]);
      per_image_us = probe_.sandbox == mumak::SandboxPolicy::kForkServer
                         ? Mean(pass_["sandbox.check_us"])
                         : Mean(pass_["pmem.handoff_us"]) +
                               Mean(pass_["targets.oracle_us"]);
    } else {
      per_check_us += Mean(pass_["core.reexec_check_us"]);
      per_image_us = Mean(pass_["targets.oracle_us"]);
    }
    const double staged_s =
        (checks * per_check_us + distinct * per_image_us) * 1e-6;
    Add("core.unattributed_s",
        inject_s_ - staged_s / static_cast<double>(lanes_));
  }

  const Workload& workload_;
  const mumak::WorkloadSpec& spec_;
  mumak::TargetFactory factory_;
  SpanLog* log_;
  bool perturb_;
  Workload probe_;
  uint32_t lanes_ = 1;

  Samples* out_ = nullptr;
  Samples pass_;
  PassCheck check_;
  std::string spool_;
  std::optional<FaultInjectionEngine> injector_;
  std::optional<FailurePointTree> tree_;
  std::vector<ReplayPoint> schedule_;
  std::optional<FaultInjectionEngine> replayer_;
  std::vector<ReplayPoint> replay_schedule_;
  FaultInjectionStats stats_;
  double inject_s_ = 0;
  std::vector<size_t> distinct_;  // ReplaySchedule() indices, first seen
};

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* sample;  // key in Samples
  double quantile;     // over all samples of the run
};

// Per-layer metrics in BENCHMARK.json order. Per-pass values report their
// median over passes; per-check samples their p50/p90 over all checks.
constexpr MetricSpec kMetrics[] = {
    {"targets.vanilla_s", "s", "targets.vanilla_s", 0.5},
    {"core.profile_s", "s", "core.profile_s", 0.5},
    {"core.failure_points", "count", "core.failure_points", 0.5},
    {"core.replay_trace_mb", "MB", "core.replay_trace_mb", 0.5},
    {"instrument.spool_s", "s", "instrument.spool_s", 0.5},
    {"instrument.spool_mb", "MB", "instrument.spool_mb", 0.5},
    {"analysis.analyze_s", "s", "analysis.analyze_s", 0.5},
    {"analysis.events_per_s", "1/s", "analysis.events_per_s", 0.5},
    {"analysis.findings", "count", "analysis.findings", 0.5},
    {"core.inject_s", "s", "core.inject_s", 0.5},
    {"core.checks", "count", "core.checks", 0.5},
    {"core.checks_per_s", "1/s", "core.checks_per_s", 0.5},
    {"core.lane_speedup", "ratio", "core.lane_speedup", 0.5},
    {"pmem.advance_us.p50", "us", "pmem.advance_us", 0.5},
    {"pmem.advance_us.p90", "us", "pmem.advance_us", 0.9},
    {"pmem.digest_us.p50", "us", "pmem.digest_us", 0.5},
    {"pmem.digest_us.p90", "us", "pmem.digest_us", 0.9},
    {"pmem.handoff_us.p50", "us", "pmem.handoff_us", 0.5},
    {"pmem.handoff_us.p90", "us", "pmem.handoff_us", 0.9},
    {"pmem.image_mb", "MB", "pmem.image_mb", 0.5},
    {"targets.oracle_us.p50", "us", "targets.oracle_us", 0.5},
    {"targets.oracle_us.p90", "us", "targets.oracle_us", 0.9},
    {"targets.oracle_nonok", "count", "targets.oracle_nonok", 0.5},
    {"core.reexec_check_us.p50", "us", "core.reexec_check_us", 0.5},
    {"core.reexec_check_us.p90", "us", "core.reexec_check_us", 0.9},
    {"verdict_cache.probe_us.p50", "us", "verdict_cache.probe_us", 0.5},
    {"verdict_cache.probe_us.p90", "us", "verdict_cache.probe_us", 0.9},
    {"verdict_cache.hit_ratio", "ratio", "verdict_cache.hit_ratio", 0.5},
    {"sandbox.check_us.p50", "us", "sandbox.check_us", 0.5},
    {"sandbox.check_us.p90", "us", "sandbox.check_us", 0.9},
    {"sandbox.overhead_us", "us", "sandbox.overhead_us", 0.5},
    {"sandbox.failed_checks", "count", "sandbox.failed_checks", 0.5},
    {"report.render_us", "us", "report.render_us", 0.5},
    {"core.unattributed_s", "s", "core.unattributed_s", 0.5},
};

}  // namespace

RunResult RunTraced(const Workload& workload, const mumak::WorkloadSpec& spec,
                    double seconds, const std::string& trace_path,
                    bool perturb) {
  SpanLog log;
  Samples samples;
  RunResult result;
  size_t passes = 0;
  const auto start = Clock::now();
  while (passes == 0 ||
         std::chrono::duration<double>(Clock::now() - start).count() <
             seconds) {
    TracedPass pass(workload, spec, &log, perturb);
    const PassCheck check = pass.Run(&samples);
    result.attempted += check.attempted;
    result.failed += check.failed;
    ++passes;
  }
  result.correct = result.failed == 0;

  std::printf("traced passes: %zu\n", passes);
  for (const auto& [layer, self_s] : log.LayerSelfSeconds()) {
    std::printf("self_s %-14s %.4f\n", layer.c_str(), self_s);
  }
  for (const MetricSpec& m : kMetrics) {
    const std::vector<double>& values = samples[m.sample];
    const double value = Quantile(values, m.quantile);
    std::printf("%-28s %14.4f %-6s (n=%zu)\n", m.name, value, m.unit,
                values.size());
    result.metrics.push_back({m.name, value, m.unit});
  }
  if (log.dropped() != 0) {
    std::printf("spans dropped past the in-memory cap: %llu\n",
                static_cast<unsigned long long>(log.dropped()));
  }
  if (!log.WriteChromeJson(trace_path)) {
    std::printf("could not write %s\n", trace_path.c_str());
    result.correct = false;
  } else {
    std::printf("trace: %s (%zu spans)\n", trace_path.c_str(),
                log.spans().size());
  }
  return result;
}

}  // namespace perfbench
