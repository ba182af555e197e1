#include "perfbench/campaign.h"

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <exception>
#include <optional>
#include <tuple>

#include "src/core/coverage.h"
#include "src/core/fault_injection.h"
#include "src/core/mumak.h"
#include "src/instrument/trace.h"
#include "src/targets/bug_registry.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Set-up is short next to a campaign, so each run samples it this many
// times and reports the median.
constexpr size_t kSetupSamples = 8;

double Seconds(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

double TimevalSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

// User + system CPU of this process and every child it has reaped (fleet
// workers and fork-server sandbox children are reaped by the campaign
// that spawned them).
double CpuSeconds() {
  double total = 0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    struct rusage usage {};
    getrusage(who, &usage);
    total += TimevalSeconds(usage.ru_utime) + TimevalSeconds(usage.ru_stime);
  }
  return total;
}

// Peak resident set of this process plus that of its largest reaped child.
double PeakRssMb() {
  struct rusage self {};
  struct rusage children {};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

// Blanks the hex address of every "pc:0x..." frame.
std::string StripPcFrames(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  size_t i = 0;
  while (i < text.size()) {
    if (text.compare(i, 5, "pc:0x") == 0) {
      out += "pc:?";
      i += 5;
      while (i < text.size() && std::isxdigit(static_cast<unsigned char>(
                                    text[i])) != 0) {
        ++i;
      }
    } else {
      out += text[i++];
    }
  }
  return out;
}

// Prints where a campaign's report first departs from the reference.
void PrintMismatch(size_t campaign, const std::string& reference,
                   const std::string& got) {
  size_t at = 0;
  while (at < reference.size() && at < got.size() &&
         reference[at] == got[at]) {
    ++at;
  }
  const size_t from = at > 200 ? at - 200 : 0;
  std::printf("campaign %zu: report differs from the reference at byte "
              "%zu\n  reference: ...%s\n  campaign:  ...%s\n",
              campaign, at, reference.substr(from, 400).c_str(),
              got.substr(from, 400).c_str());
}

// Set-up every campaign pays before its first check or analysis pass: the
// vanilla baseline execution, then Profile() on a fresh engine with the
// workload's options, spooling the trace the way Analyze does.
double TimeSetupOnce(const Workload& workload,
                     const mumak::WorkloadSpec& spec) {
  const mumak::TargetFactory factory = FactoryFor(workload);
  const std::string spool = SpoolPath("setup");
  const auto start = Clock::now();
  {
    mumak::TargetPtr target = factory();
    mumak::PmPool pool(target->DefaultPoolSize());
    mumak::FaultInjectionEngine::ExecuteWorkload(*target, pool, spec);
  }
  {
    mumak::FaultInjectionEngine engine(factory, spec,
                                       EngineOptions(workload, workload.lanes));
    mumak::TraceFileSink sink(spool, SpoolOptions());
    engine.Profile(&sink);
    sink.Close();
  }
  const double seconds = Seconds(start);
  std::remove(spool.c_str());
  return seconds;
}

}  // namespace

MatchRule RuleFor(const Workload& workload) {
  return workload.lanes > 1 ? MatchRule::kSameBugSet
                            : MatchRule::kByteIdentical;
}

std::string CanonicalReport(const mumak::Report& report, MatchRule rule) {
  std::vector<mumak::Finding> findings = report.findings();
  for (mumak::Finding& finding : findings) {
    finding.location = StripPcFrames(finding.location);
    finding.dedup_of.clear();
    finding.recovery_wall_us = 0;
    if (rule == MatchRule::kSameBugSet &&
        finding.source == mumak::FindingSource::kFaultInjection) {
      finding.seq = 0;
      finding.location.clear();
    }
  }
  if (rule == MatchRule::kSameBugSet) {
    std::sort(findings.begin(), findings.end(),
              [](const mumak::Finding& a, const mumak::Finding& b) {
                return std::tie(a.source, a.kind, a.detail, a.location,
                                a.seq, a.pm_offset) <
                       std::tie(b.source, b.kind, b.detail, b.location,
                                b.seq, b.pm_offset);
              });
  }
  mumak::Report canonical;
  for (mumak::Finding& finding : findings) {
    canonical.Add(std::move(finding));
  }
  return canonical.RenderJson();
}

mumak::Report PerturbedReport(const mumak::Report& report) {
  mumak::Report perturbed;
  for (mumak::Finding finding : report.findings()) {
    if (perturbed.findings().empty()) {
      finding.detail += " (perturbed)";
    }
    perturbed.Add(std::move(finding));
  }
  if (perturbed.findings().empty()) {
    mumak::Finding extra;
    extra.detail = "perturbed";
    perturbed.Add(extra);
  }
  return perturbed;
}

bool SeededBugsFound(const Workload& workload, const mumak::Report& report,
                     std::string* missing) {
  missing->clear();
  if (workload.target == "flush_heavy") {
    // FlushHeavyTarget's seeded omission (op kBugOp skips the checksum
    // update) must surface as a recovery-oracle finding.
    for (const mumak::Finding& f : report.findings()) {
      if (f.source == mumak::FindingSource::kFaultInjection &&
          f.detail.find("checksum mismatch") != std::string::npos) {
        return true;
      }
    }
    *missing = "flush_heavy checksum omission";
    return false;
  }
  for (const std::string& id : workload.bugs) {
    bool found = false;
    for (const mumak::SeededBug& bug : mumak::AllSeededBugs()) {
      if (bug.id == id) {
        found = mumak::DetectedBy(bug, report);
        break;
      }
    }
    if (!found) {
      *missing += (missing->empty() ? "" : ", ") + id;
    }
  }
  return missing->empty();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

RunResult RunTimed(const Workload& workload,
                   const std::vector<mumak::WorkloadSpec>& inputs,
                   double seconds, bool perturb) {
  const mumak::TargetFactory factory = FactoryFor(workload);
  const MatchRule rule = RuleFor(workload);
  RunResult result;

  // Reference reports, untimed, from the 1-lane in-process path: one per
  // input set, each also required to show the workload's seeded bugs.
  struct Reference {
    std::string canonical;
    std::string bytes;  // kByteIdentical form, for the identity count
  };
  std::vector<Reference> references;
  for (const mumak::WorkloadSpec& spec : inputs) {
    const auto start = Clock::now();
    const mumak::MumakResult run =
        mumak::Mumak(factory, spec, ReferenceOptions(workload)).Analyze();
    references.push_back({CanonicalReport(run.report, rule),
                          CanonicalReport(run.report,
                                          MatchRule::kByteIdentical)});
    std::string missing;
    if (!SeededBugsFound(workload, run.report, &missing)) {
      std::printf("seed %llu: seeded bugs not detected: %s\n",
                  static_cast<unsigned long long>(spec.seed),
                  missing.c_str());
      result.correct = false;
    }
    std::printf("reference seed %llu: %llu bug(s), %llu warning(s) in "
                "%.3f s\n",
                static_cast<unsigned long long>(spec.seed),
                static_cast<unsigned long long>(run.report.BugCount()),
                static_cast<unsigned long long>(run.report.WarningCount()),
                Seconds(start));
  }

  // One untimed campaign with the measured options first, so lazy
  // initialisation and allocator warm-up land outside the timed loop.
  const mumak::MumakOptions options = CampaignOptions(workload);
  mumak::Mumak(factory, inputs.front(), options).Analyze();

  // Campaigns rotate over the input sets. Set-up samples are taken between
  // campaigns, so they see the same stretch of host load the campaigns do.
  std::vector<double> campaign_s;
  std::vector<double> cpu_s;
  std::vector<double> setup_s;
  size_t byte_identical = 0;
  const auto loop_start = Clock::now();
  while (campaign_s.empty() || Seconds(loop_start) < seconds) {
    const size_t input = campaign_s.size() % inputs.size();
    const double cpu_before = CpuSeconds();
    const auto start = Clock::now();
    std::optional<std::string> canonical;
    try {
      const mumak::MumakResult run =
          mumak::Mumak(factory, inputs[input], options).Analyze();
      const mumak::Report& report =
          perturb ? PerturbedReport(run.report) : run.report;
      canonical = CanonicalReport(report, rule);
      if (CanonicalReport(report, MatchRule::kByteIdentical) ==
          references[input].bytes) {
        ++byte_identical;
      }
    } catch (const std::exception& e) {
      std::printf("campaign threw: %s\n", e.what());
    }
    campaign_s.push_back(Seconds(start));
    cpu_s.push_back(CpuSeconds() - cpu_before);
    ++result.attempted;
    if (!canonical.has_value() || *canonical != references[input].canonical) {
      ++result.failed;
      if (canonical.has_value()) {
        PrintMismatch(campaign_s.size(), references[input].canonical,
                      *canonical);
      }
    }
    if (setup_s.size() < kSetupSamples) {
      setup_s.push_back(TimeSetupOnce(workload, inputs[input]));
    }
  }
  while (setup_s.size() < kSetupSamples) {
    setup_s.push_back(
        TimeSetupOnce(workload, inputs[setup_s.size() % inputs.size()]));
  }
  if (result.failed != 0) {
    result.correct = false;
  }

  const double n = static_cast<double>(campaign_s.size());
  std::printf("campaigns: %zu (failed %llu, failed_ratio %.4f of %zu; "
              "byte-identical to the reference: %zu of %zu)\n",
              campaign_s.size(),
              static_cast<unsigned long long>(result.failed),
              static_cast<double>(result.failed) / n, campaign_s.size(),
              byte_identical, campaign_s.size());
  std::printf("campaign_s: median %.4f  min %.4f  max %.4f  (n=%zu)\n",
              Quantile(campaign_s, 0.5), Quantile(campaign_s, 0),
              Quantile(campaign_s, 1), campaign_s.size());
  std::printf("campaign_s samples:");
  for (const double t : campaign_s) {
    std::printf(" %.3f", t);
  }
  std::printf("\nsetup_s: median %.4f  min %.4f  max %.4f  (n=%zu)\n",
              Quantile(setup_s, 0.5), Quantile(setup_s, 0),
              Quantile(setup_s, 1), setup_s.size());

  result.metrics = {
      {"campaign_s", Quantile(campaign_s, 0.5), "s"},
      {"cpu_s", Quantile(cpu_s, 0.5), "s"},
      {"setup_s", Quantile(setup_s, 0.5), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  return result;
}

}  // namespace perfbench
