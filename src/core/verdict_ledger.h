// Verdict ledger: everything that happens to a failure-point check once it
// is dispatched — the stop/budget gate, visited marking, journal records,
// inject.*/recovery.* metrics, progress, equivalence-class fan-out, and the
// unique-bug report (§4.1: identical oracle outcomes from different failure
// points collapse into one finding). Every injection path — re-execution
// lanes, the replay pipelines and the fleet scheduler — feeds it, so each
// of those rules is written once.
//
// The report is a function of the (seq, verdict) pairs alone: non-ok
// verdicts (fresh and resumed) in seq order, first verdict per detail wins.
// Lane count and scheduling therefore cannot change it. Each lane keeps
// only its lowest-seq verdict per detail — no shared lock on the per-check
// path, memory bounded by unique bugs — and Finish() folds the lanes.

#ifndef MUMAK_SRC_CORE_VERDICT_LEDGER_H_
#define MUMAK_SRC_CORE_VERDICT_LEDGER_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/core/report.h"
#include "src/observability/journal.h"
#include "src/observability/metrics.h"

namespace mumak {

class FailurePointTree;
struct FaultInjectionOptions;
struct FaultInjectionStats;
struct ReplayPoint;

// Injection-phase instruments, resolved once per campaign so the per-check
// paths do a pointer check plus a relaxed fetch_add — never a name lookup.
// Null members (no registry) make Add/Observe no-ops.
struct InjectionMetrics {
  Counter* attempted = nullptr;
  Counter* crashed = nullptr;
  Counter* deduplicated = nullptr;
  Counter* seek_skipped_events = nullptr;
  Counter* dedup_hits = nullptr;
  Counter* distinct_images = nullptr;
  Counter* dedup_collisions = nullptr;
  Counter* class_pruned = nullptr;
  Counter* rank_finding_hits = nullptr;
  Counter* budget_stops = nullptr;
  Counter* recovery_ok = nullptr;
  Counter* recovery_unrecoverable = nullptr;
  Counter* recovery_crashed = nullptr;
  Counter* recovery_timeout = nullptr;
  Histogram* run_us = nullptr;
  Histogram* recovery_us = nullptr;
  Histogram* digest_us = nullptr;

  explicit InjectionMetrics(MetricsRegistry* registry);

  static void Add(Counter* counter, uint64_t by = 1) {
    if (counter != nullptr && by != 0) {
      counter->Increment(by);
    }
  }
  static void Observe(Histogram* histogram, uint64_t value) {
    if (histogram != nullptr) {
      histogram->Observe(value);
    }
  }
};

class VerdictLedger {
 public:
  // `lanes` bounds the lane indices passed to Dispatch/Verdict (journal
  // worker ids and inject.worker.<i> counters); `resumed` holds the verdicts
  // a prior journal generation recorded (folded into the report in seq
  // order, budget-free); `progress_total` is the phase's point count.
  // Borrowed pointers must outlive the ledger.
  VerdictLedger(const FaultInjectionOptions& options, FailurePointTree* tree,
                uint32_t lanes, const std::vector<JournalVerdict>& resumed,
                uint64_t progress_total);

  InjectionMetrics& metrics() { return metrics_; }

  // The stop/budget gate: false once max_injections, time_budget_s, the
  // cancel flag, budget_seconds or budget_checks says stop (sticky).
  // Admit() also reserves one --budget-checks slot, so racing dispatchers
  // stop at exactly the budget; Halted() only re-reads the gate, for
  // points that already hold a reservation (or, in the fleet, for a loop
  // whose checks are counted as they are dispatched).
  bool Admit();
  bool Halted();

  // One check committed to `lane`: marks the point visited, counts the
  // injection and journals the dispatch record.
  void Dispatch(uint32_t lane, const ReplayPoint& point);

  // The check's verdict (status, detail, sandbox evidence, dedup_of,
  // from_cache): stamps seq, worker and location, journals it, counts
  // recovery.* (or the image-dedup hit), advances progress and keeps it
  // for the report; then fans it out to `classmates` with pruned_by
  // provenance. Lanes must not be shared between concurrent callers.
  void Verdict(uint32_t lane, const ReplayPoint& point, JournalVerdict verdict,
               const std::vector<ReplayPoint>& classmates = {});

  // Ends the phase: the report (see Fold) plus the injection, prune,
  // dedup-hit and budget stats.
  Report Finish(FaultInjectionStats* stats);

  // The report rule: non-ok verdicts in seq order (ties keep input order),
  // the first per detail wins and becomes a finding via
  // JournalReplay::FindingFromVerdict. `duplicates` (optional) receives
  // the number of non-ok verdicts that lost. Also rebuilds reports from
  // journals (JournalReplay::ReconstructReport), so a journal reconstructs
  // the campaign that wrote it at any lane count.
  static Report Fold(std::vector<const JournalVerdict*> verdicts,
                     uint64_t* duplicates = nullptr) {
    std::stable_sort(verdicts.begin(), verdicts.end(),
                     [](const JournalVerdict* a, const JournalVerdict* b) {
                       return a->seq < b->seq;
                     });
    Report report;
    std::unordered_set<std::string> seen;
    for (const JournalVerdict* verdict : verdicts) {
      if (verdict->status == "ok") {
        continue;
      }
      if (!seen.insert(verdict->detail).second) {
        if (duplicates != nullptr) {
          ++*duplicates;
        }
        continue;
      }
      report.Add(JournalReplay::FindingFromVerdict(*verdict));
    }
    return report;
  }

 private:
  struct Lane {
    // detail -> lowest-seq non-ok verdict this lane produced.
    std::unordered_map<std::string, JournalVerdict> first;
    uint64_t duplicates = 0;
    Counter* injections = nullptr;  // inject.worker.<i>.injections
  };

  void Keep(Lane& lane, const JournalVerdict& verdict);
  void Stop(bool budget);

  const FaultInjectionOptions& options_;
  FailurePointTree* tree_;
  const std::vector<JournalVerdict>& resumed_;
  InjectionMetrics metrics_;
  const std::chrono::steady_clock::time_point start_;
  std::vector<Lane> lanes_;
  std::atomic<uint64_t> dispatched_{0};
  std::atomic<uint64_t> reserved_{0};
  std::atomic<uint64_t> class_pruned_{0};
  std::atomic<uint64_t> dedup_hits_{0};
  std::atomic<bool> exhausted_{false};
  std::atomic<bool> budget_stopped_{false};
};

}  // namespace mumak

#endif  // MUMAK_SRC_CORE_VERDICT_LEDGER_H_
