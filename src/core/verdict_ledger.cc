#include "src/core/verdict_ledger.h"

#include <utility>

#include "src/core/failure_point_tree.h"
#include "src/core/fault_injection.h"
#include "src/core/injection_schedule.h"

namespace mumak {

InjectionMetrics::InjectionMetrics(MetricsRegistry* registry) {
  if (registry == nullptr) {
    return;
  }
  attempted = registry->GetCounter("inject.attempted");
  crashed = registry->GetCounter("inject.crashed");
  deduplicated = registry->GetCounter("inject.deduplicated");
  seek_skipped_events = registry->GetCounter("inject.seek_skipped_events");
  dedup_hits = registry->GetCounter("inject.image_dedup_hits");
  distinct_images = registry->GetCounter("inject.distinct_images");
  dedup_collisions = registry->GetCounter("inject.dedup_collisions");
  class_pruned = registry->GetCounter("inject.class_pruned");
  rank_finding_hits = registry->GetCounter("inject.rank_finding_hits");
  budget_stops = registry->GetCounter("inject.budget_stops");
  recovery_ok = registry->GetCounter("recovery.ok");
  recovery_unrecoverable = registry->GetCounter("recovery.unrecoverable");
  recovery_crashed = registry->GetCounter("recovery.crashed");
  recovery_timeout = registry->GetCounter("recovery.timeout");
  run_us = registry->GetHistogram("inject.run_us");
  recovery_us = registry->GetHistogram("recovery.run_us");
  digest_us = registry->GetHistogram("digest.compute_us");
}

VerdictLedger::VerdictLedger(const FaultInjectionOptions& options,
                             FailurePointTree* tree, uint32_t lanes,
                             const std::vector<JournalVerdict>& resumed,
                             uint64_t progress_total)
    : options_(options),
      tree_(tree),
      resumed_(resumed),
      metrics_(options.metrics),
      start_(std::chrono::steady_clock::now()),
      lanes_(std::max<uint32_t>(lanes, 1)) {
  if (options_.progress != nullptr) {
    options_.progress->BeginPhase("inject", progress_total,
                                  options_.time_budget_s);
  }
}

void VerdictLedger::Stop(bool budget) {
  exhausted_.store(true, std::memory_order_relaxed);
  if (budget) {
    budget_stopped_.store(true, std::memory_order_relaxed);
  }
}

bool VerdictLedger::Halted() {
  if (exhausted_.load(std::memory_order_relaxed)) {
    return true;
  }
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start_)
                             .count();
  const uint64_t dispatched = dispatched_.load(std::memory_order_relaxed);
  if (dispatched >= options_.max_injections ||
      (options_.cancel != nullptr &&
       options_.cancel->load(std::memory_order_relaxed)) ||
      elapsed > options_.time_budget_s) {
    Stop(/*budget=*/false);
    return true;
  }
  // --budget-checks / --budget-seconds: the same stop, flagged so the
  // journal footer can say "budget-exhausted" (vs ^C or --max-*).
  if ((options_.budget_checks > 0 && dispatched >= options_.budget_checks) ||
      (options_.budget_seconds > 0 && elapsed > options_.budget_seconds)) {
    Stop(/*budget=*/true);
    return true;
  }
  return false;
}

bool VerdictLedger::Admit() {
  if (Halted()) {
    return false;
  }
  // Reserved before the check runs, not counted when its verdict lands:
  // streaming producers and racing lanes would otherwise overshoot the
  // budget by the pipeline depth.
  if (options_.budget_checks > 0 &&
      reserved_.fetch_add(1, std::memory_order_relaxed) >=
          options_.budget_checks) {
    Stop(/*budget=*/true);
    return false;
  }
  return true;
}

void VerdictLedger::Dispatch(uint32_t lane, const ReplayPoint& point) {
  tree_->MarkVisited(point.node);
  dispatched_.fetch_add(1, std::memory_order_relaxed);
  InjectionMetrics::Add(metrics_.attempted);
  InjectionMetrics::Add(metrics_.crashed);
  Lane& state = lanes_[lane];
  if (state.injections == nullptr && options_.metrics != nullptr) {
    state.injections = options_.metrics->GetCounter(
        "inject.worker." + std::to_string(lane) + ".injections");
  }
  InjectionMetrics::Add(state.injections);
  if (options_.journal != nullptr) {
    options_.journal->WriteDispatch(point.seq, lane);
  }
}

void VerdictLedger::Keep(Lane& lane, const JournalVerdict& verdict) {
  if (options_.journal != nullptr) {
    options_.journal->WriteVerdict(verdict);
  }
  if (options_.progress != nullptr) {
    options_.progress->Advance();
  }
  if (verdict.status == "ok") {
    return;
  }
  const auto [it, inserted] = lane.first.try_emplace(verdict.detail, verdict);
  if (!inserted) {
    ++lane.duplicates;
    if (verdict.seq < it->second.seq) {
      it->second = verdict;
    }
  }
}

void VerdictLedger::Verdict(uint32_t lane, const ReplayPoint& point,
                            JournalVerdict verdict,
                            const std::vector<ReplayPoint>& classmates) {
  verdict.seq = point.seq;
  verdict.worker = lane;
  verdict.location =
      verdict.status != "ok" ? tree_->DescribePath(point.node) : "";
  // Cache hits skip the recovery.* counters: those count actual oracle
  // invocations (hits show up in inject.image_dedup_hits instead).
  if (verdict.from_cache) {
    dedup_hits_.fetch_add(1, std::memory_order_relaxed);
    InjectionMetrics::Add(metrics_.dedup_hits);
  } else {
    InjectionMetrics::Add(verdict.status == "ok" ? metrics_.recovery_ok
                          : verdict.status == "unrecoverable"
                              ? metrics_.recovery_unrecoverable
                          : verdict.status == "timeout"
                              ? metrics_.recovery_timeout
                              : metrics_.recovery_crashed);
  }
  Lane& state = lanes_[lane];
  Keep(state, verdict);
  // Equivalence-class fan-out (--prune-equiv): every classmate was proven
  // image-identical to this representative at plan time, so the verdict
  // is theirs too — same status/detail/evidence, pruned_by provenance, no
  // oracle run, no budget. A classmate's detail always loses the fold to
  // its lower-seq representative, so pruning never changes the report.
  for (const ReplayPoint& mate : classmates) {
    tree_->MarkVisited(mate.node);
    class_pruned_.fetch_add(1, std::memory_order_relaxed);
    InjectionMetrics::Add(metrics_.class_pruned);
    JournalVerdict fanned = verdict;
    fanned.seq = mate.seq;
    fanned.location =
        verdict.status != "ok" ? tree_->DescribePath(mate.node) : "";
    fanned.dedup_of.clear();
    fanned.from_cache = false;
    fanned.pruned_by = PrunedByProvenance(point.seq);
    Keep(state, fanned);
  }
}

Report VerdictLedger::Finish(FaultInjectionStats* stats) {
  std::vector<const JournalVerdict*> verdicts;
  uint64_t duplicates = 0;
  for (const Lane& lane : lanes_) {
    duplicates += lane.duplicates;
    for (const auto& entry : lane.first) {
      verdicts.push_back(&entry.second);
    }
  }
  for (const JournalVerdict& verdict : resumed_) {
    verdicts.push_back(&verdict);
  }
  Report report = Fold(std::move(verdicts), &duplicates);
  InjectionMetrics::Add(metrics_.deduplicated, duplicates);
  if (options_.progress != nullptr) {
    options_.progress->EndPhase();
  }
  stats->injections = dispatched_.load();
  stats->class_pruned = class_pruned_.load();
  stats->dedup_hits = dedup_hits_.load();
  stats->budget_exhausted = exhausted_.load();
  stats->budget_stopped = budget_stopped_.load();
  if (stats->budget_stopped) {
    InjectionMetrics::Add(metrics_.budget_stops);
  }
  stats->bugs = report.BugCount();
  stats->tree_bytes = tree_->FootprintBytes();
  stats->elapsed_s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start_)
                         .count();
  return report;
}

}  // namespace mumak
