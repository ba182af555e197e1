#include "src/core/injection_schedule.h"

#include <algorithm>
#include <string>

namespace mumak {
namespace {

// Cumulative durable-state counters at each summary boundary, so interval
// queries over arbitrary schedule subsets are O(log n) lookups: state
// changed between schedule seqs a < b iff the cumulative changed-store
// count differs at their boundaries.
struct PrefixSums {
  std::vector<uint64_t> seqs;     // summary boundaries, ascending
  std::vector<uint64_t> changed;  // cumulative changed stores through seq
  std::vector<uint64_t> stores;   // cumulative stores through seq

  explicit PrefixSums(const std::vector<EpochSummary>& summaries) {
    seqs.reserve(summaries.size());
    changed.reserve(summaries.size());
    stores.reserve(summaries.size());
    uint64_t changed_total = 0;
    uint64_t store_total = 0;
    for (const EpochSummary& summary : summaries) {
      changed_total += summary.changed_stores;
      store_total += summary.stores;
      seqs.push_back(summary.seq);
      changed.push_back(changed_total);
      stores.push_back(store_total);
    }
  }

  // Index of the boundary at exactly `seq`; npos when the summaries do not
  // cover it (then the point conservatively starts its own class).
  static constexpr size_t kNotFound = ~size_t{0};
  size_t Find(uint64_t seq) const {
    const auto it = std::lower_bound(seqs.begin(), seqs.end(), seq);
    if (it == seqs.end() || *it != seq) {
      return kNotFound;
    }
    return static_cast<size_t>(it - seqs.begin());
  }

  uint64_t ChangedThrough(size_t index) const { return changed[index]; }
  // Stores in `(lo_seq, hi_index's seq]` where lo_seq is a prior schedule
  // seq (or 0 for the schedule head).
  uint64_t StoresBetween(uint64_t lo_seq, size_t hi_index) const {
    uint64_t lo_total = 0;
    if (lo_seq > 0) {
      const auto it = std::upper_bound(seqs.begin(), seqs.end(), lo_seq);
      if (it != seqs.begin()) {
        lo_total = stores[static_cast<size_t>(it - seqs.begin()) - 1];
      }
    }
    return stores[hi_index] - lo_total;
  }
};

}  // namespace

InjectionPlan BuildInjectionPlan(const std::vector<ReplayPoint>& schedule,
                                 const std::vector<EpochSummary>& summaries,
                                 const InjectionPlanOptions& options) {
  InjectionPlan plan;
  plan.scheduled = schedule.size();
  if (schedule.empty()) {
    return plan;
  }
  const PrefixSums sums(summaries);

  // Partition into equivalence classes. The schedule is seq-ascending, and
  // class membership is a cumulative property (identical changed-store
  // totals at both boundaries), so one forward walk suffices — including
  // across gaps where resume already removed points.
  size_t rep_summary = PrefixSums::kNotFound;
  for (const ReplayPoint& point : schedule) {
    const size_t at = sums.Find(point.seq);
    const bool joins =
        options.prune_equiv && !plan.checks.empty() &&
        at != PrefixSums::kNotFound && rep_summary != PrefixSums::kNotFound &&
        sums.ChangedThrough(at) == sums.ChangedThrough(rep_summary);
    if (joins) {
      plan.checks.back().classmates.push_back(point);
      ++plan.pruned;
      continue;
    }
    PlannedCheck check;
    check.point = point;
    plan.checks.push_back(std::move(check));
    rep_summary = at;
  }

  // Ranking evidence per check, over each class's full span: the interval
  // since the previous class's end, through this class's last member.
  uint64_t lo = 0;
  for (PlannedCheck& check : plan.checks) {
    const uint64_t hi =
        check.classmates.empty() ? check.point.seq
                                 : check.classmates.back().seq;
    const size_t hi_index = sums.Find(hi);
    if (hi_index != PrefixSums::kNotFound) {
      check.span_stores = sums.StoresBetween(lo, hi_index);
    }
    if (options.findings != nullptr && options.findings->AnyIn(lo, hi)) {
      check.finding_hit = true;
      ++plan.finding_hits;
    }
    lo = hi;
  }

  if (options.rank && plan.checks.size() > 1) {
    std::stable_sort(plan.checks.begin(), plan.checks.end(),
                     [](const PlannedCheck& a, const PlannedCheck& b) {
                       if (a.finding_hit != b.finding_hit) {
                         return a.finding_hit;  // detector hits first
                       }
                       if (a.span_stores != b.span_stores) {
                         return a.span_stores > b.span_stores;
                       }
                       return a.point.seq < b.point.seq;
                     });
    for (size_t i = 0; i + 1 < plan.checks.size(); ++i) {
      if (plan.checks[i].point.seq > plan.checks[i + 1].point.seq) {
        plan.seq_ordered = false;
        break;
      }
    }
  }
  return plan;
}

std::string PrunedByProvenance(uint64_t representative_seq) {
  return "equivalence class checked at seq " +
         std::to_string(representative_seq);
}

}  // namespace mumak
