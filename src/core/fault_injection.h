// Fault injection phase (§4.1): execute the target, crash it gracefully at
// unique failure points (persistency instructions with at least one store
// since the previous failure point), and use the application's own recovery
// procedure as the consistency oracle.

#ifndef MUMAK_SRC_CORE_FAULT_INJECTION_H_
#define MUMAK_SRC_CORE_FAULT_INJECTION_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/analysis/seq_finding_index.h"
#include "src/core/failure_point_tree.h"
#include "src/core/report.h"
#include "src/instrument/event_hub.h"
#include "src/instrument/trace.h"
#include "src/observability/journal.h"
#include "src/observability/metrics.h"
#include "src/observability/progress.h"
#include "src/observability/span_tracer.h"
#include "src/core/verdict_cache.h"
#include "src/pmem/pm_pool.h"
#include "src/pmem/replay_cursor.h"
#include "src/sandbox/recovery_sandbox.h"
#include "src/targets/target.h"
#include "src/workload/workload.h"

namespace mumak {

class VerdictLedger;

// Creates a fresh target instance; fault injection re-executes the workload
// once per unique failure point, each time on a fresh target + pool.
using TargetFactory = std::function<TargetPtr()>;

// Failure point granularity (§4.1): persistency instructions give Mumak its
// scalability; store granularity is the ablation (and what the Figure 3b
// coverage series counts).
enum class FailurePointGranularity {
  kPersistencyInstruction,
  kStore,
};

// How the injection loop obtains the post-crash image for each failure
// point.
//  - kReExecute: one full workload re-execution per failure point (the
//    paper's §4.1 loop): O(failure points × trace length) instrumented
//    work.
//  - kReplay: the profiling run additionally records the bytes written by
//    every store; injection then *synthesizes* each graceful crash image by
//    replaying the recorded stores forward (ReplayCursor), so image
//    synthesis is O(trace length) per worker in total and only the
//    uninstrumented recovery oracle runs per failure point. Identical
//    reports at persistency-instruction granularity (a graceful crash is a
//    deterministic program-order prefix); requires InjectAll to run on the
//    same engine whose Profile() recorded the trace — it falls back to
//    kReExecute otherwise.
enum class InjectionStrategy {
  kReExecute,
  kReplay,
};

// Exception thrown by the injection sink to stop the target at a failure
// point. The pool state at the throw site *is* the graceful crash image:
// pending stores are treated as persisted, respecting program order.
struct CrashSignal {
  FailurePointTree::NodeIndex node = FailurePointTree::kNotFound;
  uint64_t seq = 0;
};

// Event sink implementing failure-point detection. In kProfile mode it
// builds the failure point tree; in kInjectAt mode it throws CrashSignal at
// one pre-assigned failure point.
class FailurePointSink : public EventSink {
 public:
  // kProfile builds the tree; kInjectAt crashes at one pre-assigned failure
  // point (the tree is read-only in this mode, so any number of kInjectAt
  // executions can share it).
  enum class Mode { kProfile, kInjectAt };

  // Sentinel for "no instruction-counter target" (see set_inject_target).
  static constexpr uint64_t kNoSeq = ~0ull;

  FailurePointSink(FailurePointTree* tree, Mode mode,
                   FailurePointGranularity granularity)
      : tree_(tree), mode_(mode), granularity_(granularity) {}

  void OnEvent(const PmEvent& event) override;

  // The failure point a kInjectAt execution crashes at. When `seq` is
  // given, the sink crashes at the event whose instruction counter equals
  // it (the failure point's first profiled occurrence) instead of
  // re-matching the shadow call stack — executions are deterministic, so
  // the counter identifies the same point, and unlike call-stack identity
  // it is stable under compiler inlining (the latent -O2 breakage noted in
  // ROADMAP.md).
  void set_inject_target(FailurePointTree::NodeIndex node,
                         uint64_t seq = kNoSeq) {
    inject_target_ = node;
    target_seq_ = seq;
  }

  // In kProfile mode, records each failure point's *first* instruction
  // counter into `out` (keyed by tree node). This is the injection
  // schedule for both replay mode and seq-targeted kInjectAt.
  void set_first_seq_out(
      std::unordered_map<FailurePointTree::NodeIndex, uint64_t>* out) {
    first_seq_out_ = out;
  }

 private:
  void HandleFailurePoint(const PmEvent& event);

  FailurePointTree* tree_;
  Mode mode_;
  FailurePointGranularity granularity_;
  FailurePointTree::NodeIndex inject_target_ = FailurePointTree::kNotFound;
  uint64_t target_seq_ = kNoSeq;
  std::unordered_map<FailurePointTree::NodeIndex, uint64_t>* first_seq_out_ =
      nullptr;
  // "Only consider a persistency instruction if there was at least one
  // store performed to PM since the last failure point" (§4.1).
  bool store_since_failure_point_ = false;
  std::vector<FrameId> stack_buffer_;
};

struct FaultInjectionOptions {
  FailurePointGranularity granularity =
      FailurePointGranularity::kPersistencyInstruction;
  double time_budget_s = std::numeric_limits<double>::infinity();
  uint64_t max_injections = std::numeric_limits<uint64_t>::max();
  // Injection executions are mutually independent (each runs on a fresh
  // pool and target and crashes at one pre-assigned failure point), so
  // they parallelise embarrassingly; >1 partitions the unvisited failure
  // points across this many threads (§7 positions Mumak for CI pipelines,
  // where this is the relevant throughput knob).
  uint32_t workers = 1;
  // How crash images are obtained (see InjectionStrategy). kReplay needs
  // Profile() to have run on the same engine; it records the store
  // payloads the replay consumes.
  InjectionStrategy strategy = InjectionStrategy::kReExecute;
  // Content-addressed verdict deduplication (src/core/verdict_cache.h):
  // hash each graceful crash image and attribute the cached verdict to any
  // failure point whose image content was already checked, instead of
  // running recovery again. Graceful-image equality implies verdict
  // equality (recovery is deterministic on the image bytes), so reports
  // keep the same unique findings; deduplicated ones carry `dedup_of`
  // provenance. Under kReplay the digest is maintained incrementally by
  // the cursor; under kReExecute it folds in only the lines the check
  // wrote into its lane's recycled pool. Both are O(lines changed).
  bool image_dedup = true;
  // Opt-in collision guard (--verify-dedup): keep a byte copy of each
  // distinct image and only honour a digest hit when the bytes match.
  bool verify_dedup = false;
  // Replay seek index (src/pmem/replay_seek_index.h): image checkpoints
  // captured at up to this many block-aligned positions for ranked replay
  // plans (--rank), whose lane re-seeks from the nearest checkpoint when
  // its next check lies behind its cursor instead of replaying the whole
  // prefix, and for fleet workers. Each checkpoint copies the pool image
  // once; 0 disables.
  uint32_t seek_checkpoints = 4;
  // When non-empty, the verdict cache is loaded from / saved to this path,
  // keyed by a fingerprint of the profiled trace — repeated campaigns over
  // an unchanged target skip every already-checked image. Requires this
  // engine's Profile() to have run (the fingerprint is recorded there).
  std::string verdict_cache_path;
  // Where the recovery oracle runs (src/sandbox): in-process (historical
  // behaviour), fork-per-check, or a fork-server worker pool. Sandboxed
  // policies turn oracle crashes into kRecoveryCrash findings (with the
  // fatal signal as evidence) and hangs into kRecoveryTimeout findings
  // instead of killing or wedging the campaign. `sandbox.metrics` is
  // overridden with `metrics` below.
  SandboxOptions sandbox;
  // Observability hooks (src/observability), all optional and borrowed.
  // When null, the engine pays at most one branch per event on the
  // instrumented hot path and a handful of branches per injection run.
  MetricsRegistry* metrics = nullptr;    // counters/gauges/histograms
  SpanTracer* tracer = nullptr;          // per-run spans, failure-point ids
  ProgressReporter* progress = nullptr;  // live injected/total + ETA
  // Campaign flight recorder (src/observability/journal.h), optional and
  // borrowed: the engine appends one dispatch + one verdict record per
  // failure-point check (hot paths only enqueue; a group-commit thread
  // does the I/O). Null disables journaling at the cost of one branch per
  // check.
  CampaignJournal* journal = nullptr;
  // Decoded prior journal generation (--resume-journal): failure points
  // whose verdicts it records are skipped, and the recorded verdicts are
  // folded into the report with the fresh ones in instruction-counter
  // order (VerdictLedger), so a resumed campaign's report is byte-identical
  // to an uninterrupted run at any worker count.
  // Honoured only when the journal's profile fingerprint matches this
  // engine's freshly profiled trace fingerprint (the same staleness key
  // the MVC1 verdict cache uses); on mismatch the engine warns and runs
  // the full campaign.
  const JournalReplay* resume = nullptr;
  // Cooperative cancellation (SIGINT/SIGTERM): when set and true, the
  // injection loops stop at the next check boundary with
  // budget_exhausted, so the caller can still flush a clean journal
  // footer and a valid partial report.
  const std::atomic<bool>* cancel = nullptr;
  // -- Adaptive injection scheduling (src/core/injection_schedule.h) -------
  // Equivalence-class pruning (--prune-equiv): partition the replay
  // schedule into classes of failure points whose graceful crash images
  // are provably byte-identical (no durable-state change between them —
  // every intervening store re-wrote bytes the image already held), check
  // only each class representative, and fan its verdict out to classmates
  // with `pruned_by` provenance. Requires kReplay (the proof consumes the
  // recorded store payloads).
  bool prune_equiv = false;
  // Detector-guided ranking (--rank): dispatch checks in descending
  // expected-yield order — failure points whose epoch overlaps a trace-
  // analysis durability/transient-data finding first, then by epoch store
  // density — so budgeted campaigns spend their checks where bugs are
  // likeliest. Needs `rank_findings` for the finding signal; degrades to
  // store-density + seq order without it.
  bool rank = false;
  // Per-seq trace-analysis finding index feeding the ranking signal.
  // Borrowed; must outlive InjectAll. The pointee may be filled after
  // engine construction (the analysis phase finishes before injection
  // starts when ranking is on).
  const SeqFindingIndex* rank_findings = nullptr;
  // Hard campaign budgets (0 = unlimited): stop dispatching once this many
  // checks ran / this much wall time elapsed in the injection phase. The
  // journal prefix stays valid and --resume-journal completes the
  // remainder. Distinct from time_budget_s/max_injections only in that a
  // budget stop is surfaced as budget_stopped + a "budget-exhausted"
  // journal footer reason.
  uint64_t budget_checks = 0;
  double budget_seconds = 0;
};

// One entry of the replay injection schedule: an unvisited failure point at
// its first profiled instruction counter. The schedule is seq-sorted, and
// the report is a seq-ordered fold of the verdicts (VerdictLedger), so any
// partition of the schedule — lanes, fleet shards — yields the same
// report.
struct ReplayPoint {
  FailurePointTree::NodeIndex node;
  uint64_t seq;
};

struct FaultInjectionStats {
  uint64_t failure_points = 0;
  uint64_t injections = 0;
  uint64_t executions = 0;  // full workload (re-)executions
  uint64_t replayed = 0;    // crash images synthesized from the trace
  uint64_t bugs = 0;
  bool budget_exhausted = false;
  double elapsed_s = 0;
  size_t tree_bytes = 0;
  // Image-dedup accounting (zero when image_dedup is off).
  uint64_t distinct_images = 0;   // oracle actually ran (digest first seen)
  uint64_t dedup_hits = 0;        // verdicts attributed from the cache
  uint64_t dedup_collisions = 0;  // verify mode: digest equal, bytes not
  uint64_t cache_loaded = 0;      // entries loaded from --verdict-cache
  uint64_t cache_saved = 0;       // entries persisted at campaign end
  // Failure points skipped because a resumed journal already recorded
  // their verdict (--resume-journal).
  uint64_t resumed = 0;
  // Footprint of the recorded event stream + store payloads held for
  // replay; 0 under kReExecute (the memory cost of the strategy).
  size_t replay_trace_bytes = 0;
  // Adaptive scheduling accounting (zero when the planner is off).
  uint64_t class_pruned = 0;      // verdicts fanned out to class members
  uint64_t plan_finding_hits = 0; // planned checks overlapping a finding
  // True when --budget-checks / --budget-seconds stopped dispatch early
  // (implies budget_exhausted; the journal footer carries
  // "budget-exhausted" so inspect/resume can tell a budget stop from ^C).
  bool budget_stopped = false;
};

// -- Oracle and verdict helpers (shared with the fleet worker) -------------

// Runs the recovery oracle on one crash image, in-process when `sandbox` is
// null and in sandbox slot `slot` otherwise, and returns its verdict
// (status, detail, sandbox evidence; seq, worker and location are stamped
// by the ledger). In-process, recovery runs in place on `image`
// (PmPool::FromBorrowedImage) with an undo log that restores every line it
// committed before returning, even if recovery throws — so a cursor's
// image and its incremental digest come back unchanged, and no check
// copies the pool. Sandboxed runs only read `image`. In-process verdicts
// carry no sandbox evidence (wall_us stays 0).
JournalVerdict RunOracle(RecoverySandbox* sandbox, uint32_t slot,
                         const TargetFactory& factory,
                         std::span<uint8_t> image);

// A cached verdict standing in for an oracle run. Graceful-image equality
// implies verdict equality (recovery is deterministic on the image bytes);
// dedup_of names the image digest and the failure point whose check
// produced the verdict (possibly in a previous run, via --verdict-cache).
JournalVerdict VerdictFromCache(const VerdictCacheEntry& entry,
                                const ImageDigest& digest);

// The cache entry recording a fresh verdict first checked at `seq`.
VerdictCacheEntry CacheEntryFromVerdict(const JournalVerdict& verdict,
                                        uint64_t seq);

class FaultInjectionEngine {
 public:
  FaultInjectionEngine(TargetFactory factory, WorkloadSpec spec,
                       FaultInjectionOptions options = {});

  // Profiling execution (Figure 1 steps 2-6): builds the failure point tree
  // and optionally feeds the PM access trace to `trace` (an in-memory
  // collector or a file spool) for the analysis phase.
  FailurePointTree Profile(EventSink* trace = nullptr);

  // Injection loop (Figure 1 steps 7-9) over every unvisited failure point.
  // options.workers lanes share the points; every verdict goes through one
  // VerdictLedger, so the report does not depend on the lane count.
  Report InjectAll(FailurePointTree* tree, FaultInjectionStats* stats);

  // Convenience: Profile + InjectAll.
  Report Run(FaultInjectionStats* stats);

  // Executes the full workload (setup, operations, finish) on a zeroed
  // pool (fresh or Reset) and a fresh target. Exposed for baselines and
  // benchmarks.
  static void ExecuteWorkload(Target& target, PmPool& pool,
                              const WorkloadSpec& spec);

  // -- Replay inputs captured by Profile() ---------------------------------

  // First profiled instruction counter per failure point (the injection
  // schedule). Populated by every Profile() call.
  const std::unordered_map<FailurePointTree::NodeIndex, uint64_t>&
  first_hit_seq() const {
    return first_seq_;
  }
  // The recorded event stream + store payloads; meaningful only when
  // replay_ready().
  const RecordedTrace& replay_trace() const { return replay_trace_; }
  size_t profiled_pool_size() const { return profiled_pool_size_; }
  // True once Profile() has captured the replay inputs (strategy ==
  // kReplay); InjectAll falls back to re-execution otherwise.
  bool replay_ready() const { return replay_ready_; }

  // Order-sensitive hash of the profiled PM event stream (kinds, offsets,
  // sizes and store payload bytes) plus the pool size — the persistent
  // verdict cache's staleness key. Recorded by Profile() when a cache path
  // is configured; fingerprint_ready() is false otherwise.
  uint64_t trace_fingerprint() const { return trace_fingerprint_; }
  bool fingerprint_ready() const { return fingerprint_ready_; }

  // -- Campaign building blocks (shared with the fleet scheduler) ----------

  // Applies --resume-journal to the tree: failure points whose verdict the
  // prior journal generation recorded (fingerprint-validated) are marked
  // visited and their verdicts queued on resume_schedule(), sorted by seq.
  // InjectAll calls this internally; the fleet scheduler calls it before
  // sharding so resumed points never reach a worker.
  void ApplyResume(FailurePointTree* tree, FaultInjectionStats* stats);

  // The replay injection schedule: every unvisited failure point at its
  // first profiled occurrence, seq-sorted. Requires Profile() to have run.
  std::vector<ReplayPoint> BuildReplaySchedule(
      const FailurePointTree& tree) const;

  // Verdicts carried over by ApplyResume, seq-sorted.
  const std::vector<JournalVerdict>& resume_schedule() const {
    return resume_schedule_;
  }
  // Per-epoch durable-state summaries over the profiled trace, one per
  // failure point in seq order (SummarizeEpochs). Computed by Profile()
  // when the planner needs them (prune_equiv or rank, under kReplay);
  // empty otherwise. The fleet scheduler reads these to build its plan.
  const std::vector<EpochSummary>& epoch_summaries() const {
    return epoch_summaries_;
  }
  const FaultInjectionOptions& options() const { return options_; }
  const TargetFactory& factory() const { return factory_; }

 private:
  // The injection phase over `schedule`: plans the checks, then runs them
  // on lanes whose crash images come from re-executing the workload on a
  // recycled pool or, when `replay`, from cursors over the profiled trace.
  void Inject(bool replay, const std::vector<ReplayPoint>& schedule,
              VerdictLedger& ledger, FailurePointTree* tree,
              FaultInjectionStats* stats, RecoverySandbox* sandbox,
              VerdictCache* cache);

  TargetFactory factory_;
  WorkloadSpec spec_;
  FaultInjectionOptions options_;
  // Replay inputs recorded by Profile(); node indices are stable across
  // FailurePointTree::Serialize/Deserialize, so these survive the
  // tree-through-a-file round trip in Mumak::Analyze.
  std::unordered_map<FailurePointTree::NodeIndex, uint64_t> first_seq_;
  RecordedTrace replay_trace_;
  size_t profiled_pool_size_ = 0;
  bool replay_ready_ = false;
  uint64_t trace_fingerprint_ = 0;
  bool fingerprint_ready_ = false;
  std::vector<EpochSummary> epoch_summaries_;
  // Verdicts carried over from a resumed journal (fingerprint-validated),
  // sorted by seq and deduplicated; the injection paths replay them into
  // the report interleaved with fresh outcomes.
  std::vector<JournalVerdict> resume_schedule_;
};

}  // namespace mumak

#endif  // MUMAK_SRC_CORE_FAULT_INJECTION_H_
