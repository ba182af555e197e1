#include "src/core/fault_injection.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/injection_schedule.h"
#include "src/core/verdict_cache.h"
#include "src/core/verdict_ledger.h"
#include "src/pmem/image_digest.h"
#include "src/pmem/replay_cursor.h"
#include "src/pmem/replay_seek_index.h"
#include "src/sandbox/child.h"

namespace mumak {
namespace {

using Clock = std::chrono::steady_clock;

// Replay lanes claim checks in chunks of consecutive plan indices, about
// this many chunks per lane: few enough that claiming is rare, enough that
// the last chunks still balance the lanes' tails.
constexpr size_t kChunksPerLane = 8;

uint64_t Micros(Clock::time_point from, Clock::time_point to) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count());
}

std::string_view RecoveryStatusName(RecoveryStatus status) {
  switch (status) {
    case RecoveryStatus::kOk:
      return "ok";
    case RecoveryStatus::kUnrecoverable:
      return "unrecoverable";
    case RecoveryStatus::kCrashed:
      return "crashed";
    case RecoveryStatus::kTimeout:
      return "timeout";
  }
  return "unknown";
}

// A sandbox verdict as a ledger verdict.
JournalVerdict VerdictFromSandbox(const SandboxVerdict& verdict) {
  JournalVerdict out;
  out.status = std::string(RecoveryStatusName(verdict.status));
  out.detail = verdict.detail;
  if (verdict.signal != 0) {
    out.signal_name = SignalName(verdict.signal);
  }
  out.timed_out = verdict.timed_out;
  out.wall_us = verdict.recovery_wall_us;
  return out;
}

// One cache probe for one crash image, carried from the digest lookup to
// the post-oracle insert. `hit` means the verdict was attributed without
// running recovery; `insert` means the oracle's verdict should be committed
// under `digest` afterwards (a collision — verify mode, digest equal but
// bytes not — sets neither, so the oracle runs and nothing is cached).
struct DedupProbe {
  bool hit = false;
  bool insert = false;
  ImageDigest digest;
  VerdictCacheEntry cached;
  // Verify mode retains the image bytes for the insert (a pipelined check
  // lands after its cursor has moved on).
  std::vector<uint8_t> verify_bytes;
};

// The per-check steps every in-process injection path shares, from "the
// crash image exists" to "the ledger has its verdict", plus the deferral of
// twins of an in-flight digest.
class Checker {
 public:
  // `lanes` is the number of lanes that check concurrently.
  Checker(VerdictLedger* ledger, VerdictCache* cache, RecoverySandbox* sandbox,
          const TargetFactory& factory, SpanTracer* tracer, uint32_t lanes)
      : ledger_(ledger),
        cache_(cache),
        sandbox_(sandbox),
        factory_(factory),
        tracer_(tracer),
        lanes_(lanes) {}

  // Digest + lookup. `digest_fn` supplies the digest in O(lines changed):
  // the replay path reads the cursor's incrementally-maintained digest, the
  // re-execute path folds the lines its recycled pool wrote into the
  // zero-pool digest.
  template <typename DigestFn>
  DedupProbe Probe(const uint8_t* image, size_t size, DigestFn&& digest_fn) {
    DedupProbe probe;
    if (cache_ == nullptr) {
      return probe;  // dedup off: run the oracle, cache nothing
    }
    InjectionMetrics& im = ledger_->metrics();
    const auto digest_start = Clock::now();
    probe.digest = digest_fn();
    InjectionMetrics::Observe(im.digest_us,
                              Micros(digest_start, Clock::now()));
    switch (cache_->Lookup(probe.digest, image, size, &probe.cached)) {
      case VerdictCache::Outcome::kHit:
        probe.hit = true;  // the ledger counts it when the verdict lands
        break;
      case VerdictCache::Outcome::kMiss:
        probe.insert = true;
        if (cache_->verify()) {
          probe.verify_bytes.assign(image, image + size);
        }
        break;
      case VerdictCache::Outcome::kCollision:
        InjectionMetrics::Add(im.dedup_collisions);
        break;
    }
    return probe;
  }

  // A cache hit: the point is injected (visited, counted) but no oracle
  // runs and no slot or queue capacity is consumed.
  void Hit(uint32_t lane, const ReplayPoint& point, const DedupProbe& probe,
           const std::vector<ReplayPoint>& classmates,
           Clock::time_point run_start) {
    ledger_->Dispatch(lane, point);
    Land(lane, point, VerdictFromCache(probe.cached, probe.digest),
         DedupProbe(), classmates, Micros(run_start, Clock::now()), 0);
  }

  // A miss: dispatch, run the oracle on `image` (in sandbox slot `lane`
  // when sandboxed, in place otherwise — see RunOracle), land the verdict.
  void Run(uint32_t lane, const ReplayPoint& point, std::span<uint8_t> image,
           const DedupProbe& probe,
           const std::vector<ReplayPoint>& classmates,
           Clock::time_point run_start) {
    ledger_->Dispatch(lane, point);
    const auto recovery_start = Clock::now();
    JournalVerdict verdict;
    {
      ScopedSpan recovery_span(tracer_, "recovery", "recovery", lane + 1);
      verdict = RunOracle(sandbox_, lane, factory_, image);
      recovery_span.AddArg("status", verdict.status);
    }
    const auto now = Clock::now();
    Land(lane, point, std::move(verdict), probe, classmates,
         Micros(run_start, now), Micros(recovery_start, now));
  }

  // The verdict of a dispatched check: run/recovery histograms (recovery
  // only for real oracle runs), the pending cache insert, the ledger.
  void Land(uint32_t lane, const ReplayPoint& point, JournalVerdict verdict,
            const DedupProbe& probe,
            const std::vector<ReplayPoint>& classmates, uint64_t run_us,
            uint64_t recovery_us) {
    InjectionMetrics& im = ledger_->metrics();
    if (!verdict.from_cache) {
      InjectionMetrics::Observe(im.recovery_us, recovery_us);
    }
    InjectionMetrics::Observe(im.run_us, run_us);
    if (cache_ != nullptr && probe.insert) {
      cache_->Insert(probe.digest, CacheEntryFromVerdict(verdict, point.seq),
                     probe.verify_bytes.empty() ? nullptr
                                                : probe.verify_bytes.data(),
                     probe.verify_bytes.size());
      InjectionMetrics::Add(im.distinct_images);
    }
    ledger_->Verdict(lane, point, std::move(verdict), classmates);
  }

  // With several checks in flight, a duplicate of an image whose check has
  // not landed yet cannot hit the cache: its verdict only lands after the
  // oracle finishes. Without deferral the common case — flush/fence-
  // adjacent failure points sharing one image — would re-run the oracle on
  // every lane that meets it. So after a cache miss this returns true when
  // check `index` (at `point`) is a twin of an in-flight digest and files
  // it under that digest for ResolveDeferred; otherwise the caller's check
  // now owns the digest. One lock covers both, so lanes run the oracle at
  // most once per digest. Verify mode keeps one shared byte copy per
  // pending digest (the bytes the original's Insert will store): a byte
  // mismatch is a forged twin and gets its own oracle run, mirroring
  // Outcome::kCollision. A lone lane skips all of this: the check of any
  // earlier twin has already landed.
  bool DeferOrClaim(size_t index, const ReplayPoint& point,
                    const uint8_t* image, size_t size,
                    const DedupProbe& probe) {
    if (cache_ == nullptr || lanes_ == 1) {
      return false;
    }
    std::lock_guard<std::mutex> lock(pending_mutex_);
    const auto it = pending_.find(probe.digest);
    if (it == pending_.end()) {
      if (probe.insert) {
        PendingDigest entry;
        if (cache_->verify()) {
          entry.bytes =
              std::make_shared<const std::vector<uint8_t>>(image, image + size);
        }
        pending_.emplace(probe.digest, std::move(entry));
      }
      return false;
    }
    if (cache_->verify() && it->second.bytes != nullptr &&
        !std::equal(image, image + size, it->second.bytes->begin(),
                    it->second.bytes->end())) {
      InjectionMetrics::Add(ledger_->metrics().dedup_collisions);
      return false;
    }
    it->second.waiters.push_back({index, point});
    return true;
  }

  // Attributes every deferred check from the (now settled) cache once the
  // lanes have joined, in index order, on lane 0. Deferred checks already
  // hold a budget reservation, so this only re-reads the gate. A digest can
  // still miss here if the original's dispatch failed (no verdict was ever
  // inserted); `recheck(index)` then runs that one check for real.
  // `classmates` is indexed like the checks (empty: none).
  template <typename Recheck>
  void ResolveDeferred(
      std::span<const std::vector<ReplayPoint>> classmates,
      Recheck&& recheck) {
    struct Deferred {
      size_t index;
      ReplayPoint point;
      ImageDigest digest;
      const std::vector<uint8_t>* bytes;
    };
    std::vector<Deferred> ordered;
    for (const auto& [digest, entry] : pending_) {
      for (const auto& [index, point] : entry.waiters) {
        ordered.push_back({index, point, digest, entry.bytes.get()});
      }
    }
    std::sort(ordered.begin(), ordered.end(),
              [](const Deferred& a, const Deferred& b) {
                return a.index < b.index;
              });
    static const std::vector<ReplayPoint> kNoClassmates;
    for (const Deferred& d : ordered) {
      if (ledger_->Halted()) {
        break;
      }
      DedupProbe probe;
      probe.digest = d.digest;
      const uint8_t* bytes = d.bytes != nullptr ? d.bytes->data() : nullptr;
      const size_t size = d.bytes != nullptr ? d.bytes->size() : 0;
      if (cache_->Lookup(d.digest, bytes, size, &probe.cached) ==
          VerdictCache::Outcome::kHit) {
        Hit(0, d.point, probe,
            classmates.empty() ? kNoClassmates : classmates[d.index],
            Clock::now());
        continue;
      }
      recheck(d.index);
    }
    pending_.clear();
  }

 private:
  struct PendingDigest {
    std::vector<std::pair<size_t, ReplayPoint>> waiters;
    std::shared_ptr<const std::vector<uint8_t>> bytes;  // verify mode only
  };

  VerdictLedger* ledger_;
  VerdictCache* cache_;
  RecoverySandbox* sandbox_;
  const TargetFactory& factory_;
  SpanTracer* tracer_;
  const uint32_t lanes_;
  std::mutex pending_mutex_;
  std::unordered_map<ImageDigest, PendingDigest, ImageDigestHash> pending_;
};

// Order-sensitive fold of the profiled PM event stream — the persistent
// verdict cache's staleness key. Any change to the workload's persistent
// behaviour (event kinds, placement, sizes, written bytes, pool size)
// changes the fingerprint and invalidates the on-disk cache; incidental
// changes (binary layout, site ids, timing) do not.
class TraceFingerprintSink : public EventSink {
 public:
  void OnEvent(const PmEvent& event) override {
    hash_ = DigestMix64(hash_ ^ (static_cast<uint64_t>(event.kind) |
                                 (uint64_t{event.size} << 8)));
    hash_ = DigestMix64(hash_ ^ event.offset);
    if (event.has_payload()) {
      size_t at = 0;
      while (at + sizeof(uint64_t) <= event.size) {
        uint64_t word = 0;
        std::memcpy(&word, event.payload + at, sizeof(word));
        hash_ = DigestMix64(hash_ ^ word);
        at += sizeof(word);
      }
      if (at < event.size) {
        uint64_t word = 0;
        std::memcpy(&word, event.payload + at, event.size - at);
        hash_ = DigestMix64(hash_ ^ word);
      }
    }
  }

  uint64_t Finish(size_t pool_size) const {
    return DigestMix64(hash_ ^ pool_size);
  }

 private:
  uint64_t hash_ = 0x5851f42d4c957f2dull;
};

}  // namespace

JournalVerdict RunOracle(RecoverySandbox* sandbox, uint32_t slot,
                         const TargetFactory& factory,
                         std::span<uint8_t> image) {
  if (sandbox != nullptr) {
    return VerdictFromSandbox(sandbox->Check(slot, image.data(), image.size()));
  }
  // Declared before the pool, the undo log outlives it and rolls back every
  // line recovery committed when this scope ends, on the throw path too.
  DurableUndoLog undo(image);
  PmPool recovered = PmPool::FromBorrowedImage(image.data(), image.size());
  recovered.model().set_undo_log(&undo);
  TargetPtr fresh = factory();
  const RecoveryResult result = RunRecoveryOracle(*fresh, recovered);
  JournalVerdict out;
  out.status = std::string(RecoveryStatusName(result.status));
  out.detail = result.detail;
  return out;
}

JournalVerdict VerdictFromCache(const VerdictCacheEntry& entry,
                                const ImageDigest& digest) {
  JournalVerdict out;
  out.status = std::string(
      RecoveryStatusName(static_cast<RecoveryStatus>(entry.status)));
  out.detail = entry.detail;
  out.signal_name = entry.signal_name;
  out.timed_out = entry.timed_out;
  out.wall_us = entry.recovery_wall_us;
  out.dedup_of = "image " + digest.Hex() + " first checked at seq " +
                 std::to_string(entry.first_seq);
  out.from_cache = true;
  return out;
}

VerdictCacheEntry CacheEntryFromVerdict(const JournalVerdict& verdict,
                                        uint64_t seq) {
  VerdictCacheEntry entry;
  for (const RecoveryStatus status :
       {RecoveryStatus::kOk, RecoveryStatus::kUnrecoverable,
        RecoveryStatus::kCrashed, RecoveryStatus::kTimeout}) {
    if (verdict.status == RecoveryStatusName(status)) {
      entry.status = static_cast<uint32_t>(status);
    }
  }
  entry.timed_out = verdict.timed_out;
  entry.recovery_wall_us = verdict.wall_us;
  entry.first_seq = seq;
  entry.detail = verdict.detail;
  entry.signal_name = verdict.signal_name;
  return entry;
}

void FailurePointSink::OnEvent(const PmEvent& event) {
  if (mode_ == Mode::kInjectAt && target_seq_ != kNoSeq) {
    // Instruction-counter targeting: deterministic executions make the
    // profiled seq identify the same dynamic point, with no call-stack
    // re-matching (stable under -O2 inlining, unlike site identity).
    if (event.seq == target_seq_) {
      throw CrashSignal{inject_target_, event.seq};
    }
    return;
  }
  if (granularity_ == FailurePointGranularity::kStore) {
    if (IsStore(event.kind)) {
      HandleFailurePoint(event);
    }
    return;
  }
  if (IsStore(event.kind)) {
    store_since_failure_point_ = true;
    return;
  }
  if (!IsPersistencyInstruction(event.kind)) {
    return;
  }
  if (!store_since_failure_point_) {
    return;  // equivalent post-failure state, elided (§4.1)
  }
  store_since_failure_point_ = false;
  HandleFailurePoint(event);
}

void FailurePointSink::HandleFailurePoint(const PmEvent& event) {
  // Failure point identity = shadow call stack + instruction site.
  const auto frames = ShadowCallStack::Current().frames();
  stack_buffer_.assign(frames.begin(), frames.end());
  stack_buffer_.push_back(event.site);

  if (mode_ == Mode::kProfile) {
    const FailurePointTree::NodeIndex node = tree_->Insert(stack_buffer_);
    if (first_seq_out_ != nullptr) {
      // emplace = first hit wins; injection crashes each unique path at
      // its first occurrence, so replaying at the first-hit seq reproduces
      // exactly that crash image.
      first_seq_out_->emplace(node, event.seq);
    }
    return;
  }
  // kInjectAt without a seq: read-only lookup. The deterministic
  // re-execution revisits every profiled path, so a miss only means this
  // is not the assigned point.
  if (tree_->Find(stack_buffer_) == inject_target_) {
    throw CrashSignal{inject_target_, event.seq};
  }
}

FaultInjectionEngine::FaultInjectionEngine(TargetFactory factory,
                                           WorkloadSpec spec,
                                           FaultInjectionOptions options)
    : factory_(std::move(factory)), spec_(spec), options_(options) {}

void FaultInjectionEngine::ExecuteWorkload(Target& target, PmPool& pool,
                                           const WorkloadSpec& spec) {
  target.Setup(pool);
  WorkloadGenerator generator(spec);
  while (!generator.Done()) {
    target.Execute(pool, generator.Next());
  }
  target.Finish(pool);
}

FailurePointTree FaultInjectionEngine::Profile(EventSink* trace) {
  ScopedSpan span(options_.tracer, "profile");
  FailurePointTree tree;
  TargetPtr target = factory_();
  PmPool pool(target->DefaultPoolSize());
  // Per-EventKind accounting of the instrumented execution's PM stream
  // (the profiling run sees every event exactly once, so its counts are
  // the workload's event mix).
  std::optional<EventCounters> counters;
  if (options_.metrics != nullptr) {
    counters.emplace(options_.metrics);
    pool.set_event_counters(&*counters);
  }
  FailurePointSink sink(&tree, FailurePointSink::Mode::kProfile,
                        options_.granularity);
  first_seq_.clear();
  sink.set_first_seq_out(&first_seq_);
  // Replay strategy: the same execution also records every event plus the
  // bytes each store wrote — the complete input for synthesizing crash
  // images without re-executing (ReplayCursor).
  replay_ready_ = false;
  std::optional<ReplayTraceCollector> replay;
  if (options_.strategy == InjectionStrategy::kReplay) {
    replay.emplace();
    pool.hub().AddSink(&*replay);
  }
  // Persistent verdict cache / campaign journal: fingerprint the event
  // stream while it is being produced. The same order-sensitive hash is
  // the staleness key for --verdict-cache and the resume cross-check for
  // --resume-journal (a journal written against a different persistent
  // behaviour must not seed skips).
  fingerprint_ready_ = false;
  std::optional<TraceFingerprintSink> fingerprint;
  if (!options_.verdict_cache_path.empty() || options_.journal != nullptr ||
      options_.resume != nullptr) {
    fingerprint.emplace();
    pool.hub().AddSink(&*fingerprint);
  }
  ScopedSink attach_sink(pool.hub(), &sink);
  if (trace != nullptr) {
    pool.hub().AddSink(trace);
  }
  ExecuteWorkload(*target, pool, spec_);
  if (trace != nullptr) {
    pool.hub().RemoveSink(trace);
  }
  if (replay.has_value()) {
    pool.hub().RemoveSink(&*replay);
    replay_trace_ = replay->Take();
    profiled_pool_size_ = pool.size();
    replay_ready_ = true;
    span.AddArg("replay_trace_bytes", replay_trace_.FootprintBytes());
  }
  // Adaptive planner inputs: per-epoch durable-state summaries over the
  // recorded trace, one per failure point (the epoch boundaries are the
  // sorted first-hit seqs — a superset of any later schedule, so the
  // summaries stay valid after resume removes points).
  epoch_summaries_.clear();
  if ((options_.prune_equiv || options_.rank) && replay_ready_) {
    std::vector<uint64_t> boundaries;
    boundaries.reserve(first_seq_.size());
    for (const auto& entry : first_seq_) {
      boundaries.push_back(entry.second);
    }
    std::sort(boundaries.begin(), boundaries.end());
    epoch_summaries_ =
        SummarizeEpochs(replay_trace_, profiled_pool_size_, boundaries);
  }
  if (fingerprint.has_value()) {
    pool.hub().RemoveSink(&*fingerprint);
    trace_fingerprint_ = fingerprint->Finish(pool.size());
    fingerprint_ready_ = true;
    span.AddArg("trace_fingerprint", trace_fingerprint_);
  }
  if (options_.metrics != nullptr) {
    options_.metrics->GetGauge("fpt.failure_points")
        ->Set(tree.FailurePointCount());
    options_.metrics->GetGauge("fpt.bytes")->Set(tree.FootprintBytes());
    options_.metrics->GetGauge("profile.pm_events")->Set(pool.hub().seq());
  }
  span.AddArg("failure_points", tree.FailurePointCount());
  span.AddArg("pm_events", pool.hub().seq());
  if (options_.journal != nullptr) {
    options_.journal->WriteProfile(trace_fingerprint_,
                                   tree.FailurePointCount(),
                                   pool.hub().seq());
  }
  return tree;
}

Report FaultInjectionEngine::InjectAll(FailurePointTree* tree,
                                       FaultInjectionStats* stats) {
  const bool replay =
      options_.strategy == InjectionStrategy::kReplay && replay_ready_;
  // Content-addressed verdict cache, shared by every injection path. The
  // persistent file is loaded up front (trace-fingerprint-keyed; a stale or
  // corrupt file degrades to an empty cache with a warning) and saved after
  // the campaign.
  std::optional<VerdictCache> cache_storage;
  VerdictCache* cache = nullptr;
  if (options_.image_dedup) {
    cache_storage.emplace(options_.verify_dedup);
    cache = &*cache_storage;
    if (!options_.verdict_cache_path.empty()) {
      if (!fingerprint_ready_) {
        std::fprintf(stderr,
                     "mumak: --verdict-cache: no trace fingerprint recorded "
                     "(Profile() did not run on this engine); starting with "
                     "an empty cache and skipping the save\n");
      } else {
        std::string warning;
        cache->Load(options_.verdict_cache_path, trace_fingerprint_,
                    &warning);
        if (!warning.empty()) {
          std::fprintf(stderr, "mumak: verdict cache: %s\n", warning.c_str());
        }
      }
    }
  }
  ApplyResume(tree, stats);
  // One sandbox per campaign, built here while the process is still
  // single-threaded (the fork-server pool forks its initial workers in the
  // constructor). Slots map 1:1 onto injection workers.
  std::optional<RecoverySandbox> sandbox;
  if (options_.sandbox.policy != SandboxPolicy::kInProcess) {
    const size_t image_bytes =
        replay ? profiled_pool_size_ : factory_()->DefaultPoolSize();
    const uint64_t pending = tree->UnvisitedCount();
    const uint32_t slots = static_cast<uint32_t>(std::max<uint64_t>(
        1, std::min<uint64_t>(options_.workers, pending == 0 ? 1 : pending)));
    SandboxOptions sandbox_options = options_.sandbox;
    sandbox_options.metrics = options_.metrics;
    sandbox_options.tracer = options_.tracer;
    sandbox.emplace(factory_, image_bytes, slots, sandbox_options);
  }
  RecoverySandbox* sandbox_ptr = sandbox.has_value() ? &*sandbox : nullptr;
  stats->failure_points = tree->FailurePointCount();
  std::vector<ReplayPoint> schedule = BuildReplaySchedule(*tree);
  // One ledger lane per worker. Progress counts every point: replay covers
  // the profiled schedule, re-execution also the points it matches by call
  // stack.
  VerdictLedger ledger(options_, tree, std::max<uint32_t>(1, options_.workers),
                       resume_schedule_,
                       replay ? schedule.size() : tree->UnvisitedCount());
  if (replay) {
    InjectReplay(schedule, ledger, stats, sandbox_ptr, cache);
  } else {
    InjectReExecute(std::move(schedule), ledger, tree, stats, sandbox_ptr,
                    cache);
  }
  Report report = ledger.Finish(stats);
  if (replay) {
    stats->replayed = stats->injections;
  }
  if (cache != nullptr) {
    stats->dedup_collisions = cache->collisions();
    stats->cache_loaded = cache->loaded();
    // Entries beyond the loaded set are this campaign's inserts — images
    // whose oracle verdict was computed fresh.
    stats->distinct_images = cache->size() - cache->loaded();
    if (!options_.verdict_cache_path.empty() && fingerprint_ready_) {
      std::string error;
      if (cache->Save(options_.verdict_cache_path, trace_fingerprint_,
                      &error)) {
        stats->cache_saved = cache->size();
      } else {
        std::fprintf(stderr, "mumak: verdict cache: %s\n", error.c_str());
      }
    }
    if (options_.metrics != nullptr) {
      options_.metrics->GetGauge("verdict_cache.entries")->Set(cache->size());
      options_.metrics->GetGauge("verdict_cache.loaded")
          ->Set(cache->loaded());
    }
  }
  return report;
}

// Resume (--resume-journal): failure points whose verdict the prior
// journal generation already recorded are marked visited up front — the
// injection paths then never re-check them — and the recorded verdicts
// are queued on resume_schedule_ for replay into the report. Gated on
// the trace fingerprint (the MVC1 staleness key): a mismatch means the
// workload's persistent behaviour changed and every recorded verdict is
// stale, so the engine warns and runs the full campaign.
void FaultInjectionEngine::ApplyResume(FailurePointTree* tree,
                                       FaultInjectionStats* stats) {
  resume_schedule_.clear();
  if (options_.resume == nullptr || options_.resume->verdicts.empty()) {
    return;
  }
  if (!fingerprint_ready_ || !options_.resume->has_profile ||
      options_.resume->fingerprint != trace_fingerprint_) {
    std::fprintf(stderr,
                 "mumak: --resume-journal: trace fingerprint mismatch "
                 "(the journal was recorded against a different "
                 "persistent behaviour); running the full campaign\n");
    return;
  }
  std::unordered_map<uint64_t, const JournalVerdict*> by_seq;
  for (const JournalVerdict& verdict : options_.resume->verdicts) {
    by_seq.emplace(verdict.seq, &verdict);  // first generation wins
  }
  for (const FailurePointTree::NodeIndex node : tree->UnvisitedNodes()) {
    const auto it = first_seq_.find(node);
    if (it == first_seq_.end()) {
      continue;
    }
    const auto recorded = by_seq.find(it->second);
    if (recorded != by_seq.end()) {
      tree->MarkVisited(node);
      resume_schedule_.push_back(*recorded->second);
      ++stats->resumed;
    }
  }
  std::sort(resume_schedule_.begin(), resume_schedule_.end(),
            [](const JournalVerdict& a, const JournalVerdict& b) {
              return a.seq < b.seq;
            });
  if (options_.metrics != nullptr) {
    options_.metrics->GetGauge("inject.resumed")->Set(stats->resumed);
  }
}

std::vector<ReplayPoint> FaultInjectionEngine::BuildReplaySchedule(
    const FailurePointTree& tree) const {
  std::vector<ReplayPoint> points;
  const std::vector<FailurePointTree::NodeIndex> pending =
      tree.UnvisitedNodes();
  points.reserve(pending.size());
  for (const FailurePointTree::NodeIndex node : pending) {
    const auto it = first_seq_.find(node);
    if (it == first_seq_.end()) {
      continue;  // not reached by this engine's profile run
    }
    points.push_back({node, it->second});
  }
  std::sort(points.begin(), points.end(),
            [](const ReplayPoint& a, const ReplayPoint& b) {
              return a.seq < b.seq;
            });
  return points;
}

void FaultInjectionEngine::InjectReExecute(std::vector<ReplayPoint> points,
                                           VerdictLedger& ledger,
                                           FailurePointTree* tree,
                                           FaultInjectionStats* stats,
                                           RecoverySandbox* sandbox,
                                           VerdictCache* cache) {
  if (options_.rank) {
    // Detector-guided dispatch order: finding overlap, then epoch store
    // density, then seq (see injection_schedule.h). Pruning is not applied
    // here: re-executed images are never proven identical, only replayed
    // ones.
    InjectionPlanOptions plan_options;
    plan_options.rank = true;
    plan_options.findings = options_.rank_findings;
    const InjectionPlan plan =
        BuildInjectionPlan(points, epoch_summaries_, plan_options);
    points.clear();
    for (const PlannedCheck& check : plan.checks) {
      points.push_back(check.point);
    }
    stats->plan_finding_hits = plan.finding_hits;
    InjectionMetrics::Add(ledger.metrics().rank_finding_hits,
                          plan.finding_hits);
  }
  // Points this engine never profiled (a tree built by another engine) go
  // last and are matched by call stack instead of instruction counter.
  for (const FailurePointTree::NodeIndex node : tree->UnvisitedNodes()) {
    if (first_seq_.find(node) == first_seq_.end()) {
      points.push_back({node, FailurePointSink::kNoSeq});
    }
  }

  // From here on the tree is read-only to the executions (kInjectAt only
  // Finds) and each point is claimed by exactly one lane, so lanes share
  // it without locking.
  const uint32_t lanes = static_cast<uint32_t>(std::max<size_t>(
      1, std::min<size_t>(options_.workers, points.size())));
  if (options_.metrics != nullptr) {
    options_.metrics->GetGauge("inject.workers")->Set(lanes);
  }
  Checker checker(&ledger, cache, sandbox, factory_, options_.tracer, lanes);
  const size_t pool_size = factory_()->DefaultPoolSize();
  // Every check starts from a zeroed pool, so its image digest is the
  // zero-pool digest with the lines the check wrote folded in.
  ImageDigest zero_digest;
  if (cache != nullptr) {
    zero_digest = ReplayCursor::HashZeroPool(pool_size).digest;
  }
  std::atomic<uint64_t> executions{0};
  // One check on a lane's recycled pool: re-execute to the point, commit
  // the graceful crash in place, then probe and run the oracle on the
  // pool's own bytes (RunOracle's undo log hands them back unchanged).
  // Nothing is copied or hashed beyond the lines the workload wrote, and
  // the caller's Reset() zeroes only those.
  auto check = [&](uint32_t lane, PmPool& pool, size_t index,
                   bool may_defer) {
    const ReplayPoint& assigned = points[index];
    const auto run_start = Clock::now();
    ScopedSpan run_span(options_.tracer, "inject", "injection", lane + 1);
    run_span.AddArg("failure_point", uint64_t{assigned.node});
    TargetPtr target = factory_();
    FailurePointSink sink(tree, FailurePointSink::Mode::kInjectAt,
                          options_.granularity);
    sink.set_inject_target(assigned.node, assigned.seq);
    std::optional<CrashSignal> crash;
    try {
      ScopedSink attach_sink(pool.hub(), &sink);
      ExecuteWorkload(*target, pool, spec_);
    } catch (const CrashSignal& signal) {
      crash = signal;
    }
    executions.fetch_add(1, std::memory_order_relaxed);
    if (!crash.has_value()) {
      // Unreachable path (should not happen: executions are
      // deterministic). An attempt without a check.
      tree->MarkVisited(assigned.node);
      InjectionMetrics::Add(ledger.metrics().attempted);
      return;
    }
    const ReplayPoint point{assigned.node, crash->seq};
    run_span.AddArg("seq", point.seq);
    // Graceful crash image: pending stores persisted, program order
    // respected (§4.1).
    pool.CrashGracefully();
    const std::span<uint8_t> image = pool.model().mutable_durable_bytes();
    const DedupProbe probe =
        checker.Probe(image.data(), image.size(), [&] {
          return DigestOverZeroPool(zero_digest, image.data(), image.size(),
                                    pool.model().written_lines());
        });
    if (probe.hit) {
      checker.Hit(lane, point, probe, {}, run_start);
    } else if (!may_defer || !checker.DeferOrClaim(index, point, image.data(),
                                                   image.size(), probe)) {
      checker.Run(lane, point, image, probe, {}, run_start);
    }
  };
  // Each lane owns one pool for its whole lifetime; lane 0 is the calling
  // thread, and its pool also serves the deferred checks after the join.
  std::atomic<size_t> next{0};
  auto lane = [&](uint32_t lane_index, PmPool& pool) {
    for (;;) {
      const size_t index = next.fetch_add(1, std::memory_order_relaxed);
      if (index >= points.size() || !ledger.Admit()) {
        return;
      }
      check(lane_index, pool, index, /*may_defer=*/true);
      pool.Reset();
    }
  };
  PmPool lane0_pool(pool_size);
  std::vector<std::thread> threads;
  for (uint32_t i = 1; i < lanes; ++i) {
    threads.emplace_back([&, i] {
      PmPool pool(pool_size);
      lane(i, pool);
    });
  }
  lane(0, lane0_pool);
  for (std::thread& thread : threads) {
    thread.join();
  }
  checker.ResolveDeferred({}, [&](size_t index) {
    check(0, lane0_pool, index, /*may_defer=*/false);
    lane0_pool.Reset();
  });
  stats->executions += executions.load();
}

void FaultInjectionEngine::InjectReplay(
    const std::vector<ReplayPoint>& schedule, VerdictLedger& ledger,
    FaultInjectionStats* stats, RecoverySandbox* sandbox,
    VerdictCache* cache) {
  stats->replay_trace_bytes = replay_trace_.FootprintBytes();

  // Adaptive plan (src/core/injection_schedule.h): with the planner off
  // this is the identity — one check per schedule point, seq order, no
  // classmates. With --prune-equiv, classes of provably image-identical
  // points collapse to their representative (the ledger fans its verdict
  // out to the classmates); with --rank, checks leave seq order for the
  // ranked dispatch branch below.
  InjectionPlanOptions plan_options;
  plan_options.prune_equiv = options_.prune_equiv;
  plan_options.rank = options_.rank;
  plan_options.findings = options_.rank_findings;
  InjectionPlan plan =
      BuildInjectionPlan(schedule, epoch_summaries_, plan_options);
  std::vector<ReplayPoint> points;
  std::vector<std::vector<ReplayPoint>> classmates;
  points.reserve(plan.checks.size());
  classmates.reserve(plan.checks.size());
  for (PlannedCheck& check : plan.checks) {
    points.push_back(check.point);
    classmates.push_back(std::move(check.classmates));
  }
  stats->plan_finding_hits = plan.finding_hits;
  InjectionMetrics& im = ledger.metrics();
  InjectionMetrics::Add(im.rank_finding_hits, plan.finding_hits);

  const uint32_t thread_count = static_cast<uint32_t>(std::max<size_t>(
      1, std::min<size_t>(options_.workers, points.size())));
  if (options_.metrics != nullptr) {
    options_.metrics->GetGauge("inject.workers")->Set(thread_count);
    options_.metrics->GetGauge("inject.replay_trace_bytes")
        ->Set(stats->replay_trace_bytes);
  }

  // Crash images are synthesized by forward-only cursors — no workload
  // re-execution, no call-stack matching — and every in-process check
  // recovers in place on its cursor's image (RunOracle's undo log hands the
  // bytes back unchanged), so no check copies a pool.
  Checker checker(&ledger, cache, sandbox, factory_, options_.tracer,
                  thread_count);
  auto process_point = [&](uint32_t lane, size_t i, std::span<uint8_t> image,
                           const DedupProbe& probe) {
    const auto run_start = Clock::now();
    ScopedSpan run_span(options_.tracer, "inject", "injection", lane + 1);
    run_span.AddArg("failure_point", uint64_t{points[i].node});
    run_span.AddArg("seq", points[i].seq);
    checker.Run(lane, points[i], image, probe, classmates[i], run_start);
  };
  auto record_hit = [&](uint32_t lane, size_t i, const DedupProbe& probe) {
    checker.Hit(lane, points[i], probe, classmates[i], Clock::now());
  };
  auto defer_or_claim = [&](size_t i, const std::vector<uint8_t>& image,
                            const DedupProbe& probe) {
    return checker.DeferOrClaim(i, points[i], image.data(), image.size(),
                                probe);
  };

  // Every cursor starts from the zeroed pool; with dedup on they share one
  // hash of it instead of each rehashing every line.
  std::optional<ReplayCursor::ZeroDigest> zero;
  if (cache != nullptr) {
    zero = ReplayCursor::HashZeroPool(profiled_pool_size_);
  }
  auto fresh_cursor = [&] {
    return zero.has_value()
               ? ReplayCursor(replay_trace_, profiled_pool_size_, *zero)
               : ReplayCursor(replay_trace_, profiled_pool_size_);
  };
  // Checkpoints for the paths that seek: ranked dispatch (every check
  // starts from one) and the pipelined fork-server's deferred resolver.
  // The lane loop never seeks — its deferred points resolve from the cache
  // — so it pays no pool-sized checkpoint copies.
  const bool pipelined_server =
      thread_count > 1 && sandbox != nullptr &&
      sandbox->policy() == SandboxPolicy::kForkServer;
  const bool seeks =
      !plan.seq_ordered || (pipelined_server && cache != nullptr);
  ReplaySeekIndex seek_index(&replay_trace_,
                             seeks ? options_.seek_checkpoints : 0);
  // Deferred points resolve in seq order, so one cursor serves every one
  // whose digest missed; the seek index places it just before the first.
  auto resolve_deferred = [&] {
    std::unique_ptr<ReplayCursor> fallback;
    checker.ResolveDeferred(classmates, [&](size_t i) {
      if (fallback == nullptr) {
        size_t skipped = 0;
        fallback = seek_index.SeekCursor(points[i].seq, profiled_pool_size_,
                                         /*track_digest=*/true, &skipped);
        InjectionMetrics::Add(im.seek_skipped_events, skipped);
      }
      const std::vector<uint8_t>& image = fallback->AdvanceTo(points[i].seq);
      const DedupProbe fresh = checker.Probe(
          image.data(), image.size(), [&] { return fallback->Digest(); });
      if (fresh.hit) {
        record_hit(0, i, fresh);
        return;
      }
      process_point(0, i, fallback->borrow_image(), fresh);
    });
  };

  if (!plan.seq_ordered) {
    // Ranked dispatch (--rank): checks leave seq order, which a forward-
    // only cursor cannot feed. Instead one capture prepass walks the trace
    // once to populate the seek index, and every check then synthesizes
    // its image from the nearest checkpoint. This trades lane parallelism
    // for highest-expected-yield ordering: the point of ranking is
    // budgeted campaigns, where which checks run before the stop matters
    // more than aggregate throughput.
    {
      ReplayCursor scout = fresh_cursor();
      for (const ReplayPoint& point : schedule) {
        scout.AdvanceTo(point.seq);
        seek_index.MaybeCapture(scout);
      }
    }
    for (size_t i = 0; i < points.size() && ledger.Admit(); ++i) {
      size_t skipped = 0;
      std::unique_ptr<ReplayCursor> synth =
          seek_index.SeekCursor(points[i].seq, profiled_pool_size_,
                                /*track_digest=*/cache != nullptr, &skipped);
      InjectionMetrics::Add(im.seek_skipped_events, skipped);
      const std::vector<uint8_t>& image = synth->AdvanceTo(points[i].seq);
      const DedupProbe probe = checker.Probe(
          image.data(), image.size(), [&] { return synth->Digest(); });
      if (probe.hit) {
        record_hit(0, i, probe);
        continue;
      }
      process_point(0, i, synth->borrow_image(), probe);
    }
  } else if (pipelined_server) {
    // Pipelined fork-server: the worker *processes* are the parallelism,
    // so no lane threads are needed. This one thread streams the cursor,
    // writes each image directly into a free slot's shared buffer, and
    // dispatches the check without blocking (StartServerCheck); up to
    // `thread_count` workers then run recovery concurrently. Verdicts are
    // collected in dispatch order — head-of-line collection is harmless
    // because a slow check keeps only its own worker busy, and
    // FinishServerCheck drains verdicts that arrived while we waited.
    ReplayCursor cursor = fresh_cursor();
    struct InFlight {
      size_t index = 0;
      Clock::time_point dispatched;
      // Pending cache insert for this check. Verify mode keeps its own
      // image copy in the probe: recovery writes through to the slot's
      // shared buffer, so the slot bytes are stale by collection time.
      DedupProbe probe;
    };
    std::vector<InFlight> inflight(thread_count);
    std::deque<uint32_t> collect_order;  // slots with a dispatched check
    std::vector<bool> busy(thread_count, false);
    // In-flight depth is capped at the core count: checks beyond it cannot
    // run concurrently anyway, and each extra in-flight slot rotates
    // another full-size image buffer through the cache between the memcpy
    // and the worker's recovery pass, evicting the hot one. Excess lanes
    // simply stay idle (their workers were spawned but sit blocked in
    // read(), costing nothing).
    const uint32_t hw = std::thread::hardware_concurrency();
    const size_t depth =
        std::min<size_t>(thread_count, hw == 0 ? thread_count : hw);

    auto collect_oldest = [&] {
      const uint32_t slot = collect_order.front();
      collect_order.pop_front();
      JournalVerdict verdict =
          VerdictFromSandbox(sandbox->FinishServerCheck(slot));
      busy[slot] = false;
      const InFlight& check = inflight[slot];
      const uint64_t wall_us = verdict.wall_us;
      checker.Land(slot, points[check.index], std::move(verdict),
                   check.probe, classmates[check.index],
                   Micros(check.dispatched, Clock::now()), wall_us);
    };

    for (size_t i = 0; i < points.size() && ledger.Admit(); ++i) {
      // Probe the cache before claiming a slot: a hit dispatches nothing,
      // so it neither blocks on collect_oldest() nor occupies a lane.
      const std::vector<uint8_t>& image = cursor.AdvanceTo(points[i].seq);
      seek_index.MaybeCapture(cursor);
      DedupProbe probe = checker.Probe(image.data(), image.size(),
                                       [&] { return cursor.Digest(); });
      if (probe.hit) {
        record_hit(0, i, probe);
        continue;
      }
      if (defer_or_claim(i, image, probe)) {
        continue;  // twin of an in-flight check: attributed after the drain
      }
      if (collect_order.size() == depth) {
        collect_oldest();  // all usable lanes busy: free the oldest
      }
      uint32_t slot = 0;
      while (busy[slot]) {
        ++slot;
      }
      std::memcpy(sandbox->ImageBuffer(slot), image.data(), image.size());
      ledger.Dispatch(slot, points[i]);
      SandboxVerdict error;
      if (!sandbox->StartServerCheck(slot, /*data=*/nullptr, image.size(),
                                     &error)) {
        // No worker available: the error verdict IS the outcome. Not an
        // image-determined verdict, so it is never cached (twins deferred
        // on its digest miss at resolution and get their own check).
        checker.Land(slot, points[i], VerdictFromSandbox(error), DedupProbe(),
                     classmates[i], 0, 0);
        continue;
      }
      inflight[slot] = {i, Clock::now(), std::move(probe)};
      busy[slot] = true;
      collect_order.push_back(slot);
    }
    while (!collect_order.empty()) {
      collect_oldest();
    }
    resolve_deferred();
  } else {
    // Lanes: each owns a cursor and claims chunks of consecutive checks
    // from a shared counter, so its cursor only moves forward; lane 0 is
    // the calling thread. Each lane walks the trace once — O(lanes × trace)
    // synthesis in total — and probes, defers and runs its own checks, so
    // nothing crosses threads per check but the cache and the pending map.
    const size_t chunk = std::max<size_t>(
        1, points.size() / (size_t{thread_count} * kChunksPerLane));
    std::atomic<size_t> next_chunk{0};
    auto lane = [&](uint32_t lane_index) {
      ReplayCursor cursor = fresh_cursor();
      for (size_t begin = next_chunk.fetch_add(chunk);
           begin < points.size(); begin = next_chunk.fetch_add(chunk)) {
        const size_t end = std::min(points.size(), begin + chunk);
        for (size_t i = begin; i < end; ++i) {
          if (!ledger.Admit()) {
            return;
          }
          const std::vector<uint8_t>& image = cursor.AdvanceTo(points[i].seq);
          const DedupProbe probe = checker.Probe(
              image.data(), image.size(), [&] { return cursor.Digest(); });
          if (probe.hit) {
            record_hit(lane_index, i, probe);
          } else if (!defer_or_claim(i, image, probe)) {
            process_point(lane_index, i, cursor.borrow_image(), probe);
          }
        }
      }
    };
    std::vector<std::thread> threads;
    for (uint32_t i = 1; i < thread_count; ++i) {
      threads.emplace_back(lane, i);
    }
    lane(0);
    for (std::thread& thread : threads) {
      thread.join();
    }
    resolve_deferred();
  }
}

Report FaultInjectionEngine::Run(FaultInjectionStats* stats) {
  FailurePointTree tree = Profile();
  ++stats->executions;
  return InjectAll(&tree, stats);
}

}  // namespace mumak
