#include "src/core/fault_injection.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
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
  out.oracle_ran = verdict.oracle_ran;
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
};

// The two image sources the lane loop runs over; each lane owns one. For
// one planned point a source makes the graceful crash image (Produce,
// which returns the point actually crashed at, or nothing when the point
// was unreachable), digests it in O(lines changed) (Digest), lends its own
// bytes to the oracle (image) and readies itself for the next point
// (Release).

// Re-execution (§4.1): the lane's recycled pool re-runs the workload to the
// point's first-hit seq (call-stack matching for points this engine never
// profiled) and commits the graceful crash in place. Every run starts from
// a zeroed pool, so the digest folds only the lines the run wrote into the
// zero-pool digest, and Reset zeroes only those lines again.
struct ReExecuteSource {
  const TargetFactory& factory;
  const WorkloadSpec& spec;
  FailurePointGranularity granularity;
  FailurePointTree* tree;
  PmPool pool;
  const ImageDigest& zero;
  InjectionMetrics& metrics;
  std::atomic<uint64_t>& executions;

  std::optional<ReplayPoint> Produce(const ReplayPoint& assigned) {
    TargetPtr target = factory();
    FailurePointSink sink(tree, FailurePointSink::Mode::kInjectAt,
                          granularity);
    sink.set_inject_target(assigned.node, assigned.seq);
    std::optional<CrashSignal> crash;
    try {
      ScopedSink attach_sink(pool.hub(), &sink);
      FaultInjectionEngine::ExecuteWorkload(*target, pool, spec);
    } catch (const CrashSignal& signal) {
      crash = signal;
    }
    executions.fetch_add(1, std::memory_order_relaxed);
    if (!crash.has_value()) {
      // Unreachable path (should not happen: executions are
      // deterministic). An attempt without a check.
      tree->MarkVisited(assigned.node);
      InjectionMetrics::Add(metrics.attempted);
      return std::nullopt;
    }
    // Graceful crash image: pending stores persisted, program order
    // respected (§4.1).
    pool.CrashGracefully();
    return ReplayPoint{assigned.node, crash->seq};
  }

  std::span<uint8_t> image() { return pool.model().mutable_durable_bytes(); }

  ImageDigest Digest() {
    return DigestOverZeroPool(zero, image().data(), image().size(),
                              pool.model().written_lines());
  }

  void Release() { pool.Reset(); }
};

// Replay: the lane's cursor synthesizes each image from the profiled trace
// by patching forward, with no re-execution. A point behind the cursor (a
// ranked plan's next check, or a deferred recheck) re-seeks from the
// nearest checkpoint at or before it.
struct ReplaySource {
  std::unique_ptr<ReplayCursor> cursor;
  const ReplaySeekIndex& seek_index;
  size_t pool_size;
  InjectionMetrics& metrics;
  uint64_t seq = 0;  // the point the cursor was last advanced to

  std::optional<ReplayPoint> Produce(const ReplayPoint& point) {
    if (point.seq < seq) {
      size_t skipped = 0;
      cursor = seek_index.SeekCursor(point.seq, pool_size,
                                     cursor->tracks_digest(), &skipped);
      InjectionMetrics::Add(metrics.seek_skipped_events, skipped);
    }
    cursor->AdvanceTo(point.seq);
    seq = point.seq;
    return point;
  }

  std::span<uint8_t> image() { return cursor->borrow_image(); }
  ImageDigest Digest() { return cursor->Digest(); }
  void Release() {}
};

// The check pipeline of every injection path in this process (the fleet
// worker keeps its own loop): lanes over per-lane image sources, and per
// check the probe, the deferral of twins of an in-flight digest, the oracle
// and the verdict.
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

  // The one lane loop. Lanes claim plan indices one at a time from one
  // shared counter, so each lane's indices only grow and a seq-ordered plan
  // moves its source forward only; lane 0 is the calling thread. Each
  // lane produces, probes, defers and runs its own checks (sandboxed: in
  // slot `lane`), so nothing crosses threads per check but the cache and
  // the pending-digest map. After the join, deferred checks resolve on
  // lane 0's source. `classmates` is indexed like `points`; `make_source`
  // builds one lane's image source and runs on that lane's thread.
  template <typename MakeSource>
  void CheckLanes(std::span<const ReplayPoint> points,
                  std::span<const std::vector<ReplayPoint>> classmates,
                  MakeSource&& make_source) {
    using Source = decltype(make_source());
    auto check = [&](uint32_t lane, Source& source, size_t i,
                     bool may_defer) {
      const auto run_start = Clock::now();
      ScopedSpan run_span(tracer_, "inject", "injection", lane + 1);
      run_span.AddArg("failure_point", uint64_t{points[i].node});
      if (const std::optional<ReplayPoint> point = source.Produce(points[i])) {
        run_span.AddArg("seq", point->seq);
        const std::span<uint8_t> image = source.image();
        const DedupProbe probe = Probe(source);
        if (probe.hit) {
          Hit(lane, *point, probe, classmates[i], run_start);
        } else if (!may_defer || !DeferOrClaim(i, *point, image, probe)) {
          Run(lane, *point, image, probe, classmates[i], run_start);
        }
      }
      source.Release();
    };
    std::atomic<size_t> next{0};
    auto lane = [&](uint32_t lane_index, Source& source) {
      for (size_t i = next++; i < points.size() && ledger_->Admit();
           i = next++) {
        check(lane_index, source, i, /*may_defer=*/true);
      }
    };
    std::vector<std::thread> threads;
    for (uint32_t i = 1; i < lanes_; ++i) {
      threads.emplace_back([&, i] {
        Source source = make_source();
        lane(i, source);
      });
    }
    Source lane0 = make_source();
    lane(0, lane0);
    for (std::thread& thread : threads) {
      thread.join();
    }
    ResolveDeferred(classmates, [&](size_t i) {
      check(0, lane0, i, /*may_defer=*/false);
    });
  }

 private:
  struct PendingDigest {
    std::vector<std::pair<size_t, ReplayPoint>> waiters;
    std::shared_ptr<const std::vector<uint8_t>> bytes;  // verify mode only
  };

  // Digest + lookup of the source's current image.
  template <typename Source>
  DedupProbe Probe(Source& source) {
    DedupProbe probe;
    if (cache_ == nullptr) {
      return probe;  // dedup off: run the oracle, cache nothing
    }
    InjectionMetrics& im = ledger_->metrics();
    const std::span<const uint8_t> image = source.image();
    const auto digest_start = Clock::now();
    probe.digest = source.Digest();
    InjectionMetrics::Observe(im.digest_us,
                              Micros(digest_start, Clock::now()));
    switch (cache_->Lookup(probe.digest, image.data(), image.size(),
                           &probe.cached)) {
      case VerdictCache::Outcome::kHit:
        probe.hit = true;  // the ledger counts it when the verdict lands
        break;
      case VerdictCache::Outcome::kMiss:
        probe.insert = true;
        break;
      case VerdictCache::Outcome::kCollision:
        InjectionMetrics::Add(im.dedup_collisions);
        break;
    }
    return probe;
  }

  // A cache hit: the point is injected (visited, counted) but no oracle
  // runs.
  void Hit(uint32_t lane, const ReplayPoint& point, const DedupProbe& probe,
           const std::vector<ReplayPoint>& classmates,
           Clock::time_point run_start) {
    ledger_->Dispatch(lane, point);
    Land(lane, point, VerdictFromCache(probe.cached, probe.digest),
         classmates, run_start);
  }

  // A miss: dispatch, run the oracle on `image` (in sandbox slot `lane`
  // when sandboxed, in place otherwise — see RunOracle), commit the pending
  // cache insert from the same bytes (the oracle leaves them as they were)
  // and land the verdict.
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
    InjectionMetrics::Observe(ledger_->metrics().recovery_us,
                              Micros(recovery_start, now));
    // A verdict the sandbox could not run says nothing about the image:
    // leave it uncached, so twins deferred on it are rechecked.
    if (probe.insert && verdict.oracle_ran) {
      cache_->Insert(probe.digest, CacheEntryFromVerdict(verdict, point.seq),
                     image.data(), image.size());
      InjectionMetrics::Add(ledger_->metrics().distinct_images);
    }
    Land(lane, point, std::move(verdict), classmates, run_start);
  }

  // The verdict of a dispatched check: the run histogram, then the ledger.
  void Land(uint32_t lane, const ReplayPoint& point, JournalVerdict verdict,
            const std::vector<ReplayPoint>& classmates,
            Clock::time_point run_start) {
    InjectionMetrics::Observe(ledger_->metrics().run_us,
                              Micros(run_start, Clock::now()));
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
                    std::span<const uint8_t> image, const DedupProbe& probe) {
    if (cache_ == nullptr || lanes_ == 1) {
      return false;
    }
    std::lock_guard<std::mutex> lock(pending_mutex_);
    const auto it = pending_.find(probe.digest);
    if (it == pending_.end()) {
      if (probe.insert) {
        PendingDigest entry;
        if (cache_->verify()) {
          entry.bytes = std::make_shared<const std::vector<uint8_t>>(
              image.begin(), image.end());
        }
        pending_.emplace(probe.digest, std::move(entry));
      }
      return false;
    }
    if (cache_->verify() && it->second.bytes != nullptr &&
        !std::equal(image.begin(), image.end(), it->second.bytes->begin(),
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
  // still miss here if the sandbox could not run the original's oracle (no
  // verdict was inserted); `recheck(index)` then runs that one check.
  template <typename Recheck>
  void ResolveDeferred(std::span<const std::vector<ReplayPoint>> classmates,
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
        Hit(0, d.point, probe, classmates[d.index], Clock::now());
        continue;
      }
      recheck(d.index);
    }
    pending_.clear();
  }

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
  const std::vector<ReplayPoint> schedule = BuildReplaySchedule(*tree);
  // One ledger lane per worker. Progress counts every point: replay covers
  // the profiled schedule, re-execution also the points it matches by call
  // stack.
  VerdictLedger ledger(options_, tree, std::max<uint32_t>(1, options_.workers),
                       resume_schedule_,
                       replay ? schedule.size() : tree->UnvisitedCount());
  Inject(replay, schedule, ledger, tree, stats, sandbox_ptr, cache);
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

void FaultInjectionEngine::Inject(bool replay,
                                  const std::vector<ReplayPoint>& schedule,
                                  VerdictLedger& ledger,
                                  FailurePointTree* tree,
                                  FaultInjectionStats* stats,
                                  RecoverySandbox* sandbox,
                                  VerdictCache* cache) {
  // Adaptive plan (src/core/injection_schedule.h): with the planner off
  // this is the identity — one check per schedule point, seq order, no
  // classmates. With --prune-equiv, classes of provably image-identical
  // points collapse to their representative (the ledger fans its verdict
  // out to the classmates); only replayed images are proven identical, so
  // re-execution never prunes. With --rank, checks leave seq order for
  // detector-guided order: finding overlap, then epoch store density, then
  // seq.
  InjectionPlanOptions plan_options;
  plan_options.prune_equiv = replay && options_.prune_equiv;
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
  if (!replay) {
    // Points this engine never profiled (a tree built by another engine)
    // go last and are matched by call stack instead of instruction counter.
    for (const FailurePointTree::NodeIndex node : tree->UnvisitedNodes()) {
      if (first_seq_.find(node) == first_seq_.end()) {
        points.push_back({node, FailurePointSink::kNoSeq});
        classmates.emplace_back();
      }
    }
  }

  // A ranked replay plan runs on one lane: its checks leave seq order, so
  // every lane's cursor would keep seeking back, and the point of ranking
  // is budgeted campaigns, where which checks run before the stop matters
  // more than aggregate throughput.
  const uint32_t lanes =
      replay && !plan.seq_ordered
          ? 1
          : static_cast<uint32_t>(std::max<size_t>(
                1, std::min<size_t>(options_.workers, points.size())));
  if (options_.metrics != nullptr) {
    options_.metrics->GetGauge("inject.workers")->Set(lanes);
  }
  Checker checker(&ledger, cache, sandbox, factory_, options_.tracer, lanes);

  if (!replay) {
    // The tree is read-only to the executions (kInjectAt only Finds) and
    // each point is claimed by exactly one lane, so lanes share it without
    // locking.
    const size_t pool_size = factory_()->DefaultPoolSize();
    ImageDigest zero_digest;
    if (cache != nullptr) {
      zero_digest = ReplayCursor::HashZeroPool(pool_size).digest;
    }
    std::atomic<uint64_t> executions{0};
    checker.CheckLanes(points, classmates, [&] {
      return ReExecuteSource{factory_, spec_, options_.granularity, tree,
                             PmPool(pool_size), zero_digest, im, executions};
    });
    stats->executions += executions.load();
    return;
  }

  stats->replay_trace_bytes = replay_trace_.FootprintBytes();
  if (options_.metrics != nullptr) {
    options_.metrics->GetGauge("inject.replay_trace_bytes")
        ->Set(stats->replay_trace_bytes);
  }
  // Crash images are synthesized by cursors — no workload re-execution, no
  // call-stack matching — and every in-process check recovers in place on
  // its cursor's image (RunOracle's undo log hands the bytes back
  // unchanged), so no check copies a pool. Every cursor starts from the
  // zeroed pool; with dedup on they share one hash of it instead of each
  // rehashing every line.
  std::optional<ReplayCursor::ZeroDigest> zero;
  if (cache != nullptr) {
    zero = ReplayCursor::HashZeroPool(profiled_pool_size_);
  }
  auto fresh_cursor = [&] {
    return zero.has_value()
               ? std::make_unique<ReplayCursor>(replay_trace_,
                                                profiled_pool_size_, *zero)
               : std::make_unique<ReplayCursor>(replay_trace_,
                                                profiled_pool_size_);
  };
  // Only a ranked plan steps back, so only it pays for checkpoints: one
  // capture prepass walks the trace once to populate the seek index, and a
  // check behind its cursor then resumes from the nearest checkpoint. A
  // seq-ordered plan steps back only to recheck a deferred twin whose
  // original failed, which starts from zero.
  ReplaySeekIndex seek_index(&replay_trace_,
                             plan.seq_ordered ? 0 : options_.seek_checkpoints);
  if (!plan.seq_ordered) {
    const std::unique_ptr<ReplayCursor> scout = fresh_cursor();
    for (const ReplayPoint& point : schedule) {
      scout->AdvanceTo(point.seq);
      seek_index.MaybeCapture(*scout);
    }
  }
  checker.CheckLanes(points, classmates, [&] {
    return ReplaySource{fresh_cursor(), seek_index, profiled_pool_size_, im};
  });
}

Report FaultInjectionEngine::Run(FaultInjectionStats* stats) {
  FailurePointTree tree = Profile();
  ++stats->executions;
  return InjectAll(&tree, stats);
}

}  // namespace mumak
