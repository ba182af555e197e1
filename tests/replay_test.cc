// Replay-based injection equivalence: crash images synthesized from the
// profiled trace (ReplayCursor / InjectionStrategy::kReplay) must match the
// images — and the reports — that per-failure-point workload re-execution
// produces. A graceful crash is a deterministic program-order prefix
// (§4.1), so at persistency-instruction granularity the two strategies are
// interchangeable; these tests pin that property across three targets.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/core/fault_injection.h"
#include "src/pmem/replay_cursor.h"
#include "src/targets/target.h"

namespace mumak {
namespace {

WorkloadSpec SmallSpec() {
  WorkloadSpec spec;
  spec.operations = 120;
  spec.key_space = 30;
  return spec;
}

TargetFactory Factory(const std::string& name, const TargetOptions& options) {
  return [name, options]() -> TargetPtr { return CreateTarget(name, options); };
}

// Runs Profile + InjectAll with the given strategy/worker count and
// returns the report.
Report RunInjection(const std::string& target, const TargetOptions& options,
                    const WorkloadSpec& spec, InjectionStrategy strategy,
                    uint32_t workers, FaultInjectionStats* stats) {
  FaultInjectionOptions fi;
  fi.strategy = strategy;
  fi.workers = workers;
  FaultInjectionEngine engine(Factory(target, options), spec, fi);
  FailurePointTree tree = engine.Profile();
  return engine.InjectAll(&tree, stats);
}

// For every failure point the profiling run discovered, the replayed
// graceful image must be byte-identical to the one obtained by re-executing
// the workload and crashing at that point.
TEST(ReplayEquivalence, ByteIdenticalImagesPerFailurePoint) {
  for (const char* name : {"btree", "hashmap_tx", "fast_fair"}) {
    SCOPED_TRACE(name);
    TargetOptions options;
    options.pmdk_version = PmdkVersion::k16;
    const WorkloadSpec spec = SmallSpec();
    const TargetFactory factory = Factory(name, options);

    FaultInjectionOptions fi;
    fi.strategy = InjectionStrategy::kReplay;
    FaultInjectionEngine engine(factory, spec, fi);
    FailurePointTree tree = engine.Profile();
    ASSERT_TRUE(engine.replay_ready());
    ASSERT_EQ(engine.first_hit_seq().size(), tree.FailurePointCount());

    // The injection schedule: every failure point at its first occurrence,
    // in instruction-counter order (one forward cursor pass covers all).
    std::vector<std::pair<uint64_t, FailurePointTree::NodeIndex>> points;
    for (const auto& [node, seq] : engine.first_hit_seq()) {
      points.emplace_back(seq, node);
    }
    std::sort(points.begin(), points.end());
    ASSERT_FALSE(points.empty());

    ReplayCursor cursor(engine.replay_trace(), engine.profiled_pool_size());
    for (const auto& [seq, node] : points) {
      const std::vector<uint8_t>& replayed = cursor.AdvanceTo(seq);

      TargetPtr target = factory();
      PmPool pool(target->DefaultPoolSize());
      FailurePointSink sink(&tree, FailurePointSink::Mode::kInjectAt,
                            fi.granularity);
      sink.set_inject_target(node, seq);
      bool crashed = false;
      std::vector<uint8_t> reexecuted;
      try {
        ScopedSink attach(pool.hub(), &sink);
        FaultInjectionEngine::ExecuteWorkload(*target, pool, spec);
      } catch (const CrashSignal& signal) {
        crashed = true;
        EXPECT_EQ(signal.seq, seq);
        reexecuted = pool.GracefulImage();
      }
      ASSERT_TRUE(crashed) << "no crash at seq " << seq;
      ASSERT_TRUE(replayed == reexecuted)
          << "image mismatch at seq " << seq << " (node " << node << ")";
    }
  }
}

// A cursor resumed from a checkpoint produces the same images as one that
// consumed the whole prefix itself — the contract behind the parallel
// scout pass (workers share one logical trace walk).
TEST(ReplayCursorTest, CheckpointResumeMatchesFreshCursor) {
  TargetOptions options;
  options.pmdk_version = PmdkVersion::k16;
  FaultInjectionOptions fi;
  fi.strategy = InjectionStrategy::kReplay;
  FaultInjectionEngine engine(Factory("btree", options), SmallSpec(), fi);
  FailurePointTree tree = engine.Profile();
  ASSERT_TRUE(engine.replay_ready());

  std::vector<uint64_t> seqs;
  for (const auto& [node, seq] : engine.first_hit_seq()) {
    seqs.push_back(seq);
  }
  std::sort(seqs.begin(), seqs.end());
  ASSERT_GT(seqs.size(), 4u);
  const size_t mid = seqs.size() / 2;

  ReplayCursor scout(engine.replay_trace(), engine.profiled_pool_size());
  scout.AdvanceTo(seqs[mid - 1]);
  ReplayCursor resumed(engine.replay_trace(), scout.MakeCheckpoint());
  ReplayCursor fresh(engine.replay_trace(), engine.profiled_pool_size());
  for (size_t i = mid; i < seqs.size(); ++i) {
    const std::vector<uint8_t>& a = resumed.AdvanceTo(seqs[i]);
    const std::vector<uint8_t>& b = fresh.AdvanceTo(seqs[i]);
    ASSERT_TRUE(a == b) << "checkpoint divergence at seq " << seqs[i];
  }
}

// The incremental per-line digest must agree, at every failure point, with
// a from-scratch hash of the same bytes — the correctness contract behind
// content-addressed verdict deduplication.
TEST(ReplayCursorTest, IncrementalDigestMatchesFullRehash) {
  for (const char* name : {"btree", "hashmap_tx"}) {
    SCOPED_TRACE(name);
    TargetOptions options;
    options.pmdk_version = PmdkVersion::k16;
    FaultInjectionOptions fi;
    fi.strategy = InjectionStrategy::kReplay;
    FaultInjectionEngine engine(Factory(name, options), SmallSpec(), fi);
    FailurePointTree tree = engine.Profile();
    ASSERT_TRUE(engine.replay_ready());

    std::vector<uint64_t> seqs;
    for (const auto& [node, seq] : engine.first_hit_seq()) {
      seqs.push_back(seq);
    }
    std::sort(seqs.begin(), seqs.end());
    ASSERT_FALSE(seqs.empty());

    ReplayCursor cursor(engine.replay_trace(), engine.profiled_pool_size(),
                        /*track_digest=*/true);
    ASSERT_TRUE(cursor.tracks_digest());
    // Initial (zeroed) image first, then every failure point.
    EXPECT_EQ(cursor.Digest(),
              ComputeContentDigest(cursor.image().data(),
                                   cursor.image().size()));
    for (const uint64_t seq : seqs) {
      const std::vector<uint8_t>& image = cursor.AdvanceTo(seq);
      const ImageDigest expected =
          ComputeContentDigest(image.data(), image.size());
      ASSERT_EQ(cursor.Digest(), expected)
          << "digest divergence at seq " << seq;
      // Digest() is settle-and-cache, not consume: a second read agrees.
      ASSERT_EQ(cursor.Digest(), expected);
    }
  }
}

// In-process checks recover in place on the cursor's own image. After each
// one the bytes must be exactly what the cursor synthesized (an untouched
// twin cursor is the reference) and the incremental digest must still
// equal a full rehash — the next AdvanceTo/Digest builds on both.
TEST(ReplayCursorTest, InPlaceChecksLeaveImageAndDigestIntact) {
  for (const char* name : {"btree", "hashmap_tx", "fast_fair"}) {
    SCOPED_TRACE(name);
    TargetOptions options;
    options.pmdk_version = PmdkVersion::k16;
    const TargetFactory factory = Factory(name, options);
    FaultInjectionOptions fi;
    fi.strategy = InjectionStrategy::kReplay;
    FaultInjectionEngine engine(factory, SmallSpec(), fi);
    FailurePointTree tree = engine.Profile();
    const std::vector<ReplayPoint> schedule = engine.BuildReplaySchedule(tree);
    ASSERT_FALSE(schedule.empty());

    ReplayCursor cursor(engine.replay_trace(), engine.profiled_pool_size(),
                        /*track_digest=*/true);
    ReplayCursor reference(engine.replay_trace(),
                           engine.profiled_pool_size());
    size_t recoveries_that_wrote = 0;
    for (const ReplayPoint& point : schedule) {
      cursor.AdvanceTo(point.seq);
      reference.AdvanceTo(point.seq);
      {
        // Evidence that the checks below exercise the undo log: recovery
        // on a disposable copy commits durable lines at some points.
        std::vector<uint8_t> copy = cursor.image();
        PmPool pool = PmPool::FromBorrowedImage(copy.data(), copy.size());
        TargetPtr fresh = factory();
        RunRecoveryOracle(*fresh, pool);
        recoveries_that_wrote += copy != cursor.image() ? 1 : 0;
      }
      RunOracle(/*sandbox=*/nullptr, 0, factory, cursor.borrow_image());
      ASSERT_EQ(cursor.image(), reference.image())
          << "recovery left bytes behind at seq " << point.seq;
      ASSERT_EQ(cursor.Digest(), ComputeContentDigest(cursor.image().data(),
                                                      cursor.image().size()))
          << "digest divergence at seq " << point.seq;
    }
    EXPECT_GT(recoveries_that_wrote, 0u);
  }
}

// Distinct images must get distinct digests on a real trace walk (no
// accidental identity from the XOR accumulation).
TEST(ReplayCursorTest, DigestDistinguishesImagesAlongTheTrace) {
  TargetOptions options;
  options.pmdk_version = PmdkVersion::k16;
  FaultInjectionOptions fi;
  fi.strategy = InjectionStrategy::kReplay;
  FaultInjectionEngine engine(Factory("btree", options), SmallSpec(), fi);
  engine.Profile();
  ASSERT_TRUE(engine.replay_ready());

  std::vector<uint64_t> seqs;
  for (const auto& [node, seq] : engine.first_hit_seq()) {
    seqs.push_back(seq);
  }
  std::sort(seqs.begin(), seqs.end());

  ReplayCursor cursor(engine.replay_trace(), engine.profiled_pool_size(),
                      /*track_digest=*/true);
  std::vector<uint8_t> prev = cursor.image();
  ImageDigest prev_digest = cursor.Digest();
  size_t changed = 0;
  for (const uint64_t seq : seqs) {
    const std::vector<uint8_t>& image = cursor.AdvanceTo(seq);
    const ImageDigest digest = cursor.Digest();
    if (image != prev) {
      EXPECT_NE(digest, prev_digest) << "collision at seq " << seq;
      ++changed;
    } else {
      EXPECT_EQ(digest, prev_digest);
    }
    prev = image;
    prev_digest = digest;
  }
  EXPECT_GT(changed, 0u);
}

// Checkpoints carry the digest state: a cursor resumed from a tracking
// checkpoint keeps producing correct digests without the O(pool) rebuild.
TEST(ReplayCursorTest, CheckpointCarriesDigestState) {
  TargetOptions options;
  options.pmdk_version = PmdkVersion::k16;
  FaultInjectionOptions fi;
  fi.strategy = InjectionStrategy::kReplay;
  FaultInjectionEngine engine(Factory("btree", options), SmallSpec(), fi);
  engine.Profile();
  ASSERT_TRUE(engine.replay_ready());

  std::vector<uint64_t> seqs;
  for (const auto& [node, seq] : engine.first_hit_seq()) {
    seqs.push_back(seq);
  }
  std::sort(seqs.begin(), seqs.end());
  ASSERT_GT(seqs.size(), 4u);
  const size_t mid = seqs.size() / 2;

  ReplayCursor scout(engine.replay_trace(), engine.profiled_pool_size(),
                     /*track_digest=*/true);
  scout.AdvanceTo(seqs[mid - 1]);
  ReplayCursor resumed(engine.replay_trace(), scout.MakeCheckpoint());
  ASSERT_TRUE(resumed.tracks_digest());
  for (size_t i = mid; i < seqs.size(); ++i) {
    const std::vector<uint8_t>& image = resumed.AdvanceTo(seqs[i]);
    ASSERT_EQ(resumed.Digest(),
              ComputeContentDigest(image.data(), image.size()))
        << "resumed digest divergence at seq " << seqs[i];
  }

  // A checkpoint from a non-tracking cursor resumes without tracking.
  ReplayCursor plain(engine.replay_trace(), engine.profiled_pool_size());
  plain.AdvanceTo(seqs[0]);
  ReplayCursor plain_resumed(engine.replay_trace(), plain.MakeCheckpoint());
  EXPECT_FALSE(plain_resumed.tracks_digest());
}

// The rvalue MakeCheckpoint overload must steal the image buffer rather
// than copying it (the parallel scout hands each multi-MB slice boundary
// to exactly one worker).
TEST(ReplayCursorTest, MoveCheckpointStealsTheImageBuffer) {
  TargetOptions options;
  options.pmdk_version = PmdkVersion::k16;
  FaultInjectionOptions fi;
  fi.strategy = InjectionStrategy::kReplay;
  FaultInjectionEngine engine(Factory("btree", options), SmallSpec(), fi);
  engine.Profile();
  ASSERT_TRUE(engine.replay_ready());

  std::vector<uint64_t> seqs;
  for (const auto& [node, seq] : engine.first_hit_seq()) {
    seqs.push_back(seq);
  }
  std::sort(seqs.begin(), seqs.end());
  ASSERT_GT(seqs.size(), 2u);

  ReplayCursor scout(engine.replay_trace(), engine.profiled_pool_size(),
                     /*track_digest=*/true);
  scout.AdvanceTo(seqs[0]);
  const uint8_t* buffer = scout.image().data();
  const size_t consumed = scout.consumed();
  ReplayCursor::Checkpoint checkpoint = std::move(scout).MakeCheckpoint();
  // Moved, not copied: the checkpoint owns the scout's exact heap buffer.
  EXPECT_EQ(checkpoint.image.data(), buffer);
  EXPECT_EQ(checkpoint.next, consumed);
  EXPECT_FALSE(checkpoint.line_hashes.empty());

  // And the checkpoint is fully resumable, digests included.
  ReplayCursor resumed(engine.replay_trace(), std::move(checkpoint));
  ReplayCursor fresh(engine.replay_trace(), engine.profiled_pool_size(),
                     /*track_digest=*/true);
  for (size_t i = 1; i < seqs.size(); ++i) {
    const std::vector<uint8_t>& a = resumed.AdvanceTo(seqs[i]);
    const std::vector<uint8_t>& b = fresh.AdvanceTo(seqs[i]);
    ASSERT_TRUE(a == b);
    ASSERT_EQ(resumed.Digest(), fresh.Digest());
  }
}

// Both strategies must produce identical reports — same findings, same
// details, same locations, same triggering seqs — on buggy targets.
TEST(ReplayEquivalence, IdenticalReportsBetweenStrategies) {
  const struct {
    const char* target;
    const char* bug;
  } cases[] = {
      {"btree", "btree.split_unlogged"},
      {"hashmap_tx", "hashmap_tx.prepend_unlogged"},
      {"fast_fair", "ff.c1_sibling_link_first"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.target);
    TargetOptions options;
    options.pmdk_version = PmdkVersion::k16;
    options.bugs = {c.bug};
    // Large enough to trigger structural bugs (splits need enough inserts).
    WorkloadSpec spec;
    spec.operations = 300;
    spec.key_space = 50;

    FaultInjectionStats reexec_stats, replay_stats;
    const Report reexec = RunInjection(c.target, options, spec,
                                       InjectionStrategy::kReExecute, 1,
                                       &reexec_stats);
    const Report replay = RunInjection(c.target, options, spec,
                                       InjectionStrategy::kReplay, 1,
                                       &replay_stats);

    EXPECT_GT(reexec.BugCount(), 0u) << "bug " << c.bug << " not triggered";
    EXPECT_EQ(reexec_stats.failure_points, replay_stats.failure_points);
    EXPECT_EQ(reexec_stats.injections, replay_stats.injections);
    EXPECT_EQ(replay_stats.replayed, replay_stats.injections);
    EXPECT_GT(replay_stats.replay_trace_bytes, 0u);
    // Replay synthesizes images instead of re-running the workload.
    EXPECT_EQ(replay_stats.executions, 0u);

    ASSERT_EQ(reexec.findings().size(), replay.findings().size());
    for (size_t i = 0; i < reexec.findings().size(); ++i) {
      EXPECT_EQ(reexec.findings()[i].detail, replay.findings()[i].detail);
      EXPECT_EQ(reexec.findings()[i].location,
                replay.findings()[i].location);
      EXPECT_EQ(reexec.findings()[i].seq, replay.findings()[i].seq);
      EXPECT_EQ(reexec.findings()[i].kind, replay.findings()[i].kind);
    }
  }
}

// The -O2 regression guard (ROADMAP latent item): parallel replay-mode
// injection needs no call-stack re-matching at injection time, so its
// unique-bug set must match serial injection under any optimisation level.
// CI runs this suite in a CMAKE_BUILD_TYPE=Release job.
TEST(ReplayEquivalence, ParallelReplayMatchesSerialUniqueBugSet) {
  TargetOptions options;
  options.pmdk_version = PmdkVersion::k16;
  options.bugs = {"btree.split_unlogged"};
  WorkloadSpec spec;
  spec.operations = 250;
  spec.key_space = 40;

  FaultInjectionStats serial_stats, parallel_stats;
  const Report serial = RunInjection("btree", options, spec,
                                     InjectionStrategy::kReExecute, 1,
                                     &serial_stats);
  const Report parallel = RunInjection("btree", options, spec,
                                       InjectionStrategy::kReplay, 4,
                                       &parallel_stats);

  EXPECT_GT(serial.BugCount(), 0u);
  EXPECT_EQ(serial_stats.injections, parallel_stats.injections);
  std::set<std::string> serial_bugs, parallel_bugs;
  for (const Finding& f : serial.findings()) {
    serial_bugs.insert(f.detail);
  }
  for (const Finding& f : parallel.findings()) {
    parallel_bugs.insert(f.detail);
  }
  EXPECT_EQ(serial_bugs, parallel_bugs);
}

// A replay-strategy engine that never profiled (no recorded trace) must
// fall back to re-execution rather than doing nothing.
TEST(ReplayEquivalence, FallsBackToReExecuteWithoutProfiledTrace) {
  TargetOptions options;
  options.pmdk_version = PmdkVersion::k16;
  const WorkloadSpec spec = SmallSpec();

  // The tree comes from a different engine; this engine has no replay data.
  FaultInjectionEngine profiler(Factory("btree", options), spec);
  FailurePointTree tree = profiler.Profile();

  FaultInjectionOptions fi;
  fi.strategy = InjectionStrategy::kReplay;
  FaultInjectionEngine engine(Factory("btree", options), spec, fi);
  ASSERT_FALSE(engine.replay_ready());
  FaultInjectionStats stats;
  const Report report = engine.InjectAll(&tree, &stats);
  // The fallback re-executes the workload per failure point; injections and
  // executions are non-zero, nothing was replayed. (No assertion on
  // UnvisitedCount: matching another engine's profiled call stacks is
  // exactly what optimised builds break — see ROADMAP — and why replay
  // keys on the instruction counter instead.)
  EXPECT_GT(stats.injections, 0u);
  EXPECT_GT(stats.executions, 0u);
  EXPECT_EQ(stats.replayed, 0u);
  EXPECT_EQ(report.BugCount(), 0u) << report.Render();
}

// Equivalence-class pruning must deliver the byte-identical report of an
// exhaustive run while dispatching only class representatives: the fanned-
// out classmate verdicts carry the representative's detail, which always
// loses the report's first-by-detail dedup.
TEST(AdaptiveSchedule, PrunedReportByteIdenticalToExhaustive) {
  for (const char* name : {"btree", "hashmap_tx", "fast_fair"}) {
    SCOPED_TRACE(name);
    TargetOptions options;
    options.pmdk_version = PmdkVersion::k16;
    const WorkloadSpec spec = SmallSpec();

    auto run = [&](bool prune, FaultInjectionStats* stats) {
      FaultInjectionOptions fi;
      fi.strategy = InjectionStrategy::kReplay;
      fi.image_dedup = false;  // count only the planner's skipping
      fi.prune_equiv = prune;
      FaultInjectionEngine engine(Factory(name, options), spec, fi);
      FailurePointTree tree = engine.Profile();
      return engine.InjectAll(&tree, stats);
    };
    FaultInjectionStats exhaustive_stats, pruned_stats;
    const Report exhaustive = run(false, &exhaustive_stats);
    const Report pruned = run(true, &pruned_stats);

    EXPECT_EQ(pruned.Render(), exhaustive.Render());
    // The plan partitions the schedule: every point is either checked or
    // fanned out, never both, never dropped.
    EXPECT_EQ(pruned_stats.injections + pruned_stats.class_pruned,
              exhaustive_stats.injections);
    EXPECT_LE(pruned_stats.injections, exhaustive_stats.injections);
  }
}

// Ranked dispatch reorders checks, so report ordering is not preserved —
// but the distinct-bug set must be.
TEST(AdaptiveSchedule, RankedDispatchKeepsDistinctBugSet) {
  TargetOptions options;
  options.pmdk_version = PmdkVersion::k16;
  options.bugs = {"btree.split_unlogged"};
  WorkloadSpec spec;
  spec.operations = 250;
  spec.key_space = 40;

  auto bug_set = [&](bool prune, bool rank) {
    FaultInjectionOptions fi;
    fi.strategy = InjectionStrategy::kReplay;
    fi.prune_equiv = prune;
    fi.rank = rank;
    FaultInjectionEngine engine(Factory("btree", options), spec, fi);
    FailurePointTree tree = engine.Profile();
    FaultInjectionStats stats;
    const Report report = engine.InjectAll(&tree, &stats);
    std::set<std::string> details;
    for (const Finding& f : report.findings()) {
      details.insert(f.detail);
    }
    return details;
  };
  const std::set<std::string> exhaustive = bug_set(false, false);
  EXPECT_FALSE(exhaustive.empty());
  EXPECT_EQ(bug_set(true, true), exhaustive);
  EXPECT_EQ(bug_set(false, true), exhaustive);
}

// --budget-checks stops dispatch after exactly N checks (cache hits count;
// classmates are free), flags the stop, and the partial stats reflect it.
TEST(AdaptiveSchedule, BudgetChecksStopsDispatchWithinBudget) {
  TargetOptions options;
  options.pmdk_version = PmdkVersion::k16;
  const WorkloadSpec spec = SmallSpec();

  for (const uint32_t workers : {1u, 4u}) {
    SCOPED_TRACE(workers);
    FaultInjectionOptions fi;
    fi.strategy = InjectionStrategy::kReplay;
    fi.workers = workers;
    fi.budget_checks = 10;
    FaultInjectionEngine engine(Factory("btree", options), spec, fi);
    FailurePointTree tree = engine.Profile();
    FaultInjectionStats stats;
    engine.InjectAll(&tree, &stats);
    EXPECT_LE(stats.injections, 10u);
    EXPECT_GT(stats.injections, 0u);
    EXPECT_TRUE(stats.budget_stopped);
    EXPECT_TRUE(stats.budget_exhausted);
    EXPECT_GT(stats.failure_points, 10u);  // there was work left to stop
  }
}

// -- Lane-count determinism ------------------------------------------------
//
// Every verdict goes through the VerdictLedger, whose report is the
// seq-ordered first-per-detail fold of (seq, verdict) pairs, so neither the
// lane count nor the dispatch order can change it. Only two per-finding
// fields may legitimately differ: `dedup_of` (which twin image a lane
// happened to check first) and the oracle wall time.

std::pair<std::string, std::string> Canonical(const Report& report) {
  Report canonical;
  for (Finding finding : report.findings()) {
    finding.dedup_of.clear();
    finding.recovery_wall_us = 0;
    canonical.Add(std::move(finding));
  }
  return {canonical.Render(), canonical.RenderJson()};
}

TEST(LaneDeterminism, ReportIndependentOfWorkerCount) {
  const struct {
    const char* target;
    const char* bug;
  } cases[] = {
      {"btree", "btree.split_unlogged"},
      {"hashmap_tx", "hashmap_tx.prepend_unlogged"},
      {"fast_fair", "ff.c1_sibling_link_first"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.target);
    TargetOptions options;
    options.pmdk_version = PmdkVersion::k16;
    options.bugs = {c.bug};
    WorkloadSpec spec;
    spec.operations = 300;
    spec.key_space = 50;
    for (const InjectionStrategy strategy :
         {InjectionStrategy::kReExecute, InjectionStrategy::kReplay}) {
      SCOPED_TRACE(strategy == InjectionStrategy::kReplay ? "replay"
                                                          : "reexec");
      FaultInjectionStats one_stats;
      const Report one =
          RunInjection(c.target, options, spec, strategy, 1, &one_stats);
      ASSERT_GT(one.BugCount(), 0u) << "bug " << c.bug << " not triggered";
      for (const uint32_t workers : {3u, 4u}) {
        SCOPED_TRACE(workers);
        FaultInjectionStats stats;
        const Report many =
            RunInjection(c.target, options, spec, strategy, workers, &stats);
        EXPECT_EQ(Canonical(many), Canonical(one));
        EXPECT_EQ(stats.injections, one_stats.injections);
      }
    }
  }
}

// A complete ranked campaign checks the same points in another order; the
// fold still picks the lowest-seq verdict per detail and puts the findings
// back in seq order (fast_fair under replay lands a higher-seq twin first).
TEST(LaneDeterminism, RankedRunMatchesUnranked) {
  const struct {
    const char* target;
    const char* bug;
  } cases[] = {
      {"btree", "btree.split_unlogged"},
      {"hashmap_tx", "hashmap_tx.prepend_unlogged"},
      {"fast_fair", "ff.c1_sibling_link_first"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.target);
    TargetOptions options;
    options.pmdk_version = PmdkVersion::k16;
    options.bugs = {c.bug};
    WorkloadSpec spec;
    spec.operations = 300;
    spec.key_space = 50;
    for (const InjectionStrategy strategy :
         {InjectionStrategy::kReExecute, InjectionStrategy::kReplay}) {
      SCOPED_TRACE(strategy == InjectionStrategy::kReplay ? "replay"
                                                          : "reexec");
      auto run = [&](bool rank, uint32_t seek_checkpoints) {
        FaultInjectionOptions fi;
        fi.strategy = strategy;
        fi.rank = rank;
        fi.seek_checkpoints = seek_checkpoints;
        FaultInjectionEngine engine(Factory(c.target, options), spec, fi);
        FailurePointTree tree = engine.Profile();
        FaultInjectionStats stats;
        return engine.InjectAll(&tree, &stats);
      };
      const Report unranked = run(false, 4);
      ASSERT_GT(unranked.BugCount(), 0u);
      // A ranked replay lane advances its cursor when the next check lies
      // ahead and re-seeks when it lies behind: from the nearest checkpoint
      // with 4, from zero with none.
      for (const uint32_t seek_checkpoints : {0u, 4u}) {
        SCOPED_TRACE(seek_checkpoints);
        EXPECT_EQ(Canonical(run(true, seek_checkpoints)), Canonical(unranked));
      }
    }
  }
}

}  // namespace
}  // namespace mumak
