// Unit and property tests for the persistency model and the emulated pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <span>
#include <stdexcept>
#include <vector>

#include "src/instrument/deterministic_random.h"
#include "src/instrument/trace.h"
#include "src/pmem/image_digest.h"
#include "src/pmem/persistency_model.h"
#include "src/pmem/pm_pool.h"

namespace mumak {
namespace {

TEST(PersistencyModel, StoreIsVisibleButNotDurable) {
  PersistencyModel model(4096);
  const uint64_t value = 0xdeadbeef;
  model.Store(128, std::span<const uint8_t>(
                       reinterpret_cast<const uint8_t*>(&value), 8));
  EXPECT_EQ(model.LoadU64(128), value);
  EXPECT_EQ(model.PowerFailImage()[128], 0);
  auto graceful = model.GracefulImage();
  uint64_t read = 0;
  std::memcpy(&read, graceful.data() + 128, 8);
  EXPECT_EQ(read, value);
}

TEST(PersistencyModel, ClwbAlonePersistsNothing) {
  PersistencyModel model(4096);
  const uint64_t value = 7;
  model.Store(0, std::span<const uint8_t>(
                     reinterpret_cast<const uint8_t*>(&value), 8));
  model.Clwb(0);
  // Still only in the WPQ.
  EXPECT_EQ(model.PowerFailImage()[0], 0);
  model.Fence();
  auto durable = model.PowerFailImage();
  uint64_t read = 0;
  std::memcpy(&read, durable.data(), 8);
  EXPECT_EQ(read, value);
}

TEST(PersistencyModel, ClflushIsImmediatelyDurable) {
  PersistencyModel model(4096);
  const uint64_t value = 9;
  model.Store(64, std::span<const uint8_t>(
                      reinterpret_cast<const uint8_t*>(&value), 8));
  model.Clflush(64);
  auto durable = model.PowerFailImage();
  uint64_t read = 0;
  std::memcpy(&read, durable.data() + 64, 8);
  EXPECT_EQ(read, value);
}

TEST(PersistencyModel, FlushSnapshotsLineContentAtFlushTime) {
  PersistencyModel model(4096);
  uint64_t v1 = 1, v2 = 2;
  model.Store(0, {reinterpret_cast<const uint8_t*>(&v1), 8});
  model.Clwb(0);
  // Overwrite after the flush but before the fence: the fence commits the
  // snapshot, not the newer value.
  model.Store(0, {reinterpret_cast<const uint8_t*>(&v2), 8});
  model.Fence();
  uint64_t durable_read = 0;
  auto durable = model.PowerFailImage();
  std::memcpy(&durable_read, durable.data(), 8);
  EXPECT_EQ(durable_read, v1);
  // The newer value is still the visible one.
  EXPECT_EQ(model.LoadU64(0), v2);
}

TEST(PersistencyModel, NtStoreRequiresFence) {
  PersistencyModel model(4096);
  uint64_t value = 0x42;
  model.NtStore(8, {reinterpret_cast<const uint8_t*>(&value), 8});
  EXPECT_EQ(model.LoadU64(8), value);  // visible
  EXPECT_EQ(model.PowerFailImage()[8], 0);
  model.Fence();
  auto durable = model.PowerFailImage();
  uint64_t read = 0;
  std::memcpy(&read, durable.data() + 8, 8);
  EXPECT_EQ(read, value);
}

TEST(PersistencyModel, RmwHasFenceSemantics) {
  PersistencyModel model(4096);
  uint64_t value = 5;
  model.Store(0, {reinterpret_cast<const uint8_t*>(&value), 8});
  model.Clwb(0);
  // The RMW's implicit fence commits the pending flush.
  model.RmwAdd(512, 1);
  auto durable = model.PowerFailImage();
  uint64_t read = 0;
  std::memcpy(&read, durable.data(), 8);
  EXPECT_EQ(read, value);
  EXPECT_EQ(model.LoadU64(512), 1u);
}

TEST(PersistencyModel, RmwCas) {
  PersistencyModel model(4096);
  EXPECT_TRUE(model.RmwCas(0, 0, 77));
  EXPECT_FALSE(model.RmwCas(0, 0, 88));
  EXPECT_EQ(model.LoadU64(0), 77u);
}

TEST(PersistencyModel, StoreSpanningCacheLines) {
  PersistencyModel model(4096);
  std::vector<uint8_t> data(200, 0xab);
  model.Store(40, data);
  std::vector<uint8_t> out(200, 0);
  model.Load(40, out);
  EXPECT_EQ(out, data);
  EXPECT_GE(model.dirty_line_count(), 4u);
}

TEST(PersistencyModel, PowerFailImageWithSelectedLines) {
  PersistencyModel model(4096);
  uint64_t a = 1, b = 2;
  model.Store(0, {reinterpret_cast<const uint8_t*>(&a), 8});
  model.Store(64, {reinterpret_cast<const uint8_t*>(&b), 8});
  const uint64_t lines[] = {1};  // only the second line survives
  auto image = model.PowerFailImageWithLines(lines);
  uint64_t r0 = 0, r1 = 0;
  std::memcpy(&r0, image.data(), 8);
  std::memcpy(&r1, image.data() + 64, 8);
  EXPECT_EQ(r0, 0u);
  EXPECT_EQ(r1, b);
}

TEST(PersistencyModel, EightByteFailureAtomicityGranularity) {
  // Aligned 8-byte stores either fully survive or fully vanish in any
  // crash image: check that a committed granule is byte-exact.
  PersistencyModel model(4096);
  uint64_t value = 0x1122334455667788ull;
  model.Store(16, {reinterpret_cast<const uint8_t*>(&value), 8});
  model.Clwb(16);
  model.Fence();
  auto durable = model.PowerFailImage();
  uint64_t read = 0;
  std::memcpy(&read, durable.data() + 16, 8);
  EXPECT_EQ(read, value);
}

// Property test: for random operation sequences, (1) the durable image is
// always a subset of the graceful image in the sense that every line is
// either the durable content or a newer visible content; (2) after a fence,
// everything flushed before the fence is durable.
class ModelPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ModelPropertyTest, FlushedThenFencedIsDurable) {
  DeterministicRandom rng(GetParam());
  PersistencyModel model(64 * 1024);
  // Reference: byte values that must be durable after each fence.
  std::map<uint64_t, std::vector<uint8_t>> flushed_lines;  // line -> content
  for (int step = 0; step < 2000; ++step) {
    const int action = static_cast<int>(rng.NextBelow(10));
    if (action < 6) {
      const uint64_t offset = rng.NextBelow(64 * 1024 - 16);
      uint64_t value = rng.Next();
      model.Store(offset, {reinterpret_cast<const uint8_t*>(&value), 8});
    } else if (action < 8) {
      const uint64_t offset = rng.NextBelow(64 * 1024);
      // Snapshot the line's visible content: that is what must become
      // durable at the next fence.
      std::vector<uint8_t> content(kCacheLineSize);
      model.Load(LineBase(offset), content);
      model.Clwb(offset);
      flushed_lines[LineIndex(offset)] = std::move(content);
    } else if (action < 9) {
      model.Fence();
      auto durable = model.PowerFailImage();
      for (const auto& [line, content] : flushed_lines) {
        const uint8_t* at = durable.data() + line * kCacheLineSize;
        ASSERT_TRUE(std::equal(content.begin(), content.end(), at))
            << "line " << line << " not durable after fence";
      }
      flushed_lines.clear();
    } else {
      const uint64_t offset = rng.NextBelow(64 * 1024);
      model.Clflush(offset);
      flushed_lines.erase(LineIndex(offset));
      // clflush must be durable immediately.
      auto durable = model.PowerFailImage();
      std::vector<uint8_t> visible(kCacheLineSize);
      model.Load(LineBase(offset), visible);
      const uint8_t* at = durable.data() + LineBase(offset);
      ASSERT_TRUE(std::equal(visible.begin(), visible.end(), at));
    }
  }
}

TEST_P(ModelPropertyTest, GracefulImageMatchesVisibleState) {
  DeterministicRandom rng(GetParam() ^ 0x5555);
  PersistencyModel model(16 * 1024);
  for (int step = 0; step < 1000; ++step) {
    const int action = static_cast<int>(rng.NextBelow(10));
    const uint64_t offset = rng.NextBelow(16 * 1024 - 16);
    if (action < 6) {
      uint64_t value = rng.Next();
      model.Store(offset, {reinterpret_cast<const uint8_t*>(&value), 8});
    } else if (action < 7) {
      uint64_t value = rng.Next();
      model.NtStore(offset & ~7ull, {reinterpret_cast<const uint8_t*>(&value), 8});
    } else if (action < 9) {
      model.Clwb(offset);
    } else {
      model.Fence();
    }
  }
  // The graceful image must equal the byte-wise visible state.
  auto graceful = model.GracefulImage();
  std::vector<uint8_t> visible(16 * 1024);
  model.Load(0, visible);
  EXPECT_EQ(graceful, visible);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelPropertyTest,
                         ::testing::Values(1, 2, 3, 17, 99, 12345));

TEST(PmPool, EventsArePublished) {
  PmPool pool(4096);
  TraceCollector trace;
  pool.hub().AddSink(&trace);
  pool.WriteU64(0, 1);
  pool.Clwb(0);
  pool.Sfence();
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.events()[0].kind, EventKind::kStore);
  EXPECT_EQ(trace.events()[1].kind, EventKind::kClwb);
  EXPECT_EQ(trace.events()[2].kind, EventKind::kSfence);
  EXPECT_EQ(trace.events()[0].seq, 0u);
  EXPECT_EQ(trace.events()[2].seq, 2u);
}

TEST(PmPool, DisabledHubSuppressesEvents) {
  PmPool pool(4096);
  TraceCollector trace;
  pool.hub().AddSink(&trace);
  {
    ScopedInstrumentationOff off(pool.hub());
    pool.WriteU64(0, 1);
    pool.PersistRange(0, 8);
  }
  EXPECT_EQ(trace.size(), 0u);
  pool.WriteU64(8, 2);
  EXPECT_EQ(trace.size(), 1u);
}

TEST(PmPool, PersistRangeFlushesEveryLine) {
  PmPool pool(4096);
  TraceCollector trace;
  pool.hub().AddSink(&trace);
  std::vector<uint8_t> data(130, 1);
  pool.Write(60, data.data(), data.size());  // spans 4 lines (60..190)
  pool.PersistRange(60, data.size());
  uint64_t clwbs = 0, fences = 0;
  for (const PmEvent& ev : trace.events()) {
    clwbs += ev.kind == EventKind::kClwb ? 1 : 0;
    fences += ev.kind == EventKind::kSfence ? 1 : 0;
  }
  EXPECT_EQ(clwbs, 3u);  // lines 0,1,2 hold bytes 60..189
  EXPECT_EQ(fences, 1u);
  // Durable after the fence.
  auto durable = pool.PowerFailImage();
  EXPECT_EQ(durable[60], 1);
  EXPECT_EQ(durable[189], 1);
}

TEST(PmPool, SaveAndLoadRoundTripsDurableStateOnly) {
  PmPool pool(4096);
  pool.WriteU64(0, 111);
  pool.PersistRange(0, 8);
  pool.WriteU64(8, 222);  // not persisted
  const std::string path = ::testing::TempDir() + "/pool.img";
  ASSERT_TRUE(pool.SaveToFile(path));
  PmPool loaded(1);
  ASSERT_TRUE(PmPool::LoadFromFile(path, &loaded));
  EXPECT_EQ(loaded.ReadU64(0), 111u);
  EXPECT_EQ(loaded.ReadU64(8), 0u);
}

TEST(PmPool, FromImageStartsWithEmptyVolatileState) {
  PmPool pool(4096);
  pool.WriteU64(0, 5);
  auto image = pool.GracefulImage();
  PmPool recovered = PmPool::FromImage(std::move(image));
  EXPECT_EQ(recovered.ReadU64(0), 5u);
  EXPECT_EQ(recovered.model().dirty_line_count(), 0u);
  EXPECT_EQ(recovered.model().wpq_line_count(), 0u);
}

// -- In-place recovery on a borrowed image ----------------------------------
//
// The in-process oracle recovers directly on the caller's bytes with an
// undo log attached; destroying the log must hand back every byte, whatever
// instruction made a line durable.

std::vector<uint8_t> PatternImage(size_t size) {
  DeterministicRandom rng(0x5eed);
  std::vector<uint8_t> image(size);
  for (uint8_t& byte : image) {
    byte = static_cast<uint8_t>(rng.Next());
  }
  return image;
}

// Every way a line becomes durable. Offsets stay below 4096.
const struct CommitKind {
  const char* name;
  void (*commit)(PmPool&);
} kCommitKinds[] = {
    {"store+clflush",
     [](PmPool& pool) {
       pool.WriteU64(64, 1);
       pool.Clflush(64);
     }},
    {"nt-store+fence",
     [](PmPool& pool) {
       const uint8_t bytes[16] = {1, 2, 3, 4, 5, 6, 7, 8,
                                  9, 10, 11, 12, 13, 14, 15, 16};
       pool.WriteNt(200, bytes, sizeof(bytes));
       pool.Sfence();
     }},
    {"clwb+fence",
     [](PmPool& pool) {
       pool.WriteU64(512, 3);
       pool.Clwb(512);
       pool.Sfence();
     }},
    {"clflushopt+fence",
     [](PmPool& pool) {
       pool.WriteU64(768, 4);
       pool.ClflushOpt(768);
       pool.Mfence();
     }},
    {"rmw as the fence",
     [](PmPool& pool) {
       // An RMW drains the WPQ like a fence; its own store stays cached
       // until flushed, so the second RMW commits the first one's line.
       pool.WriteU64(1024, 5);
       pool.Clwb(1024);
       pool.RmwAdd(1088, 1);
       pool.Clwb(1088);
       pool.RmwCas(1152, pool.ReadU64(1152), 6);
     }},
    {"multi-line persist, same line twice",
     [](PmPool& pool) {
       pool.Memset(2000, 0xab, 300);
       pool.PersistRange(2000, 300);
       pool.WriteU64(2048, 7);
       pool.PersistRange(2048, 8);
     }},
};

TEST(DurableUndoLog, RestoresEveryCommitKind) {
  const std::vector<uint8_t> original = PatternImage(8192);
  for (const auto& kind : kCommitKinds) {
    SCOPED_TRACE(kind.name);
    std::vector<uint8_t> image = original;
    {
      DurableUndoLog undo(image);
      PmPool pool = PmPool::FromBorrowedImage(image.data(), image.size());
      pool.model().set_undo_log(&undo);
      kind.commit(pool);
      // A store that is never flushed stays volatile: not logged, and the
      // borrowed bytes never see it.
      pool.WriteU64(4096, 0);
      EXPECT_GT(undo.saved_lines(), 0u);
      EXPECT_NE(image, original) << "commits write through to the borrow";
      EXPECT_EQ(std::memcmp(image.data() + 4096, original.data() + 4096, 8),
                0);
    }
    EXPECT_EQ(image, original);
  }
}

TEST(DurableUndoLog, RestoresWhenRecoveryThrows) {
  const std::vector<uint8_t> original = PatternImage(4096);
  std::vector<uint8_t> image = original;
  EXPECT_THROW(
      {
        DurableUndoLog undo(image);
        PmPool pool = PmPool::FromBorrowedImage(image.data(), image.size());
        pool.model().set_undo_log(&undo);
        pool.WriteU64(128, 42);
        pool.PersistRange(128, 8);
        pool.WriteU64(136, 43);
        pool.Clwb(136);  // in the WPQ when recovery dies: never committed
        throw std::runtime_error("recovery failed mid-way");
      },
      std::runtime_error);
  EXPECT_EQ(image, original);
}

TEST(DurableUndoLog, WithoutALogCommitsStayInTheBorrowedBytes) {
  // The sandbox child's contract: its image is disposable, so recovery
  // writes through with no log.
  std::vector<uint8_t> image(4096, 0);
  {
    PmPool pool = PmPool::FromBorrowedImage(image.data(), image.size());
    pool.WriteU64(64, 9);
    pool.PersistRange(64, 8);
  }
  uint64_t value = 0;
  std::memcpy(&value, image.data() + 64, sizeof(value));
  EXPECT_EQ(value, 9u);
}

// -- The recycled crash pool --------------------------------------------------
//
// A re-execute lane keeps one pool for its lifetime: after each check it
// commits the graceful crash in place, digests only the lines it wrote, and
// resets them. Each kind below also leaves volatile state behind (a cached
// store, a WPQ line, a line both in the WPQ and re-dirtied in the cache, an
// unfenced NT store), so the graceful commit has work to do.

void LeavePendingState(PmPool& pool) {
  // A committed line whose content ends all zero is still a written line.
  pool.WriteU64(4288, 14);
  pool.PersistRange(4288, 8);
  pool.WriteU64(4288, 0);
  pool.PersistRange(4288, 8);
  pool.WriteU64(4096, 11);
  pool.WriteU64(4160, 12);
  pool.Clwb(4160);
  pool.WriteU64(4168, 13);
  const uint8_t bytes[8] = {21, 22, 23, 24, 25, 26, 27, 28};
  pool.WriteNt(4224, bytes, sizeof(bytes));
}

TEST(RecycledPool, InPlaceGracefulCommitEqualsGracefulImage) {
  for (const auto& kind : kCommitKinds) {
    SCOPED_TRACE(kind.name);
    PmPool pool(8192);
    kind.commit(pool);
    LeavePendingState(pool);
    ASSERT_GT(pool.model().dirty_line_count(), 0u);
    ASSERT_GT(pool.model().wpq_line_count(), 0u);
    const std::vector<uint8_t> expected = pool.GracefulImage();
    pool.CrashGracefully();
    const std::span<const uint8_t> durable = pool.model().durable_bytes();
    EXPECT_TRUE(std::equal(durable.begin(), durable.end(), expected.begin(),
                           expected.end()));
    EXPECT_EQ(pool.model().dirty_line_count(), 0u);
    EXPECT_EQ(pool.model().wpq_line_count(), 0u);
  }
}

TEST(RecycledPool, WrittenLineDigestEqualsContentDigest) {
  const std::vector<uint8_t> zeros(8192, 0);
  const ImageDigest zero_pool =
      ComputeContentDigest(zeros.data(), zeros.size());
  for (const auto& kind : kCommitKinds) {
    SCOPED_TRACE(kind.name);
    PmPool pool(8192);
    auto expect_digest_matches = [&] {
      const std::span<const uint8_t> durable = pool.model().durable_bytes();
      EXPECT_EQ(DigestOverZeroPool(zero_pool, durable.data(), durable.size(),
                                   pool.model().written_lines()),
                ComputeContentDigest(durable.data(), durable.size()));
    };
    expect_digest_matches();
    kind.commit(pool);
    EXPECT_FALSE(pool.model().written_lines().empty());
    expect_digest_matches();
    LeavePendingState(pool);
    pool.CrashGracefully();
    expect_digest_matches();
    EXPECT_NE(ComputeContentDigest(pool.model().durable_bytes().data(), 8192),
              zero_pool);
  }
}

TEST(RecycledPool, ResetLeavesAFreshPool) {
  const PmPool fresh(8192);
  for (const auto& kind : kCommitKinds) {
    SCOPED_TRACE(kind.name);
    PmPool pool(8192);
    // Twice: a reset pool must also behave like a fresh one afterwards.
    for (int round = 0; round < 2; ++round) {
      kind.commit(pool);
      LeavePendingState(pool);
      pool.CrashGracefully();
      ASSERT_GT(pool.hub().seq(), 0u);
      pool.Reset();
      EXPECT_TRUE(std::ranges::equal(pool.model().durable_bytes(),
                                     fresh.model().durable_bytes()));
      EXPECT_EQ(pool.model().dirty_line_count(), 0u);
      EXPECT_EQ(pool.model().wpq_line_count(), 0u);
      EXPECT_TRUE(pool.model().written_lines().empty());
      EXPECT_EQ(pool.hub().seq(), 0u);
      EXPECT_EQ(pool.model().stats().stores, 0u);
      EXPECT_EQ(pool.model().stats().committed_lines, 0u);
    }
    // And replays a check exactly as a fresh pool does.
    PmPool reference(8192);
    kind.commit(reference);
    kind.commit(pool);
    EXPECT_EQ(pool.GracefulImage(), reference.GracefulImage());
    EXPECT_EQ(pool.hub().seq(), reference.hub().seq());
  }
}

}  // namespace
}  // namespace mumak
