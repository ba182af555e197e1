// Tests for the instrumentation layer: event stream semantics, shadow call
// stack, frame registry, trace serialisation and deterministic RNG.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "src/instrument/deterministic_random.h"
#include "src/instrument/event_hub.h"
#include "src/instrument/shadow_call_stack.h"
#include "src/instrument/trace.h"
#include "src/workload/workload.h"

namespace mumak {
namespace {

TEST(EventKindTest, Classification) {
  EXPECT_TRUE(IsPersistencyInstruction(EventKind::kClwb));
  EXPECT_TRUE(IsPersistencyInstruction(EventKind::kSfence));
  EXPECT_TRUE(IsPersistencyInstruction(EventKind::kRmw));
  EXPECT_FALSE(IsPersistencyInstruction(EventKind::kStore));
  EXPECT_FALSE(IsPersistencyInstruction(EventKind::kLoad));

  EXPECT_TRUE(IsFence(EventKind::kMfence));
  EXPECT_FALSE(IsFence(EventKind::kClflushOpt));
  EXPECT_TRUE(IsFlush(EventKind::kClflush));
  EXPECT_FALSE(IsFlush(EventKind::kSfence));
  EXPECT_TRUE(IsStore(EventKind::kNtStore));
}

TEST(EventHubTest, SinksReceiveInOrder) {
  EventHub hub;
  struct Counter : EventSink {
    int events = 0;
    uint64_t last_seq = 0;
    void OnEvent(const PmEvent& ev) override {
      ++events;
      last_seq = ev.seq;
    }
  } a, b;
  hub.AddSink(&a);
  hub.AddSink(&b);
  PmEvent ev;
  ev.seq = hub.next_seq();
  hub.Publish(ev);
  EXPECT_EQ(a.events, 1);
  EXPECT_EQ(b.events, 1);
  hub.RemoveSink(&a);
  ev.seq = hub.next_seq();
  hub.Publish(ev);
  EXPECT_EQ(a.events, 1);
  EXPECT_EQ(b.events, 2);
  EXPECT_EQ(b.last_seq, 1u);
}

TEST(EventHubTest, ScopedSinkDetaches) {
  EventHub hub;
  struct Counter : EventSink {
    int events = 0;
    void OnEvent(const PmEvent&) override { ++events; }
  } sink;
  {
    ScopedSink attach(hub, &sink);
    hub.Publish(PmEvent{});
  }
  hub.Publish(PmEvent{});
  EXPECT_EQ(sink.events, 1);
}

TEST(EventHubTest, SinkMayRemoveItselfDuringDispatch) {
  // A one-shot sink detaching from inside OnEvent must not derail the
  // dispatch loop: every other sink still sees the event, and the next
  // Publish no longer reaches the detached sink.
  EventHub hub;
  struct OneShot : EventSink {
    EventHub* hub = nullptr;
    int events = 0;
    void OnEvent(const PmEvent&) override {
      ++events;
      hub->RemoveSink(this);
    }
  } one_shot;
  struct Counter : EventSink {
    int events = 0;
    void OnEvent(const PmEvent&) override { ++events; }
  } before, after;
  one_shot.hub = &hub;
  hub.AddSink(&before);
  hub.AddSink(&one_shot);
  hub.AddSink(&after);
  hub.Publish(PmEvent{});
  EXPECT_EQ(before.events, 1);
  EXPECT_EQ(one_shot.events, 1);
  EXPECT_EQ(after.events, 1);  // removal at index <= current must not skip
  hub.Publish(PmEvent{});
  EXPECT_EQ(one_shot.events, 1);
  EXPECT_EQ(before.events, 2);
  EXPECT_EQ(after.events, 2);
}

TEST(EventHubTest, SinkMayRemoveAnEarlierSinkDuringDispatch) {
  EventHub hub;
  struct Counter : EventSink {
    int events = 0;
    void OnEvent(const PmEvent&) override { ++events; }
  } victim, tail;
  struct Remover : EventSink {
    EventHub* hub = nullptr;
    EventSink* target = nullptr;
    void OnEvent(const PmEvent&) override { hub->RemoveSink(target); }
  } remover;
  remover.hub = &hub;
  remover.target = &victim;
  hub.AddSink(&victim);
  hub.AddSink(&remover);
  hub.AddSink(&tail);
  hub.Publish(PmEvent{});
  // The victim saw this event (it preceded the remover); the tail must not
  // have been skipped by the mid-dispatch removal.
  EXPECT_EQ(victim.events, 1);
  EXPECT_EQ(tail.events, 1);
  hub.Publish(PmEvent{});
  EXPECT_EQ(victim.events, 1);
  EXPECT_EQ(tail.events, 2);
}

TEST(EventHubTest, SinkMayAddASinkDuringDispatch) {
  EventHub hub;
  struct Counter : EventSink {
    int events = 0;
    void OnEvent(const PmEvent&) override { ++events; }
  } late;
  struct Adder : EventSink {
    EventHub* hub = nullptr;
    EventSink* to_add = nullptr;
    bool added = false;
    void OnEvent(const PmEvent&) override {
      if (!added) {
        hub->AddSink(to_add);
        added = true;
      }
    }
  } adder;
  adder.hub = &hub;
  adder.to_add = &late;
  hub.AddSink(&adder);
  hub.Publish(PmEvent{});
  hub.Publish(PmEvent{});
  // Whether `late` saw the event it was added during is unspecified; it
  // must see every later one and the hub must stay consistent.
  EXPECT_GE(late.events, 1);
  hub.RemoveSink(&late);
  hub.Publish(PmEvent{});
  EXPECT_LE(late.events, 2);
}

TEST(EventHubTest, ClearDuringDispatchStopsFutureDelivery) {
  EventHub hub;
  struct Clearer : EventSink {
    EventHub* hub = nullptr;
    void OnEvent(const PmEvent&) override { hub->Clear(); }
  } clearer;
  struct Counter : EventSink {
    int events = 0;
    void OnEvent(const PmEvent&) override { ++events; }
  } tail;
  clearer.hub = &hub;
  hub.AddSink(&clearer);
  hub.AddSink(&tail);
  hub.Publish(PmEvent{});
  const int seen = tail.events;  // delivery during the clearing publish is
                                 // unspecified, but must not crash
  hub.Publish(PmEvent{});
  EXPECT_EQ(tail.events, seen);  // nothing after the clear
}

TEST(EventHubTest, DisableSuppressesPublish) {
  EventHub hub;
  struct Counter : EventSink {
    int events = 0;
    void OnEvent(const PmEvent&) override { ++events; }
  } sink;
  hub.AddSink(&sink);
  {
    ScopedInstrumentationOff off(hub);
    hub.Publish(PmEvent{});
    EXPECT_FALSE(hub.enabled());
  }
  EXPECT_TRUE(hub.enabled());
  hub.Publish(PmEvent{});
  EXPECT_EQ(sink.events, 1);
}

TEST(FrameRegistryTest, InterningIsStable) {
  FrameRegistry registry;
  const FrameId a = registry.Intern("Insert", "tree.cc", 10);
  const FrameId b = registry.Intern("Insert", "tree.cc", 10);
  const FrameId c = registry.Intern("Insert", "tree.cc", 11);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(registry.Describe(a), "Insert at tree.cc:10");
  EXPECT_EQ(registry.FunctionName(a), "Insert");
}

TEST(FrameRegistryTest, CallSitesDistinguishInvocations) {
  // The same function marked from two call sites must intern differently —
  // the precision the failure point tree depends on.
  FrameRegistry registry;
  int x = 0;
  const FrameId a = registry.Intern("F", "f.cc", 1, &x);
  const FrameId b = registry.Intern("F", "f.cc", 1, &x + 1);
  EXPECT_NE(a, b);
}

TEST(FrameRegistryTest, ConcurrentInterningIsConsistent) {
  // Parallel fault-injection workers intern frames and call sites
  // concurrently; identical inputs must resolve to one id no matter which
  // thread got there first.
  constexpr int kThreads = 8;
  constexpr int kNames = 32;
  std::vector<std::vector<FrameId>> ids(kThreads,
                                        std::vector<FrameId>(kNames));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &ids] {
      for (int n = 0; n < kNames; ++n) {
        ids[t][n] = FrameRegistry::Global().Intern(
            "concurrent_fn_" + std::to_string(n), "c.cc", n);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(ids[t], ids[0]);
  }
  // Describe resolves every id while other threads are still interning
  // fresh names (shared/exclusive interleaving).
  std::thread churn([] {
    for (int n = 0; n < 256; ++n) {
      FrameRegistry::Global().Intern("churn_fn_" + std::to_string(n),
                                     "churn.cc", n);
    }
  });
  for (int n = 0; n < kNames; ++n) {
    EXPECT_NE(FrameRegistry::Global().Describe(ids[0][n]).find(
                  "concurrent_fn_"),
              std::string::npos);
  }
  churn.join();
}

TEST(FrameRegistryTest, ConcurrentAddressInterningIsConsistent) {
  constexpr int kThreads = 8;
  static int dummy[16];  // stable addresses to intern
  std::vector<std::vector<FrameId>> ids(kThreads, std::vector<FrameId>(16));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &ids] {
      for (int n = 0; n < 16; ++n) {
        ids[t][n] = FrameRegistry::Global().InternAddress(&dummy[n]);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(ids[t], ids[0]);
  }
}

// The pointer-keyed fast paths answer from a per-thread memo before the
// shared lock. Four threads interning one set of sites, each repeatedly (so
// later rounds come from each thread's memo), must see one id per site, and
// the registry must hold exactly those sites.
TEST(FrameRegistryMemoTest, FourThreadsInterningTheSameSitesGetOneIdPerSite) {
  constexpr int kThreads = 4;
  constexpr int kSites = 64;
  constexpr int kRounds = 3;
  static char code[kSites];  // stable, distinct addresses to intern
  FrameRegistry registry;
  std::vector<std::vector<FrameId>> address_ids(
      kThreads, std::vector<FrameId>(kSites));
  std::vector<std::vector<FrameId>> call_site_ids(
      kThreads, std::vector<FrameId>(kSites));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (int n = 0; n < kSites; ++n) {
          const FrameId address = registry.InternAddress(&code[n]);
          const FrameId call_site =
              registry.InternCallSite(&code[n], "memo_fn", "memo.cc", n);
          if (round > 0) {
            EXPECT_EQ(address, address_ids[t][n]);
            EXPECT_EQ(call_site, call_site_ids[t][n]);
          }
          address_ids[t][n] = address;
          call_site_ids[t][n] = call_site;
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(address_ids[t], address_ids[0]);
    EXPECT_EQ(call_site_ids[t], call_site_ids[0]);
  }
  std::vector<FrameId> all = address_ids[0];
  all.insert(all.end(), call_site_ids[0].begin(), call_site_ids[0].end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::unique(all.begin(), all.end()), all.end());
  EXPECT_EQ(registry.size(), size_t{2 * kSites});
}

// Tests build stack-local registries, and a new one can land at a dead
// one's address. The memo is keyed by instance, so the new registry must
// intern from scratch instead of returning ids the dead one memoised.
TEST(FrameRegistryMemoTest, RegistryBuiltWhereAnotherDiedNeverReturnsItsIds) {
  static char code[8];
  std::optional<FrameRegistry> slot;
  slot.emplace();
  const FrameRegistry* first_address = &*slot;
  for (int n = 0; n < 7; ++n) {
    slot->InternAddress(&code[n]);
  }
  const FrameId dead_address_id = slot->InternAddress(&code[7]);
  const FrameId dead_call_site_id =
      slot->InternCallSite(&code[7], "memo_fn", "memo.cc", 7);
  ASSERT_EQ(dead_address_id, 7u);
  ASSERT_EQ(dead_call_site_id, 8u);
  // Memoised on this thread now.
  ASSERT_EQ(slot->InternAddress(&code[7]), dead_address_id);

  slot.reset();
  slot.emplace();
  ASSERT_EQ(&*slot, first_address) << "the new registry must reuse the slot";
  EXPECT_EQ(slot->size(), 0u);
  const FrameId call_site_id =
      slot->InternCallSite(&code[7], "memo_fn", "memo.cc", 7);
  const FrameId address_id = slot->InternAddress(&code[7]);
  EXPECT_EQ(call_site_id, 0u);
  EXPECT_EQ(address_id, 1u);
  EXPECT_EQ(slot->size(), 2u);
  EXPECT_EQ(slot->Describe(call_site_id), "memo_fn at memo.cc:7");
  EXPECT_EQ(slot->Describe(address_id).rfind("pc:", 0), 0u);
}

TEST(ShadowCallStackTest, PushPopAndDescribe) {
  ShadowCallStack stack;
  const FrameId f = FrameRegistry::Global().Intern("Outer", "a.cc", 1);
  const FrameId g = FrameRegistry::Global().Intern("Inner", "a.cc", 9);
  stack.Push(f);
  stack.Push(g);
  EXPECT_EQ(stack.depth(), 2u);
  EXPECT_EQ(stack.frames()[0], f);
  stack.Pop();
  EXPECT_EQ(stack.depth(), 1u);
  stack.Clear();
  EXPECT_TRUE(stack.empty());
}

TEST(ShadowCallStackTest, ScopedFrameIsRaii) {
  const size_t depth_before = ShadowCallStack::Current().depth();
  {
    MUMAK_FRAME();
    EXPECT_EQ(ShadowCallStack::Current().depth(), depth_before + 1);
  }
  EXPECT_EQ(ShadowCallStack::Current().depth(), depth_before);
}

TEST(TraceIoTest, RoundTrip) {
  std::vector<PmEvent> events;
  for (uint64_t i = 0; i < 100; ++i) {
    PmEvent ev;
    ev.kind = static_cast<EventKind>(i % 8);
    ev.offset = i * 64;
    ev.size = 8;
    ev.site = static_cast<uint32_t>(i);
    ev.seq = i;
    events.push_back(ev);
  }
  std::stringstream buffer;
  ASSERT_TRUE(TraceIo::Write(events, buffer));
  std::vector<PmEvent> loaded;
  ASSERT_TRUE(TraceIo::Read(buffer, &loaded));
  ASSERT_EQ(loaded.size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(loaded[i].kind, events[i].kind);
    EXPECT_EQ(loaded[i].offset, events[i].offset);
    EXPECT_EQ(loaded[i].size, events[i].size);
    EXPECT_EQ(loaded[i].site, events[i].site);
    EXPECT_EQ(loaded[i].seq, events[i].seq);
  }
}

TEST(TraceIoTest, RejectsGarbage) {
  std::stringstream buffer;
  buffer << "not a trace";
  std::vector<PmEvent> events;
  EXPECT_FALSE(TraceIo::Read(buffer, &events));
}

TEST(TraceIoTest, FileRoundTrip) {
  std::vector<PmEvent> events(3);
  events[1].seq = 7;
  const std::string path = ::testing::TempDir() + "/trace.bin";
  ASSERT_TRUE(TraceIo::WriteFile(events, path));
  std::vector<PmEvent> loaded;
  ASSERT_TRUE(TraceIo::ReadFile(path, &loaded));
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_EQ(loaded[1].seq, 7u);
}

TEST(TraceFileTest, SinkAndReaderRoundTrip) {
  const std::string path = ::testing::TempDir() + "/spool.bin";
  {
    TraceFileSink sink(path);
    ASSERT_TRUE(sink.ok());
    for (uint64_t i = 0; i < 10000; ++i) {
      PmEvent ev;
      ev.kind = EventKind::kStore;
      ev.offset = i * 8;
      ev.size = 8;
      ev.site = static_cast<uint32_t>(i & 0xff);
      ev.seq = i;
      sink.OnEvent(ev);
    }
    sink.Close();
    EXPECT_EQ(sink.count(), 10000u);
  }
  TraceFileReader reader(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader.total(), 10000u);
  std::vector<PmEvent> batch;
  uint64_t seen = 0;
  while (reader.NextChunk(&batch, 512)) {
    ASSERT_LE(batch.size(), 512u);
    for (const PmEvent& ev : batch) {
      EXPECT_EQ(ev.seq, seen);
      EXPECT_EQ(ev.offset, seen * 8);
      ++seen;
    }
  }
  EXPECT_EQ(seen, 10000u);
}

TEST(TraceFileTest, SpooledFileReadableByTraceIo) {
  const std::string path = ::testing::TempDir() + "/spool2.bin";
  {
    TraceFileSink sink(path);
    PmEvent ev;
    ev.seq = 5;
    sink.OnEvent(ev);
    sink.Close();
  }
  std::vector<PmEvent> events;
  ASSERT_TRUE(TraceIo::ReadFile(path, &events));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].seq, 5u);
}

TEST(TraceFileTest, ReaderRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/garbage.bin";
  {
    std::ofstream out(path);
    out << "junk";
  }
  TraceFileReader reader(path);
  EXPECT_FALSE(reader.ok());
  std::vector<PmEvent> batch;
  EXPECT_FALSE(reader.NextChunk(&batch, 16));
}

// -- Store payloads (trace format version 2) ---------------------------------

TEST(TraceIoTest, PayloadRoundTrip) {
  // Collect through ReplayTraceCollector: the canonical payload producer.
  ReplayTraceCollector collector;
  for (uint64_t i = 0; i < 50; ++i) {
    PmEvent ev;
    ev.seq = i;
    if (i % 3 == 0) {
      ev.kind = EventKind::kStore;
      ev.offset = i * 8;
      ev.size = 8;
      uint8_t bytes[8];
      for (size_t b = 0; b < 8; ++b) {
        bytes[b] = static_cast<uint8_t>(i + b);
      }
      ev.payload = bytes;
      collector.OnEvent(ev);
    } else {
      ev.kind = EventKind::kClwb;
      ev.offset = i * 8;
      ev.size = 64;
      collector.OnEvent(ev);
    }
  }
  const RecordedTrace& trace = collector.trace();

  std::stringstream buffer;
  ASSERT_TRUE(TraceIo::Write(trace.events, buffer, &trace.payloads));
  std::vector<PmEvent> loaded;
  PayloadStore payloads;
  std::string error;
  ASSERT_TRUE(TraceIo::Read(buffer, &loaded, &payloads, &error)) << error;
  ASSERT_EQ(loaded.size(), trace.events.size());
  for (size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded[i].seq, trace.events[i].seq);
    ASSERT_EQ(payloads.Has(i), trace.payloads.Has(i)) << "event " << i;
    if (payloads.Has(i)) {
      const auto got = payloads.For(i, loaded[i].size);
      const auto want = trace.payloads.For(i, loaded[i].size);
      ASSERT_EQ(got.size(), want.size());
      EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin()))
          << "payload bytes differ at event " << i;
    }
  }
}

TEST(TraceIoTest, LegacyTraceReadsWithEmptyPayloads) {
  std::vector<PmEvent> events(4);
  events[2].seq = 9;
  std::stringstream buffer;
  ASSERT_TRUE(TraceIo::Write(events, buffer));  // no payloads -> version 1
  std::vector<PmEvent> loaded;
  PayloadStore payloads;
  ASSERT_TRUE(TraceIo::Read(buffer, &loaded, &payloads));
  ASSERT_EQ(loaded.size(), 4u);
  EXPECT_EQ(loaded[2].seq, 9u);
  for (size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_FALSE(payloads.Has(i));
  }
  EXPECT_EQ(payloads.payload_bytes(), 0u);
}

TEST(TraceIoTest, RejectsFutureVersion) {
  std::stringstream buffer;
  buffer.write("MUMAKTR1", 8);
  const uint32_t version = 99;
  buffer.write(reinterpret_cast<const char*>(&version), sizeof(version));
  const uint64_t count = 0;
  buffer.write(reinterpret_cast<const char*>(&count), sizeof(count));
  std::vector<PmEvent> events;
  std::string error;
  EXPECT_FALSE(TraceIo::Read(buffer, &events, nullptr, &error));
  EXPECT_NE(error.find("version 99"), std::string::npos) << error;
}

TEST(TraceFileTest, PayloadSpoolRoundTrip) {
  const std::string path = ::testing::TempDir() + "/payload_spool.bin";
  {
    TraceFileSink sink(path, /*with_payloads=*/true);
    ASSERT_TRUE(sink.ok());
    for (uint64_t i = 0; i < 1000; ++i) {
      PmEvent ev;
      ev.seq = i;
      if (i % 2 == 0) {
        ev.kind = EventKind::kStore;
        ev.offset = i * 4;
        ev.size = 4;
        uint8_t bytes[4] = {static_cast<uint8_t>(i), 2, 3, 4};
        ev.payload = bytes;
        sink.OnEvent(ev);
      } else {
        ev.kind = EventKind::kSfence;
        sink.OnEvent(ev);
      }
    }
    sink.Close();
    EXPECT_EQ(sink.count(), 1000u);
    EXPECT_EQ(sink.payload_bytes(), 500u * 4);
  }
  TraceFileReader reader(path);
  ASSERT_TRUE(reader.ok()) << reader.error();
  EXPECT_EQ(reader.version(), 2u);
  EXPECT_TRUE(reader.has_payloads());
  // The site-name footer must still be reachable past the variable-length
  // payload records.
  EXPECT_FALSE(reader.site_names().empty());
  std::vector<PmEvent> batch;
  PayloadStore payloads;
  uint64_t seen = 0;
  while (reader.NextChunk(&batch, 128, &payloads)) {
    for (size_t i = 0; i < batch.size(); ++i) {
      if (batch[i].kind == EventKind::kStore) {
        ASSERT_TRUE(payloads.Has(i)) << "event " << seen + i;
        const auto bytes = payloads.For(i, batch[i].size);
        ASSERT_EQ(bytes.size(), 4u);
        EXPECT_EQ(bytes[0], static_cast<uint8_t>(batch[i].seq));
        EXPECT_EQ(bytes[1], 2u);
      } else {
        EXPECT_FALSE(payloads.Has(i));
      }
    }
    seen += batch.size();
  }
  EXPECT_EQ(seen, 1000u);
  EXPECT_EQ(reader.payload_bytes_read(), 500u * 4);
}

TEST(TraceFileTest, PayloadlessSpoolStaysVersionOne) {
  const std::string path = ::testing::TempDir() + "/legacy_spool.bin";
  {
    TraceFileSink sink(path);
    PmEvent ev;
    ev.kind = EventKind::kStore;
    ev.size = 8;
    uint8_t bytes[8] = {};
    ev.payload = bytes;  // ignored: the sink was not asked for payloads
    sink.OnEvent(ev);
    sink.Close();
  }
  TraceFileReader reader(path);
  ASSERT_TRUE(reader.ok()) << reader.error();
  EXPECT_EQ(reader.version(), 1u);
  EXPECT_FALSE(reader.has_payloads());
  std::vector<PmEvent> batch;
  PayloadStore payloads;
  ASSERT_TRUE(reader.NextChunk(&batch, 16, &payloads));
  EXPECT_FALSE(payloads.Has(0));
}

TEST(TraceFileTest, ReaderRejectsFutureVersion) {
  const std::string path = ::testing::TempDir() + "/future.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out.write("MUMAKTR1", 8);
    const uint32_t version = 7;
    out.write(reinterpret_cast<const char*>(&version), sizeof(version));
    const uint64_t count = 0;
    out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  }
  TraceFileReader reader(path);
  EXPECT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("version 7"), std::string::npos)
      << reader.error();
}

TEST(ReplayCollectorTest, CopiesPayloadOutOfTheBorrowedBuffer) {
  ReplayTraceCollector collector;
  uint8_t bytes[4] = {0xaa, 0xbb, 0xcc, 0xdd};
  PmEvent ev;
  ev.kind = EventKind::kStore;
  ev.offset = 16;
  ev.size = 4;
  ev.payload = bytes;
  collector.OnEvent(ev);
  // The borrowed buffer is only valid during dispatch; clobber it.
  bytes[0] = 0;
  bytes[1] = 0;
  const RecordedTrace& trace = collector.trace();
  ASSERT_EQ(trace.events.size(), 1u);
  // The stored event must not dangle into the producer's buffer.
  EXPECT_EQ(trace.events[0].payload, nullptr);
  ASSERT_TRUE(trace.payloads.Has(0));
  const auto copy = trace.payloads.For(0, 4);
  EXPECT_EQ(copy[0], 0xaa);
  EXPECT_EQ(copy[1], 0xbb);
}

TEST(DeterministicRandomTest, SameSeedSameStream) {
  DeterministicRandom a(99), b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  DeterministicRandom c(100);
  EXPECT_NE(a.Next(), c.Next());
}

TEST(DeterministicRandomTest, BoundsRespected) {
  DeterministicRandom rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

// -- Workload generator ------------------------------------------------------

TEST(WorkloadTest, DeterministicAndPrefixStable) {
  WorkloadSpec spec;
  spec.operations = 500;
  spec.key_space = 100;
  const auto a = WorkloadGenerator::Generate(spec);
  const auto b = WorkloadGenerator::Generate(spec);
  ASSERT_EQ(a.size(), 500u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].value, b[i].value);
  }
  // A longer workload with the same seed and key space extends the shorter.
  WorkloadSpec longer = spec;
  longer.operations = 1000;
  const auto c = WorkloadGenerator::Generate(longer);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, c[i].key);
  }
}

TEST(WorkloadTest, MixRoughlyHonoured) {
  WorkloadSpec spec;
  spec.operations = 30000;
  spec.put_pct = 60;
  spec.get_pct = 30;
  spec.delete_pct = 10;
  uint64_t puts = 0, gets = 0, dels = 0;
  for (const Op& op : WorkloadGenerator::Generate(spec)) {
    puts += op.kind == OpKind::kPut;
    gets += op.kind == OpKind::kGet;
    dels += op.kind == OpKind::kDelete;
    EXPECT_LT(op.key, spec.EffectiveKeySpace());
    EXPECT_NE(op.value, 0u);
  }
  EXPECT_NEAR(static_cast<double>(puts) / spec.operations, 0.60, 0.02);
  EXPECT_NEAR(static_cast<double>(gets) / spec.operations, 0.30, 0.02);
  EXPECT_NEAR(static_cast<double>(dels) / spec.operations, 0.10, 0.02);
}

TEST(WorkloadTest, ZipfianSkews) {
  WorkloadSpec spec;
  spec.operations = 20000;
  spec.key_space = 1000;
  spec.distribution = KeyDistribution::kZipfian;
  std::map<uint64_t, uint64_t> histogram;
  for (const Op& op : WorkloadGenerator::Generate(spec)) {
    EXPECT_LT(op.key, 1000u);
    ++histogram[op.key];
  }
  // The hottest key must be dramatically more frequent than uniform.
  uint64_t hottest = 0;
  for (const auto& [key, count] : histogram) {
    hottest = std::max(hottest, count);
  }
  EXPECT_GT(hottest, 20000u / 1000u * 10);
}

TEST(WorkloadTest, ResetReplays) {
  WorkloadSpec spec;
  spec.operations = 50;
  WorkloadGenerator gen(spec);
  std::vector<uint64_t> first;
  while (!gen.Done()) {
    first.push_back(gen.Next().key);
  }
  gen.Reset();
  for (uint64_t key : first) {
    EXPECT_EQ(gen.Next().key, key);
  }
}

}  // namespace
}  // namespace mumak
