#include "src/fleet/worker.h"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "src/fleet/messages.h"
#include "src/fleet/transport.h"
#include "src/fleet/wire.h"
#include "src/observability/flat_json.h"
#include "src/pmem/replay_cursor.h"
#include "src/sandbox/recovery_sandbox.h"

namespace mumak {
namespace fleet {
namespace {

// Heartbeat cadence through stretches with no verdict traffic (long oracle
// runs); the scheduler's death timeout must comfortably exceed this plus
// the sandbox recovery deadline.
constexpr auto kHeartbeatInterval = std::chrono::milliseconds(500);
// Refuse steal requests that would leave either side under this many
// points — splitting single-digit tails thrashes more than it balances.
constexpr size_t kMinStealRemainder = 2;

}  // namespace

PointResult ProcessReplayPoint(const TargetFactory& factory,
                               const ReplayPoint& point, ReplayCursor* cursor,
                               RecoverySandbox* sandbox,
                               VerdictCache* warm_cache,
                               VerdictCache* session_cache) {
  PointResult r;
  const std::vector<uint8_t>& image = cursor->AdvanceTo(point.seq);

  bool hit = false;
  bool fresh_insert = false;
  VerdictCacheEntry cached;
  if (warm_cache != nullptr || session_cache != nullptr) {
    r.digest = cursor->Digest();
    if (warm_cache != nullptr &&
        warm_cache->Lookup(r.digest, image.data(), image.size(), &cached) ==
            VerdictCache::Outcome::kHit) {
      hit = true;
    }
    if (!hit && session_cache != nullptr) {
      switch (session_cache->Lookup(r.digest, image.data(), image.size(),
                                    &cached)) {
        case VerdictCache::Outcome::kHit:
          // Trust rule (see worker.h): a session entry born at a later seq
          // must not be attributed backwards.
          hit = cached.first_seq < point.seq;
          break;
        case VerdictCache::Outcome::kMiss:
          fresh_insert = true;
          break;
        case VerdictCache::Outcome::kCollision:
          break;  // run the oracle, cache nothing (digest taken)
      }
    }
  }

  if (hit) {
    r.verdict = VerdictFromCache(cached, r.digest);
    return r;
  }

  r.verdict = RunOracle(sandbox, 0, factory, cursor->borrow_image());
  if (fresh_insert && r.verdict.oracle_ran) {
    r.insert = true;
    r.entry = CacheEntryFromVerdict(r.verdict, point.seq);
    session_cache->Insert(
        r.digest, r.entry,
        session_cache->verify() ? image.data() : nullptr,
        session_cache->verify() ? image.size() : 0);
  }
  return r;
}

void WorkerLoop(Transport* transport, uint32_t worker_id,
                const WorkerEnv& env) {
  ::signal(SIGPIPE, SIG_IGN);
  const std::vector<ReplayPoint>& schedule = *env.schedule;

  // The worker's own sandbox: forked here, while this process is
  // single-threaded, and slots map 1:1 onto oracle runs, so one slot
  // suffices.
  std::optional<RecoverySandbox> sandbox;
  if (env.sandbox.policy != SandboxPolicy::kInProcess) {
    SandboxOptions sandbox_options = env.sandbox;
    sandbox_options.metrics = nullptr;  // scheduler-owned; not ours
    sandbox_options.tracer = nullptr;
    sandbox.emplace(env.factory, env.pool_size, 1, sandbox_options);
  }
  std::optional<VerdictCache> session;
  if (env.image_dedup) {
    session.emplace(env.verify_dedup);
  }
  VerdictCache* warm_cache = env.image_dedup ? env.warm_cache : nullptr;

  std::deque<JsonValue> inbox;
  auto last_send = std::chrono::steady_clock::now();

  auto send_json = [&](const std::string& json) -> bool {
    if (!transport->Send(json)) {
      return false;  // scheduler gone
    }
    last_send = std::chrono::steady_clock::now();
    return true;
  };
  // -1 peer dead/corrupt, 0 nothing available, 1 progress.
  auto read_some = [&](bool blocking) -> int {
    const int got = transport->ReadSome(blocking);
    if (got < 0) {
      return -1;  // EOF: scheduler died; anytime/resume semantics take over
    }
    std::string payload;
    for (;;) {
      const FleetDecodeStatus status = transport->Next(&payload);
      if (status == FleetDecodeStatus::kOk) {
        JsonValue msg;
        if (JsonParser(payload).Parse(&msg)) {
          inbox.push_back(std::move(msg));
        }
        continue;
      }
      if (status != FleetDecodeStatus::kNeedMore) {
        return -1;  // corrupt stream
      }
      return got;
    }
  };

  if (!send_json(JsonObject()
                     .Str("type", "hello")
                     .U64("worker", worker_id)
                     .Finish())) {
    return;
  }

  for (;;) {
    while (inbox.empty()) {
      if (read_some(/*blocking=*/true) < 0) {
        return;
      }
    }
    JsonValue msg = std::move(inbox.front());
    inbox.pop_front();
    const std::string type = msg.Str("type");
    if (type == "shutdown") {
      return;
    }
    if (type == "steal") {
      // Idle: nothing to give.
      if (!send_json(RangeMessage("stolen", 0, 0))) {
        return;
      }
      continue;
    }
    if (type != "range") {
      continue;
    }
    const size_t begin = static_cast<size_t>(msg.U64("begin"));
    size_t end = static_cast<size_t>(msg.U64("end"));
    if (begin >= end || end > schedule.size()) {
      if (!send_json(SimpleMessage("done"))) {
        return;
      }
      continue;
    }
    // Seek to the shard start instead of replaying the whole prefix; the
    // cursor then advances monotonically within the (seq-contiguous) range.
    std::unique_ptr<ReplayCursor> cursor = env.seek_index->SeekCursor(
        schedule[begin].seq, env.pool_size,
        /*track_digest=*/env.image_dedup);
    for (size_t i = begin; i < end; ++i) {
      // Drain control traffic between points: steal requests shrink this
      // range's tail, shutdown aborts mid-range.
      for (;;) {
        const int got = read_some(/*blocking=*/false);
        if (got < 0) {
          return;
        }
        if (got == 0) {
          break;
        }
      }
      bool aborted = false;
      while (!inbox.empty()) {
        JsonValue control = std::move(inbox.front());
        inbox.pop_front();
        const std::string kind = control.Str("type");
        if (kind == "shutdown") {
          return;
        }
        if (kind == "steal") {
          // Give away the upper half of what is left beyond the current
          // point (the thief seeks to its start; this cursor never goes
          // there).
          const size_t tail = end - i;
          size_t mid = end;
          if (tail >= 2 * kMinStealRemainder) {
            mid = i + tail / 2;
          }
          if (!send_json(RangeMessage("stolen", mid, end))) {
            return;
          }
          end = mid;
          if (i >= end) {
            aborted = true;
          }
        }
      }
      if (aborted) {
        break;
      }
      if (std::chrono::steady_clock::now() - last_send >=
          kHeartbeatInterval) {
        if (!send_json(SimpleMessage("heartbeat"))) {
          return;
        }
      }
      const PointResult r = ProcessReplayPoint(
          env.factory, schedule[i], cursor.get(),
          sandbox.has_value() ? &*sandbox : nullptr, warm_cache,
          session.has_value() ? &*session : nullptr);
      // Insert precedes verdict on the stream: the scheduler's event loop
      // may exit the moment the final verdict lands, and must not leave a
      // trailing cache insert undrained in the socket.
      if (r.insert && !send_json(InsertMessage(r.digest, r.entry))) {
        return;
      }
      if (!send_json(VerdictMessage(i, r.verdict))) {
        return;
      }
    }
    if (!send_json(JsonObject()
                       .Str("type", "done")
                       .U64("collisions",
                            session.has_value() ? session->collisions() : 0)
                       .Finish())) {
      return;
    }
  }
}

void WorkerMain(int fd, uint32_t worker_id, const FaultInjectionEngine& engine,
                const std::vector<ReplayPoint>& schedule,
                const ReplaySeekIndex& seek_index, VerdictCache* warm_cache) {
  const FaultInjectionOptions& opts = engine.options();
  WorkerEnv env;
  env.factory = engine.factory();
  env.pool_size = engine.profiled_pool_size();
  env.schedule = &schedule;
  env.seek_index = &seek_index;
  env.warm_cache = warm_cache;
  env.image_dedup = opts.image_dedup;
  env.verify_dedup = opts.verify_dedup;
  env.sandbox = opts.sandbox;
  SocketPairTransport transport(fd);
  WorkerLoop(&transport, worker_id, env);
}

}  // namespace fleet
}  // namespace mumak
