#include "src/fleet/scheduler.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/injection_schedule.h"
#include "src/core/verdict_ledger.h"
#include "src/fleet/bootstrap.h"
#include "src/fleet/messages.h"
#include "src/fleet/transport.h"
#include "src/fleet/wire.h"
#include "src/fleet/worker.h"
#include "src/instrument/trace.h"
#include "src/observability/flat_json.h"
#include "src/pmem/replay_cursor.h"
#include "src/pmem/replay_seek_index.h"

namespace mumak {
namespace {

using Clock = std::chrono::steady_clock;

// A contiguous slice [begin, end) of the seq-sorted replay schedule.
struct Range {
  size_t begin = 0;
  size_t end = 0;
};

// Don't bother stealing from (or splitting) tails smaller than this.
constexpr size_t kMinStealTail = 4;

// How long the scheduler gives a dialing peer to complete its handshake
// before giving the accept slot back to the accept loop.
constexpr int kHandshakeTimeoutMs = 5000;

// One worker lane, behind a Transport: a forked child (pid >= 0, one end
// of a socketpair) or a stateless remote worker (pid < 0, a TCP
// connection). Everything the scheduler does with a lane — framing,
// decoding, death detection, salvage — goes through the transport, which
// is what keeps stealing/re-queue/merge identical across both kinds.
struct WorkerState {
  std::unique_ptr<fleet::Transport> transport;
  pid_t pid = -1;  // -1 = remote: death is connection loss, not SIGCHLD
  bool alive = false;
  bool idle = true;
  bool steal_outstanding = false;
  size_t begin = 0;
  size_t end = 0;
  // Next schedule index this worker has not delivered — verdicts arrive in
  // index order per range, so on death [next_index, end) is exactly what
  // was lost (a point processed but torn mid-frame re-runs elsewhere; the
  // oracle is deterministic, so the re-run verdict is identical).
  size_t next_index = 0;
  uint64_t verdicts = 0;
  uint64_t collisions = 0;
  Clock::time_point last_heard;
};

}  // namespace

Report RunFleetCampaign(FaultInjectionEngine* engine, FailurePointTree* tree,
                        FaultInjectionStats* stats,
                        const FleetConfig& config) {
  const FaultInjectionOptions& opts = engine->options();
  MetricsRegistry* metrics = opts.metrics;
  auto gauge = [&](const char* name, uint64_t value) {
    if (metrics != nullptr) {
      metrics->GetGauge(name)->Set(value);
    }
  };
  auto count = [&](const char* name, uint64_t by = 1) {
    if (metrics != nullptr && by != 0) {
      metrics->GetCounter(name)->Increment(by);
    }
  };

  stats->failure_points = tree->FailurePointCount();
  stats->replay_trace_bytes = engine->replay_trace().FootprintBytes();

  // Campaign-wide verdict caches. `warm` holds the entries loaded from
  // --verdict-cache (consulted by every worker at every point); `session`
  // accumulates this campaign's fresh verdicts (workers' insert frames plus
  // inline-fallback runs). Kept separate because they carry different
  // trust rules under out-of-order shard processing — see worker.h.
  std::optional<VerdictCache> warm_storage;
  std::optional<VerdictCache> session_storage;
  VerdictCache* warm = nullptr;
  VerdictCache* session = nullptr;
  if (opts.image_dedup) {
    warm_storage.emplace(opts.verify_dedup);
    session_storage.emplace(opts.verify_dedup);
    warm = &*warm_storage;
    session = &*session_storage;
    if (!opts.verdict_cache_path.empty()) {
      if (!engine->fingerprint_ready()) {
        std::fprintf(stderr,
                     "mumak: --verdict-cache: no trace fingerprint recorded "
                     "(Profile() did not run on this engine); starting with "
                     "an empty cache and skipping the save\n");
      } else {
        std::string warning;
        warm->Load(opts.verdict_cache_path, engine->trace_fingerprint(),
                   &warning);
        if (!warning.empty()) {
          std::fprintf(stderr, "mumak: verdict cache: %s\n", warning.c_str());
        }
      }
    }
  }

  engine->ApplyResume(tree, stats);
  const std::vector<ReplayPoint> full_schedule =
      engine->BuildReplaySchedule(*tree);

  // Adaptive plan: only class representatives are sharded out; classmates
  // get the representative's verdict fanned out in record_verdict below.
  // Ranking never reorders the schedule here — shards must stay
  // seq-contiguous so each worker's cursor advances monotonically — it
  // reorders the shard *queue* instead (highest expected yield first).
  InjectionPlanOptions plan_options;
  plan_options.prune_equiv = opts.prune_equiv;
  plan_options.rank = false;
  plan_options.findings = opts.rank_findings;
  InjectionPlan plan = BuildInjectionPlan(
      full_schedule, engine->epoch_summaries(), plan_options);
  std::vector<ReplayPoint> schedule;
  std::vector<std::vector<ReplayPoint>> classmates;
  schedule.reserve(plan.checks.size());
  classmates.reserve(plan.checks.size());
  for (PlannedCheck& check : plan.checks) {
    schedule.push_back(check.point);
    classmates.push_back(std::move(check.classmates));
  }
  stats->plan_finding_hits = plan.finding_hits;
  const uint32_t workers = static_cast<uint32_t>(std::max<uint64_t>(
      1, std::min<uint64_t>(config.workers,
                            schedule.empty() ? 1 : schedule.size())));
  // One lane per worker plus the inline-fallback lane. Classmates advance
  // progress when their representative's verdict fans out, so the total is
  // the full schedule, not just the sharded checks.
  VerdictLedger ledger(opts, tree, workers + 1, engine->resume_schedule(),
                       full_schedule.size());
  InjectionMetrics::Add(ledger.metrics().rank_finding_hits,
                        plan.finding_hits);
  size_t shard_count =
      config.shards != 0 ? config.shards : static_cast<size_t>(workers) * 4;
  shard_count = std::max<size_t>(
      1, std::min(shard_count, schedule.empty() ? 1 : schedule.size()));

  gauge("fleet.workers", workers);
  gauge("fleet.shards", shard_count);
  gauge("inject.workers", workers);
  gauge("inject.replay_trace_bytes", stats->replay_trace_bytes);

  // Epoch-contiguous shards: each worker's cursor advances monotonically
  // within a range, and a range start is a seek target.
  std::deque<Range> queue;
  for (size_t s = 0; s < shard_count && !schedule.empty(); ++s) {
    const size_t b = s * schedule.size() / shard_count;
    const size_t e = (s + 1) * schedule.size() / shard_count;
    if (b < e) {
      queue.push_back({b, e});
    }
  }

  // Checkpoint index keyed to the shard starts: one scout pass before
  // dispatch captures up to seek_checkpoints images, which every forked
  // worker then inherits copy-on-write and seeks from instead of replaying
  // from zero. Remote workers get the same shard-start seqs shipped and
  // run an identical scout pass over the shipped trace.
  std::vector<uint64_t> scout_seqs;
  ReplaySeekIndex seek_index(&engine->replay_trace(),
                             schedule.empty() ? 0 : opts.seek_checkpoints);
  if (!schedule.empty() && opts.seek_checkpoints > 0) {
    ReplayCursor scout(engine->replay_trace(), engine->profiled_pool_size(),
                       /*track_digest=*/opts.image_dedup);
    scout_seqs.reserve(queue.size());
    for (const Range& shard : queue) {
      scout.AdvanceTo(schedule[shard.begin].seq);
      seek_index.MaybeCapture(scout);
      scout_seqs.push_back(schedule[shard.begin].seq);
    }
  }

  // Detector-guided shard priority (--rank): dispatch shards in descending
  // expected-yield order — finding overlaps first, then epoch store
  // density, then position. Runs after the scout pass (which needs the
  // queue in seq order for its monotone cursor).
  if (opts.rank && queue.size() > 1) {
    struct ShardKey {
      uint64_t hits = 0;
      uint64_t stores = 0;
    };
    auto key_of = [&](const Range& range) {
      ShardKey key;
      for (size_t i = range.begin; i < range.end; ++i) {
        key.hits += plan.checks[i].finding_hit ? 1 : 0;
        key.stores += plan.checks[i].span_stores;
      }
      return key;
    };
    std::vector<std::pair<Range, ShardKey>> keyed;
    keyed.reserve(queue.size());
    for (const Range& range : queue) {
      keyed.push_back({range, key_of(range)});
    }
    std::stable_sort(keyed.begin(), keyed.end(),
                     [](const std::pair<Range, ShardKey>& a,
                        const std::pair<Range, ShardKey>& b) {
                       if (a.second.hits != b.second.hits) {
                         return a.second.hits > b.second.hits;
                       }
                       if (a.second.stores != b.second.stores) {
                         return a.second.stores > b.second.stores;
                       }
                       return a.first.begin < b.first.begin;
                     });
    queue.clear();
    for (const std::pair<Range, ShardKey>& entry : keyed) {
      queue.push_back(entry.first);
    }
  }

  // First delivery wins: a re-queued range can re-deliver indices whose
  // original verdict arrived before the worker died.
  std::vector<uint8_t> have(schedule.size(), 0);
  size_t received = 0;
  bool exhausted = false;

  auto record_verdict = [&](uint32_t worker_index, size_t index,
                            JournalVerdict v) {
    if (index >= schedule.size() || have[index] != 0) {
      return;
    }
    have[index] = 1;
    ++received;
    // The ledger stamps the location here, not in the worker: path strings
    // resolve through the process-global frame registry, which a stateless
    // remote worker does not have.
    ledger.Dispatch(worker_index, schedule[index]);
    ledger.Verdict(worker_index, schedule[index], std::move(v),
                   classmates[index]);
  };

  std::vector<WorkerState> fleet(workers);
  size_t alive_count = 0;
  bool test_killed = false;

  auto handle_message = [&](uint32_t w, JsonValue msg) {
    WorkerState& ws = fleet[w];
    ws.last_heard = Clock::now();
    const std::string type = msg.Str("type");
    if (type == "verdict") {
      const size_t index = static_cast<size_t>(msg.U64("index"));
      record_verdict(w, index, fleet::VerdictFromMessage(msg));
      if (index >= ws.next_index) {
        ws.next_index = index + 1;
      }
      ++ws.verdicts;
      if (config.kill_worker_after > 0 && w == 0 && !test_killed &&
          ws.alive && ws.verdicts >= config.kill_worker_after) {
        // Fault-tolerance hook (--fleet-kill-after): kill worker 0
        // mid-flight — SIGKILL for a forked child, a severed connection
        // for a remote worker. Either way the normal death path notices,
        // reaps the lane and re-queues its unfinished range.
        test_killed = true;
        if (ws.pid >= 0) {
          ::kill(ws.pid, SIGKILL);
        } else if (ws.transport != nullptr && ws.transport->ok()) {
          ::shutdown(ws.transport->fd(), SHUT_RDWR);
        }
      }
    } else if (type == "insert") {
      ImageDigest digest;
      VerdictCacheEntry entry;
      if (session != nullptr &&
          fleet::InsertFromMessage(msg, &digest, &entry)) {
        session->Insert(digest, std::move(entry), nullptr, 0);
      }
    } else if (type == "stolen") {
      ws.steal_outstanding = false;
      const size_t b = static_cast<size_t>(msg.U64("begin"));
      const size_t e = static_cast<size_t>(msg.U64("end"));
      if (b < e && e <= schedule.size()) {
        ws.end = b;
        queue.push_back({b, e});
      }
    } else if (type == "done") {
      ws.idle = true;
      ws.steal_outstanding = false;
      ws.collisions = msg.U64("collisions");
    } else if (type == "heartbeat") {
      count("fleet.heartbeats");
    }
    // "hello" (and anything unknown): liveness only.
  };

  // Decodes everything buffered on a worker's stream. Returns false when
  // the stream is corrupt (treated as worker death).
  auto drain_decoder = [&](uint32_t w) {
    WorkerState& ws = fleet[w];
    std::string payload;
    for (;;) {
      const FleetDecodeStatus status = ws.transport->Next(&payload);
      if (status == FleetDecodeStatus::kOk) {
        JsonValue msg;
        if (JsonParser(payload).Parse(&msg)) {
          handle_message(w, std::move(msg));
        }
        continue;
      }
      return status == FleetDecodeStatus::kNeedMore;
    }
  };

  auto reap = [&](uint32_t w) {
    WorkerState& ws = fleet[w];
    if (!ws.alive) {
      return;
    }
    // Salvage the intact frames the dying worker flushed; a torn tail is
    // discarded (same prefix discipline as the MJN1 journal reader).
    ws.transport->DrainPending();
    drain_decoder(w);
    if (ws.pid >= 0) {
      ::kill(ws.pid, SIGKILL);
      int status = 0;
      ::waitpid(ws.pid, &status, 0);
    }
    ws.transport->Close();
    ws.alive = false;
    --alive_count;
    count("fleet.worker_deaths");
    if (!ws.idle && ws.next_index < ws.end) {
      queue.push_back({ws.next_index, ws.end});
      count("fleet.requeued", ws.end - ws.next_index);
    }
    ws.idle = true;
  };

  auto assign = [&] {
    for (WorkerState& ws : fleet) {
      if (queue.empty()) {
        break;
      }
      if (!ws.alive || !ws.idle) {
        continue;
      }
      const Range r = queue.front();
      if (!ws.transport->Send(
              fleet::RangeMessage("range", r.begin, r.end))) {
        continue;  // send failed: the poll loop will reap this worker
      }
      queue.pop_front();
      ws.idle = false;
      ws.begin = r.begin;
      ws.end = r.end;
      ws.next_index = r.begin;
    }
    if (!queue.empty() || received >= schedule.size()) {
      return;
    }
    // Work stealing: each idle worker raids the busiest shard (largest
    // unfinished tail), one outstanding steal per victim. The victim
    // splits its tail and the stolen range cycles through the queue back
    // to an idle worker.
    for (WorkerState& thief : fleet) {
      if (!thief.alive || !thief.idle) {
        continue;
      }
      WorkerState* victim = nullptr;
      size_t best = 0;
      for (WorkerState& v : fleet) {
        if (!v.alive || v.idle || v.steal_outstanding) {
          continue;
        }
        const size_t tail = v.end > v.next_index ? v.end - v.next_index : 0;
        if (tail >= kMinStealTail && tail > best) {
          victim = &v;
          best = tail;
        }
      }
      if (victim == nullptr) {
        break;
      }
      if (victim->transport->Send(fleet::SimpleMessage("steal"))) {
        victim->steal_outstanding = true;
        count("fleet.steals");
      }
    }
  };

  // --- bring the fleet up ------------------------------------------------
  const bool tcp_mode = config.listen_fd >= 0 || !config.listen.empty();
  if (tcp_mode && !schedule.empty()) {
    // TCP mode: accept up to `workers` stateless remote workers within the
    // accept window, handshake each, and ship it the campaign artifacts.
    // Lanes still empty when the window closes just never join.
    int listener = config.listen_fd;
    if (listener < 0) {
      std::string error;
      listener = fleet::TcpListen(config.listen, &error);
      if (listener < 0) {
        std::fprintf(stderr, "mumak: fleet: %s\n", error.c_str());
      }
    }
    if (listener >= 0) {
      fleet::BootstrapArtifacts artifacts;
      artifacts.target_spec = config.target_spec;
      std::ostringstream trace_stream;
      TraceIo::WriteV3(engine->replay_trace().events, trace_stream,
                       &engine->replay_trace().payloads);
      artifacts.trace_v3 = trace_stream.str();
      artifacts.schedule_seqs.reserve(schedule.size());
      for (const ReplayPoint& point : schedule) {
        artifacts.schedule_seqs.push_back(point.seq);
      }
      artifacts.scout_seqs = scout_seqs;
      artifacts.pool_size = engine->profiled_pool_size();
      artifacts.image_dedup = opts.image_dedup;
      artifacts.verify_dedup = opts.verify_dedup;
      artifacts.seek_checkpoints = opts.seek_checkpoints;
      artifacts.sandbox = opts.sandbox;
      if (warm != nullptr) {
        warm->ForEach([&](const ImageDigest& digest,
                          const VerdictCacheEntry& entry) {
          artifacts.warm_entries.emplace_back(digest, entry);
        });
      }
      if (artifacts.target_spec.empty()) {
        std::fprintf(stderr,
                     "mumak: fleet: TCP mode without a target spec; remote "
                     "workers cannot bootstrap\n");
      }
      const auto accept_deadline =
          Clock::now() +
          std::chrono::milliseconds(std::max<uint32_t>(
              config.accept_timeout_ms, 100));
      uint32_t lane = 0;
      while (lane < workers && !artifacts.target_spec.empty()) {
        const auto now = Clock::now();
        if (now >= accept_deadline) {
          break;
        }
        pollfd pfd = {listener, POLLIN, 0};
        const int wait_ms = static_cast<int>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                accept_deadline - now)
                .count());
        const int ready = ::poll(&pfd, 1, std::max(wait_ms, 1));
        if (ready < 0 && errno != EINTR) {
          break;
        }
        if (ready <= 0) {
          continue;
        }
        std::unique_ptr<fleet::TcpTransport> transport =
            fleet::TcpAccept(listener);
        if (transport == nullptr) {
          continue;
        }
        fleet::FleetHandshake peer;
        std::string error;
        if (!fleet::ReadHandshake(transport.get(), kHandshakeTimeoutMs,
                                  &peer, &error) ||
            peer.proto != fleet::kFleetProtoVersion ||
            peer.role != "worker") {
          std::fprintf(stderr, "mumak: fleet: rejected connection: %s\n",
                       error.empty() ? "incompatible handshake"
                                     : error.c_str());
          continue;
        }
        fleet::FleetHandshake ours;
        ours.proto = fleet::kFleetProtoVersion;
        ours.role = "scheduler";
        ours.worker = lane;
        ours.fingerprint =
            engine->fingerprint_ready() ? engine->trace_fingerprint() : 0;
        if (!transport->Send(fleet::HandshakeMessage(ours)) ||
            !fleet::ShipBootstrap(transport.get(), artifacts)) {
          continue;  // dropped mid-bootstrap: the lane stays empty
        }
        WorkerState& ws = fleet[lane];
        ws.transport = std::move(transport);
        ws.pid = -1;
        ws.alive = true;
        ws.last_heard = Clock::now();
        ++alive_count;
        count("fleet.remote_workers");
        ++lane;
      }
      if (config.listen_fd < 0) {
        ::close(listener);
      }
      if (lane == 0) {
        std::fprintf(stderr,
                     "mumak: fleet: no remote workers connected within "
                     "%u ms; running inline\n",
                     config.accept_timeout_ms);
      }
    }
  } else if (!schedule.empty()) {
    // Fork mode: spawn workers that inherit the campaign state
    // copy-on-write.
    std::vector<int> parent_fds;
    for (uint32_t w = 0; w < workers; ++w) {
      int fds[2];
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
        std::fprintf(stderr, "mumak: fleet: socketpair: %s\n",
                     std::strerror(errno));
        break;
      }
      std::fflush(stdout);
      std::fflush(stderr);
      const pid_t pid = ::fork();
      if (pid < 0) {
        std::fprintf(stderr, "mumak: fleet: fork: %s\n",
                     std::strerror(errno));
        ::close(fds[0]);
        ::close(fds[1]);
        break;
      }
      if (pid == 0) {
        // Child: drop the scheduler-side ends (its own and every earlier
        // sibling's — inherited copies would keep those streams from ever
        // reporting EOF) and run the worker loop over everything Profile()
        // built, inherited copy-on-write. _exit: never unwind into the
        // parent's journal writer/stdio/atexit state.
        ::close(fds[0]);
        for (const int other : parent_fds) {
          ::close(other);
        }
        fleet::WorkerMain(fds[1], w, *engine, schedule, seek_index, warm);
        ::_exit(0);
      }
      ::close(fds[1]);
      parent_fds.push_back(fds[0]);
      WorkerState& ws = fleet[w];
      ws.pid = pid;
      ws.transport = std::make_unique<fleet::SocketPairTransport>(fds[0]);
      ws.alive = true;
      ws.last_heard = Clock::now();
      ++alive_count;
    }
  }

  const auto heartbeat_timeout = std::chrono::milliseconds(
      std::max<uint32_t>(config.heartbeat_timeout_ms, 100));

  // --- event loop -------------------------------------------------------
  assign();
  while (received < schedule.size() && alive_count > 0) {
    if (ledger.Halted()) {
      exhausted = true;
      break;
    }
    std::vector<pollfd> pfds;
    std::vector<uint32_t> owner;
    for (uint32_t w = 0; w < workers; ++w) {
      if (fleet[w].alive && fleet[w].transport->ok()) {
        pfds.push_back({fleet[w].transport->fd(), POLLIN, 0});
        owner.push_back(w);
      }
    }
    const int ready = ::poll(pfds.data(), pfds.size(), 100);
    if (ready < 0 && errno != EINTR) {
      break;
    }
    for (size_t p = 0; p < pfds.size(); ++p) {
      const uint32_t w = owner[p];
      WorkerState& ws = fleet[w];
      if (!ws.alive || pfds[p].revents == 0) {
        continue;
      }
      bool dead = false;
      if ((pfds[p].revents & POLLIN) != 0) {
        if (ws.transport->ReadSome(/*blocking=*/false) < 0) {
          dead = true;  // EOF or hard error: the worker is gone
        }
        if (!drain_decoder(w)) {
          dead = true;  // corrupt stream == dead worker
        }
      } else if ((pfds[p].revents & (POLLHUP | POLLERR | POLLNVAL)) != 0) {
        dead = true;
      }
      if (dead) {
        reap(w);
      }
    }
    // Heartbeat/timeout death detection: a worker that is neither
    // delivering verdicts nor heartbeating is wedged or gone.
    const auto now = Clock::now();
    for (uint32_t w = 0; w < workers; ++w) {
      if (fleet[w].alive && now - fleet[w].last_heard > heartbeat_timeout) {
        reap(w);
      }
    }
    assign();
  }

  // --- shut the fleet down ---------------------------------------------
  for (uint32_t w = 0; w < workers; ++w) {
    WorkerState& ws = fleet[w];
    if (!ws.alive) {
      continue;
    }
    ws.transport->Send(fleet::SimpleMessage("shutdown"));
    if (ws.pid >= 0) {
      ::kill(ws.pid, SIGKILL);
      int status = 0;
      ::waitpid(ws.pid, &status, 0);
    }
    ws.transport->Close();
    ws.alive = false;
    --alive_count;
  }

  // --- inline fallback ---------------------------------------------------
  // Every worker died (or none could be forked/accepted) with ranges still
  // queued: finish them in this process. A zero-worker fleet is just the
  // single-process pipeline — the campaign completes either way.
  if (!exhausted && received < schedule.size() && !queue.empty()) {
    std::fprintf(stderr,
                 "mumak: fleet: no workers left; finishing %zu range(s) "
                 "inline\n",
                 queue.size());
    std::optional<RecoverySandbox> sandbox;
    if (opts.sandbox.policy != SandboxPolicy::kInProcess) {
      SandboxOptions sandbox_options = opts.sandbox;
      sandbox_options.metrics = opts.metrics;
      sandbox_options.tracer = opts.tracer;
      sandbox.emplace(engine->factory(), engine->profiled_pool_size(), 1,
                      sandbox_options);
    }
    while (!queue.empty() && !exhausted) {
      const Range r = queue.front();
      queue.pop_front();
      std::unique_ptr<ReplayCursor> cursor = seek_index.SeekCursor(
          schedule[r.begin].seq, engine->profiled_pool_size(),
          /*track_digest=*/opts.image_dedup);
      for (size_t i = r.begin; i < r.end; ++i) {
        if (ledger.Halted()) {
          exhausted = true;
          break;
        }
        if (have[i] != 0) {
          continue;  // delivered before its worker died
        }
        fleet::PointResult result = fleet::ProcessReplayPoint(
            engine->factory(), schedule[i], cursor.get(),
            sandbox.has_value() ? &*sandbox : nullptr, warm, session);
        record_verdict(workers, i, std::move(result.verdict));
      }
    }
  }

  // --- deterministic merge ----------------------------------------------
  // The ledger folds every verdict (fleet + resumed) in seq order, first
  // per detail wins — properties of the schedule and the (deterministic)
  // oracle, not of which worker ran what, which is why the merged report
  // is byte-identical to a single-process run at any worker count, over
  // fork or TCP transports alike.
  Report report = ledger.Finish(stats);
  stats->replayed = stats->injections;
  uint64_t collisions = session != nullptr ? session->collisions() : 0;
  for (const WorkerState& ws : fleet) {
    collisions += ws.collisions;
  }
  stats->dedup_collisions = collisions;
  if (warm != nullptr && session != nullptr) {
    stats->cache_loaded = warm->loaded();
    stats->distinct_images = session->size();
    count("inject.distinct_images", session->size());
    warm->AbsorbFrom(*session);
    if (!opts.verdict_cache_path.empty() && engine->fingerprint_ready()) {
      std::string error;
      if (warm->Save(opts.verdict_cache_path, engine->trace_fingerprint(),
                     &error)) {
        stats->cache_saved = warm->size();
      } else {
        std::fprintf(stderr, "mumak: verdict cache: %s\n", error.c_str());
      }
    }
    gauge("verdict_cache.entries", warm->size());
    gauge("verdict_cache.loaded", warm->loaded());
  }
  return report;
}

}  // namespace mumak
