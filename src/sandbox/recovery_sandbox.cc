#include "src/sandbox/recovery_sandbox.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>

#include "src/observability/span_tracer.h"
#include "src/sandbox/child.h"
#include "src/sandbox/wire.h"

namespace mumak {
namespace {

using Clock = std::chrono::steady_clock;

// Command sent to a fork-server worker before each check. Raw struct copy
// is fine here: both ends are forks of the same binary.
struct CmdHeader {
  uint64_t image_size = 0;
  uint32_t timeout_ms = 0;
  uint32_t reserved = 0;
};

// Death-probe interval while waiting for a verdict. EOF on the channel
// reports most deaths instantly; the probe covers write-end file
// descriptors leaked into sibling children by concurrent forks.
constexpr int kDeathProbeMs = 20;

int64_t RemainingMs(Clock::time_point deadline) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                               Clock::now())
      .count();
}

bool WriteFull(int fd, const void* data, size_t size) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  while (size > 0) {
    // send() so a dead peer yields EPIPE instead of a fatal SIGPIPE.
    ssize_t n = send(fd, p, size, MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK) {
      n = write(fd, p, size);  // plain pipe (fork-per-check child)
    }
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    p += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

// Blocking full read; returns false on EOF or error. Worker side only —
// the parent never reads without a deadline.
bool ReadFull(int fd, void* data, size_t size) {
  uint8_t* p = static_cast<uint8_t*>(data);
  while (size > 0) {
    const ssize_t n = read(fd, p, size);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    if (n == 0) {
      return false;
    }
    p += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

// Streams the child's sub-phase spans (frames preceding the verdict) and
// then the verdict itself. Returns false when the parent went away.
bool WriteSpansAndVerdict(int fd, const std::vector<WireSpan>& spans,
                          const WireVerdict& verdict) {
  for (const WireSpan& span : spans) {
    const std::vector<uint8_t> frame = EncodeSpan(span);
    if (!WriteFull(fd, frame.data(), frame.size())) {
      return false;
    }
  }
  const std::vector<uint8_t> message = EncodeVerdict(verdict);
  return WriteFull(fd, message.data(), message.size());
}

// A verdict for a check the sandbox could not run at all.
SandboxVerdict SandboxError(const char* detail) {
  SandboxVerdict verdict;
  verdict.status = RecoveryStatus::kCrashed;
  verdict.detail = detail;
  verdict.oracle_ran = false;
  return verdict;
}

// Long-lived fork-server worker: serve checks from the shared image buffer
// until the command channel closes. Runs in the child; never returns.
[[noreturn]] void WorkerMain(int fd, const SandboxTargetFactory& factory,
                             uint8_t* shm, size_t capacity,
                             bool verify_digest, bool emit_spans) {
  for (;;) {
    CmdHeader cmd;
    if (!ReadFull(fd, &cmd, sizeof(cmd))) {
      _exit(0);  // parent closed the channel: clean shutdown
    }
    if (cmd.image_size > capacity) {
      _exit(3);  // protocol violation; parent classifies the nonzero exit
    }
    std::vector<WireSpan> spans;
    const WireVerdict verdict = RunOracleInSandboxProcess(
        factory, shm, static_cast<size_t>(cmd.image_size), verify_digest,
        emit_spans ? &spans : nullptr);
    if (!WriteSpansAndVerdict(fd, spans, verdict)) {
      _exit(0);  // parent went away mid-reply
    }
  }
}

// Maps an anonymous shared buffer: memfd-backed when available (shows up
// as /memfd:mumak-sandbox in /proc for debuggability), plain
// MAP_ANONYMOUS | MAP_SHARED otherwise. Either way the mapping is
// inherited across fork and shared with every worker.
uint8_t* MapSharedImage(size_t bytes) {
  void* mem = MAP_FAILED;
#ifdef MFD_CLOEXEC
  const int fd = memfd_create("mumak-sandbox-img", MFD_CLOEXEC);
  if (fd >= 0) {
    if (ftruncate(fd, static_cast<off_t>(bytes)) == 0) {
      mem = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
    }
    close(fd);  // the mapping keeps the memory alive
  }
#endif
  if (mem == MAP_FAILED) {
    mem = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
               MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  }
  return mem == MAP_FAILED ? nullptr : static_cast<uint8_t*>(mem);
}

}  // namespace

RecoverySandbox::RecoverySandbox(SandboxTargetFactory factory,
                                 size_t image_bytes, uint32_t slots,
                                 SandboxOptions options)
    : factory_(std::move(factory)),
      image_bytes_(image_bytes),
      slots_(slots == 0 ? 1 : slots),
      options_(options) {
  if (options_.metrics != nullptr) {
    forks_ = options_.metrics->GetCounter("sandbox.forks");
    timeouts_ = options_.metrics->GetCounter("sandbox.timeouts");
    killed_ = options_.metrics->GetCounter("sandbox.killed");
    sandbox_us_ = options_.metrics->GetHistogram("recovery.sandbox_us");
  }
  if (options_.policy == SandboxPolicy::kForkServer) {
    workers_.resize(slots_);
    shm_.resize(slots_, nullptr);
    for (uint32_t slot = 0; slot < slots_; ++slot) {
      shm_[slot] = MapSharedImage(image_bytes_);
    }
    // Eager spawn: the constructor typically runs before the injection
    // worker threads exist, so the initial pool forks from a
    // single-threaded parent.
    for (uint32_t slot = 0; slot < slots_; ++slot) {
      if (shm_[slot] != nullptr) {
        SpawnWorker(slot);
      }
    }
  }
}

RecoverySandbox::~RecoverySandbox() {
  for (uint32_t slot = 0; slot < workers_.size(); ++slot) {
    StopWorker(slot);
  }
  for (uint8_t* mem : shm_) {
    if (mem != nullptr) {
      munmap(mem, image_bytes_);
    }
  }
}

SandboxVerdict RecoverySandbox::Check(uint32_t slot, const uint8_t* data,
                                      size_t size) {
  const auto start = Clock::now();
  const SandboxVerdict verdict =
      options_.policy == SandboxPolicy::kForkServer
          ? CheckForkServer(slot, data, size)
          : CheckForkPerCheck(slot, data, size);
  if (sandbox_us_ != nullptr) {
    sandbox_us_->Observe(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              start)
            .count()));
  }
  return verdict;
}

SandboxVerdict RecoverySandbox::CheckForkPerCheck(uint32_t slot,
                                                  const uint8_t* data,
                                                  size_t size) {
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) {
    return SandboxError("sandbox: pipe2 failed");
  }
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return SandboxError("sandbox: fork failed");
  }
  if (pid == 0) {
    // Child: the crash image is readable via copy-on-write — no handoff
    // copy at all in this mode.
    close(fds[0]);
    uint32_t cpu = options_.cpu_seconds;
    if (cpu == 0) {
      // Backstop in case the parent dies before enforcing the deadline.
      cpu = static_cast<uint32_t>(2 + (2 * options_.timeout_ms) / 1000);
    }
    ApplyChildRlimits(options_.address_space_bytes, cpu);
    // The fork gave this child its own copy-on-write view of the image;
    // running recovery in place only dirties the child's pages.
    std::vector<WireSpan> child_spans;
    const WireVerdict verdict = RunOracleInSandboxProcess(
        factory_, const_cast<uint8_t*>(data), size, options_.verify_digest,
        options_.tracer != nullptr ? &child_spans : nullptr);
    WriteSpansAndVerdict(fds[1], child_spans, verdict);
    _exit(0);
  }
  close(fds[1]);
  if (forks_ != nullptr) {
    forks_->Increment();
  }
  const uint64_t dispatched_us =
      options_.tracer != nullptr ? options_.tracer->NowMicros() : 0;
  bool survived = false;
  std::vector<WireSpan> spans;
  SandboxVerdict verdict = AwaitVerdict(
      fds[0], pid, Clock::now() + std::chrono::milliseconds(options_.timeout_ms),
      /*reap_on_success=*/true, &survived,
      options_.tracer != nullptr ? &spans : nullptr);
  RecordChildSpans(&spans, slot, pid, dispatched_us);
  close(fds[0]);
  return verdict;
}

SandboxVerdict RecoverySandbox::CheckForkServer(uint32_t slot,
                                                const uint8_t* data,
                                                size_t size) {
  if (slot >= workers_.size() || shm_[slot] == nullptr ||
      size > image_bytes_) {
    return SandboxError("sandbox: bad slot or image size");
  }
  Worker& worker = workers_[slot];
  if (worker.pid >= 0 && options_.checks_per_fork > 0 &&
      worker.served >= options_.checks_per_fork) {
    StopWorker(slot);  // recycle: amortized re-fork from pristine state
  }
  if (worker.pid < 0) {
    SpawnWorker(slot);
    if (worker.pid < 0) {
      return SandboxError("sandbox: could not spawn worker");
    }
  }
  memcpy(shm_[slot], data, size);
  CmdHeader cmd;
  cmd.image_size = size;
  cmd.timeout_ms = options_.timeout_ms;
  if (!WriteFull(worker.fd, &cmd, sizeof(cmd))) {
    // Worker died while idle (e.g. OOM-killed between checks): reap and
    // retry once on a fresh worker.
    StopWorker(slot);
    SpawnWorker(slot);
    if (worker.pid < 0 || !WriteFull(worker.fd, &cmd, sizeof(cmd))) {
      return SandboxError("sandbox: worker unavailable");
    }
  }
  const pid_t worker_pid = worker.pid;
  const uint64_t dispatched_us =
      options_.tracer != nullptr ? options_.tracer->NowMicros() : 0;
  bool survived = false;
  std::vector<WireSpan> spans;
  SandboxVerdict verdict = AwaitVerdict(
      worker.fd, worker.pid,
      Clock::now() + std::chrono::milliseconds(options_.timeout_ms),
      /*reap_on_success=*/false, &survived,
      options_.tracer != nullptr ? &spans : nullptr);
  RecordChildSpans(&spans, slot, worker_pid, dispatched_us);
  if (survived) {
    ++worker.served;
  } else {
    // AwaitVerdict already reaped the pid; drop the dead lane state so the
    // next check respawns lazily.
    close(worker.fd);
    worker.fd = -1;
    worker.pid = -1;
    worker.served = 0;
  }
  return verdict;
}

SandboxVerdict RecoverySandbox::AwaitVerdict(int fd, pid_t pid,
                                             Clock::time_point deadline,
                                             bool reap_on_success,
                                             bool* worker_survived,
                                             std::vector<WireSpan>* spans_out) {
  *worker_survived = false;
  std::vector<uint8_t> buffer;
  bool reaped = false;
  int wstatus = 0;
  bool peer_gone = false;

  auto reap_blocking = [&] {
    if (reaped) {
      return;
    }
    while (waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
    }
    reaped = true;
  };

  while (!peer_gone) {
    // Span frames (child sub-phase timings) arrive interleaved before the
    // verdict: drain every complete one, then try the verdict decode. A
    // partial span frame at the head must read as "need more data", not be
    // mistaken for a corrupt verdict.
    WireVerdict wire;
    size_t consumed = 0;
    WireDecodeStatus decode = WireDecodeStatus::kNeedMoreData;
    for (;;) {
      if (IsSpanFrame(buffer.data(), buffer.size())) {
        WireSpan span;
        const WireDecodeStatus span_decode =
            DecodeSpan(buffer.data(), buffer.size(), &span, &consumed);
        if (span_decode == WireDecodeStatus::kOk) {
          if (spans_out != nullptr) {
            spans_out->push_back(std::move(span));
          }
          buffer.erase(buffer.begin(),
                       buffer.begin() + static_cast<ptrdiff_t>(consumed));
          continue;
        }
        decode = span_decode;  // kNeedMoreData waits; corrupt frames kill
        break;
      }
      decode = DecodeVerdict(buffer.data(), buffer.size(), &wire, &consumed);
      break;
    }
    if (decode == WireDecodeStatus::kOk) {
      SandboxVerdict verdict;
      verdict.status = static_cast<RecoveryStatus>(wire.status);
      verdict.detail = std::move(wire.detail);
      verdict.signal = wire.signal;
      verdict.timed_out = wire.timed_out;
      verdict.recovery_wall_us = wire.wall_us;
      verdict.digest = wire.digest;
      if (reap_on_success) {
        reap_blocking();
      }
      *worker_survived = !reap_on_success;
      return verdict;
    }
    if (decode != WireDecodeStatus::kNeedMoreData) {
      // Corrupted framing (a child that crashed mid-write, or garbage):
      // the process is not trustworthy — kill it and report the crash.
      kill(pid, SIGKILL);
      if (killed_ != nullptr) {
        killed_->Increment();
      }
      reap_blocking();
      SandboxVerdict verdict;
      verdict.status = RecoveryStatus::kCrashed;
      verdict.detail =
          decode == WireDecodeStatus::kBadMagic
              ? "sandbox: malformed verdict (bad magic)"
              : decode == WireDecodeStatus::kOversized
                    ? "sandbox: malformed verdict (oversized payload)"
                    : "sandbox: malformed verdict";
      return verdict;
    }

    int64_t remaining = RemainingMs(deadline);
    if (remaining <= 0) {
      // A verdict may have arrived as the deadline passed, after the last
      // poll: drain whatever is readable before declaring a timeout.
      struct pollfd probe;
      probe.fd = fd;
      probe.events = POLLIN;
      probe.revents = 0;
      if (poll(&probe, 1, 0) > 0 &&
          (probe.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        uint8_t chunk[4096];
        const ssize_t n = read(fd, chunk, sizeof(chunk));
        if (n > 0) {
          buffer.insert(buffer.end(), chunk, chunk + n);
          continue;  // retry the decode with the drained bytes
        }
        if (n == 0) {
          peer_gone = true;
          continue;
        }
      }
      // Deadline: the hang becomes a first-class kTimeout finding.
      kill(pid, SIGKILL);
      if (timeouts_ != nullptr) {
        timeouts_->Increment();
      }
      if (killed_ != nullptr) {
        killed_->Increment();
      }
      reap_blocking();
      SandboxVerdict verdict;
      verdict.status = RecoveryStatus::kTimeout;
      verdict.timed_out = true;
      verdict.signal = SIGKILL;
      verdict.detail = "recovery timed out after " +
                       std::to_string(options_.timeout_ms) +
                       " ms (killed)";
      verdict.recovery_wall_us = uint64_t{options_.timeout_ms} * 1000;
      return verdict;
    }

    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int wait_ms = static_cast<int>(
        remaining < kDeathProbeMs ? remaining : kDeathProbeMs);
    const int polled = poll(&pfd, 1, wait_ms);
    if (polled < 0 && errno != EINTR) {
      break;
    }
    if (polled > 0 && (pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      uint8_t chunk[4096];
      const ssize_t n = read(fd, chunk, sizeof(chunk));
      if (n > 0) {
        buffer.insert(buffer.end(), chunk, chunk + n);
        continue;
      }
      if (n == 0 || (n < 0 && errno != EINTR && errno != EAGAIN)) {
        peer_gone = true;  // EOF without a complete verdict
      }
      continue;
    }
    if (!reaped) {
      // Death probe: EOF can be suppressed when a concurrently forked
      // sibling child still holds a copy of the write end, so also poll
      // the pid directly.
      const pid_t done = waitpid(pid, &wstatus, WNOHANG);
      if (done == pid) {
        reaped = true;
        peer_gone = true;
      }
    }
  }

  // The child died (or the channel broke) before delivering a verdict:
  // classify the wait status — fatal signals become kCrashed with the
  // signal as evidence, SIGXCPU becomes kTimeout.
  reap_blocking();
  const TerminationClass termination = ClassifyWaitStatus(wstatus);
  SandboxVerdict verdict;
  verdict.status = termination.status;
  verdict.signal = termination.signal;
  verdict.timed_out = termination.timed_out;
  verdict.detail = termination.detail;
  if (termination.timed_out && timeouts_ != nullptr) {
    timeouts_->Increment();
  }
  return verdict;
}

void RecoverySandbox::RecordChildSpans(std::vector<WireSpan>* spans,
                                       uint32_t slot, pid_t pid,
                                       uint64_t base_us) {
  if (options_.tracer == nullptr || spans == nullptr) {
    return;
  }
  for (WireSpan& span : *spans) {
    SpanEvent event;
    event.name = std::move(span.name);
    event.category = "recovery-child";
    // Child timestamps are relative to its check start; rebase onto the
    // dispatch point so the spans nest under the parent's injection-run
    // span on the same lane.
    event.start_us = base_us + span.start_us;
    event.duration_us = span.duration_us;
    event.tid = slot + 1;
    event.args.emplace_back("worker_pid", std::to_string(pid));
    options_.tracer->Record(std::move(event));
  }
  spans->clear();
}

void RecoverySandbox::SpawnWorker(uint32_t slot) {
  Worker& worker = workers_[slot];
  int sv[2];
  if (socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
    worker.pid = -1;
    worker.fd = -1;
    return;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    close(sv[0]);
    close(sv[1]);
    worker.pid = -1;
    worker.fd = -1;
    return;
  }
  if (pid == 0) {
    close(sv[0]);
    // Best-effort: drop the other lanes' channel ends inherited from the
    // parent so their EOF-based death detection stays crisp.
    for (const Worker& other : workers_) {
      if (other.fd >= 0 && other.fd != sv[1]) {
        close(other.fd);
      }
    }
    ApplyChildRlimits(options_.address_space_bytes, options_.cpu_seconds);
    WorkerMain(sv[1], factory_, shm_[slot], image_bytes_,
               options_.verify_digest, options_.tracer != nullptr);
  }
  close(sv[1]);
  worker.pid = pid;
  worker.fd = sv[0];
  worker.served = 0;
  if (forks_ != nullptr) {
    forks_->Increment();
  }
}

void RecoverySandbox::StopWorker(uint32_t slot) {
  Worker& worker = workers_[slot];
  if (worker.pid < 0) {
    if (worker.fd >= 0) {
      close(worker.fd);
      worker.fd = -1;
    }
    return;
  }
  if (worker.fd >= 0) {
    close(worker.fd);  // EOF: an idle worker exits cleanly
    worker.fd = -1;
  }
  // Deterministic teardown regardless of worker state; reaping is what
  // guarantees zero zombies.
  kill(worker.pid, SIGKILL);
  while (waitpid(worker.pid, nullptr, 0) < 0 && errno == EINTR) {
  }
  worker.pid = -1;
  worker.served = 0;
}

}  // namespace mumak
