// Process-isolation orchestrator for the recovery oracle: fork-per-check
// children and the fork-server worker pool, crash-image handoff over
// anonymous shared memory, parent-enforced deadlines (poll + SIGKILL), and
// signal/exit classification. See docs/sandbox.md for the full design.

#ifndef MUMAK_SRC_SANDBOX_RECOVERY_SANDBOX_H_
#define MUMAK_SRC_SANDBOX_RECOVERY_SANDBOX_H_

#include <sys/types.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/sandbox/options.h"
#include "src/sandbox/wire.h"

namespace mumak {

// One sandbox per injection campaign. `slots` independent lanes (one per
// injection worker thread) can run Check() concurrently; each lane owns its
// worker process and shared-memory image buffer, so no cross-lane locking
// is needed.
//
// Construct while the parent is still single-threaded when possible: the
// fork-server spawns its initial workers eagerly in the constructor.
// Respawns (after a crash, timeout, or recycle) fork from whatever thread
// runs the check; glibc >= 2.24 makes malloc in such children safe.
class RecoverySandbox {
 public:
  RecoverySandbox(SandboxTargetFactory factory, size_t image_bytes,
                  uint32_t slots, SandboxOptions options);
  // Shuts the pool down hard: closes command channels, SIGKILLs any
  // remaining worker, and reaps every child (no zombies survive).
  ~RecoverySandbox();

  RecoverySandbox(const RecoverySandbox&) = delete;
  RecoverySandbox& operator=(const RecoverySandbox&) = delete;

  uint32_t slots() const { return slots_; }
  size_t image_bytes() const { return image_bytes_; }
  SandboxPolicy policy() const { return options_.policy; }
  const SandboxOptions& options() const { return options_; }

  // Runs one oracle check on `slot`. `data` is the crash image; under
  // kForkServer it is copied into the slot's shared buffer, and the worker
  // only reads it there. Blocks until a verdict, the deadline, or child
  // death. Thread-safe across distinct slots; a slot serves one check at a
  // time.
  SandboxVerdict Check(uint32_t slot, const uint8_t* data, size_t size);

 private:
  struct Worker {
    pid_t pid = -1;
    int fd = -1;         // parent end of the command/result socketpair
    uint64_t served = 0; // checks since the last fork (recycle counter)
  };

  SandboxVerdict CheckForkServer(uint32_t slot, const uint8_t* data,
                                 size_t size);
  SandboxVerdict CheckForkPerCheck(uint32_t slot, const uint8_t* data,
                                   size_t size);
  // Collects a verdict from `fd` within the deadline; on timeout or
  // abnormal death, kills/reaps `pid` and classifies. `pid` is always
  // reaped unless the worker survives (fork-server success path). Span
  // frames preceding the verdict are appended to `spans_out` (may be
  // null to discard them).
  SandboxVerdict AwaitVerdict(int fd, pid_t pid,
                              std::chrono::steady_clock::time_point deadline,
                              bool reap_on_success, bool* worker_survived,
                              std::vector<WireSpan>* spans_out);
  // Grafts child-reported spans into options_.tracer: rebased onto the
  // dispatch timestamp, lane `slot` + 1, tagged with the worker pid.
  void RecordChildSpans(std::vector<WireSpan>* spans, uint32_t slot,
                        pid_t pid, uint64_t base_us);

  void SpawnWorker(uint32_t slot);
  // Kills (when still alive) and reaps slot's worker, closing its channel.
  void StopWorker(uint32_t slot);

  SandboxTargetFactory factory_;
  size_t image_bytes_;
  uint32_t slots_;
  SandboxOptions options_;
  std::vector<Worker> workers_;       // fork-server lanes
  std::vector<uint8_t*> shm_;         // per-slot MAP_SHARED image buffers

  // Resolved once; null when no registry was provided.
  Counter* forks_ = nullptr;
  Counter* timeouts_ = nullptr;
  Counter* killed_ = nullptr;
  Histogram* sandbox_us_ = nullptr;
};

}  // namespace mumak

#endif  // MUMAK_SRC_SANDBOX_RECOVERY_SANDBOX_H_
