// Sandboxed recovery-oracle subsystem: configuration and verdict types.
//
// Mumak's consistency oracle is the target's own recovery procedure run
// against a crash image (§4.1). Recovery code operating on a corrupted
// image can do anything — dereference a torn pointer (SIGSEGV), chase a
// corrupted next-pointer cycle forever, abort, or exhaust memory — and
// "recovery crashes/hangs on a valid power-failure image" is precisely the
// bug class Mumak must *report*, not die from. The sandbox runs each oracle
// invocation in a disposable child process so those outcomes become
// first-class findings instead of tool failures.

#ifndef MUMAK_SRC_SANDBOX_OPTIONS_H_
#define MUMAK_SRC_SANDBOX_OPTIONS_H_

#include <cstdint>
#include <functional>
#include <string>

#include "src/observability/metrics.h"
#include "src/targets/target.h"

namespace mumak {

class SpanTracer;

// Where the recovery oracle runs.
//  - kInProcess: in the analysis process, guarded only by try/catch (the
//    historical behaviour; fastest, but a SIGSEGV or hang in recovery kills
//    or wedges the whole campaign).
//  - kForkPerCheck: fork a fresh child per check. The child inherits the
//    crash image via copy-on-write (no copy, no shared memory needed) and
//    reports over a pipe; the strongest isolation, at ~1 fork per failure
//    point.
//  - kForkServer: a pool of long-lived sandbox workers, one per injection
//    slot, fed through anonymous shared memory. A worker serves up to
//    `checks_per_fork` checks before it is recycled (killed and re-forked),
//    amortizing process/target setup across thousands of failure points
//    while still confining crashes and hangs to a disposable process.
enum class SandboxPolicy {
  kInProcess,
  kForkPerCheck,
  kForkServer,
};

struct SandboxOptions {
  SandboxPolicy policy = SandboxPolicy::kInProcess;
  // Hard deadline per oracle invocation, enforced by the parent with
  // poll + SIGKILL. A hang becomes RecoveryStatus::kTimeout.
  uint32_t timeout_ms = 2000;
  // RLIMIT_AS cap for sandbox children; 0 = no cap. Ignored under ASan
  // (the shadow mapping cannot live inside a small address-space cap).
  uint64_t address_space_bytes = 0;
  // RLIMIT_CPU cap in seconds. 0 = automatic for fork-per-check children
  // (derived from timeout_ms, a backstop should the parent die) and off
  // for fork-server workers (their CPU accumulates across checks).
  uint32_t cpu_seconds = 0;
  // Compute the sampled image digest in the child and return it in the
  // verdict (SandboxVerdict::digest), letting the caller verify the
  // shared-memory handoff delivered the intended bytes. Off by default:
  // the sampled walk still streams ~1 cache line per 509 bytes of image,
  // which is measurable per check on multi-MB pools.
  bool verify_digest = false;
  // Fork-server only: recycle a worker after this many checks. 1 degrades
  // to strict fork-per-check isolation; larger values amortize the fork
  // (a worker forked from a large analysis process costs ~1 ms on
  // copy-on-write page-table setup alone). 0 = never recycle on count
  // (still recycled after any crash/timeout).
  uint32_t checks_per_fork = 256;
  // Optional instrumentation (borrowed): sandbox.forks, sandbox.timeouts,
  // sandbox.killed counters and the recovery.sandbox_us histogram.
  MetricsRegistry* metrics = nullptr;
  // Optional span forwarding (borrowed): sandbox children time their
  // sub-phases (digest walk, the oracle run) and stream them back as span
  // frames before the verdict; the parent rebases them onto this tracer's
  // timeline under the "recovery-child" category, tagged with the worker's
  // pid and lane. Null disables the child-side timing and the extra frames.
  SpanTracer* tracer = nullptr;
};

// Outcome of one sandboxed oracle invocation, merged from the child's wire
// message and the parent's termination handling.
struct SandboxVerdict {
  RecoveryStatus status = RecoveryStatus::kOk;
  std::string detail;
  // Terminating signal when the child died abnormally (0 otherwise) —
  // recorded as bug evidence (SIGSEGV/SIGBUS/... -> kCrashed).
  int signal = 0;
  // True when the parent killed the child at the deadline (or the child
  // hit its CPU cap): status is kTimeout.
  bool timed_out = false;
  // Oracle wall time: child-measured when a verdict message arrived,
  // parent-measured (includes IPC and the wait for the kill) otherwise.
  uint64_t recovery_wall_us = 0;
  // FNV-1a digest of the crash image as the child observed it; lets the
  // parent verify the shared-memory handoff delivered the intended bytes.
  // Only populated when SandboxOptions::verify_digest is set.
  uint64_t digest = 0;
  // False when the sandbox could not run the oracle at all (no worker, a
  // failed fork, a bad slot or image size): such a verdict says nothing
  // about the image and must not be cached.
  bool oracle_ran = true;
};

// Same signature as core's TargetFactory; redeclared here so the sandbox
// layer does not depend on src/core headers.
using SandboxTargetFactory = std::function<TargetPtr()>;

}  // namespace mumak

#endif  // MUMAK_SRC_SANDBOX_OPTIONS_H_
