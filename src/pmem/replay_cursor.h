// Incremental crash-image synthesis from a recorded trace (replay-based
// fault injection). A graceful crash persists every pending store in program
// order (§4.1), so the graceful image at instruction counter `k` equals the
// initial (zeroed) pool with all store / NT-store / RMW payloads up to `k`
// applied in order — flushes and fences never change it. That makes the
// image at `k2 > k1` derivable from the image at `k1` by patching only the
// stores in `(k1, k2]`: one forward pass over the trace yields the image at
// every failure point, O(trace length) total instead of O(failure points ×
// trace length).
//
// With digest tracking enabled the cursor additionally maintains a per-
// cache-line hash table: AdvanceTo marks the lines it patched (O(delta)),
// and Digest() rehashes only those lines before folding them into the
// running 128-bit image digest (O(lines-dirtied)). Content-addressed
// verdict deduplication (src/core/verdict_cache.h) rides on this — a
// digest at every failure point costs far less than one image scan.

#ifndef MUMAK_SRC_PMEM_REPLAY_CURSOR_H_
#define MUMAK_SRC_PMEM_REPLAY_CURSOR_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/instrument/trace.h"
#include "src/pmem/image_digest.h"

namespace mumak {

class ReplayCursor {
 public:
  // `trace` must outlive the cursor (it is the profiling run's recorded
  // event stream; the engine holds it for the whole injection phase).
  // `pool_size` is the profiled pool's size; the initial image is zeroed,
  // matching a freshly created pool. With `track_digest` the cursor pays
  // one O(pool) line-hash pass here, then keeps the digest current
  // incrementally.
  ReplayCursor(const RecordedTrace& trace, size_t pool_size,
               bool track_digest = false);

  // Line-hash table and digest of a zeroed pool: the state every
  // digest-tracking cursor starts from. Built once (O(pool) hashing, no
  // pool-sized buffer) and shared, so each further cursor pays a table copy
  // instead of the rehash.
  struct ZeroDigest {
    std::vector<uint64_t> line_hashes;
    ImageDigest digest;
  };
  static ZeroDigest HashZeroPool(size_t pool_size);

  // A digest-tracking cursor over a zeroed `pool_size` image, seeded from
  // `zero` (which must come from HashZeroPool(pool_size)).
  ReplayCursor(const RecordedTrace& trace, size_t pool_size,
               const ZeroDigest& zero);

  // Snapshot of cursor state. A parallel injection run has one scout
  // cursor record a checkpoint at each worker's slice boundary, so the
  // workers collectively make a single pass over the trace (O(trace
  // length) total) instead of each re-consuming the shared prefix.
  struct Checkpoint {
    std::vector<uint8_t> image;
    size_t next = 0;  // first unapplied event index
    // Digest state, captured only from digest-tracking cursors (empty
    // line_hashes otherwise); a cursor resumed from it keeps tracking
    // without the O(pool) rebuild.
    std::vector<uint64_t> line_hashes;
    ImageDigest digest;
  };

  // Resumes from a previously recorded checkpoint of a cursor over the
  // same trace. Digest tracking resumes iff the checkpoint carries hash
  // state.
  ReplayCursor(const RecordedTrace& trace, Checkpoint checkpoint);

  // Copies the current state into a resumable checkpoint. The rvalue
  // overload *moves* the image (and line-hash table) out instead — the
  // parallel scout hands each slice boundary to exactly one worker, so a
  // cursor it is done with should not double-copy a multi-MB pool.
  Checkpoint MakeCheckpoint() const&;
  Checkpoint MakeCheckpoint() &&;

  // Applies every store payload with seq <= `seq` that has not been applied
  // yet, then returns the graceful image at that point. Calls must use
  // non-decreasing seq values (the cursor only patches forward); callers
  // that need an earlier image construct a fresh cursor.
  const std::vector<uint8_t>& AdvanceTo(uint64_t seq);

  // The image for the most recent AdvanceTo (initial image before any call).
  const std::vector<uint8_t>& image() const { return image_; }

  // The same bytes, writable: recovery runs in place on them (RunOracle).
  // The borrower must restore every byte before the next AdvanceTo,
  // Digest or MakeCheckpoint — the line-hash table describes the image as
  // synthesized.
  std::span<uint8_t> borrow_image() { return image_; }

  // Number of trace events consumed so far.
  size_t consumed() const { return next_; }

  bool tracks_digest() const { return track_digest_; }

  // 128-bit content digest of image(). Only valid on digest-tracking
  // cursors; settles the lines dirtied since the last call (O(lines-
  // dirtied)) and must equal ComputeContentDigest over the same bytes.
  ImageDigest Digest() const;

 private:
  // Turns digest tracking on from a zeroed image's hash state.
  void StartTracking(ZeroDigest zero);

  // Rehashes dirty lines and folds them into digest_.
  void SettleDirtyLines() const;

  const RecordedTrace& trace_;
  std::vector<uint8_t> image_;
  size_t next_ = 0;  // first unapplied event index
  bool track_digest_ = false;
  // Per-line hash table + accumulated digest. Mutable: settling dirty
  // lines is a cache fill, not an observable state change — Digest() and
  // the lvalue MakeCheckpoint() stay const.
  mutable std::vector<uint64_t> line_hashes_;
  mutable ImageDigest digest_;
  // Lines patched since the last settle: a dense epoch stamp per line plus
  // the list of stamped lines, so marking is O(1) per touched line with no
  // per-AdvanceTo clearing.
  mutable std::vector<uint32_t> dirty_epoch_;
  mutable std::vector<uint64_t> dirty_lines_;
  mutable uint32_t epoch_ = 1;
};

// Durable-state summary of one injection epoch: the half-open event span
// `(previous boundary seq, seq]`. Two failure points are image-identical —
// and the later one's synthesis + oracle run provably redundant — exactly
// when every store between them was *silent* (wrote bytes equal to what the
// graceful image already held), because AdvanceTo's image is a pure
// function of the applied payloads. `changed_stores` counts the non-silent
// ones; a run of epochs with `changed_stores == 0` forms one equivalence
// class rooted at the last boundary that changed state.
struct EpochSummary {
  uint64_t seq = 0;             // boundary: the epoch's failure-point seq
  uint64_t stores = 0;          // payload-carrying events in the epoch
  uint64_t changed_stores = 0;  // stores that altered the graceful image
};

// Streams `trace` once against a zeroed `pool_size` image (the same
// semantics as ReplayCursor::AdvanceTo) and summarises each epoch delimited
// by `boundaries` (ascending failure-point seqs — the injection schedule).
// Events past the last boundary are not summarised; no failure point can
// observe them. O(trace length) time, O(pool) memory.
std::vector<EpochSummary> SummarizeEpochs(
    const RecordedTrace& trace, size_t pool_size,
    const std::vector<uint64_t>& boundaries);

}  // namespace mumak

#endif  // MUMAK_SRC_PMEM_REPLAY_CURSOR_H_
