// Sparse checkpoint index over a recorded trace, so a synthesis pass can
// start near an arbitrary instruction counter instead of replaying from
// zero. A streaming pass that walks the whole trace once (the cursor
// visits every failure point in seq order) feeds it, and it captures a
// handful of image checkpoints at block-aligned event indices as the
// cursor crosses them. A later out-of-order consumer — a ranked plan's
// lane whose next check lies behind its cursor, a fleet worker starting a
// shard — then seeks: it resumes a cursor from the latest
// checkpoint at or before its target seq, paying O(target - checkpoint)
// store patches instead of O(target).
//
// Capture cost is one image (plus line-hash table) copy per checkpoint,
// bounded by max_checkpoints; with the default 4 that is a few pool-sized
// copies per campaign, amortised across every seek.

#ifndef MUMAK_SRC_PMEM_REPLAY_SEEK_INDEX_H_
#define MUMAK_SRC_PMEM_REPLAY_SEEK_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/instrument/trace.h"
#include "src/pmem/replay_cursor.h"

namespace mumak {

class ReplaySeekIndex {
 public:
  // Plans up to `max_checkpoints` capture points spread evenly across
  // `trace` (which must outlive the index). Indices are aligned down to a
  // multiple of `alignment` events when the trace is long enough —
  // matching the v3 trace block size by default, so a checkpoint
  // corresponds to a block boundary of the spooled trace. 0 checkpoints
  // disables capture entirely (every seek falls back to a from-zero
  // cursor).
  ReplaySeekIndex(const RecordedTrace* trace, uint32_t max_checkpoints,
                  size_t alignment = 64u << 10);

  // Called by the streaming pass after each AdvanceTo: captures a
  // checkpoint if the cursor has crossed the next planned capture index.
  // Cheap when it has not (one comparison). The cursor must be over the
  // same trace.
  void MaybeCapture(const ReplayCursor& cursor);

  // A cursor that has applied exactly the events of the latest checkpoint
  // with last-applied seq <= `target_seq` — the caller AdvanceTo(target)s
  // from there. Falls back to a fresh from-zero cursor (over `pool_size`
  // zero bytes, digest-tracking per `track_digest`) when no checkpoint
  // qualifies. `skipped_events` (optional) reports how many trace events
  // the seek avoided re-applying.
  std::unique_ptr<ReplayCursor> SeekCursor(uint64_t target_seq,
                                           size_t pool_size,
                                           bool track_digest,
                                           size_t* skipped_events =
                                               nullptr) const;

  size_t checkpoint_count() const { return checkpoints_.size(); }

 private:
  struct Entry {
    uint64_t seq_bound = 0;  // seq of the last event the checkpoint applied
    ReplayCursor::Checkpoint checkpoint;
  };

  const RecordedTrace* trace_;
  std::vector<size_t> plan_;  // event indices where a capture is due
  size_t next_plan_ = 0;
  std::vector<Entry> checkpoints_;
};

}  // namespace mumak

#endif  // MUMAK_SRC_PMEM_REPLAY_SEEK_INDEX_H_
