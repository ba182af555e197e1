#include "src/pmem/replay_cursor.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

#include "src/pmem/persistency_model.h"

namespace mumak {
namespace {

size_t LineCount(size_t pool_size) {
  return (pool_size + kCacheLineSize - 1) / kCacheLineSize;
}

}  // namespace

ReplayCursor::ZeroDigest ReplayCursor::HashZeroPool(size_t pool_size) {
  // Hashes one zero line per index rather than a zeroed pool: every line of
  // a fresh pool has the same content, only the index (and the possibly
  // short final line's length) differs.
  static constexpr uint8_t kZeroLine[kCacheLineSize] = {};
  ZeroDigest zero;
  const size_t lines = LineCount(pool_size);
  zero.line_hashes.resize(lines);
  for (size_t line = 0; line < lines; ++line) {
    const size_t at = line * kCacheLineSize;
    const size_t len =
        pool_size - at < kCacheLineSize ? pool_size - at : kCacheLineSize;
    zero.line_hashes[line] = HashImageLine(kZeroLine, len, line);
    DigestToggleLine(&zero.digest, zero.line_hashes[line]);
  }
  return zero;
}

ReplayCursor::ReplayCursor(const RecordedTrace& trace, size_t pool_size,
                           bool track_digest)
    : trace_(trace), image_(pool_size, 0) {
  if (track_digest) {
    StartTracking(HashZeroPool(pool_size));
  }
}

ReplayCursor::ReplayCursor(const RecordedTrace& trace, size_t pool_size,
                           const ZeroDigest& zero)
    : trace_(trace), image_(pool_size, 0) {
  StartTracking(zero);
}

void ReplayCursor::StartTracking(ZeroDigest zero) {
  assert(zero.line_hashes.size() == LineCount(image_.size()));
  track_digest_ = true;
  line_hashes_ = std::move(zero.line_hashes);
  digest_ = zero.digest;
  dirty_epoch_.assign(line_hashes_.size(), 0);
}

ReplayCursor::ReplayCursor(const RecordedTrace& trace, Checkpoint checkpoint)
    : trace_(trace),
      image_(std::move(checkpoint.image)),
      next_(checkpoint.next),
      track_digest_(!checkpoint.line_hashes.empty()),
      line_hashes_(std::move(checkpoint.line_hashes)),
      digest_(checkpoint.digest) {
  if (track_digest_) {
    assert(line_hashes_.size() == LineCount(image_.size()));
    dirty_epoch_.assign(line_hashes_.size(), 0);
  }
}

ReplayCursor::Checkpoint ReplayCursor::MakeCheckpoint() const& {
  SettleDirtyLines();
  return {image_, next_, line_hashes_, digest_};
}

ReplayCursor::Checkpoint ReplayCursor::MakeCheckpoint() && {
  SettleDirtyLines();
  return {std::move(image_), next_, std::move(line_hashes_), digest_};
}

const std::vector<uint8_t>& ReplayCursor::AdvanceTo(uint64_t seq) {
  // Raw-pointer walk: this loop touches every trace event once per
  // injection phase, so it avoids per-event accessor calls.
  const PmEvent* const events = trace_.events.data();
  const size_t count = trace_.events.size();
  const std::vector<uint64_t>& offset_index = trace_.payloads.offsets();
  const size_t indexed = offset_index.size();
  const uint64_t* const offsets = offset_index.data();
  const uint8_t* const payload_bytes = trace_.payloads.bytes().data();
  uint8_t* const image = image_.data();
  size_t i = next_;
  while (i < count && events[i].seq <= seq) {
    if (i < indexed && offsets[i] != PayloadStore::kNone) {
      const PmEvent& ev = events[i];
      assert(ev.offset + ev.size <= image_.size());
      std::memcpy(image + ev.offset, payload_bytes + offsets[i], ev.size);
      if (track_digest_ && ev.size > 0) {
        // Mark, don't rehash: many stores land on the same line between two
        // digest reads, and each line should be rehashed once per read.
        const uint64_t first = ev.offset / kCacheLineSize;
        const uint64_t last = (ev.offset + ev.size - 1) / kCacheLineSize;
        for (uint64_t line = first; line <= last; ++line) {
          if (dirty_epoch_[line] != epoch_) {
            dirty_epoch_[line] = epoch_;
            dirty_lines_.push_back(line);
          }
        }
      }
    }
    ++i;
  }
  next_ = i;
  return image_;
}

void ReplayCursor::SettleDirtyLines() const {
  if (!track_digest_ || dirty_lines_.empty()) {
    return;
  }
  for (const uint64_t line : dirty_lines_) {
    const size_t at = line * kCacheLineSize;
    const size_t len =
        image_.size() - at < kCacheLineSize ? image_.size() - at
                                            : kCacheLineSize;
    // XOR out the stale hash, XOR in the fresh one.
    DigestToggleLine(&digest_, line_hashes_[line]);
    line_hashes_[line] = HashImageLine(image_.data() + at, len, line);
    DigestToggleLine(&digest_, line_hashes_[line]);
  }
  dirty_lines_.clear();
  ++epoch_;
  if (epoch_ == 0) {  // wrapped: stamps from the old era could alias
    std::fill(dirty_epoch_.begin(), dirty_epoch_.end(), 0u);
    epoch_ = 1;
  }
}

ImageDigest ReplayCursor::Digest() const {
  assert(track_digest_);
  SettleDirtyLines();
  return digest_;
}

std::vector<EpochSummary> SummarizeEpochs(
    const RecordedTrace& trace, size_t pool_size,
    const std::vector<uint64_t>& boundaries) {
  std::vector<EpochSummary> summaries;
  summaries.reserve(boundaries.size());
  if (boundaries.empty()) {
    return summaries;
  }
  std::vector<uint8_t> image(pool_size, 0);
  const PmEvent* const events = trace.events.data();
  const size_t count = trace.events.size();
  const std::vector<uint64_t>& offset_index = trace.payloads.offsets();
  const size_t indexed = offset_index.size();
  const uint64_t* const offsets = offset_index.data();
  const uint8_t* const payload_bytes = trace.payloads.bytes().data();
  size_t i = 0;
  for (const uint64_t boundary : boundaries) {
    EpochSummary summary;
    summary.seq = boundary;
    while (i < count && events[i].seq <= boundary) {
      if (i < indexed && offsets[i] != PayloadStore::kNone) {
        const PmEvent& ev = events[i];
        assert(ev.offset + ev.size <= image.size());
        ++summary.stores;
        const uint8_t* const bytes = payload_bytes + offsets[i];
        if (std::memcmp(image.data() + ev.offset, bytes, ev.size) != 0) {
          ++summary.changed_stores;
          std::memcpy(image.data() + ev.offset, bytes, ev.size);
        }
      }
      ++i;
    }
    summaries.push_back(summary);
  }
  return summaries;
}

}  // namespace mumak
