// Simulation of the x86 relaxed, buffered persistency model described in §2
// of the paper. This is the substitute for a physical Optane DCPMM: stores
// land in a volatile cache-line overlay, flushes move line snapshots into a
// write pending queue (WPQ), and fences commit the WPQ into the durable
// medium. Crash images can then be generated with different survival
// semantics (graceful / power failure / selected-lines).

#ifndef MUMAK_SRC_PMEM_PERSISTENCY_MODEL_H_
#define MUMAK_SRC_PMEM_PERSISTENCY_MODEL_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

namespace mumak {

inline constexpr size_t kCacheLineSize = 64;
// PM guarantees failure atomicity only for aligned 8-byte groups (§2).
inline constexpr size_t kAtomicGranule = 8;

inline constexpr uint64_t LineIndex(uint64_t offset) {
  return offset / kCacheLineSize;
}
inline constexpr uint64_t LineBase(uint64_t offset) {
  return offset & ~(kCacheLineSize - 1);
}

// Pre-images of the durable lines a model overwrote, for recovery run in
// place on a borrowed image (PersistencyModel::FromBorrowedDurable) whose
// owner needs its bytes back afterwards. Destroying the log writes every
// saved line back, newest first, so the borrowed bytes end exactly as they
// started even when recovery throws. Must outlive any model it is attached
// to (declare it before the model or pool).
class DurableUndoLog {
 public:
  explicit DurableUndoLog(std::span<uint8_t> durable) : durable_(durable) {}
  ~DurableUndoLog() { RollBack(); }
  DurableUndoLog(const DurableUndoLog&) = delete;
  DurableUndoLog& operator=(const DurableUndoLog&) = delete;

  // Saves the current content of `line` before it is overwritten.
  void Save(uint64_t line);

  // Restores every saved line, newest first, and empties the log.
  void RollBack();

  size_t saved_lines() const { return saved_.size(); }

 private:
  struct Saved {
    uint64_t line;
    std::array<uint8_t, kCacheLineSize> bytes;
  };
  std::span<uint8_t> durable_;
  std::vector<Saved> saved_;
};

// Aggregate persistency statistics, used by resource accounting and tests.
struct ModelStats {
  uint64_t stores = 0;
  uint64_t nt_stores = 0;
  uint64_t clflushes = 0;
  uint64_t optimized_flushes = 0;  // clflushopt + clwb
  uint64_t fences = 0;
  uint64_t rmws = 0;
  uint64_t committed_lines = 0;  // lines made durable by fences/clflush
};

class PersistencyModel {
 public:
  explicit PersistencyModel(size_t pool_size);

  // Constructs a model whose durable medium is a post-crash image; the
  // volatile state (cache, WPQ) starts empty, exactly like a machine that
  // just rebooted.
  static PersistencyModel FromDurableImage(std::vector<uint8_t> image);

  // Same, but the durable medium is caller-owned memory viewed in place —
  // no copy (recovery on a sandbox slot's or a replay cursor's image). The
  // memory must outlive the model; stores committed by recovery are
  // written through to it (and logged first under set_undo_log).
  static PersistencyModel FromBorrowedDurable(uint8_t* data, size_t size);

  // When set, every durable-line write first saves the line's previous
  // bytes into `log` (which must view the same durable memory), so the
  // caller can roll a borrowed image back. Null (the default) writes
  // through with no log.
  void set_undo_log(DurableUndoLog* log) { undo_ = log; }

  size_t pool_size() const { return durable_.size(); }

  // -- Mutators, mirroring the instruction classes -------------------------

  // Regular store: becomes visible (cache) but not durable.
  void Store(uint64_t offset, std::span<const uint8_t> data);

  // Non-temporal store: bypasses the cache, lands in the WPQ, still requires
  // a fence to be guaranteed durable.
  void NtStore(uint64_t offset, std::span<const uint8_t> data);

  // clflush: writes the line back synchronously (durable immediately) and
  // invalidates it. Ordered with respect to other stores.
  void Clflush(uint64_t offset);

  // clflushopt: snapshots the line into the WPQ (durable at next fence) and
  // invalidates it.
  void ClflushOpt(uint64_t offset);

  // clwb: snapshots the line into the WPQ without invalidating it.
  void Clwb(uint64_t offset);

  // sfence / mfence / RMW: drain the WPQ into the durable medium. The model
  // does not distinguish load ordering, so all three commit identically.
  void Fence();

  // Atomic read-modify-write on an aligned u64; has fence semantics (§2).
  uint64_t RmwAdd(uint64_t offset, uint64_t delta);
  bool RmwCas(uint64_t offset, uint64_t expected, uint64_t desired);

  // -- Reads ----------------------------------------------------------------

  // Latest visible value: cache overlay if the line is resident, otherwise
  // WPQ, otherwise the durable medium.
  void Load(uint64_t offset, std::span<uint8_t> out) const;
  uint64_t LoadU64(uint64_t offset) const;

  // -- Crash images ----------------------------------------------------------

  // "Graceful crash": every pending store is persisted in program order
  // before the process is killed (§4.1 — Mumak's deterministic fault
  // injection). The image therefore reflects the full program-order prefix.
  std::vector<uint8_t> GracefulImage() const;

  // The same crash, in place: commits the WPQ, then the cache overlay, into
  // the durable medium and leaves both overlays empty. durable_bytes() then
  // equal what GracefulImage() would have returned, without the copy.
  void CommitGraceful();

  // "Pulled power cord": only the durable medium survives.
  std::vector<uint8_t> PowerFailImage() const;

  // Power failure where a chosen subset of dirty/WPQ lines happened to be
  // evicted or drained before the crash. Used by the Yat-like baseline to
  // enumerate permissible persistence orderings.
  std::vector<uint8_t> PowerFailImageWithLines(
      std::span<const uint64_t> surviving_lines) const;

  // Lines whose visible content differs from the durable medium.
  std::vector<uint64_t> DirtyLines() const;

  // -- Introspection ----------------------------------------------------------

  bool IsLineDirty(uint64_t line) const;
  bool IsLineInWpq(uint64_t line) const;
  size_t dirty_line_count() const { return cache_.size(); }
  size_t wpq_line_count() const { return wpq_.size(); }
  const ModelStats& stats() const { return stats_; }

  // Volatile-state footprint in bytes, for Table 2 resource accounting.
  size_t VolatileFootprintBytes() const;

  std::span<const uint8_t> durable_bytes() const { return durable_; }
  // Writable view, for recovery run in place on this model's own bytes.
  std::span<uint8_t> mutable_durable_bytes() { return durable_; }

  // -- Recycling ------------------------------------------------------------
  //
  // An owned, zero-constructed model records every durable line it writes
  // (one bit per line), so it can be returned to its zeroed state in
  // O(lines written) instead of being rebuilt. Borrowed and image-built
  // models record nothing.

  // Durable lines written since construction or the last Reset(), each
  // once, in first-write order. A line outside this list is still zero.
  std::span<const uint64_t> written_lines() const { return written_; }

  // Returns a zero-constructed model to its just-constructed state: zeroes
  // the written lines, empties the cache and the WPQ, clears the stats.
  void Reset();

 private:
  struct CacheLine {
    std::array<uint8_t, kCacheLineSize> data{};
  };

  // Ensures `line` is resident in the cache overlay, loading its current
  // visible content first.
  CacheLine& Touch(uint64_t line);

  // Copies the line's current visible content into `out`.
  void SnapshotLine(uint64_t line, std::array<uint8_t, kCacheLineSize>* out)
      const;

  // The only writer of durable bytes (and so the only place the undo log
  // needs to hook).
  void CommitLineToDurable(uint64_t line,
                           const std::array<uint8_t, kCacheLineSize>& data);

  // Durable medium. Normally owned (`durable_` views `durable_owned_`);
  // under FromBorrowedDurable the span views caller memory and the vector
  // stays empty. Moves are safe either way: the vector move transfers the
  // heap buffer the span points into.
  std::vector<uint8_t> durable_owned_;
  std::span<uint8_t> durable_;
  // Volatile CPU cache overlay: dirty lines only. Hashed rather than ordered
  // — the store/flush hot path only ever probes single lines, and every
  // whole-map walk (fence commit, image overlay) touches disjoint lines, so
  // iteration order cannot change the result. The one consumer that needs
  // determinism, DirtyLines(), sorts its output instead.
  std::unordered_map<uint64_t, CacheLine> cache_;
  // Write pending queue: line snapshots awaiting a fence.
  std::unordered_map<uint64_t, CacheLine> wpq_;
  ModelStats stats_;
  DurableUndoLog* undo_ = nullptr;
  // Written-line record (zero-constructed models only; empty otherwise):
  // a bit per durable line plus the marked lines in first-write order.
  std::vector<bool> written_mark_;
  std::vector<uint64_t> written_;
};

}  // namespace mumak

#endif  // MUMAK_SRC_PMEM_PERSISTENCY_MODEL_H_
