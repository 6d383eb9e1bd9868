#ifndef INSTANTDB_STORAGE_STATE_STORE_H_
#define INSTANTDB_STORAGE_STATE_STORE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "catalog/generalization.h"
#include "catalog/value.h"
#include "common/clock.h"
#include "common/options.h"
#include "common/result.h"
#include "storage/key_manager.h"
#include "storage/page.h"
#include "util/coding.h"
#include "util/file.h"

namespace instantdb {

class Env;

/// One degradable attribute value of one tuple: the unit a state store
/// frames on disk, a degrade step logs, and Append takes.
struct StoreEntry {
  RowId row_id = kInvalidRowId;
  /// Tuple insertion time; with the table-uniform LCP it determines every
  /// degradation deadline of this entry.
  Micros insert_time = 0;
  Value value;
  /// Never encoded: leaf ordinal of `value` at the store's level,
  /// `LeafRange(value, level).lo`, when the producer already knows it (a
  /// degrade step computes it with DomainHierarchy::AncestorRange), so
  /// Append need not resolve it; -1 makes Append resolve it.
  int64_t ordinal = -1;
};

/// One live entry as a state store hands it out. The store keeps no Value:
/// `DomainHierarchy::AncestorValue(ordinal, level)` rebuilds the stored
/// value, and AncestorRange/AncestorValue at coarser levels give σ and f_k.
struct StoreEntryView {
  RowId row_id = kInvalidRowId;
  Micros insert_time = 0;
  /// `LeafRange(value, level).lo` of the stored value at the store's level.
  int64_t ordinal = -1;
};

/// \brief Append-only FIFO store for the subset ST of values of one
/// (degradable attribute, LCP phase) pair — the physical realization of the
/// paper's dataset partitioning into subsets ST_k (§II).
///
/// Why FIFO works: the paper's simplifying assumptions (time-triggered
/// transitions, one LCP per attribute applied uniformly to all tuples,
/// inserts only at full accuracy) mean values enter a phase in insertion
/// order and leave it in the same order. A degradation step therefore only
/// ever pops a prefix of this store and appends generalized values to the
/// next phase's store — strictly sequential I/O.
///
/// Durability/erasure: entries are framed into segment files of
/// `segment_bytes`. When the last live entry of a segment is gone the
/// segment is *securely erased*: zero-overwritten (EraseMode::kOverwrite)
/// or its per-segment key destroyed (EraseMode::kCryptoErase), then
/// unlinked. User deletes in the middle of a store are handled by
/// `SecureDeleteEntry`, which tombstones the frame and zeroes its payload
/// bytes in place. Crash recovery rebuilds the mirror from the segments
/// plus WAL redo of inserts, which is idempotent because appends of a
/// present row id are ignored. A pop becomes durable when the META records
/// it (Checkpoint) or its segment is erased, so the next phase's store,
/// which holds the popped values, is synced first (set_successor).
///
/// What stays in memory: per live entry its row id, insert time, the leaf
/// ordinal of its value at the store's level — one integer per value, never
/// the Value — and the locator of its frame, in parallel arrays sorted by
/// row id (the working set of a phase is bounded by arrival-rate × phase
/// duration). The row ids form their own contiguous array, the only one
/// the FindMany probe reads. A Value exists only transiently: decoded from
/// a frame on Open, encoded into one on Append, or rebuilt by the caller
/// from the ordinal (DomainHierarchy::AncestorValue). A value that is not a
/// node of the hierarchy at the store's level therefore cannot be stored.
class StateStore {
 public:
  /// Bytes one live entry costs in the mirror arrays (capacity slack comes
  /// on top; see mirror_bytes()).
  static constexpr size_t kMirrorBytesPerEntry =
      sizeof(RowId) + sizeof(Micros) + sizeof(int64_t) + 3 * sizeof(uint32_t);

  /// `hierarchy` is the column's domain and `level` the phase's accuracy
  /// level: together they resolve every entry's leaf ordinal. Both must
  /// outlive the store. `env` == nullptr uses Env::Default().
  StateStore(std::string dir, TableId table, int column, int phase,
             const DomainHierarchy* hierarchy, int level,
             const StorageOptions& options, KeyManager* keys,
             Env* env = nullptr);
  ~StateStore();
  StateStore(const StateStore&) = delete;
  StateStore& operator=(const StateStore&) = delete;

  /// Loads segment files (and the checkpoint meta, if present) and rebuilds
  /// the in-memory mirror. Tolerates a torn tail frame after a crash; a
  /// live frame whose value is not a node at the store's level is
  /// Corruption.
  Status Open();

  bool empty() const { return size() == 0; }
  size_t size() const { return ids_.size() - head_; }

  /// Entry with the smallest row id; store must be non-empty.
  StoreEntryView Head() const { return View(head_); }
  /// Largest row id ever appended, kInvalidRowId when nothing was.
  RowId LastAppendedRowId() const { return last_appended_row_id_; }

  /// Appends an entry. Row ids are normally increasing (FIFO), but
  /// transactions committing concurrently may apply slightly out of order:
  /// the live mirror is kept sorted by row id, so a late append lands in
  /// its FIFO position. An append whose row id is already present is
  /// ignored — this is what makes WAL redo idempotent. The mirror
  /// keeps `entry.ordinal` when it is set (the caller vouches that it is
  /// `LeafRange(entry.value, level).lo`) and resolves it otherwise;
  /// InvalidArgument when the value is not a node at the store's level.
  Status Append(const StoreEntry& entry);

  /// The next phase's store, synced before a segment with pops is erased
  /// (nullptr for the last phase: its pops are removals to ⊥).
  void set_successor(StateStore* successor) { successor_ = successor; }

  /// Writes the buffered tail through and fsyncs every segment, sealed or
  /// not, holding a frame appended since the last Sync.
  Status Sync();

  /// Leaf ordinal of a value at this store's level, or InvalidArgument when
  /// it is not a node there.
  Result<int64_t> OrdinalOf(const Value& value) const;

  /// Pops exactly one entry by row id; a no-op when absent. Degradation
  /// steps pop precisely the entries they moved to the next phase.
  Status PopById(RowId row_id);

  /// Physically removes one entry anywhere in the store (user DELETE):
  /// tombstones the frame and zeroes its payload bytes on disk, so the
  /// value is cleaned from the data space immediately, not when the
  /// segment drains. NotFound if the row is not in this store.
  Status SecureDeleteEntry(RowId row_id);

  /// Binary search over the sorted row-id array; nullopt if absent.
  std::optional<StoreEntryView> Find(RowId row_id) const;

  /// Batched Find: resolves `ids[0..n)` (which must be ascending) against
  /// the row-id array in ONE forward pass that gallops from each hit to the
  /// next, instead of n independent binary searches — the probe primitive
  /// of the pushdown scan's survivor pass. A dense batch costs O(1) per id.
  /// Writes the leaf ordinal into ordinals[j] for every id found whose slot
  /// is still negative (slots already set are skipped, so a caller probing
  /// a phase chain passes the same arrays through every phase's store and
  /// each row keeps its first — i.e. most accurate — hit). Returns the
  /// number of slots newly set.
  size_t FindMany(const RowId* ids, size_t n, int64_t* ordinals) const;

  /// In-order iteration; stops early when `fn` returns false.
  void ForEach(const std::function<bool(const StoreEntryView&)>& fn) const;

  /// Sync() + persist checkpoint meta (the popped set, so the successor is
  /// checkpointed first). No-op when nothing changed since the last
  /// checkpoint — the incremental checkpoint path calls this for every
  /// store of a dirty partition, and a clean store must not pay the two
  /// fsyncs (tail + META rename).
  Status Checkpoint();

  /// Securely erases every segment and removes the directory (table drop /
  /// full tuple removal path for the final phase).
  Status Drop();

  struct Stats {
    uint64_t entries_appended = 0;
    uint64_t entries_popped = 0;
    uint64_t entries_deleted = 0;
    uint64_t segments_created = 0;
    uint64_t segments_erased = 0;
    uint64_t bytes_appended = 0;
  };
  const Stats& stats() const { return stats_; }

  /// Heap bytes the in-memory mirror holds, array capacity and the
  /// consumed prefix included.
  size_t mirror_bytes() const;

  const std::string& dir() const { return dir_; }

 private:
  struct Segment {
    uint64_t seqno = 0;
    uint32_t entries = 0;   // frames written to the file (incl. tombstones)
    uint32_t popped = 0;    // frames drained from the head
    uint32_t deleted = 0;   // frames tombstoned by SecureDeleteEntry
    uint64_t bytes = 0;
    bool sealed = false;    // no further appends
  };

  /// Where a live entry's frame is: the owning segment's seqno (its low 32
  /// bits — the live segments of one store span a far smaller seqno
  /// window), the frame's file offset (segments stay below 2 GiB) and its
  /// payload length.
  struct FrameLocator {
    uint32_t segment = 0;
    uint32_t offset = 0;
    uint32_t len = 0;
  };

  /// One entry in flight between the frame codec and the mirror arrays.
  struct MirrorRow {
    RowId row_id;
    Micros insert_time;
    int64_t ordinal;
    FrameLocator frame;
  };

  std::string SegmentPath(uint64_t seqno) const;
  std::string KeyId(uint64_t seqno) const;
  std::string MetaPath() const { return dir_ + "/META"; }

  Status OpenTailWriter();
  /// Closes the tail segment; Sync still covers it.
  Status SealTail();
  /// Writes the buffered tail frames through to the segment file. Appends
  /// buffer in user space (durability comes from the WAL until Sync);
  /// every operation that reads or mutates segment bytes on disk — sealing,
  /// sync, tombstoning — flushes first.
  Status FlushTail();
  /// Secure erase + unlink of a fully-dead segment.
  Status EraseSegment(const Segment& segment);
  /// Erases leading segments with no live frames left.
  Status CleanupDrainedSegments();
  Segment* FindSegment(uint32_t seqno);
  /// Loads one segment's frames: a frame at or below the pop watermark
  /// and not among the META's `survivors` counts as popped, the rest join
  /// `live`.
  Status LoadSegment(Segment* segment,
                     const std::unordered_set<RowId>& survivors,
                     std::vector<MirrorRow>* live);
  Status SaveMeta();

  // --- mirror arrays ---------------------------------------------------------

  StoreEntryView View(size_t pos) const {
    return StoreEntryView{ids_[pos], times_[pos], ordinals_[pos]};
  }
  /// Array position of the first live entry whose row id is >= `row_id`.
  size_t LowerBound(RowId row_id) const;
  /// Inserts `row` at array position `pos` (>= head_), moving the tail.
  void MirrorInsert(size_t pos, const MirrorRow& row);
  /// Removes the entry at array position `pos`: a head pop advances head_,
  /// anything else moves the tail.
  void MirrorErase(size_t pos);
  /// Drops the consumed prefix [0, head_) from every array.
  void Compact();

  const std::string dir_;
  const TableId table_;
  const int column_;
  const int phase_;
  const DomainHierarchy* const hierarchy_;
  const int level_;
  const StorageOptions options_;
  KeyManager* const keys_;
  Env* const env_;

  /// The live mirror: entry i, for head_ <= i < ids_.size(), is (ids_[i],
  /// times_[i], ordinals_[i], frames_[i]), sorted by row id. Positions
  /// below head_ are the consumed prefix of head pops, dropped once it
  /// passes half the arrays, so a pop at the head is O(1) amortized.
  std::vector<RowId> ids_;
  std::vector<Micros> times_;
  std::vector<int64_t> ordinals_;
  std::vector<FrameLocator> frames_;
  size_t head_ = 0;

  std::deque<Segment> segments_;  // front = head (oldest)
  std::unique_ptr<WritableFile> tail_writer_;
  /// EraseMode::kCryptoErase: the open tail segment's key, minted by
  /// OpenTailWriter and zeroed when the tail seals or the store closes.
  ChaCha20::Key tail_key_{};
  /// Frames appended but not yet written through (see FlushTail).
  std::string tail_pending_;
  /// Seqnos of the segments holding frames a crash could lose, oldest
  /// first (appended to by Append, drained by Sync).
  std::vector<uint64_t> unsynced_;
  StateStore* successor_ = nullptr;
  uint64_t next_seqno_ = 0;
  RowId last_appended_row_id_ = kInvalidRowId;
  /// Set by every mutation Checkpoint would have to persist (appends, pops,
  /// tombstones); cleared once a checkpoint lands. Open() leaves it clear —
  /// the loaded state IS the on-disk state.
  bool dirty_ = false;
  /// Largest row id ever popped (0 = none). Persisted by Checkpoint along
  /// with the ids of live "survivors" at or below it (late out-of-order
  /// appends that were never popped), which together describe the popped
  /// set exactly; this replaces positional frame counts (frames inside a
  /// segment need not be in row-id order when transactions committed out
  /// of order).
  RowId pop_watermark_ = 0;
  Stats stats_;
};

}  // namespace instantdb

#endif  // INSTANTDB_STORAGE_STATE_STORE_H_
