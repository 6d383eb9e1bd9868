#ifndef INSTANTDB_STORAGE_STATE_STORE_H_
#define INSTANTDB_STORAGE_STATE_STORE_H_

#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <unordered_set>

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

/// One degradable attribute value of one tuple, resident in a state store.
struct StoreEntry {
  RowId row_id = kInvalidRowId;
  /// Tuple insertion time; with the table-uniform LCP it determines every
  /// degradation deadline of this entry.
  Micros insert_time = 0;
  Value value;
  /// In-memory mirror only (never encoded): leaf ordinal of `value` at the
  /// store's level, `LeafRange(value, level).lo`, or -1 when the value is
  /// not a node of the hierarchy. Set when the entry enters the mirror, so
  /// scans evaluate σ and f_k on it (DomainHierarchy::AncestorRange/
  /// AncestorValue) without hashing the value or copying it out.
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
/// bytes in place. The live contents are mirrored in memory, sorted by row
/// id (the working set of a phase is bounded by arrival-rate × phase
/// duration); crash recovery rebuilds the mirror from the segments plus WAL
/// replay, which is idempotent because appends of a present row id are
/// ignored and pops of an absent one are no-ops.
class StateStore {
 public:
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
  /// the in-memory mirror. Tolerates a torn tail frame after a crash.
  Status Open();

  bool empty() const { return live_.empty(); }
  size_t size() const { return live_.size(); }

  /// Entry with the smallest row id; store must be non-empty.
  const StoreEntry& Head() const { return live_.front().entry; }
  /// Largest row id ever appended, kInvalidRowId when nothing was.
  RowId LastAppendedRowId() const { return last_appended_row_id_; }

  /// Appends an entry. Row ids are normally increasing (FIFO), but
  /// transactions committing concurrently may apply slightly out of order:
  /// the live mirror is kept sorted by row id, so a late append lands in
  /// its FIFO position. An append whose row id is already present is
  /// ignored — this is what makes WAL replay idempotent (re-pops are
  /// handled by the degrade records that follow in log order). The mirror
  /// copy's ordinal is resolved here; `entry.ordinal` is ignored.
  Status Append(const StoreEntry& entry);

  /// Removes the head entry; erases segments as they drain.
  Status PopHead(StoreEntry* out);

  /// Pops exactly one entry by row id; a no-op when absent (stale redo, or
  /// an entry that was never appended). Degradation steps pop precisely the
  /// entries they collected — a prefix pop "through row id X" would also
  /// destroy an out-of-order append that landed below X between a step's
  /// collect and apply phases.
  Status PopById(RowId row_id);

  /// Physically removes one entry anywhere in the store (user DELETE):
  /// tombstones the frame and zeroes its payload bytes on disk, so the
  /// value is cleaned from the data space immediately, not when the
  /// segment drains. NotFound if the row is not in this store.
  Status SecureDeleteEntry(RowId row_id);

  /// Binary search over the (row-id-sorted) live mirror; nullptr if absent.
  const StoreEntry* Find(RowId row_id) const;

  /// Batched Find: resolves `ids[0..n)` (which must be ascending) against
  /// the live mirror in ONE forward pass that gallops from each hit to the
  /// next, instead of n independent binary searches — the probe primitive
  /// of the pushdown scan's survivor pass. A dense batch costs O(1) per id.
  /// Sets out[j] for every id found whose slot is still nullptr (slots
  /// already set are skipped, so a caller probing a phase chain passes the
  /// same arrays through every phase's store and each row keeps its
  /// first — i.e. most accurate — hit). Returns the number of slots newly
  /// set.
  size_t FindMany(const RowId* ids, size_t n, const StoreEntry** out) const;

  /// In-order iteration; stops early when `fn` returns false.
  void ForEach(const std::function<bool(const StoreEntry&)>& fn) const;

  /// Earliest insert_time over the live entries (kForever when empty). The
  /// mirror is sorted by row id, and out-of-order commits mean the head's
  /// insert_time is not necessarily the minimum — WAL epoch-key destruction
  /// must use this exact bound.
  Micros MinInsertTime() const;

  /// fsync the tail segment + persist checkpoint meta (head position).
  /// No-op when nothing changed since the last checkpoint — the incremental
  /// checkpoint path calls this for every store of a dirty partition, and a
  /// clean store must not pay the two fsyncs (tail + META rename).
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

  const std::string& dir() const { return dir_; }

 private:
  struct Segment {
    uint64_t seqno = 0;
    uint32_t entries = 0;   // frames written to the file (incl. tombstones)
    uint32_t popped = 0;    // frames drained from the head
    uint32_t deleted = 0;   // frames tombstoned by SecureDeleteEntry
    uint64_t bytes = 0;
    bool sealed = false;    // no further appends
    /// v2 segments (magic header) carry a per-frame CRC32C; legacy segments
    /// are headerless and CRC-less but stay readable.
    bool has_crc = false;
  };

  struct LiveEntry {
    StoreEntry entry;
    uint64_t seqno = 0;     // owning segment
    uint64_t offset = 0;    // frame offset in the segment file
    uint32_t len = 0;       // payload length
  };

  std::string SegmentPath(uint64_t seqno) const;
  std::string KeyId(uint64_t seqno) const;
  std::string MetaPath() const { return dir_ + "/META"; }

  /// Checkpoint-meta state driving which loaded frames count as popped.
  /// v2 metas carry the pop watermark + survivor ids; v1 (legacy,
  /// pre-partitioning) metas carry a positional frame count, valid because
  /// legacy files have strictly monotone row ids.
  struct MetaState {
    bool legacy = false;
    uint64_t legacy_head_seqno = 0;
    uint64_t legacy_head_popped = 0;  // frames left to skip in the head seg
    std::unordered_set<RowId> survivors;
  };

  /// Leaf ordinal of a value at this store's level (-1 when it has none).
  int64_t OrdinalOf(const Value& value) const;
  /// Sorted insert position of `row_id` in the live mirror.
  std::deque<LiveEntry>::iterator LowerBound(RowId row_id);
  Status OpenTailWriter();
  Status SealTail();
  /// Writes the buffered tail frames through to the segment file. Appends
  /// buffer in user space (durability comes from the WAL until Checkpoint);
  /// every operation that reads or mutates segment bytes on disk — sealing,
  /// checkpoint, tombstoning — flushes first.
  Status FlushTail();
  /// Secure erase + unlink of a fully-dead segment.
  Status EraseSegment(const Segment& segment);
  /// Erases leading segments with no live frames left.
  Status CleanupDrainedSegments();
  Segment* FindSegment(uint64_t seqno);
  Status LoadSegment(Segment* segment, MetaState* meta);
  Status SaveMeta();

  const std::string dir_;
  const TableId table_;
  const int column_;
  const int phase_;
  const DomainHierarchy* const hierarchy_;
  const int level_;
  const StorageOptions options_;
  KeyManager* const keys_;
  Env* const env_;

  std::deque<LiveEntry> live_;    // sorted by row id
  /// Multiset of live insert times: O(log n) maintenance, O(1) exact
  /// minimum for MinInsertTime on the degradation hot path.
  std::multiset<Micros> live_times_;
  std::deque<Segment> segments_;  // front = head (oldest)
  std::unique_ptr<WritableFile> tail_writer_;
  /// Frames appended but not yet written through (see FlushTail).
  std::string tail_pending_;
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
