#ifndef INSTANTDB_WAL_LOG_RECORD_H_
#define INSTANTDB_WAL_LOG_RECORD_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "catalog/lcp.h"
#include "catalog/value.h"
#include "common/clock.h"
#include "common/result.h"
#include "storage/page.h"

namespace instantdb {

/// Log sequence number: the global byte offset of a record's frame in the
/// logical log (segments are named by their starting LSN).
using Lsn = uint64_t;

/// The values are the on-disk type byte; 1, 3, 5 and 7 are unused (a
/// decoded one is Corruption). Degradation writes no record: a value's
/// phase is a function of its insert time, and the state stores hold every
/// level.
enum class WalRecordType : uint8_t {
  kCommit = 2,
  /// Tuple insertion at full accuracy. The degradable values are the only
  /// sensitive bytes that ever reach the log; WalPrivacyMode governs how
  /// they are kept from outliving their degradation deadline.
  kInsert = 4,
  /// Tuple removal by a user delete.
  kDelete = 6,
  kCheckpoint = 8,
};

/// \brief One redo record: a commit applies it and crash recovery replays
/// it through the same function (Table::Apply). All redo is *idempotent*:
/// appends carry row ids (stores skip duplicates) and deletes are absolute.
/// Rows are insert-only: no record changes a row in place.
struct WalRecord {
  WalRecordType type = WalRecordType::kCommit;
  uint64_t txn_id = 0;
  TableId table = 0;

  // kInsert / kDelete
  RowId row_id = kInvalidRowId;
  Micros insert_time = 0;
  std::vector<Value> stable;      // schema stable-column order
  std::vector<Value> degradable;  // schema degradable-column order (accurate)
  /// In-memory only (never serialized): each degradable value's leaf
  /// ordinal at its phase-0 level, as the live insert validated it, so the
  /// apply needs no label lookup. Empty on a decoded record, whose apply
  /// resolves the ordinals from the values.
  std::vector<int64_t> ordinals;

  // kCheckpoint
  Lsn checkpoint_lsn = 0;

  /// In-memory only (never serialized): earliest phase-0 deadline of the
  /// accurate degradable values this kInsert record carries — insert_time
  /// plus the shortest first-phase duration over the row's degradable
  /// columns, kForever when nothing in the record ever degrades. The WAL
  /// folds it into a per-segment minimum so the deletion-assurance audit
  /// can ask "does any live segment still hold an accurate value past its
  /// deadline?" without re-reading the log.
  Micros payload_deadline = kForever;
};

/// Decrypts the sealed degradable blob of an insert record in place; an
/// error (no key to open it) fails the decode.
using WalBlobCipher = std::function<Status(std::string* blob)>;

/// Byte range of an insert's degradable blob inside its record body.
struct WalBlobRange {
  size_t offset = 0;
  size_t length = 0;
};

/// Serializes the record body (the WalManager frames and checksums it).
/// With a null `blob` the body is final: an insert's degradable values are
/// written in the plaintext layout. With a non-null `blob` an insert's
/// values are written in *plaintext* but already framed as encrypted (flag
/// + length prefix), and `*blob` receives their byte range; the caller
/// seals that range in place once the record's LSN (its nonce) is known —
/// the stream cipher preserves length. Every other type comes out final
/// with `blob->length == 0`.
std::string EncodeWalRecord(const WalRecord& record,
                            WalBlobRange* blob = nullptr);

/// Decodes a record body; `decrypt` may be null when the body holds no
/// sealed payload (a sealed one is then Corruption).
Result<WalRecord> DecodeWalRecord(Slice input, const WalBlobCipher& decrypt);

}  // namespace instantdb

#endif  // INSTANTDB_WAL_LOG_RECORD_H_
