#include "wal/wal_manager.h"

#include <algorithm>
#include <cstdlib>
#include <set>

#include "common/logging.h"
#include "common/strings.h"
#include "io/env.h"
#include "util/crc32c.h"

namespace instantdb {

namespace {

constexpr char kCheckpointFile[] = "CHECKPOINT";

bool IsDataRecord(WalRecordType type) {
  return type != WalRecordType::kCommit && type != WalRecordType::kCheckpoint;
}

/// Walks the whole, CRC-valid frames of one segment's bytes in order,
/// calling `fn(offset, body)` (when non-null) for each, and stops at the
/// first torn or corrupt frame or at `fn`'s first error. Returns the
/// offset just past the last whole frame: the segment's logical size.
Result<uint64_t> ForEachFrame(
    Slice raw, const std::function<Status(uint64_t, Slice)>& fn) {
  uint64_t off = 0;
  while (off + 8 <= raw.size()) {
    const uint32_t masked = DecodeFixed32(raw.data() + off);
    const uint32_t len = DecodeFixed32(raw.data() + off + 4);
    if (off + 8 + len > raw.size()) break;  // torn tail
    if (crc32c::Unmask(masked) != crc32c::Value(raw.data() + off + 8, len)) {
      break;
    }
    if (fn != nullptr) {
      IDB_RETURN_IF_ERROR(fn(off, Slice(raw.data() + off + 8, len)));
    }
    off += 8 + len;
  }
  return off;
}

}  // namespace

std::string WalEpochKeyId(TableId table, uint64_t epoch) {
  return StringPrintf("wal.t%u.e%llu", table,
                      static_cast<unsigned long long>(epoch));
}

WalManager::WalManager(std::string dir, const WalOptions& options,
                       KeyManager* keys, Env* env)
    : dir_(std::move(dir)),
      options_(options),
      keys_(keys),
      env_(env != nullptr ? env : Env::Default()) {}

WalManager::~WalManager() {
  if (writer_ != nullptr) writer_->Close().ok();
}

std::string WalManager::SegmentPath(Lsn start) const {
  return dir_ + StringPrintf("/wal_%016llx.log",
                             static_cast<unsigned long long>(start));
}

Status WalManager::Open() {
  IDB_RETURN_IF_ERROR(env_->CreateDirs(dir_));
  segments_.clear();
  writer_.reset();
  next_lsn_ = 0;
  recycled_segments_ = 0;

  IDB_ASSIGN_OR_RETURN(auto names, env_->ListDir(dir_));
  std::vector<Lsn> starts;
  for (const std::string& name : names) {
    if (!StartsWith(name, "wal_")) continue;
    if (EndsWith(name, ".log")) {
      starts.push_back(std::strtoull(name.c_str() + 4, nullptr, 16));
    } else if (EndsWith(name, ".log.recycled")) {
      // An earlier process's kPlain retirements: the bytes are still here.
      ++recycled_segments_;
    }
  }
  std::sort(starts.begin(), starts.end());
  for (Lsn start : starts) {
    IDB_ASSIGN_OR_RETURN(uint64_t size, env_->GetFileSize(SegmentPath(start)));
    // Deadline unknown for bytes recovered from disk: 0 = assume exposed
    // (empty segments carry nothing and stay kForever via the fixup below).
    segments_.push_back({start, start + size, /*min_payload_deadline=*/0});
  }
  // Segments are contiguous in LSN space, so a sealed segment's logical end
  // is the next segment's start — a crash between preallocating a fresh
  // segment and trimming the old one leaves physical sizes that overstate
  // the tail; the successor's name is authoritative.
  for (size_t i = 0; i + 1 < segments_.size(); ++i) {
    segments_[i].end = segments_[i + 1].start;
  }
  for (SegmentInfo& segment : segments_) {
    if (segment.end == segment.start) segment.min_payload_deadline = kForever;
  }

  if (!segments_.empty()) {
    // Validate the tail segment frame-by-frame; drop a torn suffix.
    SegmentInfo& last = segments_.back();
    IDB_ASSIGN_OR_RETURN(std::string raw,
                         env_->ReadFileToString(SegmentPath(last.start)));
    IDB_ASSIGN_OR_RETURN(const uint64_t off, ForEachFrame(raw, nullptr));
    if (off < raw.size()) {
      // Torn suffix, or the zeroed remainder of a preallocated segment.
      IDB_RETURN_IF_ERROR(env_->TruncateFile(SegmentPath(last.start), off));
      last.end = last.start + off;
    }
    next_lsn_ = last.end;
    // Positional writer, not O_APPEND: preallocation extends the physical
    // file past the logical end, and appends must land at the logical end.
    IDB_ASSIGN_OR_RETURN(
        writer_,
        env_->NewWritableFile(SegmentPath(last.start), /*truncate=*/false));
    IDB_RETURN_IF_ERROR(PreallocateActiveLocked());
  }
  // Everything recovered from disk is as durable as it will ever be.
  synced_lsn_ = next_lsn_;
  return Status::OK();
}

Status WalManager::PreallocateActiveLocked() {
  // Reserve the segment's full extent and make the size durable once, so
  // every commit sync inside it can be a journal-free fdatasync. Best-
  // effort: filesystems without fallocate keep the plain fsync path.
  preallocated_ = false;
  const Lsn start = segments_.back().start;
  if (next_lsn_ - start >= options_.segment_bytes) return Status::OK();
  if (!writer_->Preallocate(options_.segment_bytes).ok()) return Status::OK();
  IDB_RETURN_IF_ERROR(writer_->Sync());
  preallocated_ = true;
  prealloc_end_ = start + options_.segment_bytes;
  return Status::OK();
}

Status WalManager::OpenNewSegmentLocked(std::unique_lock<std::mutex>& lock) {
  if (writer_ != nullptr) {
    // A leader's fdatasync may be running on the current writer with the
    // mutex released; closing the file under it would pull the fd away.
    while (sync_in_flight_) sync_cv_.wait(lock);
    IDB_RETURN_IF_ERROR(writer_->Sync());
    // The seal fsync covered every append so far: committers parked on the
    // watermark are durable now.
    synced_lsn_ = std::max(synced_lsn_, next_lsn_);
    sync_cv_.notify_all();
    IDB_RETURN_IF_ERROR(writer_->Close());
    // Trim the sealed segment's preallocated remainder so retired and
    // replayed segments are exactly their logical size.
    const SegmentInfo& sealed = segments_.back();
    if (preallocated_ && sealed.end - sealed.start < options_.segment_bytes) {
      IDB_RETURN_IF_ERROR(
          env_->TruncateFile(SegmentPath(sealed.start),
                             sealed.end - sealed.start));
    }
  }
  IDB_ASSIGN_OR_RETURN(writer_, env_->NewWritableFile(SegmentPath(next_lsn_)));
  segments_.push_back({next_lsn_, next_lsn_});
  ++stats_.segments_created;
  IDB_RETURN_IF_ERROR(PreallocateActiveLocked());
  return Status::OK();
}

Status WalManager::PoisonLocked(const Status& cause) {
  if (poisoned_.ok()) {
    // First failure wins and is permanent (fsyncgate semantics): a failed
    // fdatasync may have dropped dirty pages a retry would no longer cover,
    // and a failed append leaves the positional fd ahead of next_lsn_ —
    // retry-and-pretend would ack commits whose bytes are not, or are not
    // where the LSN-derived nonces say they are, on disk.
    poisoned_ = Status::IOError("wal poisoned: " + cause.ToString());
    stats_.poisoned = 1;
    // Wake every parked group-commit waiter so it observes the poison
    // instead of sleeping for a watermark that will never advance.
    sync_cv_.notify_all();
  }
  return poisoned_;
}

WalBlobCipher WalManager::MakeDecryptor(Lsn lsn) const {
  return [this, lsn](const WalRecord& record, const std::string& in,
                     std::string* out) {
    auto key =
        keys_->Get(WalEpochKeyId(record.table, EpochOf(record.insert_time)));
    if (!key.ok()) return false;  // destroyed epoch: values are gone
    *out = in;
    ChaCha20::XorStreamAt(*key, NonceForSequence(lsn), 0, out->data(),
                          out->size());
    return true;
  };
}

WalManager::PendingFrame WalManager::PrepareFrame(
    const WalRecord& record) const {
  PendingFrame frame;
  frame.payload_deadline = record.payload_deadline;
  WalBlobRange range;
  WalBlobRange* defer = nullptr;
  if (options_.privacy_mode == WalPrivacyMode::kEncryptedEpoch &&
      record.type == WalRecordType::kInsert) {
    // The epoch key depends only on (table, insert time), so it can be
    // fetched here; only the nonce needs the LSN reserved under the mutex.
    // Keystore unavailable: the payload is logged in the plaintext layout.
    auto key = keys_->GetOrCreate(
        WalEpochKeyId(record.table, EpochOf(record.insert_time)));
    if (key.ok()) {
      defer = &range;
      frame.key = *key;
    }
  }
  const std::string body = EncodeWalRecord(record, defer);
  frame.bytes.reserve(8 + body.size());
  if (range.length == 0) {
    PutFixed32(&frame.bytes,
               crc32c::Mask(crc32c::Value(body.data(), body.size())));
  } else {
    PutFixed32(&frame.bytes, 0);  // sealed with the blob once the LSN exists
  }
  PutFixed32(&frame.bytes, static_cast<uint32_t>(body.size()));
  frame.bytes += body;
  frame.blob_offset = 8 + range.offset;
  frame.blob_length = range.length;
  return frame;
}

Result<Lsn> WalManager::AppendFramesLocked(std::unique_lock<std::mutex>& lock,
                                           std::vector<PendingFrame>& frames) {
  if (frames.empty()) return next_lsn_;
  Lsn first_lsn = 0;
  // Frames accumulate against a provisional LSN; shared state (next_lsn_,
  // segment end, stats) only advances once the buffered bytes are actually
  // on the file, so a failed write cannot desync LSNs from the physical
  // log (the per-LSN encryption nonces depend on this).
  Lsn lsn = next_lsn_;
  std::string buffer;
  uint64_t buffered_records = 0;
  auto flush = [&]() -> Status {
    if (buffer.empty()) return Status::OK();
    IDB_RETURN_IF_ERROR(writer_->Append(buffer));
    next_lsn_ = lsn;
    segments_.back().end = next_lsn_;
    stats_.records_appended += buffered_records;
    stats_.bytes_appended += buffer.size();
    buffer.clear();
    buffered_records = 0;
    return Status::OK();
  };
  for (size_t i = 0; i < frames.size(); ++i) {
    if (writer_ == nullptr ||
        (lsn - segments_.back().start) >= options_.segment_bytes) {
      // The buffered frames belong to the segment being closed: flush them
      // before rotating.
      IDB_RETURN_IF_ERROR(flush());
      IDB_RETURN_IF_ERROR(OpenNewSegmentLocked(lock));
    }
    if (i == 0) first_lsn = lsn;
    PendingFrame& frame = frames[i];
    if (frame.blob_length > 0) {
      // LSN-reservation seal: the record was serialized outside the mutex;
      // now that its LSN is fixed, XOR the blob with the LSN-derived nonce
      // and fill in the frame CRC over the final (ciphertext) body.
      ChaCha20::XorStreamAt(frame.key, NonceForSequence(lsn), 0,
                            &frame.bytes[frame.blob_offset],
                            frame.blob_length);
      EncodeFixed32(&frame.bytes[0],
                    crc32c::Mask(crc32c::Value(frame.bytes.data() + 8,
                                               frame.bytes.size() - 8)));
    }
    buffer += frame.bytes;
    lsn += frame.bytes.size();
    ++buffered_records;
    // Fold the payload deadline into the segment the frame lands in, before
    // the flush: if the write then fails the commit fails too, but partial
    // bytes may be on disk — over-reporting exposure is the safe direction.
    segments_.back().min_payload_deadline =
        std::min(segments_.back().min_payload_deadline, frame.payload_deadline);
  }
  IDB_RETURN_IF_ERROR(flush());
  return first_lsn;
}

Result<Lsn> WalManager::AppendBatch(
    const std::vector<const WalRecord*>& records, bool sync, Lsn* end_lsn) {
  // Encoding — serialization, CRC, and for encrypted payloads the key fetch
  // — happens here, before the log mutex: concurrent committers encode
  // in parallel and only the buffered write serializes.
  std::vector<PendingFrame> frames;
  frames.reserve(records.size());
  for (const WalRecord* record : records) frames.push_back(PrepareFrame(*record));
  Lsn first = 0;
  Lsn end = 0;
  {
    std::lock_guard<std::mutex> append(append_mu_);
    std::unique_lock<std::mutex> lock(mu_);
    if (!poisoned_.ok()) return poisoned_;
    auto appended = AppendFramesLocked(lock, frames);
    if (!appended.ok()) return PoisonLocked(appended.status());
    first = *appended;
    end = next_lsn_;
  }
  if (end_lsn != nullptr) *end_lsn = end;
  if (sync) IDB_RETURN_IF_ERROR(SyncThrough(end));
  return first;
}

Status WalManager::SyncThrough(Lsn lsn) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!poisoned_.ok()) return poisoned_;
  if (writer_ == nullptr) return Status::OK();  // nothing ever appended
  // Every counted request either leads exactly one sync or is absorbed:
  // sync_requests == syncs + commits_absorbed (the bench's absorption
  // ratio rests on this; only poisoned-log exits fall outside it).
  ++stats_.sync_requests;
  lsn = std::min(lsn, next_lsn_);
  bool led = false;
  if (synced_lsn_ < lsn) {
    ++sync_parked_;  // depth signal; every exit below undoes it
    while (synced_lsn_ < lsn) {
      if (sync_in_flight_) {
        // Park on the watermark: the leader's sync covers every byte
        // appended before it started, very likely including ours.
        sync_cv_.wait(lock);
        if (!poisoned_.ok()) {
          // The leader's sync failed and poisoned the log: this commit
          // was never made durable and never will be on this log.
          --sync_parked_;
          return poisoned_;
        }
        continue;
      }
      // No sync in flight: lead. One fdatasync for everything appended so
      // far covers every parked demand, whoever leads.
      sync_in_flight_ = true;
      led = true;
      const Lsn durable_to = next_lsn_;
      WritableFile* writer = writer_.get();
      const bool data_only = preallocated_ && durable_to <= prealloc_end_;
      ++stats_.syncs;
      lock.unlock();
      // Commit-path sync: fdatasync while inside the preallocated, size-
      // durable region (no journal commit), full fsync otherwise. Rotation
      // cannot close this writer meanwhile — it waits on sync_in_flight_.
      const Status synced = data_only ? writer->SyncData() : writer->Sync();
      lock.lock();
      sync_in_flight_ = false;
      sync_cv_.notify_all();
      if (!synced.ok()) {
        // fsyncgate: the kernel may have dropped the dirty pages this sync
        // failed to write; a retry could succeed while covering nothing.
        // Poison the log so no later sync can silently "succeed".
        PoisonLocked(synced);
        --sync_parked_;
        return poisoned_;
      }
      synced_lsn_ = std::max(synced_lsn_, durable_to);
    }
    --sync_parked_;
  }
  if (!led) ++stats_.commits_absorbed;
  return Status::OK();
}

Status WalManager::Sync() { return SyncThrough(next_lsn()); }

Result<Lsn> WalManager::LogCheckpoint(Lsn begin) {
  // One checkpoint at a time (see checkpoint_mu_): the background cadence and
  // caller-driven checkpoints would otherwise race the manifest rename.
  std::lock_guard<std::mutex> checkpoint_lock(checkpoint_mu_);
  IDB_ASSIGN_OR_RETURN(const Lsn lsn, AppendCheckpointAndRotate(begin));
  // Retirement only after the manifest durably records the new replay
  // position: segments must never disappear ahead of the pointer that says
  // they are no longer needed.
  IDB_RETURN_IF_ERROR(WriteManifest(lsn));
  IDB_RETURN_IF_ERROR(RetireThrough(lsn));
  return lsn;
}

Result<Lsn> WalManager::AppendCheckpointAndRotate(Lsn begin) {
  std::lock_guard<std::mutex> append(append_mu_);
  std::unique_lock<std::mutex> lock(mu_);
  if (!poisoned_.ok()) return poisoned_;
  begin = std::min(begin, next_lsn_);
  WalRecord record;
  record.type = WalRecordType::kCheckpoint;
  record.checkpoint_lsn = begin;
  std::vector<PendingFrame> frames;
  frames.push_back(PrepareFrame(record));
  auto appended = AppendFramesLocked(lock, frames);
  if (!appended.ok()) return PoisonLocked(appended.status());
  // Replay resumes at the begin LSN, so records committed while storage
  // was being flushed (between the caller capturing `begin` and now) are
  // replayed again, idempotently — including the kCheckpoint record
  // itself, which redo ignores. With NO record between `begin` and this
  // one, replay needs nothing below the record's end either: advancing over
  // it lets the rotated-out segment retire on THIS checkpoint instead of
  // one checkpoint later, which is what keeps the scrub/unlink cadence
  // inside one checkpoint interval of a payload's degradation deadline.
  const Lsn lsn = *appended == begin ? next_lsn_ : begin;
  // Rotate so the segment holding pre-checkpoint records (including the
  // accurate values of insert records) becomes retirable — without this,
  // kScrub could never clean the active segment and accurate values would
  // outlive their degradation deadline in the log. The rotation's seal
  // fsync is what makes the kCheckpoint record (and the commits before it)
  // durable, so its failure is a sync failure like any other and poisons
  // the log.
  const Status rotated = OpenNewSegmentLocked(lock);
  if (!rotated.ok()) return PoisonLocked(rotated);
  return lsn;
}

Status WalManager::WriteManifest(Lsn lsn) {
  std::string body;
  PutVarint64(&body, lsn);
  std::string file;
  PutFixed32(&file, crc32c::Mask(crc32c::Value(body.data(), body.size())));
  file += body;
  const std::string tmp = dir_ + "/" + kCheckpointFile + ".tmp";
  IDB_RETURN_IF_ERROR(env_->WriteStringToFile(tmp, file, /*sync=*/true));
  Status renamed = env_->RenameFile(tmp, dir_ + "/" + kCheckpointFile);
  if (!renamed.ok()) {
    // The previous manifest stays authoritative; drop the orphan so a later
    // crash cannot leave a stale .tmp to confuse a human (recovery never
    // reads it either way).
    (void)env_->RemoveFile(tmp);
  }
  return renamed;
}

Status WalManager::RetireThrough(Lsn lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  while (segments_.size() > 1 && segments_.front().end <= lsn) {
    const SegmentInfo segment = segments_.front();
    const std::string path = SegmentPath(segment.start);
    switch (options_.privacy_mode) {
      case WalPrivacyMode::kPlain: {
        // Model real-world unintended retention: the bytes stay on disk.
        IDB_RETURN_IF_ERROR(env_->RenameFile(path, path + ".recycled"));
        ++recycled_segments_;
        break;
      }
      case WalPrivacyMode::kScrub: {
        const uint64_t size = segment.end - segment.start;
        IDB_RETURN_IF_ERROR(env_->OverwriteRange(path, 0, size));
        stats_.scrub_bytes += size;
        IDB_RETURN_IF_ERROR(env_->RemoveFile(path));
        break;
      }
      case WalPrivacyMode::kEncryptedEpoch: {
        // Ciphertext is unreadable once its epoch key dies; plain unlink.
        IDB_RETURN_IF_ERROR(env_->RemoveFile(path));
        break;
      }
    }
    segments_.erase(segments_.begin());
    ++stats_.segments_retired;
  }
  return Status::OK();
}

Result<Lsn> WalManager::ReadCheckpointLsn() const {
  const std::string path = dir_ + "/" + kCheckpointFile;
  if (!env_->FileExists(path)) return Lsn{0};
  IDB_ASSIGN_OR_RETURN(std::string contents, env_->ReadFileToString(path));
  Slice input = contents;
  uint32_t masked;
  uint64_t lsn;
  if (!GetFixed32(&input, &masked) ||
      crc32c::Unmask(masked) != crc32c::Value(input.data(), input.size()) ||
      !GetVarint64(&input, &lsn)) {
    return Status::Corruption("bad CHECKPOINT file");
  }
  return lsn;
}

Status WalManager::Replay(
    Lsn from, const std::function<Status(const WalRecord&, Lsn)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const SegmentInfo& segment : segments_) {
    if (segment.end <= from) continue;
    IDB_ASSIGN_OR_RETURN(std::string raw,
                         env_->ReadFileToString(SegmentPath(segment.start)));
    IDB_RETURN_IF_ERROR(
        ForEachFrame(raw, [&](uint64_t off, Slice body) -> Status {
          const Lsn lsn = segment.start + off;
          if (lsn < from) return Status::OK();
          auto record = DecodeWalRecord(body, MakeDecryptor(lsn));
          if (!record.ok()) return record.status();
          return fn(*record, lsn);
        }).status());
  }
  return Status::OK();
}

Status WalManager::RecoverCommitted(
    Lsn from, const std::function<Status(const WalRecord&)>& redo,
    uint64_t* max_txn_id) {
  // Pass 1: which transactions' commit markers survived, and the id
  // high-water mark (torn transactions included).
  std::set<uint64_t> committed;
  uint64_t high_txn = 0;
  IDB_RETURN_IF_ERROR(Replay(from, [&](const WalRecord& record, Lsn) {
    high_txn = std::max(high_txn, record.txn_id);
    if (record.type == WalRecordType::kCommit) committed.insert(record.txn_id);
    return Status::OK();
  }));
  if (max_txn_id != nullptr) *max_txn_id = high_txn;

  // Pass 2: redo committed work in log order.
  return Replay(from, [&](const WalRecord& record, Lsn) {
    if (!IsDataRecord(record.type)) return Status::OK();
    if (committed.count(record.txn_id) == 0) return Status::OK();
    return redo(record);
  });
}

Status WalManager::DestroyEpochKeysThrough(
    TableId table, Micros safe_time,
    const std::function<Status()>& before_destroy) {
  if (!epoch_keys_enabled() || safe_time <= 0) return Status::OK();
  std::lock_guard<std::mutex> lock(epoch_mu_);
  // Epoch e covers [e*epoch, (e+1)*epoch); destroy every epoch that ends at
  // or before safe_time, e < EpochOf(safe_time). The epoch holding
  // safe_time may still take inserts: destroying its key would let the next
  // insert re-create that key id, and redo would open the older records
  // with the new key.
  const uint64_t end_epoch = EpochOf(safe_time);
  auto [slot, first_call] = epoch_watermark_.try_emplace(table, end_epoch);
  uint64_t& watermark = slot->second;
  if (first_call) {
    // This process has destroyed nothing of the table yet: start at its
    // oldest live key, not at epoch 0, which on a system clock lies about
    // half a million hour-long epochs back.
    const std::string prefix = StringPrintf("wal.t%u.e", table);
    keys_->ForEachLiveKeyId(prefix, [&](const std::string& id) {
      watermark = std::min<uint64_t>(
          watermark, std::strtoull(id.c_str() + prefix.size(), nullptr, 10));
    });
  }
  bool prepared = false;
  for (; watermark < end_epoch; ++watermark) {
    const std::string id = WalEpochKeyId(table, watermark);
    if (!keys_->Get(id).ok()) continue;  // a gap: no insert in that epoch
    if (!prepared) {
      IDB_RETURN_IF_ERROR(before_destroy());
      prepared = true;
    }
    IDB_RETURN_IF_ERROR(keys_->Destroy(id));
    std::lock_guard<std::mutex> stats_lock(mu_);
    ++stats_.epoch_keys_destroyed;
  }
  return Status::OK();
}

WalManager::ExposureAudit WalManager::AuditExposure(Micros horizon) const {
  std::lock_guard<std::mutex> lock(mu_);
  ExposureAudit audit;
  if (options_.privacy_mode != WalPrivacyMode::kEncryptedEpoch) {
    for (const SegmentInfo& segment : segments_) {
      if (segment.min_payload_deadline <= horizon) ++audit.exposed_segments;
    }
  }
  // Every retirement under kPlain renamed the segment and left the bytes
  // on disk; none has ever been scrubbed.
  audit.unscrubbed_recycled = recycled_segments_;
  return audit;
}

Micros WalManager::EarliestPayloadDeadline() const {
  std::lock_guard<std::mutex> lock(mu_);
  Micros earliest = kForever;
  for (const SegmentInfo& segment : segments_) {
    earliest = std::min(earliest, segment.min_payload_deadline);
  }
  return earliest;
}

uint64_t WalManager::LingeringEpochKeys(TableId table, Micros safe_time) const {
  if (!epoch_keys_enabled() || safe_time <= 0) return 0;
  // Epoch e covers [e*epoch, (e+1)*epoch): every epoch ending at or before
  // safe_time must be dead. Count survivors among the table's live keys.
  const uint64_t end_epoch = EpochOf(safe_time);
  const std::string prefix = StringPrintf("wal.t%u.e", table);
  uint64_t lingering = 0;
  keys_->ForEachLiveKeyId(prefix, [&](const std::string& id) {
    const uint64_t epoch = std::strtoull(id.c_str() + prefix.size(), nullptr, 10);
    if (epoch < end_epoch) ++lingering;
  });
  return lingering;
}

}  // namespace instantdb
