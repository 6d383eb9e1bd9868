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

/// Marker of the sharded layout: the stream count, written at creation.
constexpr char kLegacyStreamsFile[] = "STREAMS";

/// Parses a sharded layout's stream directory name `s<k>`.
bool ParseLegacyStreamDir(const std::string& name, uint32_t* index) {
  if (name.size() < 2 || name[0] != 's') return false;
  char* end = nullptr;
  const unsigned long k = std::strtoul(name.c_str() + 1, &end, 10);
  if (*end != '\0' || k > UINT32_MAX) return false;
  *index = static_cast<uint32_t>(k);
  return true;
}

bool IsSegmentName(const std::string& name) {
  return StartsWith(name, "wal_") && EndsWith(name, ".log");
}

bool IsDataRecord(WalRecordType type) {
  return type != WalRecordType::kCommit && type != WalRecordType::kCheckpoint;
}

}  // namespace

WalManager::WalManager(std::string dir, const WalOptions& options,
                       KeyManager* keys, Env* env)
    : dir_(std::move(dir)),
      options_(options),
      keys_(keys),
      env_(env != nullptr ? env : Env::Default()) {}

WalManager::~WalManager() = default;

Status WalManager::Open() {
  IDB_RETURN_IF_ERROR(env_->CreateDirs(dir_));
  IDB_RETURN_IF_ERROR(ConvertShardedLayout());
  stream_ = std::make_unique<WalStream>(dir_, options_, keys_, env_);
  return stream_->Open();
}

Status WalManager::ConvertShardedLayout() {
  IDB_ASSIGN_OR_RETURN(auto names, env_->ListDir(dir_));
  std::vector<std::pair<uint32_t, std::string>> stream_dirs;
  bool has_segment = false;
  Lsn start = 0;
  for (const std::string& name : names) {
    uint32_t k = 0;
    if (ParseLegacyStreamDir(name, &k)) {
      stream_dirs.emplace_back(k, dir_ + "/" + name);
    } else if (IsSegmentName(name)) {
      // Only an interrupted conversion leaves a segment beside the stream
      // directories: the new log's first, still empty, segment.
      has_segment = true;
      start = std::max<Lsn>(start,
                            std::strtoull(name.c_str() + 4, nullptr, 16));
    }
  }
  const std::string streams_file = dir_ + "/" + kLegacyStreamsFile;
  if (stream_dirs.empty() && !env_->FileExists(streams_file)) {
    return Status::OK();
  }

  if (!stream_dirs.empty()) {
    // Sharded manifest: a stream count, then one replay position per
    // stream. Absent = nothing was ever checkpointed.
    std::vector<Lsn> positions;
    IDB_ASSIGN_OR_RETURN(const std::string body, ReadManifest());
    if (!body.empty()) {
      Slice input = body;
      uint32_t count = 0;
      if (!GetVarint32(&input, &count)) {
        return Status::Corruption("bad sharded CHECKPOINT in " + dir_);
      }
      for (uint32_t k = 0; k < count; ++k) {
        uint64_t lsn;
        if (!GetVarint64(&input, &lsn)) {
          return Status::Corruption("bad sharded CHECKPOINT in " + dir_);
        }
        positions.push_back(lsn);
      }
    }
    // Read-only scan: the directory stays byte-for-byte as found when it is
    // refused. Only the record type byte is read — enough to tell the
    // kCheckpoint records a clean close leaves from redo.
    const Status refused = Status::NotSupported(
        dir_ + " holds a multi-stream WAL with records past its last "
               "checkpoint; open and close the database once with the "
               "earlier build that wrote it, then reopen it with this one");
    for (const auto& [k, path] : stream_dirs) {
      const Lsn from = k < positions.size() ? positions[k] : 0;
      IDB_ASSIGN_OR_RETURN(auto files, env_->ListDir(path));
      for (const std::string& file : files) {
        if (!IsSegmentName(file)) continue;  // `*.recycled`: retired
        const Lsn segment = std::strtoull(file.c_str() + 4, nullptr, 16);
        IDB_ASSIGN_OR_RETURN(const std::string raw,
                             env_->ReadFileToString(path + "/" + file));
        IDB_ASSIGN_OR_RETURN(
            const uint64_t size,
            WalStream::ForEachFrame(raw, [&](uint64_t off, Slice body) {
              const bool redo =
                  body.empty() || static_cast<WalRecordType>(body[0]) !=
                                      WalRecordType::kCheckpoint;
              return segment + off >= from && redo ? refused : Status::OK();
            }));
        start = std::max(start, segment + size);
      }
    }
  }

  // Clean. Persist the new log's start first (an empty first segment at or
  // above every old stream's end: epoch keys outlive the conversion, and
  // old stream 0's nonces were NonceForSequence of its own offsets), then
  // scrub, then publish the manifest, and drop the STREAMS marker last — a
  // crash at any point reruns the conversion on the next open.
  if (!has_segment) {
    IDB_RETURN_IF_ERROR(env_->WriteStringToFile(
        dir_ + "/" + WalStream::SegmentName(start), "", /*sync=*/true));
  }
  for (const auto& [k, path] : stream_dirs) {
    IDB_ASSIGN_OR_RETURN(auto files, env_->ListDir(path));
    for (const std::string& file : files) {
      // Every file — live segments and kPlain's `*.recycled` alike.
      const std::string victim = path + "/" + file;
      IDB_ASSIGN_OR_RETURN(const uint64_t size, env_->GetFileSize(victim));
      IDB_RETURN_IF_ERROR(env_->OverwriteRange(victim, 0, size));
      IDB_RETURN_IF_ERROR(env_->RemoveFile(victim));
    }
    IDB_RETURN_IF_ERROR(env_->RemoveDirRecursive(path));
  }
  IDB_RETURN_IF_ERROR(WriteManifest(start));
  return env_->FileExists(streams_file) ? env_->RemoveFile(streams_file)
                                        : Status::OK();
}

Result<Lsn> WalManager::Append(const WalRecord& record, bool sync) {
  return stream_->Append(record, sync);
}

Result<Lsn> WalManager::AppendBatch(
    const std::vector<const WalRecord*>& records, bool sync) {
  return stream_->AppendBatch(records, sync);
}

Status WalManager::AppendCommit(const std::vector<const WalRecord*>& ops,
                                const WalRecord& commit, bool sync) {
  std::vector<const WalRecord*> records;
  records.reserve(ops.size() + 1);
  records.insert(records.end(), ops.begin(), ops.end());
  records.push_back(&commit);
  return stream_->AppendBatch(records, sync).status();
}

Status WalManager::Sync() { return stream_->Sync(); }

Result<std::string> WalManager::ReadManifest() const {
  const std::string path = dir_ + "/" + kCheckpointFile;
  if (!env_->FileExists(path)) return std::string();
  IDB_ASSIGN_OR_RETURN(std::string contents, env_->ReadFileToString(path));
  Slice input = contents;
  uint32_t masked;
  if (!GetFixed32(&input, &masked) ||
      crc32c::Unmask(masked) != crc32c::Value(input.data(), input.size()) ||
      input.empty()) {
    return Status::Corruption("bad CHECKPOINT file");
  }
  return std::string(input);
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

Result<Lsn> WalManager::LogCheckpoint(Lsn replay_from) {
  // One checkpoint at a time (see checkpoint_mu_): the daemon's cadence and
  // caller-driven checkpoints would otherwise race the manifest rename.
  std::lock_guard<std::mutex> checkpoint_lock(checkpoint_mu_);
  IDB_ASSIGN_OR_RETURN(const Lsn lsn, stream_->BeginCheckpoint(replay_from));
  // Retirement only after the manifest durably records the new replay
  // position: segments must never disappear ahead of the pointer that says
  // they are no longer needed.
  IDB_RETURN_IF_ERROR(WriteManifest(lsn));
  IDB_RETURN_IF_ERROR(stream_->RetireThrough(lsn));
  return lsn;
}

Result<Lsn> WalManager::ReadCheckpointLsn() const {
  IDB_ASSIGN_OR_RETURN(const std::string body, ReadManifest());
  if (body.empty()) return Lsn{0};
  Slice input = body;
  uint64_t lsn;
  if (!GetVarint64(&input, &lsn)) {
    return Status::Corruption("bad CHECKPOINT payload");
  }
  return lsn;
}

Status WalManager::Replay(
    Lsn from, const std::function<Status(const WalRecord&, Lsn)>& fn) const {
  return stream_->Replay(from, fn);
}

Status WalManager::RecoverCommitted(
    Lsn from, const std::function<Status(const WalRecord&)>& redo,
    uint64_t* max_txn_id) {
  // Pass 1: which transactions' commit markers survived, and the id
  // high-water mark (torn transactions included).
  std::set<uint64_t> committed;
  uint64_t high_txn = 0;
  IDB_RETURN_IF_ERROR(
      stream_->Replay(from, [&](const WalRecord& record, Lsn) {
        high_txn = std::max(high_txn, record.txn_id);
        if (record.type == WalRecordType::kCommit) {
          committed.insert(record.txn_id);
        }
        return Status::OK();
      }));
  if (max_txn_id != nullptr) *max_txn_id = high_txn;

  // Pass 2: redo committed work in log order.
  return stream_->Replay(from, [&](const WalRecord& record, Lsn) {
    if (!IsDataRecord(record.type)) return Status::OK();
    if (committed.count(record.txn_id) == 0) return Status::OK();
    return redo(record);
  });
}

Status WalManager::DestroyEpochKeysThrough(TableId table, Micros safe_time) {
  if (options_.privacy_mode != WalPrivacyMode::kEncryptedEpoch) {
    return Status::OK();
  }
  if (safe_time <= 0) return Status::OK();
  std::lock_guard<std::mutex> lock(epoch_mu_);
  // Epoch e covers [e*epoch, (e+1)*epoch); destroy every epoch that ends at
  // or before safe_time.
  const uint64_t end_epoch = EpochOf(safe_time - 1) + 1;
  uint64_t& watermark = epoch_watermark_[table];
  while (watermark < end_epoch) {
    const std::string id = WalEpochKeyId(table, watermark);
    if (!keys_->IsDestroyed(id)) {
      IDB_RETURN_IF_ERROR(keys_->Destroy(id));
      epoch_keys_destroyed_.fetch_add(1, std::memory_order_relaxed);
    }
    ++watermark;
  }
  return Status::OK();
}

WalManager::ExposureAudit WalManager::AuditExposure(Micros horizon) const {
  ExposureAudit audit;
  if (options_.privacy_mode != WalPrivacyMode::kEncryptedEpoch) {
    audit.exposed_segments = stream_->ExposedPayloadSegments(horizon);
  }
  if (options_.privacy_mode == WalPrivacyMode::kPlain) {
    // Every retirement under kPlain renamed the segment and left the bytes
    // on disk; none has ever been scrubbed.
    audit.unscrubbed_recycled = stream_->stats().segments_retired;
  }
  return audit;
}

Micros WalManager::EarliestPayloadDeadline() const {
  return stream_->EarliestPayloadDeadline();
}

uint64_t WalManager::LingeringEpochKeys(TableId table, Micros safe_time) const {
  if (options_.privacy_mode != WalPrivacyMode::kEncryptedEpoch) return 0;
  if (safe_time <= 0) return 0;
  // Epoch e covers [e*epoch, (e+1)*epoch): every epoch ending at or before
  // safe_time must be dead. Count survivors among the table's live keys.
  const uint64_t end_epoch = EpochOf(safe_time - 1) + 1;
  const std::string prefix = StringPrintf("wal.t%u.e", table);
  uint64_t lingering = 0;
  keys_->ForEachLiveKeyId(prefix, [&](const std::string& id) {
    const uint64_t epoch = std::strtoull(id.c_str() + prefix.size(), nullptr, 10);
    if (epoch < end_epoch) ++lingering;
  });
  return lingering;
}

WalManager::Stats WalManager::stats() const {
  const WalStream::Stats s = stream_->stats();
  Stats total;
  total.records_appended = s.records_appended;
  total.bytes_appended = s.bytes_appended;
  total.segments_created = s.segments_created;
  total.segments_retired = s.segments_retired;
  total.scrub_bytes = s.scrub_bytes;
  total.syncs = s.syncs;
  total.sync_requests = s.sync_requests;
  total.commits_absorbed = s.commits_absorbed;
  total.poisoned_streams = stream_->poisoned() ? 1 : 0;
  total.epoch_keys_destroyed =
      epoch_keys_destroyed_.load(std::memory_order_relaxed);
  return total;
}

}  // namespace instantdb
