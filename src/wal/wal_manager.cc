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
  stream_ = std::make_unique<WalStream>(dir_, options_, keys_, env_);
  return stream_->Open();
}

Result<Lsn> WalManager::AppendBatch(
    const std::vector<const WalRecord*>& records, bool sync) {
  return stream_->AppendBatch(records, sync);
}

Status WalManager::Sync() { return stream_->Sync(); }

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
  total.poisoned = stream_->poisoned() ? 1 : 0;
  total.epoch_keys_destroyed =
      epoch_keys_destroyed_.load(std::memory_order_relaxed);
  return total;
}

}  // namespace instantdb
