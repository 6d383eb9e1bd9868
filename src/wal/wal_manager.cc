#include "wal/wal_manager.h"

#include <algorithm>
#include <cstdlib>

#include "common/logging.h"
#include "common/strings.h"
#include "io/env.h"
#include "util/crc32c.h"

namespace instantdb {

namespace {

constexpr char kCheckpointFile[] = "CHECKPOINT";

/// Sanity cap on WalOptions::wal_streams (mirrors kMaxPartitions: one
/// stream per core is the useful range, and this bounds what a corrupt
/// STREAMS file can make Open() attempt).
constexpr uint32_t kMaxWalStreams = 1024;

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

std::string WalManager::StreamDir(uint32_t stream) const {
  // A single stream keeps the unsharded on-disk layout (segments directly
  // under the log directory).
  if (streams_.size() <= 1) return dir_;
  return dir_ + StringPrintf("/s%u", stream);
}

Result<uint32_t> WalManager::ResolveStreamCount() const {
  if (env_->FileExists(StreamCountPath())) {
    IDB_ASSIGN_OR_RETURN(std::string text,
                         env_->ReadFileToString(StreamCountPath()));
    char* end = nullptr;
    const unsigned long persisted = std::strtoul(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0' || persisted == 0 ||
        persisted > kMaxWalStreams) {
      return Status::Corruption("bad STREAMS file in " + dir_);
    }
    return static_cast<uint32_t>(persisted);
  }
  IDB_ASSIGN_OR_RETURN(auto names, env_->ListDir(dir_));
  bool has_legacy = false;
  uint32_t stream_dirs = 0;
  uint32_t max_index = 0;
  for (const std::string& name : names) {
    if (StartsWith(name, "wal_") || name == kCheckpointFile) {
      has_legacy = true;
      continue;
    }
    if (name.size() >= 2 && name[0] == 's') {
      char* end = nullptr;
      const unsigned long index = std::strtoul(name.c_str() + 1, &end, 10);
      if (*end != '\0') continue;
      ++stream_dirs;
      max_index = std::max(max_index, static_cast<uint32_t>(index));
    }
  }
  if (stream_dirs > 0) {
    // STREAMS file lost but stream directories present: recover the count
    // only if the dirs are unambiguous (contiguous s0..sN-1, N >= 2).
    // Guessing across a gap would mis-route every record forever. This
    // check runs BEFORE the legacy one — sharded logs also keep their
    // CHECKPOINT manifest at the top level, so a top-level file must not
    // demote a sharded log to one stream.
    if (stream_dirs != max_index + 1 || stream_dirs < 2 ||
        stream_dirs > kMaxWalStreams) {
      return Status::Corruption(
          "STREAMS file missing and stream directories are ambiguous in " +
          dir_);
    }
    return stream_dirs;
  }
  if (has_legacy) {
    // Segments (or a checkpoint) at the top level and no stream dirs: a log
    // written before sharding existed, or by wal_streams = 1. Pin the
    // single-stream layout — re-routing would strand every record on disk.
    return 1u;
  }
  // Fresh log: adopt the configured count (0 = "decided by the caller",
  // treated as 1 here for standalone use).
  const size_t configured = options_.wal_streams == 0 ? 1 : options_.wal_streams;
  if (configured > kMaxWalStreams) {
    return Status::InvalidArgument("WalOptions::wal_streams exceeds limit");
  }
  return static_cast<uint32_t>(configured);
}

Status WalManager::Open() {
  IDB_RETURN_IF_ERROR(env_->CreateDirs(dir_));
  IDB_ASSIGN_OR_RETURN(const uint32_t count, ResolveStreamCount());
  if (count > 1 && !env_->FileExists(StreamCountPath())) {
    IDB_RETURN_IF_ERROR(env_->WriteStringToFile(
        StreamCountPath(), std::to_string(count), /*sync=*/true));
  }
  streams_.clear();
  streams_.reserve(count);
  // StreamDir consults streams_.size() to pick the layout, so size the
  // vector before computing directories.
  for (uint32_t s = 0; s < count; ++s) streams_.push_back(nullptr);
  for (uint32_t s = 0; s < count; ++s) {
    streams_[s] =
        std::make_unique<WalStream>(StreamDir(s), s, options_, keys_, env_);
    IDB_RETURN_IF_ERROR(streams_[s]->Open());
  }
  return Status::OK();
}

uint32_t WalManager::StreamOf(const WalRecord& record) const {
  const auto n = static_cast<uint64_t>(streams_.size());
  if (n == 1) return 0;
  switch (record.type) {
    case WalRecordType::kInsert:
    case WalRecordType::kDelete:
    case WalRecordType::kUpdateStable:
      return static_cast<uint32_t>(record.row_id % n);
    case WalRecordType::kDegradeStep:
      // A step drains one partition's store; every entry's row id hashes to
      // the same partition, so the first entry routes the whole record.
      if (!record.entries.empty()) {
        return static_cast<uint32_t>(record.entries[0].row_id % n);
      }
      [[fallthrough]];
    default:
      return static_cast<uint32_t>(record.txn_id % n);
  }
}

Result<Lsn> WalManager::Append(const WalRecord& record, bool sync) {
  return streams_[StreamOf(record)]->Append(record, sync);
}

Result<Lsn> WalManager::AppendBatch(
    const std::vector<const WalRecord*>& records, bool sync) {
  if (streams_.size() == 1) return streams_[0]->AppendBatch(records, sync);
  if (records.empty()) return Lsn{0};
  std::vector<std::vector<const WalRecord*>> buckets(streams_.size());
  for (const WalRecord* record : records) {
    buckets[StreamOf(*record)].push_back(record);
  }
  const uint32_t first_stream = StreamOf(*records[0]);
  Lsn first_lsn = 0;
  for (uint32_t s = 0; s < streams_.size(); ++s) {
    if (buckets[s].empty()) continue;
    IDB_ASSIGN_OR_RETURN(const Lsn lsn,
                         streams_[s]->AppendBatch(buckets[s], sync));
    if (s == first_stream) first_lsn = lsn;
  }
  return first_lsn;
}

Status WalManager::AppendCommit(const std::vector<const WalRecord*>& ops,
                                WalRecord* commit, bool sync) {
  const uint32_t n = num_streams();
  if (n == 1) {
    // Unsharded group commit, byte-identical to the pre-sharding log: the
    // commit frame stays unstamped (no CSN, no counts) and everything goes
    // as one buffered write + at most one sync.
    std::vector<const WalRecord*> records(ops);
    records.push_back(commit);
    return streams_[0]->AppendBatch(records, sync).status();
  }
  commit->commit_seq = next_commit_seq_.fetch_add(1, std::memory_order_relaxed);
  commit->stream_counts.clear();
  // Fast path: batch-affine row allocation makes most transactions stream-
  // local, so detect "every op routes to one stream" without building
  // per-stream buckets.
  bool local = true;
  const uint32_t first = ops.empty() ? 0 : StreamOf(*ops[0]);
  for (const WalRecord* op : ops) {
    if (StreamOf(*op) != first) {
      local = false;
      break;
    }
  }
  if (local) {
    if (!ops.empty()) {
      commit->stream_counts.emplace_back(first,
                                         static_cast<uint32_t>(ops.size()));
    }
    const uint32_t commit_stream =
        ops.empty() ? static_cast<uint32_t>(commit->txn_id % n) : first;
    std::vector<const WalRecord*> tail(ops);
    tail.push_back(commit);
    return streams_[commit_stream]->AppendBatch(tail, sync).status();
  }
  std::vector<std::vector<const WalRecord*>> buckets(n);
  for (const WalRecord* op : ops) buckets[StreamOf(*op)].push_back(op);
  for (uint32_t s = 0; s < n; ++s) {
    if (!buckets[s].empty()) {
      commit->stream_counts.emplace_back(
          s, static_cast<uint32_t>(buckets[s].size()));
    }
  }
  const uint32_t commit_stream =
      commit->stream_counts.empty()
          ? static_cast<uint32_t>(commit->txn_id % n)
          : commit->stream_counts.front().first;
  std::vector<Lsn> sibling_end(n, 0);
  for (uint32_t s = 0; s < n; ++s) {
    if (s == commit_stream || buckets[s].empty()) continue;
    IDB_RETURN_IF_ERROR(
        streams_[s]->AppendBatch(buckets[s], false, &sibling_end[s]).status());
  }
  // The commit stream's ops and the commit frame go as one buffered write,
  // so a stream-local transaction (the common case: partition-affine row
  // allocation puts a batch's inserts in one partition) costs one write and
  // — when durable — at most one sync on one stream.
  std::vector<const WalRecord*> tail = std::move(buckets[commit_stream]);
  tail.push_back(commit);
  IDB_RETURN_IF_ERROR(
      streams_[commit_stream]->AppendBatch(tail, sync).status());
  if (sync && !options_.sync_on_commit) {
    // Ack only once every stream holding this transaction's records is
    // durable — SyncThrough the exact end of each sibling's run, so a
    // leader sync already past it (another commit's, or this loop's own
    // earlier iteration racing new traffic) satisfies the ack for free.
    // A crash part-way leaves the commit frame on disk with a torn sibling
    // stream; recovery's per-stream record counts void the commit
    // atomically, so durability is still all-or-nothing. (Under
    // sync_on_commit the sibling AppendBatch calls above already synced —
    // skipping this loop avoids a second fsync per sibling stream.)
    for (const auto& [s, count] : commit->stream_counts) {
      (void)count;
      if (s == commit_stream) continue;
      IDB_RETURN_IF_ERROR(streams_[s]->SyncThrough(sibling_end[s]));
    }
  }
  return Status::OK();
}

Status WalManager::Sync() {
  for (auto& stream : streams_) IDB_RETURN_IF_ERROR(stream->Sync());
  return Status::OK();
}

std::vector<Lsn> WalManager::StreamEnds() const {
  std::vector<Lsn> ends(streams_.size());
  for (size_t s = 0; s < streams_.size(); ++s) ends[s] = streams_[s]->next_lsn();
  return ends;
}

Status WalManager::WriteManifest(const std::vector<Lsn>& lsns) {
  std::string body;
  if (lsns.size() == 1) {
    // Legacy single-stream format, readable by (and identical to) the
    // pre-sharding CHECKPOINT file.
    PutVarint64(&body, lsns[0]);
  } else {
    PutVarint32(&body, static_cast<uint32_t>(lsns.size()));
    for (Lsn lsn : lsns) PutVarint64(&body, lsn);
  }
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

Result<std::vector<Lsn>> WalManager::LogCheckpointAll(
    const std::vector<Lsn>& replay_from) {
  if (!replay_from.empty() && replay_from.size() != streams_.size()) {
    return Status::InvalidArgument("replay_from size != stream count");
  }
  // One checkpoint at a time (see checkpoint_mu_): the daemon's cadence and
  // caller-driven checkpoints would otherwise race the manifest rename.
  std::lock_guard<std::mutex> checkpoint_lock(checkpoint_mu_);
  std::vector<Lsn> lsns(streams_.size(), 0);
  for (size_t s = 0; s < streams_.size(); ++s) {
    IDB_ASSIGN_OR_RETURN(
        lsns[s], streams_[s]->BeginCheckpoint(
                     replay_from.empty() ? WalStream::kLogEnd : replay_from[s]));
  }
  // Retirement only after the manifest durably records the new replay
  // positions: segments must never disappear ahead of the pointer that
  // says they are no longer needed.
  IDB_RETURN_IF_ERROR(WriteManifest(lsns));
  for (size_t s = 0; s < streams_.size(); ++s) {
    IDB_RETURN_IF_ERROR(streams_[s]->RetireThrough(lsns[s]));
  }
  return lsns;
}

Result<std::vector<Lsn>> WalManager::ReadCheckpointPositions() const {
  std::vector<Lsn> lsns(streams_.size(), 0);
  const std::string path = dir_ + "/" + kCheckpointFile;
  if (!env_->FileExists(path)) return lsns;
  IDB_ASSIGN_OR_RETURN(std::string contents, env_->ReadFileToString(path));
  Slice input = contents;
  uint32_t masked;
  if (!GetFixed32(&input, &masked) ||
      crc32c::Unmask(masked) != crc32c::Value(input.data(), input.size())) {
    return Status::Corruption("bad CHECKPOINT file");
  }
  if (streams_.size() == 1) {
    uint64_t lsn;
    if (!GetVarint64(&input, &lsn)) {
      return Status::Corruption("bad CHECKPOINT payload");
    }
    lsns[0] = lsn;
    return lsns;
  }
  uint32_t count;
  if (!GetVarint32(&input, &count) || count != streams_.size()) {
    return Status::Corruption("CHECKPOINT stream count mismatch");
  }
  for (uint32_t s = 0; s < count; ++s) {
    uint64_t lsn;
    if (!GetVarint64(&input, &lsn)) {
      return Status::Corruption("bad CHECKPOINT payload");
    }
    lsns[s] = lsn;
  }
  return lsns;
}

Status WalManager::Replay(
    Lsn from, const std::function<Status(const WalRecord&, Lsn)>& fn) const {
  return streams_[0]->Replay(from, fn);
}

Status WalManager::ReplayStream(
    uint32_t stream, Lsn from,
    const std::function<Status(const WalRecord&, Lsn)>& fn) const {
  return streams_[stream]->Replay(from, fn);
}

Status WalManager::RecoverCommitted(
    const std::vector<Lsn>& from, bool stream_local_apply, WorkerPool& pool,
    const std::function<Status(const WalRecord&)>& redo,
    uint64_t* max_txn_id) {
  const size_t n = streams_.size();
  if (from.size() != n) {
    return Status::InvalidArgument("recovery position size != stream count");
  }

  // Pass 1 (parallel): per stream, how many data records each transaction
  // left behind, plus every commit frame's CSN and expected counts, plus
  // the id/sequence high-water marks the reopened log must resume above.
  struct CommitMeta {
    uint64_t seq = 0;
    std::vector<std::pair<uint32_t, uint32_t>> counts;
  };
  std::vector<std::map<uint64_t, uint64_t>> observed(n);  // txn -> records
  std::vector<std::map<uint64_t, CommitMeta>> commits(n);
  std::vector<uint64_t> max_txn(n, 0);
  std::vector<uint64_t> max_seq(n, 0);
  IDB_RETURN_IF_ERROR(pool.Run(n, n, [&](size_t s) {
    return streams_[s]->Replay(from[s], [&](const WalRecord& record, Lsn) {
      // Track ids of torn transactions too: reusing one would let a new
      // generation's torn commit pass the record-count check with this
      // generation's records.
      max_txn[s] = std::max(max_txn[s], record.txn_id);
      if (record.type == WalRecordType::kCommit) {
        max_seq[s] = std::max(max_seq[s], record.commit_seq);
        commits[s].emplace(record.txn_id,
                           CommitMeta{record.commit_seq, record.stream_counts});
      } else if (IsDataRecord(record.type)) {
        ++observed[s][record.txn_id];
      }
      return Status::OK();
    });
  }));

  // New commits must sequence strictly after every surviving frame; a CSN
  // collision across crash generations would break the merge order (and
  // the atomicity check) on the next recovery.
  uint64_t high_txn = 0;
  uint64_t high_seq = 0;
  for (uint32_t s = 0; s < n; ++s) {
    high_txn = std::max(high_txn, max_txn[s]);
    high_seq = std::max(high_seq, max_seq[s]);
  }
  uint64_t expect = next_commit_seq_.load(std::memory_order_relaxed);
  while (high_seq + 1 > expect &&
         !next_commit_seq_.compare_exchange_weak(expect, high_seq + 1,
                                                 std::memory_order_relaxed)) {
  }
  if (max_txn_id != nullptr) *max_txn_id = high_txn;

  // Committed = commit frame present AND every per-stream record count
  // intact. A commit without counts is a legacy/single-stream frame whose
  // own stream ordering vouches for it (records precede the commit in the
  // same buffered write, so a torn tail that ate them ate the commit too).
  std::map<uint64_t, uint64_t> committed;  // txn -> commit seq
  for (uint32_t s = 0; s < n; ++s) {
    for (const auto& [txn_id, meta] : commits[s]) {
      bool intact = true;
      for (const auto& [stream, count] : meta.counts) {
        if (stream >= n) {
          intact = false;
          break;
        }
        const auto it = observed[stream].find(txn_id);
        if (it == observed[stream].end() || it->second < count) {
          intact = false;
          break;
        }
      }
      if (intact) committed.emplace(txn_id, meta.seq);
    }
  }

  // Pass 2: redo data records of committed transactions.
  if (stream_local_apply) {
    // Every table partition maps wholly into one stream, so any two
    // conflicting records share a stream and stream order already equals
    // commit order where it matters: streams replay concurrently.
    return pool.Run(n, n, [&](size_t s) {
      return streams_[s]->Replay(from[s], [&](const WalRecord& record, Lsn) {
        if (!IsDataRecord(record.type)) return Status::OK();
        if (committed.count(record.txn_id) == 0) return Status::OK();
        return redo(record);
      });
    });
  }

  // Cross-stream ordering required (stream count does not divide the
  // partition count): gather the committed records and apply them globally
  // in commit-sequence order, records of one transaction in (stream,
  // stream-order) order.
  struct Pending {
    uint64_t seq;
    uint32_t stream;
    uint64_t index;
    WalRecord record;
  };
  std::vector<Pending> pending;
  for (uint32_t s = 0; s < n; ++s) {
    uint64_t index = 0;
    IDB_RETURN_IF_ERROR(streams_[s]->Replay(
        from[s], [&](const WalRecord& record, Lsn) {
          if (!IsDataRecord(record.type)) return Status::OK();
          const auto it = committed.find(record.txn_id);
          if (it == committed.end()) return Status::OK();
          pending.push_back({it->second, s, index++, record});
          return Status::OK();
        }));
  }
  std::stable_sort(pending.begin(), pending.end(),
                   [](const Pending& a, const Pending& b) {
                     if (a.seq != b.seq) return a.seq < b.seq;
                     if (a.stream != b.stream) return a.stream < b.stream;
                     return a.index < b.index;
                   });
  for (const Pending& p : pending) IDB_RETURN_IF_ERROR(redo(p.record));
  return Status::OK();
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
    for (const auto& stream : streams_) {
      audit.exposed_segments += stream->ExposedPayloadSegments(horizon);
    }
  }
  if (options_.privacy_mode == WalPrivacyMode::kPlain) {
    // Every retirement under kPlain renamed the segment and left the bytes
    // on disk; none has ever been scrubbed.
    for (const auto& stream : streams_) {
      audit.unscrubbed_recycled += stream->stats().segments_retired;
    }
  }
  return audit;
}

Micros WalManager::EarliestPayloadDeadline() const {
  Micros earliest = kForever;
  for (const auto& stream : streams_) {
    earliest = std::min(earliest, stream->EarliestPayloadDeadline());
  }
  return earliest;
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
  Stats total;
  for (const auto& stream : streams_) {
    const WalStream::Stats s = stream->stats();
    total.records_appended += s.records_appended;
    total.bytes_appended += s.bytes_appended;
    total.segments_created += s.segments_created;
    total.segments_retired += s.segments_retired;
    total.scrub_bytes += s.scrub_bytes;
    total.syncs += s.syncs;
    total.sync_requests += s.sync_requests;
    total.commits_absorbed += s.commits_absorbed;
    if (stream->poisoned()) ++total.poisoned_streams;
  }
  total.epoch_keys_destroyed =
      epoch_keys_destroyed_.load(std::memory_order_relaxed);
  return total;
}

}  // namespace instantdb
