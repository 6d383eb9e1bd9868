#include "storage/state_store.h"

#include <algorithm>
#include <vector>

#include "catalog/lcp.h"
#include "common/logging.h"
#include "common/strings.h"
#include "io/env.h"
#include "util/crc32c.h"
#include "util/sorted_array.h"

namespace instantdb {

namespace {

/// High bit of the frame length field marks a tombstoned (securely deleted)
/// frame whose payload bytes have been zeroed in place.
constexpr uint32_t kTombstoneBit = 0x80000000u;

/// Magic header opening every segment file. Frames are
/// `[u32 len|tombstone][u32 masked crc32c of the on-disk payload][payload]`,
/// so a short write anywhere in the frame is detected as a torn tail instead
/// of decoding garbage.
constexpr char kSegmentMagic[8] = {'I', 'D', 'B', 'S', 'S', 'G', '2', '\n'};

/// Frame header bytes: the length field and the CRC.
constexpr uint64_t kFrameHeader = 8;

/// First varint of every META: the magic that tells a META from any other
/// bytes.
constexpr uint64_t kMetaV2Tag = UINT64_MAX;

/// A segment seals once it reaches this size whatever `segment_bytes` says,
/// so every frame offset fits the mirror's 32-bit locator.
constexpr uint64_t kMaxSegmentBytes = uint64_t{1} << 31;

void EncodeEntryPayload(const StoreEntry& entry, std::string* dst) {
  PutVarint64(dst, entry.row_id);
  PutVarint64(dst, static_cast<uint64_t>(entry.insert_time));
  entry.value.EncodeTo(dst);
}

bool DecodeEntryPayload(Slice payload, StoreEntry* out) {
  uint64_t row_id, insert_time;
  if (!GetVarint64(&payload, &row_id) || !GetVarint64(&payload, &insert_time)) {
    return false;
  }
  out->row_id = row_id;
  out->insert_time = static_cast<Micros>(insert_time);
  return Value::DecodeFrom(&payload, &out->value) && payload.empty();
}

}  // namespace

StateStore::StateStore(std::string dir, TableId table, int column, int phase,
                       const DomainHierarchy* hierarchy, int level,
                       const StorageOptions& options, KeyManager* keys,
                       Env* env)
    : dir_(std::move(dir)),
      table_(table),
      column_(column),
      phase_(phase),
      hierarchy_(hierarchy),
      level_(level),
      options_(options),
      keys_(keys),
      env_(env != nullptr ? env : Env::Default()) {}

StateStore::~StateStore() {
  if (tail_writer_ != nullptr) tail_writer_->Close().ok();
}

static_assert(StateStore::kMirrorBytesPerEntry <= 40,
              "a live state-store entry must cost at most 40 mirror bytes");

Result<int64_t> StateStore::OrdinalOf(const Value& value) const {
  const Result<LeafInterval> range = hierarchy_->LeafRange(value, level_);
  if (!range.ok()) {
    return Status::InvalidArgument(
        StringPrintf("%s is not a level-%d node of domain %s",
                     value.ToString().c_str(), level_,
                     hierarchy_->name().c_str()));
  }
  return range->lo;
}

std::string StateStore::SegmentPath(uint64_t seqno) const {
  return dir_ + StringPrintf("/seg_%08llu.dat",
                             static_cast<unsigned long long>(seqno));
}

std::string StateStore::KeyId(uint64_t seqno) const {
  return StringPrintf("t%u.c%d.p%d.s%llu", table_, column_, phase_,
                      static_cast<unsigned long long>(seqno));
}

StateStore::Segment* StateStore::FindSegment(uint32_t seqno) {
  for (Segment& segment : segments_) {
    if (static_cast<uint32_t>(segment.seqno) == seqno) return &segment;
  }
  return nullptr;
}

Status StateStore::Open() {
  IDB_RETURN_IF_ERROR(env_->CreateDirs(dir_));
  ids_.clear();
  times_.clear();
  ordinals_.clear();
  frames_.clear();
  head_ = 0;
  segments_.clear();
  tail_writer_.reset();
  last_appended_row_id_ = kInvalidRowId;
  pop_watermark_ = 0;

  // Checkpoint meta (optional): magic, pop watermark, seqno allocation and
  // survivor ids (live entries at or below the watermark — late
  // out-of-order appends that were never popped).
  uint64_t meta_next_seqno = 0;
  std::unordered_set<RowId> survivors;
  if (env_->FileExists(MetaPath())) {
    IDB_ASSIGN_OR_RETURN(std::string meta, env_->ReadFileToString(MetaPath()));
    Slice in = meta;
    uint64_t tag = 0;
    uint64_t watermark = 0;
    uint64_t survivor_count = 0;
    bool valid = GetVarint64(&in, &tag) && tag == kMetaV2Tag &&
                 GetVarint64(&in, &watermark) &&
                 GetVarint64(&in, &meta_next_seqno) &&
                 GetVarint64(&in, &survivor_count);
    for (uint64_t i = 0; valid && i < survivor_count; ++i) {
      uint64_t id = 0;
      valid = GetVarint64(&in, &id);
      if (valid) survivors.insert(id);
    }
    if (!valid || !in.empty()) {
      return Status::Corruption("bad state-store meta: " + MetaPath());
    }
    pop_watermark_ = watermark;
  }

  IDB_ASSIGN_OR_RETURN(auto names, env_->ListDir(dir_));
  std::vector<uint64_t> seqnos;
  for (const std::string& name : names) {
    if (StartsWith(name, "seg_") && EndsWith(name, ".dat")) {
      seqnos.push_back(std::strtoull(name.c_str() + 4, nullptr, 10));
    }
  }
  std::sort(seqnos.begin(), seqnos.end());

  std::vector<MirrorRow> live;
  for (uint64_t seqno : seqnos) {
    Segment segment;
    segment.seqno = seqno;
    IDB_RETURN_IF_ERROR(LoadSegment(&segment, survivors, &live));
    if (segment.popped + segment.deleted >= segment.entries) {
      // Fully drained (or unreadable) segment that survived a crash between
      // erase and unlink: finish the job.
      IDB_RETURN_IF_ERROR(EraseSegment(segment));
      continue;
    }
    segment.sealed = true;  // reopened segments take no further appends
    segments_.push_back(segment);
  }
  // Frames inside a segment follow commit order, which may deviate from
  // row-id order when transactions committed concurrently: restore the
  // sorted mirror invariant.
  const auto by_row_id = [](const MirrorRow& a, const MirrorRow& b) {
    return a.row_id < b.row_id;
  };
  if (!std::is_sorted(live.begin(), live.end(), by_row_id)) {
    std::sort(live.begin(), live.end(), by_row_id);
  }
  ids_.reserve(live.size());
  times_.reserve(live.size());
  ordinals_.reserve(live.size());
  frames_.reserve(live.size());
  for (const MirrorRow& row : live) {
    ids_.push_back(row.row_id);
    times_.push_back(row.insert_time);
    ordinals_.push_back(row.ordinal);
    frames_.push_back(row.frame);
  }
  RecomputeTimeBlocks(0);
  // Largest id ever appended: popped ids (covered by the watermark) count
  // too. Keeping this exact prevents the table from re-allocating a row id
  // whose value was already degraded out of this store.
  if (!ids_.empty()) last_appended_row_id_ = ids_.back();
  if (pop_watermark_ > 0 && (last_appended_row_id_ == kInvalidRowId ||
                             pop_watermark_ > last_appended_row_id_)) {
    last_appended_row_id_ = pop_watermark_;
  }
  next_seqno_ =
      std::max(meta_next_seqno, seqnos.empty() ? 0 : seqnos.back() + 1);
  return Status::OK();
}

Status StateStore::LoadSegment(Segment* segment,
                               const std::unordered_set<RowId>& survivors,
                               std::vector<MirrorRow>* live) {
  const std::string path = SegmentPath(segment->seqno);
  IDB_ASSIGN_OR_RETURN(std::string raw, env_->ReadFileToString(path));

  // A segment left with no entries is erased by the caller.
  ChaCha20::Key key{};
  if (options_.erase_mode == EraseMode::kCryptoErase) {
    auto k = keys_->Get(KeyId(segment->seqno));
    // Key destroyed but file not yet unlinked: the data is already dead.
    if (!k.ok()) return Status::OK();
    key = *k;
  }
  // Shorter than the magic: a crash before the first tail flush. Zeros
  // where the magic was: a crash between EraseSegment's scrub and its
  // unlink. Either way the segment holds nothing.
  if (raw.size() < sizeof(kSegmentMagic) ||
      std::all_of(raw.begin(), raw.begin() + sizeof(kSegmentMagic),
                  [](char c) { return c == '\0'; })) {
    segment->bytes = raw.size();
    return Status::OK();
  }
  if (std::memcmp(raw.data(), kSegmentMagic, sizeof(kSegmentMagic)) != 0) {
    return Status::Corruption(path + ": not a state-store segment");
  }
  uint64_t off = sizeof(kSegmentMagic);
  while (off + kFrameHeader <= raw.size()) {
    const uint32_t raw_len = DecodeFixed32(raw.data() + off);
    const bool tombstone = (raw_len & kTombstoneBit) != 0;
    const uint32_t len = raw_len & ~kTombstoneBit;
    if (len == 0 || off + kFrameHeader + len > raw.size()) {
      break;  // torn/zeroed tail
    }
    if (tombstone) {
      ++segment->entries;
      ++segment->deleted;
      off += kFrameHeader + len;
      continue;
    }
    const uint32_t stored = DecodeFixed32(raw.data() + off + 4);
    if (crc32c::Unmask(stored) !=
        crc32c::Value(raw.data() + off + kFrameHeader, len)) {
      break;  // torn (short-written) tail frame
    }
    std::string payload(raw.data() + off + kFrameHeader, len);
    if (options_.erase_mode == EraseMode::kCryptoErase) {
      ChaCha20::XorStreamAt(key, NonceForSequence(segment->seqno),
                            off + kFrameHeader, payload.data(),
                            payload.size());
    }
    StoreEntry entry;
    if (!DecodeEntryPayload(payload, &entry)) break;  // torn tail
    ++segment->entries;
    if (entry.row_id <= pop_watermark_ && survivors.count(entry.row_id) == 0) {
      ++segment->popped;  // degraded out of this store before the checkpoint
    } else {
      // The mirror keeps the value only as its leaf ordinal, so a frame
      // that decodes to something other than a node of this level cannot
      // be loaded (Append never writes one).
      const Result<int64_t> ordinal = OrdinalOf(entry.value);
      if (!ordinal.ok()) {
        return Status::Corruption(path + ": " + ordinal.status().message());
      }
      if (off > UINT32_MAX) {
        return Status::Corruption(path + ": frame offset beyond 4 GiB");
      }
      live->push_back(MirrorRow{
          entry.row_id, entry.insert_time, *ordinal,
          FrameLocator{static_cast<uint32_t>(segment->seqno),
                       static_cast<uint32_t>(off), len}});
    }
    off += kFrameHeader + len;
  }
  segment->bytes = off;
  if (off < raw.size()) {
    // Drop the torn tail so future scans never see garbage.
    IDB_RETURN_IF_ERROR(env_->TruncateFile(path, off));
  }
  return Status::OK();
}

Status StateStore::OpenTailWriter() {
  Segment segment;
  segment.seqno = next_seqno_++;
  if (options_.erase_mode == EraseMode::kCryptoErase) {
    IDB_RETURN_IF_ERROR(keys_->GetOrCreate(KeyId(segment.seqno)).status());
  }
  IDB_ASSIGN_OR_RETURN(tail_writer_,
                       env_->NewWritableFile(SegmentPath(segment.seqno)));
  // Magic header, then CRC-framed entries. The header rides the buffered
  // tail like any frame bytes.
  segment.bytes = sizeof(kSegmentMagic);
  tail_pending_.append(kSegmentMagic, sizeof(kSegmentMagic));
  segments_.push_back(segment);
  ++stats_.segments_created;
  return Status::OK();
}

Status StateStore::FlushTail() {
  if (tail_writer_ == nullptr || tail_pending_.empty()) return Status::OK();
  IDB_RETURN_IF_ERROR(tail_writer_->Append(tail_pending_));
  tail_pending_.clear();
  return Status::OK();
}

Status StateStore::SealTail() {
  if (tail_writer_ != nullptr) {
    IDB_RETURN_IF_ERROR(FlushTail());
    IDB_RETURN_IF_ERROR(tail_writer_->Close());
    tail_writer_.reset();
  }
  if (!segments_.empty()) segments_.back().sealed = true;
  return Status::OK();
}

size_t StateStore::LowerBound(RowId row_id) const {
  return static_cast<size_t>(
      std::lower_bound(ids_.begin() + head_, ids_.end(), row_id) -
      ids_.begin());
}

void StateStore::MirrorInsert(size_t pos, const MirrorRow& row) {
  GrowForOneMore(&ids_);
  GrowForOneMore(&times_);
  GrowForOneMore(&ordinals_);
  GrowForOneMore(&frames_);
  ids_.insert(ids_.begin() + pos, row.row_id);
  times_.insert(times_.begin() + pos, row.insert_time);
  ordinals_.insert(ordinals_.begin() + pos, row.ordinal);
  frames_.insert(frames_.begin() + pos, row.frame);
  if (pos + 1 < ids_.size()) {
    RecomputeTimeBlocks(pos / kTimeBlock);  // the tail moved
  } else if (pos % kTimeBlock == 0) {
    time_block_min_.push_back(row.insert_time);
  } else {
    time_block_min_.back() = std::min(time_block_min_.back(), row.insert_time);
  }
}

void StateStore::MirrorErase(size_t pos) {
  if (pos == head_) {
    ++head_;
    if (head_ * 2 > ids_.size()) Compact();
    return;
  }
  ids_.erase(ids_.begin() + pos);
  times_.erase(times_.begin() + pos);
  ordinals_.erase(ordinals_.begin() + pos);
  frames_.erase(frames_.begin() + pos);
  RecomputeTimeBlocks(pos / kTimeBlock);
}

void StateStore::Compact() {
  ids_.erase(ids_.begin(), ids_.begin() + head_);
  times_.erase(times_.begin(), times_.begin() + head_);
  ordinals_.erase(ordinals_.begin(), ordinals_.begin() + head_);
  frames_.erase(frames_.begin(), frames_.begin() + head_);
  head_ = 0;
  if (ids_.capacity() > 4 * ids_.size() + 64) {
    // A large drain: give the capacity back rather than keep the peak.
    ids_.shrink_to_fit();
    times_.shrink_to_fit();
    ordinals_.shrink_to_fit();
    frames_.shrink_to_fit();
  }
  RecomputeTimeBlocks(0);
}

void StateStore::RecomputeTimeBlocks(size_t first) {
  const size_t n = times_.size();
  time_block_min_.resize((n + kTimeBlock - 1) / kTimeBlock);
  for (size_t b = first; b < time_block_min_.size(); ++b) {
    time_block_min_[b] =
        *std::min_element(times_.begin() + b * kTimeBlock,
                          times_.begin() + std::min(n, (b + 1) * kTimeBlock));
  }
}

Status StateStore::Append(const StoreEntry& entry) {
  const size_t pos = LowerBound(entry.row_id);
  if (pos != ids_.size() && ids_[pos] == entry.row_id) {
    return Status::OK();  // idempotent WAL redo
  }
  int64_t ordinal = entry.ordinal;
  if (ordinal < 0) {
    IDB_ASSIGN_OR_RETURN(ordinal, OrdinalOf(entry.value));
  }
  // No pop-watermark gate: an absent id is always a first-time append. A
  // replayed insert whose value was popped before the checkpoint is never
  // seen here (its record predates the replay-start LSN, which the
  // transaction manager's commit barrier keeps behind every applied
  // record); a replayed insert popped *after* the checkpoint is re-appended
  // and the degrade record that popped it replays later in log order.
  if (tail_writer_ == nullptr || segments_.empty() || segments_.back().sealed) {
    IDB_RETURN_IF_ERROR(OpenTailWriter());
  } else if (segments_.back().bytes >=
             std::min<uint64_t>(options_.segment_bytes, kMaxSegmentBytes)) {
    IDB_RETURN_IF_ERROR(SealTail());
    IDB_RETURN_IF_ERROR(OpenTailWriter());
  }
  Segment& tail = segments_.back();

  std::string payload;
  EncodeEntryPayload(entry, &payload);
  if (options_.erase_mode == EraseMode::kCryptoErase) {
    IDB_ASSIGN_OR_RETURN(ChaCha20::Key key,
                         keys_->GetOrCreate(KeyId(tail.seqno)));
    // Stream offset = the payload's file offset (after the frame header),
    // keeping (key, nonce, offset) unique per on-disk byte.
    ChaCha20::XorStreamAt(key, NonceForSequence(tail.seqno),
                          tail.bytes + kFrameHeader,
                          payload.data(), payload.size());
  }
  std::string frame;
  PutFixed32(&frame, static_cast<uint32_t>(payload.size()));
  // CRC over the on-disk (possibly ciphered) payload: verification at load
  // happens before decryption, so a torn frame never reaches the decoder.
  PutFixed32(&frame,
             crc32c::Mask(crc32c::Value(payload.data(), payload.size())));
  frame += payload;
  // Buffered append: one write() per ~8KB of frames instead of one per
  // entry keeps the syscall off the ingest hot path. The WAL carries
  // durability until Checkpoint writes the buffer through.
  tail_pending_ += frame;
  if (tail_pending_.size() >= 8192) {
    const Status flushed = FlushTail();
    if (!flushed.ok()) {
      // The entry is not appended: unbuffer its frame, or the caller's
      // retry would write it twice and shift every later frame off its
      // locator.
      tail_pending_.resize(tail_pending_.size() - frame.size());
      return flushed;
    }
  }
  // OpenTailWriter/SealTail leave the mirror alone: `pos` still holds.
  MirrorInsert(pos, MirrorRow{entry.row_id, entry.insert_time, ordinal,
                              FrameLocator{static_cast<uint32_t>(tail.seqno),
                                           static_cast<uint32_t>(tail.bytes),
                                           static_cast<uint32_t>(
                                               payload.size())}});
  tail.bytes += frame.size();
  ++tail.entries;
  if (last_appended_row_id_ == kInvalidRowId ||
      entry.row_id > last_appended_row_id_) {
    last_appended_row_id_ = entry.row_id;
  }
  ++stats_.entries_appended;
  stats_.bytes_appended += frame.size();
  dirty_ = true;
  return Status::OK();
}

Status StateStore::EraseSegment(const Segment& segment) {
  const std::string path = SegmentPath(segment.seqno);
  if (options_.erase_mode == EraseMode::kCryptoErase) {
    IDB_RETURN_IF_ERROR(keys_->Destroy(KeyId(segment.seqno)));
  } else {
    if (env_->FileExists(path)) {
      auto size = env_->GetFileSize(path);
      if (size.ok() && *size > 0) {
        IDB_RETURN_IF_ERROR(env_->OverwriteRange(path, 0, *size));
      }
    }
  }
  if (env_->FileExists(path)) {
    IDB_RETURN_IF_ERROR(env_->RemoveFile(path));
  }
  ++stats_.segments_erased;
  return Status::OK();
}

Status StateStore::CleanupDrainedSegments() {
  while (!segments_.empty()) {
    Segment& front = segments_.front();
    if (front.popped + front.deleted < front.entries) break;
    if (!front.sealed) {
      // Fully drained open tail: seal it so the next append starts fresh.
      IDB_RETURN_IF_ERROR(SealTail());
    }
    Segment drained = segments_.front();
    segments_.pop_front();
    IDB_RETURN_IF_ERROR(EraseSegment(drained));
  }
  return Status::OK();
}

Status StateStore::PopHead(StoreEntryView* out) {
  if (empty()) return Status::NotFound("state store empty");
  if (out != nullptr) *out = Head();
  return PopById(ids_[head_]);
}

Status StateStore::PopById(RowId row_id) {
  const size_t pos = LowerBound(row_id);
  if (pos == ids_.size() || ids_[pos] != row_id) {
    return Status::OK();  // stale redo / never appended
  }
  Segment* segment = FindSegment(frames_[pos].segment);
  if (segment != nullptr) ++segment->popped;
  pop_watermark_ = std::max(pop_watermark_, row_id);
  MirrorErase(pos);
  ++stats_.entries_popped;
  dirty_ = true;
  return CleanupDrainedSegments();
}

Status StateStore::SecureDeleteEntry(RowId row_id) {
  const size_t pos = LowerBound(row_id);
  if (pos == ids_.size() || ids_[pos] != row_id) {
    return Status::NotFound("row not in this store");
  }
  const FrameLocator frame = frames_[pos];
  // Tombstone the frame on disk: set the tombstone bit in the length field
  // and zero the payload bytes so the (plain or cipher) value is physically
  // cleaned right now. The buffered tail must be on disk first, or the
  // flush would resurrect the payload after this pass zeroed its range.
  IDB_RETURN_IF_ERROR(FlushTail());
  Segment* segment = FindSegment(frame.segment);
  if (segment != nullptr && env_->FileExists(SegmentPath(segment->seqno))) {
    IDB_ASSIGN_OR_RETURN(auto file,
                         env_->NewRandomRWFile(SegmentPath(segment->seqno)));
    std::string len_field;
    PutFixed32(&len_field, frame.len | kTombstoneBit);
    IDB_RETURN_IF_ERROR(file->Write(frame.offset, len_field));
    // Zero the CRC word along with the payload bytes.
    const std::string zeros(kFrameHeader - 4 + frame.len, '\0');
    IDB_RETURN_IF_ERROR(file->Write(uint64_t{frame.offset} + 4, zeros));
    IDB_RETURN_IF_ERROR(file->Sync());
  }
  if (segment != nullptr) ++segment->deleted;
  MirrorErase(pos);
  ++stats_.entries_deleted;
  dirty_ = true;
  return CleanupDrainedSegments();
}

std::optional<StoreEntryView> StateStore::Find(RowId row_id) const {
  const size_t pos = LowerBound(row_id);
  if (pos == ids_.size() || ids_[pos] != row_id) return std::nullopt;
  return View(pos);
}

size_t StateStore::FindMany(const RowId* ids, size_t n,
                            int64_t* ordinals) const {
  const RowId* const base = ids_.data();
  const RowId* const end = base + ids_.size();
  size_t found = 0;
  const RowId* it = base + head_;
  for (size_t j = 0; j < n; ++j) {
    if (ordinals[j] >= 0) continue;
    const RowId id = ids[j];
    // Ascending ids: gallop forward from where the previous id left the
    // search, so a dense batch finds each id right after the last.
    it = GallopLowerBound(it, end, id);
    if (it == end) break;  // every later id is larger still
    if (*it == id) {
      ordinals[j] = ordinals_[it - base];
      ++found;
    }
  }
  return found;
}

void StateStore::ForEach(
    const std::function<bool(const StoreEntryView&)>& fn) const {
  for (size_t pos = head_; pos < ids_.size(); ++pos) {
    if (!fn(View(pos))) return;
  }
}

Micros StateStore::MinInsertTime() const {
  if (empty()) return kForever;
  // The head's block holds consumed positions: scan its live part, then
  // take every later block's minimum.
  const size_t first = head_ / kTimeBlock;
  Micros min = *std::min_element(
      times_.begin() + head_,
      times_.begin() + std::min(times_.size(), (first + 1) * kTimeBlock));
  for (size_t b = first + 1; b < time_block_min_.size(); ++b) {
    min = std::min(min, time_block_min_[b]);
  }
  return min;
}

size_t StateStore::mirror_bytes() const {
  return ids_.capacity() * sizeof(RowId) + times_.capacity() * sizeof(Micros) +
         ordinals_.capacity() * sizeof(int64_t) +
         frames_.capacity() * sizeof(FrameLocator) +
         time_block_min_.capacity() * sizeof(Micros);
}

Status StateStore::Checkpoint() {
  if (!dirty_) return Status::OK();  // on-disk meta already matches memory
  if (tail_writer_ != nullptr) {
    IDB_RETURN_IF_ERROR(FlushTail());
    IDB_RETURN_IF_ERROR(tail_writer_->Flush());
    IDB_RETURN_IF_ERROR(tail_writer_->Sync());
  }
  IDB_RETURN_IF_ERROR(SaveMeta());
  dirty_ = false;
  return Status::OK();
}

Status StateStore::SaveMeta() {
  std::string meta;
  PutVarint64(&meta, kMetaV2Tag);
  PutVarint64(&meta, pop_watermark_);
  PutVarint64(&meta, next_seqno_);
  // Survivors: live entries at or below the watermark (late out-of-order
  // appends the prefix pops skipped). Normally none; bounded by commit skew.
  std::vector<RowId> survivors;
  for (size_t pos = head_; pos < ids_.size(); ++pos) {
    if (ids_[pos] > pop_watermark_) break;  // sorted mirror
    survivors.push_back(ids_[pos]);
  }
  PutVarint64(&meta, survivors.size());
  for (RowId id : survivors) PutVarint64(&meta, id);
  const std::string tmp = MetaPath() + ".tmp";
  IDB_RETURN_IF_ERROR(env_->WriteStringToFile(tmp, meta, /*sync=*/true));
  return env_->RenameFile(tmp, MetaPath());
}

Status StateStore::Drop() {
  IDB_RETURN_IF_ERROR(SealTail());
  while (!segments_.empty()) {
    Segment segment = segments_.front();
    segments_.pop_front();
    IDB_RETURN_IF_ERROR(EraseSegment(segment));
  }
  ids_ = {};
  times_ = {};
  ordinals_ = {};
  frames_ = {};
  time_block_min_ = {};
  head_ = 0;
  return env_->RemoveDirRecursive(dir_);
}

}  // namespace instantdb
