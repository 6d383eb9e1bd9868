#include "wal/log_record.h"

#include "util/coding.h"

namespace instantdb {

namespace {

void EncodeValues(const std::vector<Value>& values, std::string* dst) {
  PutVarint32(dst, static_cast<uint32_t>(values.size()));
  for (const Value& v : values) v.EncodeTo(dst);
}

bool DecodeValues(Slice* input, std::vector<Value>* out) {
  uint32_t n;
  if (!GetVarint32(input, &n)) return false;
  out->resize(n);
  for (Value& v : *out) {
    if (!Value::DecodeFrom(input, &v)) return false;
  }
  return true;
}

}  // namespace

std::string EncodeWalRecord(const WalRecord& record, WalBlobRange* blob) {
  if (blob != nullptr) *blob = {};
  std::string dst;
  dst.push_back(static_cast<char>(record.type));
  PutVarint64(&dst, record.txn_id);
  PutVarint32(&dst, record.table);
  switch (record.type) {
    case WalRecordType::kCommit:
      break;
    case WalRecordType::kInsert:
      PutVarint64(&dst, record.row_id);
      PutVarint64(&dst, static_cast<uint64_t>(record.insert_time));
      EncodeValues(record.stable, &dst);
      if (blob == nullptr) {
        dst.push_back(0);  // plaintext flag
        EncodeValues(record.degradable, &dst);
      } else {
        dst.push_back(1);  // encrypted flag: the caller seals the blob
        std::string plain;
        EncodeValues(record.degradable, &plain);
        PutVarint32(&dst, static_cast<uint32_t>(plain.size()));
        *blob = {dst.size(), plain.size()};
        dst += plain;
      }
      break;
    case WalRecordType::kDelete:
      PutVarint64(&dst, record.row_id);
      break;
    case WalRecordType::kCheckpoint:
      PutVarint64(&dst, record.checkpoint_lsn);
      break;
  }
  return dst;
}

Result<WalRecord> DecodeWalRecord(Slice input, const WalBlobCipher& decrypt) {
  WalRecord record;
  if (input.empty()) return Status::Corruption("empty WAL record");
  record.type = static_cast<WalRecordType>(input.front());
  input.remove_prefix(1);
  uint64_t txn_id;
  uint32_t table;
  if (!GetVarint64(&input, &txn_id) || !GetVarint32(&input, &table)) {
    return Status::Corruption("bad WAL record header");
  }
  record.txn_id = txn_id;
  record.table = table;
  switch (record.type) {
    case WalRecordType::kCommit:
      break;
    case WalRecordType::kInsert: {
      uint64_t row_id, insert_time;
      if (!GetVarint64(&input, &row_id) || !GetVarint64(&input, &insert_time) ||
          !DecodeValues(&input, &record.stable) || input.empty()) {
        return Status::Corruption("bad insert record");
      }
      record.row_id = row_id;
      record.insert_time = static_cast<Micros>(insert_time);
      const bool encrypted = input.front() != 0;
      input.remove_prefix(1);
      if (!encrypted) {
        if (!DecodeValues(&input, &record.degradable)) {
          return Status::Corruption("bad insert degradable values");
        }
        break;
      }
      Slice blob;
      if (!GetLengthPrefixed(&input, &blob)) {
        return Status::Corruption("bad insert blob");
      }
      if (decrypt == nullptr) {
        return Status::Corruption("sealed insert blob and no key to open it");
      }
      std::string plain(blob);
      IDB_RETURN_IF_ERROR(decrypt(&plain));
      Slice plain_slice = plain;
      if (!DecodeValues(&plain_slice, &record.degradable)) {
        return Status::Corruption("bad decrypted insert blob");
      }
      break;
    }
    case WalRecordType::kDelete: {
      uint64_t row_id;
      if (!GetVarint64(&input, &row_id)) {
        return Status::Corruption("bad delete record");
      }
      record.row_id = row_id;
      break;
    }
    case WalRecordType::kCheckpoint: {
      uint64_t lsn;
      if (!GetVarint64(&input, &lsn)) {
        return Status::Corruption("bad checkpoint record");
      }
      record.checkpoint_lsn = lsn;
      break;
    }
    default:
      return Status::Corruption("unknown WAL record type");
  }
  if (!input.empty()) return Status::Corruption("trailing WAL record bytes");
  return record;
}

}  // namespace instantdb
