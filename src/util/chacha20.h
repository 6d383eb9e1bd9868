#ifndef INSTANTDB_UTIL_CHACHA20_H_
#define INSTANTDB_UTIL_CHACHA20_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace instantdb {

/// \brief ChaCha20 stream cipher (RFC 8439), implemented from scratch.
///
/// Used for crypto-erasure: state-store segments and WAL payloads are
/// encrypted under the key of the segment file holding them; destroying a
/// key renders every at-rest copy unreadable. A stream cipher is the right
/// primitive because encryption and decryption are the same XOR pass and
/// records can be sealed at arbitrary byte offsets (the block counter
/// addresses 64-byte keystream blocks).
class ChaCha20 {
 public:
  static constexpr size_t kKeyBytes = 32;
  static constexpr size_t kNonceBytes = 12;

  using Key = std::array<uint8_t, kKeyBytes>;
  using Nonce = std::array<uint8_t, kNonceBytes>;

  /// XORs `n` bytes of keystream into `data` in place, starting at 64-byte
  /// block `counter`. Apply twice with identical parameters to decrypt.
  static void XorStream(const Key& key, const Nonce& nonce, uint32_t counter,
                        char* data, size_t n);

  /// Convenience: XORs a stream addressed by absolute byte offset. The
  /// offset is decomposed into (block counter, intra-block skip), so callers
  /// can seal independent records of one segment at their file offsets.
  static void XorStreamAt(const Key& key, const Nonce& nonce,
                          uint64_t byte_offset, char* data, size_t n);
};

}  // namespace instantdb

#endif  // INSTANTDB_UTIL_CHACHA20_H_
