// SHA-256 (FIPS 180-4) implemented from scratch.
//
// Used for transaction/token hashing, Fiat-Shamir challenges in the LSAG
// signatures, and hash-to-point. Verified against the standard
// test vectors in tests/crypto/sha256_test.cc.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tokenmagic::crypto {

/// Incremental SHA-256 hasher.
class Sha256 {
 public:
  static constexpr size_t kDigestSize = 32;
  using Digest = std::array<uint8_t, kDigestSize>;

  Sha256();
  /// Hashers routinely absorb secrets (nonce hedging, LSAG nonce
  /// points), so the state and block buffer are wiped on destruction —
  /// Sha256 is self-wiping in the same sense as Keypair.
  ~Sha256();

  /// Absorbs `size` bytes.
  void Update(const uint8_t* data, size_t size);
  void Update(std::string_view data);
  void Update(const std::vector<uint8_t>& data);

  /// Finalizes and returns the digest. The hasher must not be reused
  /// afterwards (construct a new one).
  Digest Finalize();

  /// One-shot convenience.
  static Digest Hash(const uint8_t* data, size_t size);
  static Digest Hash(std::string_view data);

 private:
  void ProcessBlock(const uint8_t block[64]);

  std::array<uint32_t, 8> state_;
  uint64_t total_bytes_ = 0;
  std::array<uint8_t, 64> buffer_;
  size_t buffer_len_ = 0;
  bool finalized_ = false;
};

/// Convenience: lowercase hex digest of a string.
std::string Sha256Hex(std::string_view data);

}  // namespace tokenmagic::crypto
