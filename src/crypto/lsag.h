// Linkable Spontaneous Anonymous Group (LSAG) ring signatures.
//
// This implements the classic Liu–Wei–Wong construction over secp256k1 with
// Monero-style key images: the signature proves that the signer owns the
// secret key of *one* ring member without revealing which, and the key image
// I = x * Hp(P) is a deterministic, unforgeable tag of the consumed key, so
// a second spend of the same token is detected by key-image equality
// (Section 2.1, Step 2/3 of the paper's RS scheme).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "crypto/keys.h"
#include "crypto/secp256k1.h"

namespace tokenmagic::crypto {

/// A complete LSAG ring signature.
struct LsagSignature {
  std::vector<Point> ring;  ///< public keys of all ring members (in order)
  Point key_image;          ///< I = x * Hp(P_signer)
  U256 c0;                  ///< initial challenge
  std::vector<U256> responses;  ///< s_i, one per ring member
};

class Lsag {
 public:
  /// Signs `message` over `ring`. `signer_index` selects the real key, whose
  /// secret is `signer.secret` (signer.pub must equal ring[signer_index]).
  [[nodiscard]] static common::Result<LsagSignature> Sign(const std::vector<Point>& ring,
                                            size_t signer_index,
                                            const Keypair& signer,
                                            std::string_view message,
                                            common::Rng* rng);

  /// Verifies the challenge chain closes; rejects malformed points/scalars.
  static bool Verify(const LsagSignature& sig, std::string_view message);

  /// True when two signatures were produced by the same secret key.
  static bool Linked(const LsagSignature& a, const LsagSignature& b);
};

/// Tracks spent key images (the blockchain's double-spend guard).
class KeyImageRegistry {
 public:
  /// Registers a key image; fails with AlreadyExists if it was seen before
  /// (i.e. a double-spend attempt).
  [[nodiscard]] common::Status Register(const Point& key_image);

  bool Contains(const Point& key_image) const;
  size_t size() const { return images_.size(); }

 private:
  std::unordered_set<std::string> images_;
};

}  // namespace tokenmagic::crypto
