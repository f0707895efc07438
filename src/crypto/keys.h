// Key material for the ring-signature layer.
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "common/status.h"
#include "crypto/memzero.h"
#include "crypto/secp256k1.h"
#include "crypto/u256.h"

namespace tokenmagic::crypto {

/// A secp256k1 keypair: secret scalar x and public point P = x*G.
///
/// The secret scalar is zeroized on destruction (see SecureWipe) so expired
/// key material does not linger on freed stack frames or heap pages. Copies
/// are still allowed — each copy wipes itself independently — but note that
/// moved-from objects retain their bytes until their own destructor runs.
struct Keypair {
  U256 secret;  // tm-secret
  Point pub;

  Keypair() = default;
  Keypair(const Keypair&) = default;
  Keypair& operator=(const Keypair&) = default;
  ~Keypair() { SecureWipe(secret.limbs.data(), sizeof(secret.limbs)); }

  /// Generates a fresh keypair from `rng` (rejection-sampled into [1, n)).
  static Keypair Generate(common::Rng* rng);
};

}  // namespace tokenmagic::crypto
