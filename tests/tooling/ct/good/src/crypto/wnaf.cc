// wNAF twins: the wNAF kernel sees only public scalars while the secret
// one takes the constant-time boundary, and a secret digit picks its
// table entry by a masked scan that reads every entry.
#include "crypto/types.h"

namespace tokenmagic::crypto {

Point WnafFixture(common::Rng* rng, const Point& p, const U256& public_k) {
  // tm-secret
  U256 sk = RandomScalar(rng);
  Point secret_part = Secp256k1::MulCT(sk, p);
  Jacobian acc = WnafMul(public_k, p, U256(), Point::Infinity());
  SecureWipe(sk.limbs.data(), sizeof(sk.limbs));
  return Secp256k1::Add(secret_part, ToAffine(acc));
}

// tm-ct-ladder
uint64_t WnafTableFixture(common::Rng* rng, const uint64_t* odd_multiples) {
  // tm-secret
  U256 sk = RandomScalar(rng);
  uint64_t out = 0;
  // tm-declassify(fixture scan: fixed 8-entry trip count is public)
  for (uint64_t j = 0; j < 8; ++j) {
    out |= odd_multiples[j] &
           ((((j ^ (sk.limbs[0] & 7)) | (0 - (j ^ (sk.limbs[0] & 7)))) >> 63) -
            1);
  }
  SecureWipe(sk.limbs.data(), sizeof(sk.limbs));
  return out;
}

}  // namespace tokenmagic::crypto
