// wNAF fixtures: a secret scalar handed to the variable-time wNAF kernel
// fires variable-time-op, and picking a precomputed multiple by a secret
// digit (the kernel's table read, done on a secret) fires secret-index.
#include "crypto/types.h"

namespace tokenmagic::crypto {

Point WnafFixture(common::Rng* rng, const Point& p) {
  // tm-secret
  U256 sk = RandomScalar(rng);
  Point out = ToAffine(WnafMul(sk, p, U256(), Point::Infinity()));
  SecureWipe(sk.limbs.data(), sizeof(sk.limbs));
  return out;
}

Point WnafTableFixture(common::Rng* rng, const Point* odd_multiples) {
  // tm-secret
  U256 sk = RandomScalar(rng);
  Point entry = odd_multiples[(sk.limbs[0] & 15) >> 1];
  SecureWipe(sk.limbs.data(), sizeof(sk.limbs));
  return entry;
}

}  // namespace tokenmagic::crypto
