// Split fixtures: inside a tm-ct-ladder body, negating a secret half by
// branching on its sign fires secret-branch and ladder-hygiene, and
// picking a table entry by a secret nibble of a half fires secret-index.
#include "crypto/types.h"

namespace tokenmagic::crypto {

// tm-ct-ladder
Jacobian HalfSignFixture(common::Rng* rng, Jacobian entry) {
  // tm-secret
  U256 k1 = RandomScalar(rng);
  if (k1.limbs[3] >> 63) entry.y = FieldNeg(entry.y);
  SecureWipe(k1.limbs.data(), sizeof(k1.limbs));
  return entry;
}

// tm-ct-ladder
Jacobian HalfNibbleFixture(common::Rng* rng, const Jacobian* table) {
  // tm-secret
  U256 k2 = RandomScalar(rng);
  Jacobian entry = table[k2.limbs[0] & 15];
  SecureWipe(k2.limbs.data(), sizeof(k2.limbs));
  return entry;
}

}  // namespace tokenmagic::crypto
