// Split twins: a secret half's sign negates the entry's y as p - y kept
// under a mask, with no branch and no zero test, and its nibble picks the
// entry by a masked scan that reads every entry.
#include "crypto/types.h"

namespace tokenmagic::crypto {

// tm-ct-ladder
Jacobian HalfSignFixture(common::Rng* rng, Jacobian entry) {
  // tm-secret
  U256 k1 = RandomScalar(rng);
  uint64_t sign = 0 - (k1.limbs[3] >> 63);
  U256 negated_y;
  U256::Sub(FieldPrime(), entry.y, &negated_y);
  // tm-declassify(fixture move: fixed four-limb trip count is public)
  for (int i = 0; i < 4; ++i) {
    entry.y.limbs[i] ^= sign & (entry.y.limbs[i] ^ negated_y.limbs[i]);
  }
  SecureWipe(k1.limbs.data(), sizeof(k1.limbs));
  SecureWipe(&sign, sizeof(sign));
  return entry;
}

// tm-ct-ladder
Jacobian HalfNibbleFixture(common::Rng* rng, const Jacobian* table) {
  // tm-secret
  U256 k2 = RandomScalar(rng);
  uint64_t nibble = k2.limbs[0] & 15;
  Jacobian entry;
  // tm-declassify(fixture scan: fixed 16-entry trip count is public)
  for (uint64_t j = 0; j < 16; ++j) {
    MaskedMove((((j ^ nibble) | (0 - (j ^ nibble))) >> 63) - 1, table[j],
               &entry);
  }
  SecureWipe(k2.limbs.data(), sizeof(k2.limbs));
  SecureWipe(&nibble, sizeof(nibble));
  return entry;
}

}  // namespace tokenmagic::crypto
