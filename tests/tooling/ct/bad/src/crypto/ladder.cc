// Ladder fixtures: .Bit() extraction, unannotated control flow and a
// call of the variable-time wNAF kernel inside a tm-ct-ladder body must
// each fire ladder-hygiene.
#include "crypto/types.h"

namespace tokenmagic::crypto {

// tm-ct-ladder
Point LadderFixture(const U256& scalar) {
  Point acc = Point::Infinity();
  for (int i = 0; i < 256; ++i) {
    uint64_t bit = scalar.Bit(i);
    (void)bit;
    acc = ToAffine(WnafMul(scalar, acc, U256(), acc));
  }
  return acc;
}

}  // namespace tokenmagic::crypto
