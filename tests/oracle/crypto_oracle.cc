#include "oracle/crypto_oracle.h"

#include "common/macros.h"

namespace tokenmagic::oracle {

using crypto::FieldPrime;
using crypto::Point;
using crypto::U256;
using crypto::U512;

bool IsValidScalar(const U256& a) {
  return !a.IsZero() && a < crypto::GroupOrder();
}

uint64_t Shl1(U256* v) {
  uint64_t carry = 0;
  for (auto& limb : v->limbs) {
    uint64_t next = limb >> 63;
    limb = (limb << 1) | carry;
    carry = next;
  }
  return carry;
}

U256 Mod(const U256& a, const U256& m) {
  TM_CHECK(!m.IsZero());
  if (a < m) return a;
  U256 remainder;
  for (int i = a.HighestBit(); i >= 0; --i) {
    Shl1(&remainder);
    if (a.Bit(i)) remainder.limbs[0] |= 1;
    if (remainder >= m) U256::Sub(remainder, m, &remainder);
  }
  return remainder;
}

U256 Mod(const U512& a, const U256& m) {
  TM_CHECK(!m.IsZero());
  U256 remainder;
  for (int i = 511; i >= 0; --i) {
    uint64_t overflow = Shl1(&remainder);
    remainder.limbs[0] |= (a.limbs[i >> 6] >> (i & 63)) & 1;
    // overflow is set only when m uses all 256 bits and the remainder
    // grew past it; the shifted value is then >= m.
    if (overflow != 0 || remainder >= m) U256::Sub(remainder, m, &remainder);
  }
  return remainder;
}

U256 MulMod(const U256& a, const U256& b, const U256& m) {
  return Mod(U256::Mul(a, b), m);
}

U256 PowMod(const U256& a, const U256& e, const U256& m) {
  U256 base = Mod(a, m);
  U256 result = U256::One();
  for (int i = 0; i <= e.HighestBit(); ++i) {
    if (e.Bit(i)) result = MulMod(result, base, m);
    base = MulMod(base, base, m);
  }
  return result;
}

U256 InvMod(const U256& a, const U256& m) {
  TM_CHECK(!a.IsZero());
  U256 exponent;
  U256::Sub(m, U256(2), &exponent);
  return PowMod(a, exponent, m);
}

U256 FieldAdd(const U256& a, const U256& b) {
  return crypto::AddMod(a, b, FieldPrime());
}
U256 FieldSub(const U256& a, const U256& b) {
  return crypto::SubMod(a, b, FieldPrime());
}
U256 FieldMul(const U256& a, const U256& b) {
  constexpr uint64_t kFold = 0x1000003d1ull;
  U512 product = U256::Mul(a, b);
  U256 low = product.Low();
  U256 high = product.High();
  while (!high.IsZero()) {
    // low + high * kFold, as a 256-bit low part and a small high part.
    unsigned __int128 acc = 0;
    U256 next_low;
    for (int i = 0; i < 4; ++i) {
      acc += static_cast<unsigned __int128>(high.limbs[i]) * kFold +
             low.limbs[i];
      next_low.limbs[i] = static_cast<uint64_t>(acc);
      acc >>= 64;
    }
    low = next_low;
    high = U256(static_cast<uint64_t>(acc));
  }
  while (low >= FieldPrime()) U256::Sub(low, FieldPrime(), &low);
  return low;
}

U256 FieldPow(const U256& a, const U256& e) {
  U256 base = Mod(a, FieldPrime());
  U256 result = U256::One();
  for (int i = 0; i <= e.HighestBit(); ++i) {
    if (e.Bit(i)) result = FieldMul(result, base);
    base = FieldMul(base, base);
  }
  return result;
}

U256 FieldInv(const U256& a) {
  TM_CHECK(!a.IsZero());
  U256 exponent;
  U256::Sub(FieldPrime(), U256(2), &exponent);
  return oracle::FieldPow(a, exponent);
}

bool FieldSqrt(const U256& a, U256* root) {
  U256 exponent;
  U256::Add(FieldPrime(), U256::One(), &exponent);
  // (p + 1) / 4: p + 1 < 2^256, so two plain right shifts.
  for (int shift = 0; shift < 2; ++shift) {
    for (int i = 0; i < 4; ++i) {
      uint64_t next = i < 3 ? exponent.limbs[i + 1] & 1 : 0;
      exponent.limbs[i] = (exponent.limbs[i] >> 1) | (next << 63);
    }
  }
  U256 candidate = oracle::FieldPow(a, exponent);
  if (FieldMul(candidate, candidate) != Mod(a, FieldPrime())) {
    return false;
  }
  *root = candidate;
  return true;
}

Point Add(const Point& a, const Point& b) {
  if (a.infinity) return b;
  if (b.infinity) return a;
  U256 lambda;
  if (a.x == b.x) {
    if (a.y != b.y || a.y.IsZero()) return Point::Infinity();
    // Tangent slope 3x^2 / 2y (the curve has a = 0).
    U256 x2 = FieldMul(a.x, a.x);
    lambda = FieldMul(FieldAdd(FieldAdd(x2, x2), x2),
                      oracle::FieldInv(FieldAdd(a.y, a.y)));
  } else {
    lambda = FieldMul(FieldSub(b.y, a.y), oracle::FieldInv(FieldSub(b.x, a.x)));
  }
  Point out;
  out.x = FieldSub(FieldSub(FieldMul(lambda, lambda), a.x), b.x);
  out.y = FieldSub(FieldMul(lambda, FieldSub(a.x, out.x)), a.y);
  out.infinity = false;
  return out;
}

Point Mul(const U256& k, const Point& p) {
  Point acc = Point::Infinity();
  for (int i = k.HighestBit(); i >= 0; --i) {
    acc = Add(acc, acc);
    if (k.Bit(i)) acc = Add(acc, p);
  }
  return acc;
}

}  // namespace tokenmagic::oracle
