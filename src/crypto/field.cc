#include "crypto/field.h"

#include "common/macros.h"

namespace tokenmagic::crypto {

namespace {

// p = 2^256 - 2^32 - 977
const U256 kPrime(0xfffffffefffffc2full, 0xffffffffffffffffull,
                  0xffffffffffffffffull, 0xffffffffffffffffull);
// n = group order of secp256k1
const U256 kOrder(0xbfd25e8cd0364141ull, 0xbaaedce6af48a03bull,
                  0xfffffffffffffffeull, 0xffffffffffffffffull);
// 2^256 mod p = 2^32 + 977, the fold constant of the 52-bit limb form.
constexpr uint64_t kFold = 0x1000003d1ull;
using field_internal::kLimbMask;
// 2^256 mod n = 2^256 - n, the scalar-field fold constant (129 bits).
const U256 kOrderFold(0x402da1732fc9bebfull, 0x4551231950b75fc4ull, 0x1ull,
                      0x0ull);

// The endomorphism phi(x, y) = (beta*x, y) = lambda*(x, y), with beta a
// cube root of unity mod p and lambda one mod n (the matching pair), and
// the lattice constants of the scalar split: -b1, -b2 from the reduced
// basis (a1, b1), (a2, b2) of {(a, b) : a + b*lambda = 0 mod n}, and
// g1 = round(2^384 * b2 / n), g2 = round(2^384 * -b1 / n).
// libsecp256k1's values.
const U256 kLambda(0xdf02967c1b23bd72ull, 0x122e22ea20816678ull,
                   0xa5261c028812645aull, 0x5363ad4cc05c30e0ull);
const U256 kBeta(0xc1396c28719501eeull, 0x9cf0497512f58995ull,
                 0x6e64479eac3434e9ull, 0x7ae96a2b657c0710ull);
const U256 kMinusB1(0x6f547fa90abfe4c3ull, 0xe4437ed6010e8828ull, 0x0ull,
                    0x0ull);
const U256 kMinusB2(0xd765cda83db1562cull, 0x8a280ac50774346dull,
                    0xfffffffffffffffeull, 0xffffffffffffffffull);
const U256 kG1(0xe893209a45dbb031ull, 0x3daa8a1471e8ca7full,
               0xe86c90e49284eb15ull, 0x3086d221a7d46bcdull);
const U256 kG2(0x1571b4ae8ac47f71ull, 0x221208ac9df506c6ull,
               0x6f547fa90abfe4c4ull, 0xe4437ed6010e8828ull);

// r = take ? a : b without a branch (full-width masking), so the scalar
// reductions below never branch on their (typically secret) operands.
U256 MaskedSelect(uint64_t take, const U256& a, const U256& b) {
  uint64_t mask = 0 - static_cast<uint64_t>(take != 0);
  U256 out;
  for (int i = 0; i < 4; ++i) {
    out.limbs[i] = (a.limbs[i] & mask) | (b.limbs[i] & ~mask);
  }
  return out;
}

}  // namespace

const U256& FieldPrime() { return kPrime; }
const U256& GroupOrder() { return kOrder; }

FieldElement FieldFromU256(const U256& a) {
  const auto& l = a.limbs;
  FieldElement r;
  r.n[0] = l[0] & kLimbMask;
  r.n[1] = ((l[0] >> 52) | (l[1] << 12)) & kLimbMask;
  r.n[2] = ((l[1] >> 40) | (l[2] << 24)) & kLimbMask;
  r.n[3] = ((l[2] >> 28) | (l[3] << 36)) & kLimbMask;
  r.n[4] = l[3] >> 16;
  return r;
}

U256 FieldToU256(const FieldElement& a) {
  FieldElement t = FieldNormalize(a);
  return U256(t.n[0] | (t.n[1] << 52), (t.n[1] >> 12) | (t.n[2] << 40),
              (t.n[2] >> 24) | (t.n[3] << 28), (t.n[3] >> 36) | (t.n[4] << 16));
}

// One carry pass: bits of limb 4 above 2^48 (2^256 and up) fold into limb
// 0 by 2^256 ≡ kFold, and each limb carries its bits above 2^52 upward.
// Limbs 0..3 end below 2^52 and limb 4 below 2^48 + 2^7 (magnitude 1).
FieldElement FieldNormalizeWeak(const FieldElement& a) {
  TM_DCHECK(FieldWithinMagnitude(a, kFieldMaxMagnitude));
  FieldElement r = a;
  const uint64_t x = r.n[4] >> 48;
  r.n[4] &= kLimbMask >> 4;
  r.n[0] += x * kFold;
  r.n[1] += r.n[0] >> 52;
  r.n[0] &= kLimbMask;
  r.n[2] += r.n[1] >> 52;
  r.n[1] &= kLimbMask;
  r.n[3] += r.n[2] >> 52;
  r.n[2] &= kLimbMask;
  r.n[4] += r.n[3] >> 52;
  r.n[3] &= kLimbMask;
  return r;
}

FieldElement FieldNormalize(const FieldElement& a) {
  FieldElement r = FieldNormalizeWeak(a);
  // After one pass the value is below 2^256 + 2^215, so at most one more
  // p comes off: when the 2^256 bit is set, or when the value is in
  // [p, 2^256), i.e. limbs 1..4 are all ones and limb 0 is at least p's.
  const uint64_t middle = r.n[1] & r.n[2] & r.n[3];
  const uint64_t x =
      (r.n[4] >> 48) |
      (static_cast<uint64_t>(r.n[4] == (kLimbMask >> 4)) &
       static_cast<uint64_t>(middle == kLimbMask) &
       static_cast<uint64_t>(r.n[0] >= 0xFFFFEFFFFFC2Full));
  // Adding x·kFold and dropping bit 256 subtracts x·p.
  r.n[0] += x * kFold;
  r.n[1] += r.n[0] >> 52;
  r.n[0] &= kLimbMask;
  r.n[2] += r.n[1] >> 52;
  r.n[1] &= kLimbMask;
  r.n[3] += r.n[2] >> 52;
  r.n[2] &= kLimbMask;
  r.n[4] += r.n[3] >> 52;
  r.n[3] &= kLimbMask;
  r.n[4] &= kLimbMask >> 4;
  return r;
}

bool FieldIsZero(const FieldElement& a) {
  FieldElement t = FieldNormalize(a);
  return (t.n[0] | t.n[1] | t.n[2] | t.n[3] | t.n[4]) == 0;
}

bool FieldEqual(const FieldElement& a, const FieldElement& b) {
  FieldElement x = FieldNormalize(a);
  FieldElement y = FieldNormalize(b);
  uint64_t diff = 0;
  for (int i = 0; i < 5; ++i) diff |= x.n[i] ^ y.n[i];
  return diff == 0;
}

bool FieldIsOdd(const FieldElement& a) { return FieldNormalize(a).n[0] & 1; }

namespace {

// a^(2^n) by n squarings.
FieldElement SqrN(FieldElement a, int n) {
  for (int i = 0; i < n; ++i) a = FieldSqr(a);
  return a;
}

// The runs of ones shared by the exponents p - 2 and (p + 1) / 4: sets
// *x2 = a^(2^2 - 1), *x22 = a^(2^22 - 1) and returns a^(2^223 - 1), via
// the chain 1, 2, 3, 6, 9, 11, 22, 44, 88, 176, 220, 223 (libsecp256k1's
// field_impl.h).
FieldElement OnesChain(const FieldElement& a, FieldElement* x2,
                       FieldElement* x22) {
  *x2 = FieldMul(FieldSqr(a), a);
  FieldElement x3 = FieldMul(FieldSqr(*x2), a);
  FieldElement x6 = FieldMul(SqrN(x3, 3), x3);
  FieldElement x9 = FieldMul(SqrN(x6, 3), x3);
  FieldElement x11 = FieldMul(SqrN(x9, 2), *x2);
  *x22 = FieldMul(SqrN(x11, 11), x11);
  FieldElement x44 = FieldMul(SqrN(*x22, 22), *x22);
  FieldElement x88 = FieldMul(SqrN(x44, 44), x44);
  FieldElement x176 = FieldMul(SqrN(x88, 88), x88);
  FieldElement x220 = FieldMul(SqrN(x176, 44), x44);
  return FieldMul(SqrN(x220, 3), x3);
}

}  // namespace

FieldElement FieldInv(const FieldElement& a) {
  TM_CHECK(!FieldIsZero(a));
  // p - 2 = [223 ones] 0 [22 ones] 0000 1 0 11 0 1: 255 squarings and
  // 15 multiplies in all.
  FieldElement x2, x22;
  FieldElement t = OnesChain(a, &x2, &x22);
  t = FieldMul(SqrN(t, 23), x22);
  t = FieldMul(SqrN(t, 5), a);
  t = FieldMul(SqrN(t, 3), x2);
  return FieldMul(SqrN(t, 2), a);
}

bool FieldSqrt(const FieldElement& a, FieldElement* root) {
  TM_CHECK(root != nullptr);
  // (p + 1) / 4 = [223 ones] 0 [22 ones] 0000 11 00: 253 squarings and
  // 13 multiplies.
  FieldElement x2, x22;
  FieldElement t = OnesChain(a, &x2, &x22);
  t = FieldMul(SqrN(t, 23), x22);
  t = FieldMul(SqrN(t, 6), x2);
  FieldElement candidate = SqrN(t, 2);
  if (!FieldEqual(FieldSqr(candidate), a)) return false;
  *root = candidate;
  return true;
}

U256 ScalarAdd(const U256& a, const U256& b) { return AddMod(a, b, kOrder); }
U256 ScalarSub(const U256& a, const U256& b) { return SubMod(a, b, kOrder); }

U256 ScalarReduce512(const U512& x) {
  // Folding, as in the base field, but mod n: 2^256 ≡ kOrderFold, so
  // each pass rewrites high * 2^256 + low as high * kOrderFold + low.
  // kOrderFold is 129 bits, so the bit-width trace is fixed:
  // 512 -> 386 -> 260 -> 257. Three passes always run — the loop count
  // carries no information about the (typically secret) operand.
  U256 low(x.limbs[0], x.limbs[1], x.limbs[2], x.limbs[3]);
  U256 high(x.limbs[4], x.limbs[5], x.limbs[6], x.limbs[7]);
  for (int pass = 0; pass < 3; ++pass) {
    U512 t = U256::Mul(high, kOrderFold);
    unsigned __int128 acc = 0;
    U256 next_low;
    for (int i = 0; i < 4; ++i) {
      acc += static_cast<unsigned __int128>(t.limbs[i]) + low.limbs[i];
      next_low.limbs[i] = static_cast<uint64_t>(acc);
      acc >>= 64;
    }
    // The high half of t plus the addition carry is at most 130 bits, so
    // this add cannot overflow 256 bits.
    U256 t_high(t.limbs[4], t.limbs[5], t.limbs[6], t.limbs[7]);
    U256 next_high;
    uint64_t overflow =
        U256::Add(t_high, U256(static_cast<uint64_t>(acc)), &next_high);
    TM_DCHECK(overflow == 0);
    (void)overflow;
    low = next_low;
    high = next_high;
  }
  // After three passes the value is extra * 2^256 + low with extra in
  // {0, 1}, i.e. strictly below 2^257 < 2n + 2^130: at most two
  // subtractions of n remain. Both run unconditionally, masked.
  TM_DCHECK(high.limbs[1] == 0 && high.limbs[2] == 0 && high.limbs[3] == 0 &&
            high.limbs[0] <= 1);
  uint64_t extra = high.limbs[0];
  U256 r = low;
  for (int step = 0; step < 2; ++step) {
    U256 d;
    uint64_t borrow = U256::Sub(r, kOrder, &d);
    // Subtract when the 257-bit value is >= n: either the 2^256 bit is
    // still set, or the low 256 bits alone do not borrow.
    uint64_t take = extra | (borrow ^ 1);
    r = MaskedSelect(take, d, r);
    // A borrowing subtraction that was taken consumed the 2^256 bit.
    extra &= borrow ^ 1;
  }
  return r;
}

U256 ScalarMul(const U256& a, const U256& b) {
  return ScalarReduce512(U256::Mul(a, b));
}

U256 ScalarReduce(const U256& a) {
  // a < 2^256 < 2n, so one masked subtraction fully reduces.
  U256 d;
  uint64_t borrow = U256::Sub(a, kOrder, &d);
  return MaskedSelect(borrow ^ 1, d, a);
}

const U256& EndomorphismLambda() { return kLambda; }
const U256& EndomorphismBeta() { return kBeta; }

namespace {

// round(k * g / 2^384): the product's top two limbs plus its bit 383,
// added without a branch.
U256 MulShift384Round(const U256& k, const U256& g) {
  U512 product = U256::Mul(k, g);
  U256 out;
  U256::Add(U256(product.limbs[6], product.limbs[7], 0, 0),
            U256(product.limbs[5] >> 63), &out);
  return out;
}

}  // namespace

void ScalarSplitLambda(const U256& k, U256* k1, U256* k2) {
  U256 reduced = ScalarReduce(k);
  U256 c1 = MulShift384Round(reduced, kG1);
  U256 c2 = MulShift384Round(reduced, kG2);
  *k2 = ScalarAdd(ScalarMul(c1, kMinusB1), ScalarMul(c2, kMinusB2));
  *k1 = ScalarSub(reduced, ScalarMul(*k2, kLambda));
}

}  // namespace tokenmagic::crypto
