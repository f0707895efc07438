// secp256k1 base-field and scalar arithmetic.
//
// The base prime is p = 2^256 - 2^32 - 977. A base-field element is a
// FieldElement: five 52-bit limbs with lazy reduction (libsecp256k1's
// field_5x52 design). The twelve spare bits per limb let additions,
// negations and small multiples run limb by limb with no carry and no
// reduction; only multiplication and squaring reduce, by folding with
// 2^260 ≡ 0x1000003D10 (mod p). The arithmetic (add, negate, small
// multiples, multiply, square, both normalizations) is branch-free.
//
// Magnitude. An element has magnitude m when its limbs 0..3 are at most
// 2m(2^52 - 1) and its limb 4 at most 2m(2^48 - 1). The value it stands
// for is its limbs' sum mod p; the limbs themselves need not be below p.
//   - FieldFromU256 of any 256-bit value, FieldMul, FieldSqr and
//     FieldNormalizeWeak return magnitude 1;
//   - FieldAdd returns the sum of its inputs' magnitudes;
//   - FieldNegate(a, m) needs a of magnitude m and returns m + 1;
//   - FieldMulInt(a, k) returns k times a's magnitude;
//   - FieldMul and FieldSqr need inputs of magnitude at most 8;
//   - no element may exceed magnitude 32.
// Each routine checks its inputs' limbs against these bounds with
// TM_DCHECK. Full normalization (the unique representative below p) runs
// only for equality and zero tests, parity, encoding (FieldToU256) and
// static table entries.
//
// Scalars (mod n) stay U256: they are usually secrets, and their routines
// below run a fixed instruction stream with no secret-dependent branch.
#pragma once

#include <array>
#include <cstdint>

#include "common/macros.h"
#include "crypto/u256.h"

namespace tokenmagic::crypto {

/// secp256k1 base field prime p = 2^256 - 2^32 - 977.
const U256& FieldPrime();

/// secp256k1 group order n.
const U256& GroupOrder();

/// An element of F_p in five 52-bit limbs, least significant first. The
/// default value is zero.
struct FieldElement {
  std::array<uint64_t, 5> n{0, 0, 0, 0, 0};

  constexpr FieldElement() = default;
  /// A small constant (below 2^52), fully normalized.
  constexpr explicit FieldElement(uint64_t small) : n{small, 0, 0, 0, 0} {}
};

/// The largest magnitude an element may have, and the largest FieldMul
/// and FieldSqr accept.
inline constexpr uint32_t kFieldMaxMagnitude = 32;
inline constexpr uint32_t kFieldMulMagnitude = 8;

/// True when a's limbs are within magnitude m (see the header comment).
inline bool FieldWithinMagnitude(const FieldElement& a, uint32_t m) {
  const uint64_t low = 2 * static_cast<uint64_t>(m) * 0xFFFFFFFFFFFFFull;
  const uint64_t top = 2 * static_cast<uint64_t>(m) * 0x0FFFFFFFFFFFFull;
  return (a.n[0] <= low) & (a.n[1] <= low) & (a.n[2] <= low) &
         (a.n[3] <= low) & (a.n[4] <= top);
}

/// Any 256-bit value, p and above included, as an element of magnitude 1.
FieldElement FieldFromU256(const U256& a);

/// The unique representative of a in [0, p), as a U256.
U256 FieldToU256(const FieldElement& a);

/// a + b, limb by limb.
inline FieldElement FieldAdd(const FieldElement& a, const FieldElement& b) {
  FieldElement r;
  for (int i = 0; i < 5; ++i) r.n[i] = a.n[i] + b.n[i];
  TM_DCHECK(FieldWithinMagnitude(r, kFieldMaxMagnitude));
  return r;
}

/// -a as 2(m + 1)·p - a, limb by limb; a must have magnitude m. The result
/// has magnitude m + 1.
inline FieldElement FieldNegate(const FieldElement& a, uint32_t m) {
  TM_DCHECK(m < kFieldMaxMagnitude && FieldWithinMagnitude(a, m));
  const uint64_t k = 2 * (static_cast<uint64_t>(m) + 1);
  FieldElement r;
  r.n[0] = 0xFFFFEFFFFFC2Full * k - a.n[0];
  r.n[1] = 0xFFFFFFFFFFFFFull * k - a.n[1];
  r.n[2] = 0xFFFFFFFFFFFFFull * k - a.n[2];
  r.n[3] = 0xFFFFFFFFFFFFFull * k - a.n[3];
  r.n[4] = 0x0FFFFFFFFFFFFull * k - a.n[4];
  return r;
}

/// k·a for a small constant k, limb by limb.
inline FieldElement FieldMulInt(const FieldElement& a, uint32_t k) {
  FieldElement r;
  for (int i = 0; i < 5; ++i) r.n[i] = a.n[i] * k;
  TM_DCHECK(k <= kFieldMaxMagnitude &&
            FieldWithinMagnitude(r, kFieldMaxMagnitude));
  return r;
}

// Helpers of the inline multiplies below.
namespace field_internal {
inline constexpr uint64_t kR = 0x1000003d10ull;            // 2^260 mod p
inline constexpr uint64_t kLimbMask = 0xFFFFFFFFFFFFFull;  // 2^52 - 1
using u128 = unsigned __int128;
inline u128 Wide(uint64_t x) { return x; }
inline uint64_t Low(u128 x) { return static_cast<uint64_t>(x); }
}  // namespace field_internal

/// a·b and a², reduced to magnitude 1 (not necessarily below p). They are
/// defined here so that the point formulas inline them: a call costs about
/// a third of a multiply.
//
// The products follow libsecp256k1's secp256k1_fe_mul_inner. The column
// sums p_k = sum a_i * b_(k-i) run from k = 0 to 8; column k >= 5 sits at
// 2^(52k) = 2^260 * 2^(52(k-5)) and folds down by kR. Two 128-bit
// accumulators carry the low columns (c) and the high ones (d). A fold
// multiplies only a 64-bit word by kR: the low word of an accumulator
// goes down by kR and its high word, 2^64 = 2^12 * 2^52 above, by
// kR << 12 one column up. With inputs of magnitude <= 8 every limb is
// below 2^56 (limb 4 below 2^52), so no column sum overflows 128 bits.
inline FieldElement FieldMul(const FieldElement& a, const FieldElement& b) {
  using field_internal::kLimbMask, field_internal::kR, field_internal::Low,
      field_internal::u128, field_internal::Wide;
  TM_DCHECK(FieldWithinMagnitude(a, kFieldMulMagnitude) &&
            FieldWithinMagnitude(b, kFieldMulMagnitude));
  const uint64_t a0 = a.n[0], a1 = a.n[1], a2 = a.n[2], a3 = a.n[3],
                 a4 = a.n[4];
  const uint64_t b0 = b.n[0], b1 = b.n[1], b2 = b.n[2], b3 = b.n[3],
                 b4 = b.n[4];
  FieldElement r;
  // Column 3, with column 8 folded onto it (and its high word onto 4).
  u128 d = Wide(a0) * b3 + Wide(a1) * b2 + Wide(a2) * b1 + Wide(a3) * b0;
  u128 c = Wide(a4) * b4;
  d += Wide(kR) * Low(c);
  c >>= 64;
  const uint64_t t3 = Low(d) & kLimbMask;
  d >>= 52;
  // Column 4.
  d += Wide(a0) * b4 + Wide(a1) * b3 + Wide(a2) * b2 + Wide(a3) * b1 +
       Wide(a4) * b0;
  d += Wide(kR << 12) * Low(c);
  uint64_t t4 = Low(d) & kLimbMask;
  d >>= 52;
  // Bits of column 4 above 2^256 fold into column 0 with column 5.
  const uint64_t tx = t4 >> 48;
  t4 &= kLimbMask >> 4;
  c = Wide(a0) * b0;
  d += Wide(a1) * b4 + Wide(a2) * b3 + Wide(a3) * b2 + Wide(a4) * b1;
  const uint64_t u0 = ((Low(d) & kLimbMask) << 4) | tx;
  d >>= 52;
  c += Wide(u0) * (kR >> 4);
  r.n[0] = Low(c) & kLimbMask;
  c >>= 52;
  // Column 1, with column 6 folded.
  c += Wide(a0) * b1 + Wide(a1) * b0;
  d += Wide(a2) * b4 + Wide(a3) * b3 + Wide(a4) * b2;
  c += Wide(Low(d) & kLimbMask) * kR;
  d >>= 52;
  r.n[1] = Low(c) & kLimbMask;
  c >>= 52;
  // Column 2, with column 7 folded (its high word onto column 3).
  c += Wide(a0) * b2 + Wide(a1) * b1 + Wide(a2) * b0;
  d += Wide(a3) * b4 + Wide(a4) * b3;
  c += Wide(kR) * Low(d);
  d >>= 64;
  r.n[2] = Low(c) & kLimbMask;
  c >>= 52;
  c += Wide(kR << 12) * Low(d) + t3;
  r.n[3] = Low(c) & kLimbMask;
  c >>= 52;
  r.n[4] = Low(c) + t4;
  return r;
}

// FieldMul(a, a) with each cross product formed once and doubled.
inline FieldElement FieldSqr(const FieldElement& a) {
  using field_internal::kLimbMask, field_internal::kR, field_internal::Low,
      field_internal::u128, field_internal::Wide;
  TM_DCHECK(FieldWithinMagnitude(a, kFieldMulMagnitude));
  uint64_t a0 = a.n[0], a4 = a.n[4];
  const uint64_t a1 = a.n[1], a2 = a.n[2], a3 = a.n[3];
  FieldElement r;
  u128 d = Wide(a0 * 2) * a3 + Wide(a1 * 2) * a2;
  u128 c = Wide(a4) * a4;
  d += Wide(kR) * Low(c);
  c >>= 64;
  const uint64_t t3 = Low(d) & kLimbMask;
  d >>= 52;
  a4 *= 2;
  d += Wide(a0) * a4 + Wide(a1 * 2) * a3 + Wide(a2) * a2;
  d += Wide(kR << 12) * Low(c);
  uint64_t t4 = Low(d) & kLimbMask;
  d >>= 52;
  const uint64_t tx = t4 >> 48;
  t4 &= kLimbMask >> 4;
  c = Wide(a0) * a0;
  d += Wide(a1) * a4 + Wide(a2 * 2) * a3;
  const uint64_t u0 = ((Low(d) & kLimbMask) << 4) | tx;
  d >>= 52;
  c += Wide(u0) * (kR >> 4);
  r.n[0] = Low(c) & kLimbMask;
  c >>= 52;
  a0 *= 2;
  c += Wide(a0) * a1;
  d += Wide(a2) * a4 + Wide(a3) * a3;
  c += Wide(Low(d) & kLimbMask) * kR;
  d >>= 52;
  r.n[1] = Low(c) & kLimbMask;
  c >>= 52;
  c += Wide(a0) * a2 + Wide(a1) * a1;
  d += Wide(a3) * a4;
  c += Wide(kR) * Low(d);
  d >>= 64;
  r.n[2] = Low(c) & kLimbMask;
  c >>= 52;
  c += Wide(kR << 12) * Low(d) + t3;
  r.n[3] = Low(c) & kLimbMask;
  c >>= 52;
  r.n[4] = Low(c) + t4;
  return r;
}

/// Magnitude 1 with the same value, by one carry pass.
FieldElement FieldNormalizeWeak(const FieldElement& a);
/// The unique representative below p: limbs below 2^52, limb 4 below 2^48.
FieldElement FieldNormalize(const FieldElement& a);

/// Zero, equality and parity of the values (each normalizes first).
bool FieldIsZero(const FieldElement& a);
bool FieldEqual(const FieldElement& a, const FieldElement& b);
bool FieldIsOdd(const FieldElement& a);

/// Multiplicative inverse a^(p-2) (a must be non-zero), by the standard
/// secp256k1 addition chain: 255 squarings and 15 multiplies. Magnitude 1.
FieldElement FieldInv(const FieldElement& a);
/// Square root when it exists: since p ≡ 3 (mod 4), r = a^((p+1)/4), by
/// an addition chain of 253 squarings and 13 multiplies.
/// Returns true and sets *root (magnitude 1) iff r*r == a.
bool FieldSqrt(const FieldElement& a, FieldElement* root);

/// Scalar (mod n) operations for signature arithmetic. Unlike the field
/// routines above (which only ever see public curve coordinates), scalars
/// are usually secrets — keys and nonces — so ScalarAdd/Sub/Mul/
/// Reduce run a fixed instruction stream with no secret-dependent branch
/// (AddMod/SubMod masked corrections, fold-based reduction mod n).
U256 ScalarAdd(const U256& a, const U256& b);
U256 ScalarSub(const U256& a, const U256& b);
U256 ScalarMul(const U256& a, const U256& b);
/// Reduces an arbitrary 256-bit value into [0, n); one masked subtract.
U256 ScalarReduce(const U256& a);
/// Reduces a full 512-bit product modulo n: three fixed folding passes
/// (2^256 ≡ 2^256 - n) plus two masked subtractions, no branches.
U256 ScalarReduce512(const U512& x);

/// The secp256k1 endomorphism phi(x, y) = (beta*x, y) = lambda*(x, y):
/// lambda is a cube root of unity mod n and beta the matching one mod p.
const U256& EndomorphismLambda();
const U256& EndomorphismBeta();

/// Splits k (any 256-bit value, reduced mod n first) into halves with
/// k = k1 + k2*lambda (mod n) and min(ki, n - ki) < 2^128 for both, by
/// rounding k onto the reduced lattice basis (libsecp256k1's
/// scalar_split_lambda). Branch-free: a fixed ScalarMul/Add/Sub sequence.
void ScalarSplitLambda(const U256& k, U256* k1, U256* k2);

}  // namespace tokenmagic::crypto
