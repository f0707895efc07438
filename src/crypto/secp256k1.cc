#include "crypto/secp256k1.h"

#include <algorithm>
#include <cstring>

#include "common/macros.h"
#include "common/strings.h"
#include "crypto/ct.h"
#include "crypto/memzero.h"
#include "crypto/sha256.h"

namespace tokenmagic::crypto {

namespace {

// Jacobian projective point: (X, Y, Z) representing (X/Z^2, Y/Z^3), in
// lazily reduced field elements. The formulas below return X of
// magnitude at most 6, Y at most 4 and Z at most 2; negating Y adds one.
// They accept X and Y up to magnitude 8 and Z up to 4 (the additions sum
// two Zs before squaring). The identity is a flag, not Z = 0, so no
// formula pays a zero test to recognise it.
struct Jacobian {
  FieldElement x;
  FieldElement y;
  FieldElement z;
  uint64_t infinity = 0;  // 1 for the identity

  static Jacobian Identity() {
    return Jacobian{FieldElement(), FieldElement(1), FieldElement(), 1};
  }
  bool IsIdentity() const { return infinity != 0; }
};

Jacobian ToJacobian(const Point& p) {
  if (p.infinity) return Jacobian::Identity();
  return Jacobian{FieldFromU256(p.x), FieldFromU256(p.y), FieldElement(1),
                  0};
}

Point ToAffine(const Jacobian& j) {
  if (j.IsIdentity()) return Point::Infinity();
  FieldElement z_inv = FieldInv(j.z);
  FieldElement z_inv2 = FieldSqr(z_inv);
  FieldElement z_inv3 = FieldMul(z_inv2, z_inv);
  Point p;
  p.x = FieldToU256(FieldMul(j.x, z_inv2));
  p.y = FieldToU256(FieldMul(j.y, z_inv3));
  p.infinity = false;
  return p;
}

// Doubling in Jacobian coordinates for a = 0, dbl-2009-l's result by
// libsecp256k1's schedule of 3 multiplies and 4 squarings: X' = 9X^4 -
// 8XY^2, Y' = 3X^2(4XY^2 - X') - 8Y^4, Z' = 2YZ. The magnitude of each
// intermediate is in parentheses. No zero-Y test: the curve has no point
// of order 2, so 2P is the identity only for P the identity.
Jacobian JacobianDouble(const Jacobian& p) {
  if (p.IsIdentity()) return p;
  Jacobian out;
  out.z = FieldMulInt(FieldMul(p.y, p.z), 2);           // 2YZ (2)
  FieldElement e = FieldMulInt(FieldSqr(p.x), 3);       // 3X^2 (3)
  FieldElement f = FieldSqr(e);                         // 9X^4 (1)
  FieldElement b2 = FieldMulInt(FieldSqr(p.y), 2);      // 2Y^2 (2)
  FieldElement c8 = FieldMulInt(FieldSqr(b2), 2);       // 8Y^4 (2)
  FieldElement d = FieldMul(b2, p.x);                   // 2XY^2 (1)
  out.x = FieldAdd(FieldNegate(FieldMulInt(d, 4), 4), f);  // (6)
  // 4XY^2 - X' = 12XY^2 - 9X^4 (8)
  FieldElement diff = FieldAdd(FieldMulInt(d, 6), FieldNegate(f, 1));
  out.y = FieldAdd(FieldMul(e, diff), FieldNegate(c8, 2));  // (4)
  return out;
}

// The tail shared by both additions, from U1 = X1·Z2^2 and S1 = Y1·Z2^3
// (magnitude 1), H = U2 - U1 and R = S2 - S1 (magnitude 3), and I = 4H^2
// (magnitude 4): X3 = (2R)^2 - H·I - 2·U1·I, Y3 = 2R·(U1·I - X3) -
// 2·S1·H·I. The caller sets Z3.
void AddTail(const FieldElement& u1, const FieldElement& s1,
             const FieldElement& h, const FieldElement& r,
             const FieldElement& i, Jacobian* out) {
  FieldElement j = FieldMul(h, i);                          // (1)
  FieldElement r2 = FieldMulInt(r, 2);                      // (6)
  FieldElement v = FieldMul(u1, i);                         // (1)
  out->x = FieldAdd(FieldAdd(FieldSqr(r2), FieldNegate(j, 1)),
                    FieldNegate(FieldMulInt(v, 2), 2));     // (6)
  FieldElement s1j2 = FieldMulInt(FieldMul(s1, j), 2);      // (2)
  out->y = FieldAdd(FieldMul(r2, FieldAdd(v, FieldNegate(out->x, 6))),
                    FieldNegate(s1j2, 2));                  // (4)
  out->infinity = 0;
}

// General addition in Jacobian coordinates ("add-2007-bl").
Jacobian JacobianAdd(const Jacobian& p, const Jacobian& q) {
  if (p.IsIdentity()) return q;
  if (q.IsIdentity()) return p;
  FieldElement z1z1 = FieldSqr(p.z);
  FieldElement z2z2 = FieldSqr(q.z);
  FieldElement u1 = FieldMul(p.x, z2z2);
  FieldElement u2 = FieldMul(q.x, z1z1);
  FieldElement s1 = FieldMul(FieldMul(p.y, q.z), z2z2);
  FieldElement s2 = FieldMul(FieldMul(q.y, p.z), z1z1);
  FieldElement h = FieldAdd(u2, FieldNegate(u1, 1));
  FieldElement r = FieldAdd(s2, FieldNegate(s1, 1));
  if (FieldIsZero(h)) {
    if (FieldIsZero(r)) return JacobianDouble(p);
    return Jacobian::Identity();  // P + (-P)
  }
  Jacobian out;
  AddTail(u1, s1, h, r, FieldSqr(FieldMulInt(h, 2)), &out);
  // Z3 = ((Z1 + Z2)^2 - Z1Z1 - Z2Z2)·H = 2·Z1·Z2·H (1)
  FieldElement z_sum = FieldSqr(FieldAdd(p.z, q.z));
  out.z = FieldMul(FieldAdd(FieldAdd(z_sum, FieldNegate(z1z1, 1)),
                            FieldNegate(z2z2, 1)),
                   h);
  return out;
}

// Affine coordinates of a precomputed table entry, fully normalized.
struct Affine {
  FieldElement x;
  FieldElement y;
};

Affine ToAffineEntry(const Point& p) {
  return Affine{FieldFromU256(p.x), FieldFromU256(p.y)};
}

Affine ToAffineEntry(const Jacobian& j) { return ToAffineEntry(ToAffine(j)); }

// Mixed addition p + (q.x, q.y, 1) ("madd-2007-bl"): the affine operand
// saves four of add-2007-bl's multiplies. q is never the identity, and its
// coordinates have magnitude at most 2.
Jacobian JacobianAddAffine(const Jacobian& p, const Affine& q) {
  if (p.IsIdentity()) return Jacobian{q.x, q.y, FieldElement(1), 0};
  FieldElement z1z1 = FieldSqr(p.z);
  FieldElement u1 = FieldNormalizeWeak(p.x);
  FieldElement s1 = FieldNormalizeWeak(p.y);
  FieldElement u2 = FieldMul(q.x, z1z1);
  FieldElement s2 = FieldMul(FieldMul(q.y, p.z), z1z1);
  FieldElement h = FieldAdd(u2, FieldNegate(u1, 1));
  FieldElement r = FieldAdd(s2, FieldNegate(s1, 1));
  if (FieldIsZero(h)) {
    if (FieldIsZero(r)) return JacobianDouble(p);
    return Jacobian::Identity();  // P + (-P)
  }
  Jacobian out;
  AddTail(u1, s1, h, r, FieldMulInt(FieldSqr(h), 4), &out);
  out.z = FieldMulInt(FieldMul(p.z, h), 2);  // 2·Z1·H (2)
  return out;
}

// -- the endomorphism split -------------------------------------------------

// beta as a field element.
const FieldElement& Beta() {
  static const FieldElement kBeta = FieldFromU256(EndomorphismBeta());
  return kBeta;
}

// phi(x, y) = (beta*x, y) = lambda*(x, y); on Jacobian coordinates only X
// changes, since x = X/Z^2.
Jacobian Phi(Jacobian e) {
  e.x = FieldMul(e.x, Beta());
  return e;
}

// (n - 1) / 2: a split half above it is applied negated, as n - h.
const U256 kHalfOrder(0xdfe92f46681b20a0ull, 0x5d576e7357a4501dull,
                      0xffffffffffffffffull, 0x7fffffffffffffffull);

// -- variable-time kernel (public scalars only) ------------------------------

// wNAF widths: 2^(w-2) odd multiples per table. G's tables are static and
// affine, so they afford the wider window.
constexpr int kWindowP = 5;  // P, 3P, ..., 15P
constexpr int kWindowG = 8;  // G, 3G, ..., 127G
// A split half's magnitude is below 2^128; its wNAF can carry into bit 128.
constexpr int kWnafLen = 129;

using Wnaf = std::array<int, kWnafLen>;
using JacobianTable = std::array<Jacobian, 1 << (kWindowP - 2)>;
using AffineTable = std::array<Affine, 1 << (kWindowG - 2)>;

// Bits [bit, bit + count) of k, reading bits past 255 as zero; count <= 8.
int BitsAt(const U256& k, int bit, int count) {
  uint64_t word = 0;
  if (bit < 256) {
    word = k.limbs[bit >> 6] >> (bit & 63);
    if ((bit & 63) + count > 64 && (bit >> 6) < 3) {
      word |= k.limbs[(bit >> 6) + 1] << (64 - (bit & 63));
    }
  }
  return static_cast<int>(word & ((uint64_t{1} << count) - 1));
}

// Width-w NAF of k < 2^128: every digit is 0 or odd in (-2^(w-1),
// 2^(w-1)), and each nonzero digit is followed by at least w - 1 zeros.
// Returns the digit count (index of the top nonzero digit + 1; 0 for
// k == 0).
int ComputeWnaf(const U256& k, int w, Wnaf* digits) {
  TM_DCHECK(k.HighestBit() < kWnafLen - 1);
  digits->fill(0);
  int len = 0;
  int carry = 0;
  for (int bit = 0; bit < kWnafLen;) {
    if (BitsAt(k, bit, 1) == carry) {
      ++bit;
      continue;
    }
    int now = std::min(w, kWnafLen - bit);
    int word = BitsAt(k, bit, now) + carry;
    carry = (word >> (w - 1)) & 1;
    word -= carry << w;
    (*digits)[bit] = word;
    len = bit + 1;
    bit += now;
  }
  TM_DCHECK(carry == 0);
  return len;
}

// The wNAF of a split half h: a half above n/2 is recoded as n - h with
// every digit negated, since h*P = -(n - h)*P.
int HalfWnaf(const U256& h, int w, Wnaf* digits) {
  if (h <= kHalfOrder) return ComputeWnaf(h, w, digits);
  U256 magnitude;
  U256::Sub(GroupOrder(), h, &magnitude);
  int len = ComputeWnaf(magnitude, w, digits);
  for (int& d : *digits) d = -d;
  return len;
}

// G, 3G, ..., (2^(kWindowG-1) - 1)G in affine form and their images under
// phi (the same entries with x*beta), built once.
struct GeneratorTables {
  AffineTable g;
  AffineTable phi_g;
};

const GeneratorTables& GeneratorOddMultiples() {
  static const GeneratorTables kTables = [] {
    GeneratorTables tables;
    Jacobian g = ToJacobian(Secp256k1::Generator());
    Jacobian g2 = JacobianDouble(g);
    Jacobian acc = g;
    for (size_t i = 0; i < tables.g.size(); ++i) {
      tables.g[i] = ToAffineEntry(acc);
      tables.phi_g[i] = Affine{
          FieldNormalize(FieldMul(tables.g[i].x, Beta())), tables.g[i].y};
      acc = JacobianAdd(acc, g2);
    }
    return tables;
  }();
  return kTables;
}

// The entry with y negated when `negate` is set: a table's affine entries
// are normalized (magnitude 1), its Jacobian ones have y of magnitude at
// most 4.
Affine NegateIf(bool negate, Affine e) {
  if (negate) e.y = FieldNegate(e.y, 1);
  return e;
}

Jacobian NegateIf(bool negate, Jacobian e) {
  if (negate) e.y = FieldNegate(e.y, 4);
  return e;
}

// a*P + b*Q by interleaved wNAF over the endomorphism split: a = a1 +
// a2*lambda and b = b1 + b2*lambda, so the sum is a1*P + a2*phi(P) + b1*Q
// + b2*phi(Q), four terms of at most 128 bits that share one doubling
// chain of at most 129 doublings, with one table addition per nonzero
// digit. P or Q equal to G reads the static affine tables of G and phi(G)
// (mixed additions, width 8); any other point gets a width-5 Jacobian
// table of its odd multiples, and phi's table is that table with X*beta.
// Variable-time in every scalar bit and in the points: public inputs only.
Jacobian WnafMul(const U256& a, const Point& p, const U256& b,
                 const Point& q) {
  struct Term {
    Wnaf digits;
    int len = 0;
    const Affine* affine = nullptr;      // G's static tables
    const Jacobian* jacobian = nullptr;  // a point's own tables
  };
  std::array<Term, 4> terms;  // a1*P, a2*phi(P), b1*Q, b2*phi(Q)
  std::array<JacobianTable, 4> tables;
  const U256* scalars[2] = {&a, &b};
  const Point* points[2] = {&p, &q};
  const GeneratorTables& g_tables = GeneratorOddMultiples();
  int top = 0;
  for (int t = 0; t < 2; ++t) {
    if (points[t]->infinity) continue;
    bool is_g = *points[t] == Secp256k1::Generator();
    U256 halves[2];
    ScalarSplitLambda(*scalars[t], &halves[0], &halves[1]);
    Term* pair = &terms[2 * t];
    for (int h = 0; h < 2; ++h) {
      pair[h].len = HalfWnaf(halves[h], is_g ? kWindowG : kWindowP,
                             &pair[h].digits);
      top = std::max(top, pair[h].len);
    }
    if (is_g) {
      pair[0].affine = g_tables.g.data();
      pair[1].affine = g_tables.phi_g.data();
      continue;
    }
    if (pair[0].len == 0 && pair[1].len == 0) continue;
    JacobianTable& table = tables[2 * t];
    JacobianTable& phi_table = tables[2 * t + 1];
    Jacobian base = ToJacobian(*points[t]);
    Jacobian twice = JacobianDouble(base);
    table[0] = base;
    for (size_t i = 1; i < table.size(); ++i) {
      table[i] = JacobianAdd(table[i - 1], twice);
    }
    for (size_t i = 0; i < table.size(); ++i) phi_table[i] = Phi(table[i]);
    pair[0].jacobian = table.data();
    pair[1].jacobian = phi_table.data();
  }
  Jacobian acc = Jacobian::Identity();
  for (int i = top - 1; i >= 0; --i) {
    acc = JacobianDouble(acc);
    for (const Term& term : terms) {
      int d = i < term.len ? term.digits[i] : 0;
      if (d == 0) continue;
      size_t slot = static_cast<size_t>(std::abs(d) / 2);
      acc = term.affine != nullptr
                ? JacobianAddAffine(acc, NegateIf(d < 0, term.affine[slot]))
                : JacobianAdd(acc, NegateIf(d < 0, term.jacobian[slot]));
    }
  }
  return acc;
}

// -- constant-time kernels (secret scalars) ----------------------------------

// All-ones when a == b, zero otherwise, without a branch.
uint64_t EqMask(uint64_t a, uint64_t b) {
  uint64_t diff = a ^ b;
  return ((diff | (0 - diff)) >> 63) - 1;
}

// *dst = mask ? src : *dst, limb by limb through the same instructions
// whatever the mask.
// tm-ct-ladder
void MaskedMove(uint64_t mask, const U256& src, U256* dst) {
  // tm-declassify(fixed four-limb trip count, independent of the mask)
  for (int i = 0; i < 4; ++i) {
    dst->limbs[i] ^= mask & (dst->limbs[i] ^ src.limbs[i]);
  }
}

// tm-ct-ladder
void MaskedMove(uint64_t mask, const FieldElement& src, FieldElement* dst) {
  // tm-declassify(fixed five-limb trip count, independent of the mask)
  for (int i = 0; i < 5; ++i) {
    dst->n[i] ^= mask & (dst->n[i] ^ src.n[i]);
  }
}

// tm-ct-ladder
void MaskedMove(uint64_t mask, const Jacobian& src, Jacobian* dst) {
  MaskedMove(mask, src.x, &dst->x);
  MaskedMove(mask, src.y, &dst->y);
  MaskedMove(mask, src.z, &dst->z);
  dst->infinity ^= mask & (dst->infinity ^ src.infinity);
}

// table[digit] by a masked scan: every entry is read, so the memory trace
// does not depend on the digit.
// tm-ct-ladder
Jacobian LookupJacobian(const std::array<Jacobian, 16>& table,
                        uint64_t digit) {
  Jacobian out;
  // tm-declassify(fixed 16-entry scan, independent of the digit)
  for (uint64_t j = 0; j < 16; ++j) {
    MaskedMove(EqMask(j, digit), table[j], &out);
  }
  return out;
}

// tm-ct-ladder
Affine LookupAffine(const std::array<Affine, 16>& table, uint64_t digit) {
  Affine out;
  // tm-declassify(fixed 16-entry scan, independent of the digit)
  for (uint64_t j = 0; j < 16; ++j) {
    uint64_t mask = EqMask(j, digit);
    MaskedMove(mask, table[j].x, &out.x);
    MaskedMove(mask, table[j].y, &out.y);
  }
  return out;
}

// Digit w (0 = least significant) of k in base 16.
uint64_t Nibble(const U256& k, int w) {
  return (k.limbs[w >> 4] >> ((w & 15) * 4)) & 15;
}

// The sign mask of a split half h (all ones when h > n/2) and its
// magnitude min(h, n - h) < 2^128, without a branch.
// tm-ct-ladder
uint64_t SignedHalf(const U256& h, U256* magnitude) {
  uint64_t sign = 0 - CtLess(kHalfOrder, h);
  U256 negated;
  U256::Sub(GroupOrder(), h, &negated);
  *magnitude = h;
  MaskedMove(sign, negated, magnitude);
  SecureWipe(negated.limbs.data(), sizeof(negated.limbs));
  return sign;
}

// The accumulator offset of both constant-time kernels: a fixed public
// point S of unknown discrete log. Each kernel starts its accumulator at S
// instead of at the identity and adds `window_end` (-2^128*S, S after
// FixedWindowMul's 128 doublings, negated) or `comb_end` (-S) at the end.
// For a nonzero scalar, no doubling or addition then meets an identity
// operand, so the point routines' identity shortcuts never run. Built
// once.
struct CtOffset {
  Jacobian start;
  Affine window_end;
  Affine comb_end;
};

const CtOffset& CtOffsets() {
  static const CtOffset kOffset = [] {
    constexpr std::string_view kTag = "constant-time accumulator offset";
    Point s = Secp256k1::HashToPoint(
        reinterpret_cast<const uint8_t*>(kTag.data()), kTag.size());
    Jacobian shifted = ToJacobian(s);
    for (int i = 0; i < 128; ++i) shifted = JacobianDouble(shifted);
    Point window_end = Secp256k1::Negate(ToAffine(shifted));
    Point comb_end = Secp256k1::Negate(s);
    return CtOffset{ToJacobian(s), ToAffineEntry(window_end),
                    ToAffineEntry(comb_end)};
  }();
  return kOffset;
}

// *acc += entry with entry's y negated under `sign`, kept unless the digit
// is zero. The negation is the lazy 10p - y (y has magnitude at most 4),
// moved in under a mask, so it has no zero test; a zero digit's entry is
// the stand-in and its sum is discarded under a mask.
// tm-ct-ladder
void AddSignedEntry(uint64_t digit, uint64_t sign, Jacobian entry,
                    Jacobian* acc) {
  FieldElement negated_y = FieldNegate(entry.y, 4);
  MaskedMove(sign, negated_y, &entry.y);
  Jacobian sum = JacobianAdd(*acc, entry);
  MaskedMove(~EqMask(digit, 0), sum, acc);
}

// k*p by a fixed 4-bit window over the endomorphism split k = k1 +
// k2*lambda: table entry j is j*p, and each half runs as its sign and its
// magnitude below 2^128. The accumulator starts at the offset S (see
// CtOffset). For each of the 32 windows, top first: four doublings, then
// per half one masked-scan lookup of the table (the second half's entry
// mapped through phi by x*beta) and one addition of the entry, negated
// under the half's sign mask. Entry 0 is a stand-in (p itself), so the
// addition never meets an identity operand from the table: a zero digit
// still runs its scan and its addition, and the sum is then discarded
// under a mask. A final addition of -2^128*S removes the offset. Neither
// the leading zero nibbles of the halves nor a zero digit of one half
// where the other's is nonzero shows in the sequence of point
// operations. The field routines are branch-free, but the point
// additions still test H and R for zero (their doubling and P + (-P)
// cases, which the offset keeps out of reach), so this is source-level
// scalar-bit hygiene, not a full machine-level constant-time guarantee.
// tm_ct's ladder-hygiene rule audits this body: no scalar .Bit()
// extraction, no non-CT multiply, no unannotated control flow.
// tm-ct-ladder
Jacobian FixedWindowMul(const U256& k, const Jacobian& p) {
  std::array<Jacobian, 16> table;
  table[0] = p;
  table[1] = p;
  // tm-declassify(fixed 14-entry table build from the public point)
  for (size_t j = 2; j < table.size(); ++j) {
    table[j] = JacobianAdd(table[j - 1], p);
  }
  U256 halves[2];
  ScalarSplitLambda(k, &halves[0], &halves[1]);
  U256 magnitudes[2];
  uint64_t signs[2] = {SignedHalf(halves[0], &magnitudes[0]),
                       SignedHalf(halves[1], &magnitudes[1])};
  const CtOffset& offset = CtOffsets();
  Jacobian acc = offset.start;
  // tm-declassify(fixed 32-window trip count, independent of scalar)
  for (int w = 31; w >= 0; --w) {
    // tm-declassify(fixed four doublings per window)
    for (int d = 0; d < 4; ++d) acc = JacobianDouble(acc);
    uint64_t digit = Nibble(magnitudes[0], w);
    AddSignedEntry(digit, signs[0], LookupJacobian(table, digit), &acc);
    digit = Nibble(magnitudes[1], w);
    AddSignedEntry(digit, signs[1], Phi(LookupJacobian(table, digit)), &acc);
  }
  SecureWipe(halves, sizeof(halves));
  SecureWipe(magnitudes, sizeof(magnitudes));
  SecureWipe(signs, sizeof(signs));
  return JacobianAddAffine(acc, offset.window_end);
}

// comb[w][j] = j * 16^w * G for 64 windows w and digits j, affine. Entry
// 0 of each window stands for the identity, stored as (0, 0); the comb
// never keeps a sum with it (see CombMulBase). 64 KB, built once.
using CombTable = std::array<std::array<Affine, 16>, 64>;

const CombTable& GeneratorComb() {
  static const CombTable kComb = [] {
    CombTable comb;
    Jacobian base = ToJacobian(Secp256k1::Generator());  // 16^w * G
    for (auto& window : comb) {
      window[0] = Affine{};
      Jacobian acc = base;
      for (size_t j = 1; j < window.size(); ++j) {
        window[j] = ToAffineEntry(acc);
        acc = JacobianAdd(acc, base);
      }
      base = acc;
    }
    return comb;
  }();
  return kComb;
}

// k*G as the offset S plus the sum over the 64 base-16 digits d_w of
// comb[w][d_w], minus S: 65 mixed additions and 64 full-window scans, no
// doublings. A zero digit still runs its scan and its addition (of the
// (0, 0) stand-in, which is not a curve point, so the addition takes no
// shortcut); the sum is then discarded under a mask. The accumulator
// starts at S, not at the identity, so the scalar's leading zero nibbles
// do not show either. Same source-level hygiene as FixedWindowMul.
// tm-ct-ladder
Jacobian CombMulBase(const U256& k) {
  const CombTable& comb = GeneratorComb();
  const CtOffset& offset = CtOffsets();
  Jacobian acc = offset.start;
  // tm-declassify(fixed 64-window trip count, independent of scalar)
  for (int w = 63; w >= 0; --w) {
    uint64_t digit = Nibble(k, w);
    Jacobian sum = JacobianAddAffine(acc, LookupAffine(comb[w], digit));
    MaskedMove(~EqMask(digit, 0), sum, &acc);
  }
  return JacobianAddAffine(acc, offset.comb_end);
}

// The audited boundary of MulCT (p != nullptr) and MulBaseCT. The kernels
// are branch-free at the scalar-bit level, but their point additions
// branch on zero tests of derived values, so the dynamic oracle would
// flag every limb of a poisoned scalar. Declassify a private copy here —
// the static analyzer mirrors this by treating MulCT/MulBaseCT as taint
// sinks — and wipe the copy before returning.
Point MulSecretScalar(const U256& k, const Point* p) {
  U256 k_ct = k;
  // tm-declassify(audited ladder boundary: scalar bits drive only masked scans)
  CtDeclassify(&k_ct, sizeof(k_ct));
  Point out = ToAffine(p == nullptr ? CombMulBase(k_ct)
                                    : FixedWindowMul(k_ct, ToJacobian(*p)));
  SecureWipe(k_ct.limbs.data(), sizeof(k_ct.limbs));
  return out;
}

// x^3 + 7, the right-hand side of the curve equation.
FieldElement CurveRhs(const FieldElement& x) {
  return FieldAdd(FieldMul(FieldSqr(x), x), FieldElement(7));
}

}  // namespace

bool Point::operator==(const Point& other) const {
  if (infinity || other.infinity) return infinity == other.infinity;
  return x == other.x && y == other.y;
}

std::array<uint8_t, 33> Point::Encode() const {
  std::array<uint8_t, 33> out{};
  if (infinity) return out;  // all-zero marker
  // Branch-free prefix: 0x02 | parity. LSAG signing hashes the nonce
  // points u*G and u*H_p(P), derived from its secret nonce u, into the
  // challenge, so the y-parity must not steer a conditional.
  out[0] = static_cast<uint8_t>(0x02 | (y.limbs[0] & 1));
  auto xb = x.ToBytes();
  std::memcpy(out.data() + 1, xb.data(), 32);
  return out;
}

std::optional<Point> Point::Decode(const std::array<uint8_t, 33>& bytes) {
  if (bytes[0] == 0) {
    for (uint8_t b : bytes) {
      if (b != 0) return std::nullopt;
    }
    return Point::Infinity();
  }
  if (bytes[0] != 0x02 && bytes[0] != 0x03) return std::nullopt;
  U256 x = U256::FromBytes(bytes.data() + 1);
  if (x >= FieldPrime()) return std::nullopt;
  FieldElement y;
  if (!FieldSqrt(CurveRhs(FieldFromU256(x)), &y)) return std::nullopt;
  bool want_odd = bytes[0] == 0x03;
  if (FieldIsOdd(y) != want_odd) y = FieldNegate(y, 1);
  Point p;
  p.x = x;
  p.y = FieldToU256(y);
  p.infinity = false;
  return p;
}

std::string Point::ToString() const {
  if (infinity) return "Point(infinity)";
  return "Point(x=" + x.ToHex() + ", y=" + y.ToHex() + ")";
}

const Point& Secp256k1::Generator() {
  static const Point kGenerator = [] {
    Point g;
    TM_CHECK(U256::FromHex(
        "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798",
        &g.x));
    TM_CHECK(U256::FromHex(
        "483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8",
        &g.y));
    g.infinity = false;
    return g;
  }();
  return kGenerator;
}

bool Secp256k1::IsOnCurve(const Point& p) {
  if (p.infinity) return true;
  if (p.x >= FieldPrime() || p.y >= FieldPrime()) return false;
  return FieldEqual(FieldSqr(FieldFromU256(p.y)),
                    CurveRhs(FieldFromU256(p.x)));
}

Point Secp256k1::Add(const Point& a, const Point& b) {
  return ToAffine(JacobianAdd(ToJacobian(a), ToJacobian(b)));
}

Point Secp256k1::Double(const Point& p) {
  return ToAffine(JacobianDouble(ToJacobian(p)));
}

Point Secp256k1::Negate(const Point& p) {
  if (p.infinity) return p;
  Point out = p;
  out.y = FieldToU256(FieldNegate(FieldFromU256(p.y), 1));
  return out;
}

Point Secp256k1::Mul(const U256& k, const Point& p) {
  return ToAffine(WnafMul(k, p, U256::Zero(), Point::Infinity()));
}

Point Secp256k1::MulBase(const U256& k) { return Mul(k, Generator()); }

Point Secp256k1::MulCT(const U256& k, const Point& p) {
  // No early-out on k == 0 or p == infinity: the window runs all 32
  // windows for every scalar, and the final offset correction lands on the
  // identity.
  return MulSecretScalar(k, &p);
}

Point Secp256k1::MulBaseCT(const U256& k) {
  return MulSecretScalar(k, nullptr);
}

Point Secp256k1::MulAdd(const U256& a, const Point& p, const U256& b,
                        const Point& q) {
  return ToAffine(WnafMul(a, p, b, q));
}

Point Secp256k1::HashToPoint(const uint8_t* data, size_t size,
                             std::string_view domain_tag) {
  for (uint32_t counter = 0;; ++counter) {
    Sha256 hasher;
    hasher.Update(domain_tag);
    hasher.Update(data, size);
    uint8_t counter_bytes[4] = {
        static_cast<uint8_t>(counter >> 24), static_cast<uint8_t>(counter >> 16),
        static_cast<uint8_t>(counter >> 8), static_cast<uint8_t>(counter)};
    hasher.Update(counter_bytes, 4);
    auto digest = hasher.Finalize();
    U256 x = U256::FromBytes(digest.data());
    if (x >= FieldPrime()) continue;
    FieldElement y;
    if (!FieldSqrt(CurveRhs(FieldFromU256(x)), &y)) continue;
    // Pick the even-y representative deterministically.
    if (FieldIsOdd(y)) y = FieldNegate(y, 1);
    Point p;
    p.x = x;
    p.y = FieldToU256(y);
    p.infinity = false;
    TM_DCHECK(IsOnCurve(p));
    return p;
  }
}

}  // namespace tokenmagic::crypto
