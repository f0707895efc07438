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

// Jacobian projective point: (X, Y, Z) representing (X/Z^2, Y/Z^3).
struct Jacobian {
  U256 x;
  U256 y;
  U256 z;  // z == 0 encodes the identity

  static Jacobian Identity() {
    return Jacobian{U256::One(), U256::One(), U256::Zero()};
  }
  bool IsIdentity() const { return z.IsZero(); }
};

Jacobian ToJacobian(const Point& p) {
  if (p.infinity) return Jacobian::Identity();
  return Jacobian{p.x, p.y, U256::One()};
}

Point ToAffine(const Jacobian& j) {
  if (j.IsIdentity()) return Point::Infinity();
  U256 z_inv = FieldInv(j.z);
  U256 z_inv2 = FieldSqr(z_inv);
  U256 z_inv3 = FieldMul(z_inv2, z_inv);
  Point p;
  p.x = FieldMul(j.x, z_inv2);
  p.y = FieldMul(j.y, z_inv3);
  p.infinity = false;
  return p;
}

// Doubling in Jacobian coordinates ("dbl-2007-bl" simplified for a = 0).
Jacobian JacobianDouble(const Jacobian& p) {
  if (p.IsIdentity() || p.y.IsZero()) return Jacobian::Identity();
  U256 a = FieldSqr(p.x);                    // X^2
  U256 b = FieldSqr(p.y);                    // Y^2
  U256 c = FieldSqr(b);                      // Y^4
  // D = 2*((X + B)^2 - A - C)
  U256 x_plus_b = FieldAdd(p.x, b);
  U256 d = FieldSub(FieldSub(FieldSqr(x_plus_b), a), c);
  d = FieldAdd(d, d);
  U256 e = FieldAdd(FieldAdd(a, a), a);      // 3*X^2 (a=0 curve)
  U256 f = FieldSqr(e);
  Jacobian out;
  out.x = FieldSub(f, FieldAdd(d, d));       // F - 2D
  U256 c8 = FieldAdd(c, c);
  c8 = FieldAdd(c8, c8);
  c8 = FieldAdd(c8, c8);                     // 8*Y^4
  out.y = FieldSub(FieldMul(e, FieldSub(d, out.x)), c8);
  out.z = FieldMul(FieldAdd(p.y, p.y), p.z); // 2*Y*Z
  return out;
}

// Mixed/general addition in Jacobian coordinates ("add-2007-bl").
Jacobian JacobianAdd(const Jacobian& p, const Jacobian& q) {
  if (p.IsIdentity()) return q;
  if (q.IsIdentity()) return p;
  U256 z1z1 = FieldSqr(p.z);
  U256 z2z2 = FieldSqr(q.z);
  U256 u1 = FieldMul(p.x, z2z2);
  U256 u2 = FieldMul(q.x, z1z1);
  U256 s1 = FieldMul(FieldMul(p.y, q.z), z2z2);
  U256 s2 = FieldMul(FieldMul(q.y, p.z), z1z1);
  if (u1 == u2) {
    if (s1 == s2) return JacobianDouble(p);
    return Jacobian::Identity();  // P + (-P)
  }
  U256 h = FieldSub(u2, u1);
  U256 i = FieldSqr(FieldAdd(h, h));
  U256 j = FieldMul(h, i);
  U256 r = FieldSub(s2, s1);
  r = FieldAdd(r, r);
  U256 v = FieldMul(u1, i);
  Jacobian out;
  out.x = FieldSub(FieldSub(FieldSqr(r), j), FieldAdd(v, v));
  U256 s1j = FieldMul(s1, j);
  out.y = FieldSub(FieldMul(r, FieldSub(v, out.x)), FieldAdd(s1j, s1j));
  U256 z_sum = FieldAdd(p.z, q.z);
  out.z = FieldMul(FieldSub(FieldSub(FieldSqr(z_sum), z1z1), z2z2), h);
  return out;
}

// Affine coordinates of a precomputed table entry.
struct Affine {
  U256 x;
  U256 y;
};

Affine ToAffineEntry(const Jacobian& j) {
  Point p = ToAffine(j);
  return Affine{p.x, p.y};
}

// Mixed addition p + (q.x, q.y, 1) ("madd-2007-bl"): the affine operand
// saves four of add-2007-bl's multiplies. q is never the identity.
Jacobian JacobianAddAffine(const Jacobian& p, const Affine& q) {
  if (p.IsIdentity()) return Jacobian{q.x, q.y, U256::One()};
  U256 z1z1 = FieldSqr(p.z);
  U256 u2 = FieldMul(q.x, z1z1);
  U256 s2 = FieldMul(FieldMul(q.y, p.z), z1z1);
  if (p.x == u2) {
    if (p.y == s2) return JacobianDouble(p);
    return Jacobian::Identity();  // P + (-P)
  }
  U256 h = FieldSub(u2, p.x);
  U256 hh = FieldSqr(h);
  U256 i = FieldAdd(hh, hh);
  i = FieldAdd(i, i);                         // 4*H^2
  U256 j = FieldMul(h, i);
  U256 r = FieldSub(s2, p.y);
  r = FieldAdd(r, r);
  U256 v = FieldMul(p.x, i);
  Jacobian out;
  out.x = FieldSub(FieldSub(FieldSqr(r), j), FieldAdd(v, v));
  U256 y1j = FieldMul(p.y, j);
  out.y = FieldSub(FieldMul(r, FieldSub(v, out.x)), FieldAdd(y1j, y1j));
  U256 z1h = FieldMul(p.z, h);
  out.z = FieldAdd(z1h, z1h);                 // 2*Z1*H
  return out;
}

// -- the endomorphism split -------------------------------------------------

// phi(x, y) = (beta*x, y) = lambda*(x, y); on Jacobian coordinates only X
// changes, since x = X/Z^2.
Jacobian Phi(Jacobian e) {
  e.x = FieldMul(e.x, EndomorphismBeta());
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
      tables.phi_g[i] = Affine{FieldMul(tables.g[i].x, EndomorphismBeta()),
                               tables.g[i].y};
      acc = JacobianAdd(acc, g2);
    }
    return tables;
  }();
  return kTables;
}

Affine NegateIf(bool negate, Affine e) {
  if (negate) e.y = FieldNeg(e.y);
  return e;
}

Jacobian NegateIf(bool negate, Jacobian e) {
  if (negate) e.y = FieldNeg(e.y);
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
void MaskedMove(uint64_t mask, const Jacobian& src, Jacobian* dst) {
  MaskedMove(mask, src.x, &dst->x);
  MaskedMove(mask, src.y, &dst->y);
  MaskedMove(mask, src.z, &dst->z);
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
    return CtOffset{ToJacobian(s), Affine{window_end.x, window_end.y},
                    Affine{comb_end.x, comb_end.y}};
  }();
  return kOffset;
}

// *acc += entry with entry's y negated under `sign`, kept unless the digit
// is zero. The negation is p - y under a mask (y is never zero: the curve
// has no point of order 2, and an identity entry keeps Y = 1), so it has
// no zero test; a zero digit's entry is the stand-in and its sum is
// discarded under a mask.
// tm-ct-ladder
void AddSignedEntry(uint64_t digit, uint64_t sign, Jacobian entry,
                    Jacobian* acc) {
  U256 negated_y;
  U256::Sub(FieldPrime(), entry.y, &negated_y);
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
// operations. The field routines still take value-dependent paths
// (modular-reduction borrows), so this is source-level scalar-bit
// hygiene, not a full machine-level constant-time guarantee. tm_ct's
// ladder-hygiene rule audits this body: no scalar .Bit() extraction, no
// non-CT multiply, no unannotated control flow.
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
// are branch-free at the scalar-bit level, but their field arithmetic
// takes value-dependent paths, so the dynamic oracle would flag every
// limb of a poisoned scalar. Declassify a private copy here — the static
// analyzer mirrors this by treating MulCT/MulBaseCT as taint sinks — and
// wipe the copy before returning.
Point MulSecretScalar(const U256& k, const Point* p) {
  U256 k_ct = k;
  // tm-declassify(audited ladder boundary: scalar bits drive only masked scans)
  CtDeclassify(&k_ct, sizeof(k_ct));
  Point out = ToAffine(p == nullptr ? CombMulBase(k_ct)
                                    : FixedWindowMul(k_ct, ToJacobian(*p)));
  SecureWipe(k_ct.limbs.data(), sizeof(k_ct.limbs));
  return out;
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
  // y^2 = x^3 + 7
  U256 rhs = FieldAdd(FieldMul(FieldSqr(x), x), U256(7));
  U256 y;
  if (!FieldSqrt(rhs, &y)) return std::nullopt;
  bool want_odd = bytes[0] == 0x03;
  if (y.IsOdd() != want_odd) y = FieldNeg(y);
  Point p;
  p.x = x;
  p.y = y;
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
  U256 lhs = FieldSqr(p.y);
  U256 rhs = FieldAdd(FieldMul(FieldSqr(p.x), p.x), U256(7));
  return lhs == rhs;
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
  out.y = FieldNeg(p.y);
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
    U256 rhs = FieldAdd(FieldMul(FieldSqr(x), x), U256(7));
    U256 y;
    if (!FieldSqrt(rhs, &y)) continue;
    // Pick the even-y representative deterministically.
    if (y.IsOdd()) y = FieldNeg(y);
    Point p;
    p.x = x;
    p.y = y;
    p.infinity = false;
    TM_DCHECK(IsOnCurve(p));
    return p;
  }
}

}  // namespace tokenmagic::crypto
