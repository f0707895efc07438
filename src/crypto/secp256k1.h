// secp256k1 group arithmetic (y^2 = x^3 + 7 over F_p).
//
// Points are handled in affine form at the API boundary and in Jacobian
// projective coordinates internally to avoid a field inversion per group
// operation. Verified in tests against the published generator multiples.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "crypto/field.h"
#include "crypto/u256.h"

namespace tokenmagic::crypto {

/// An affine curve point; (0, 0) with infinity flag encodes the identity.
struct Point {
  U256 x;
  U256 y;
  bool infinity = true;

  static Point Infinity() { return Point{}; }

  bool operator==(const Point& other) const;
  bool operator!=(const Point& other) const { return !(*this == other); }

  /// SEC1 compressed encoding (33 bytes: 02/03 prefix + big-endian x).
  /// Identity encodes as 33 zero bytes.
  std::array<uint8_t, 33> Encode() const;
  /// Decodes a compressed point; returns nullopt for malformed or
  /// off-curve encodings.
  static std::optional<Point> Decode(const std::array<uint8_t, 33>& bytes);

  std::string ToString() const;
};

/// The secp256k1 group.
class Secp256k1 {
 public:
  /// The standard generator G.
  static const Point& Generator();

  /// True when `p` is the identity or satisfies the curve equation.
  static bool IsOnCurve(const Point& p);

  /// Group addition (complete: handles identity and doubling).
  static Point Add(const Point& a, const Point& b);

  /// Point doubling.
  static Point Double(const Point& p);

  /// Additive inverse.
  static Point Negate(const Point& p);

  /// Scalar multiplication k * p (any k < 2^256). The endomorphism split
  /// k = k1 + k2*lambda turns it into k1*p + k2*phi(p), two width-5 wNAF
  /// terms of at most 128 bits over one chain of at most 129 doublings.
  /// Variable-time: the bit pattern of `k` shapes the instruction stream, so
  /// this must only ever see public scalars (verification, test vectors).
  static Point Mul(const U256& k, const Point& p);

  /// k * G with the fixed generator, through Mul's wNAF kernel on static
  /// width-8 tables of the odd multiples of G and of phi(G). Variable-time;
  /// public scalars only.
  static Point MulBase(const U256& k);

  /// k * p by a fixed 4-bit window over the endomorphism split, whose
  /// source contains no branch or memory access indexed by the bits of
  /// `k`: every scalar runs 32 windows of four doublings and two masked-
  /// scan lookups of the 16-entry table (the second mapped through phi),
  /// each followed by an addition of the entry negated under its half's
  /// sign mask, a zero digit included (its sum is discarded under a mask).
  /// The accumulator starts at a fixed public offset point that one last
  /// addition removes, so for a nonzero `k` no doubling or addition meets
  /// an identity operand and none takes its identity shortcut. Use for
  /// every secret scalar (signing nonces, private keys, key images).
  static Point MulCT(const U256& k, const Point& p);

  /// k * G, constant-time with respect to the bits of `k`: a fixed-base
  /// comb over a static table of j * 16^w * G (64 windows of 16), one
  /// masked-scan lookup and one addition per window, no doublings. Its
  /// accumulator starts at the same kind of offset as MulCT's.
  static Point MulBaseCT(const U256& k);

  /// a*P + b*Q for public scalars: Mul's interleaved wNAF kernel, both
  /// scalars split, four terms on one shared chain of at most 129
  /// doublings (signature verification).
  static Point MulAdd(const U256& a, const Point& p, const U256& b,
                      const Point& q);

  /// Deterministic hash-to-point by try-and-increment on SHA-256 output.
  /// Never returns the identity. Domain-separated by `domain_tag`.
  static Point HashToPoint(const uint8_t* data, size_t size,
                           std::string_view domain_tag = "tokenmagic/htp");
};

}  // namespace tokenmagic::crypto
