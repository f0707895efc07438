// Fixed-width 256-bit unsigned integer arithmetic.
//
// This is the arithmetic substrate for the secp256k1 field/group used by the
// ring-signature layer. It favours clarity and portability (only relies on
// the compiler's 128-bit multiply) over peak speed. There is no generic
// modular reduction: field.h reduces modulo the secp256k1 base prime and
// group order by folding their special forms.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace tokenmagic::crypto {

struct U512;  // forward

/// 256-bit unsigned integer, four little-endian 64-bit limbs.
struct U256 {
  std::array<uint64_t, 4> limbs{0, 0, 0, 0};

  constexpr U256() = default;
  constexpr explicit U256(uint64_t low) : limbs{low, 0, 0, 0} {}
  constexpr U256(uint64_t l0, uint64_t l1, uint64_t l2, uint64_t l3)
      : limbs{l0, l1, l2, l3} {}

  static constexpr U256 Zero() { return U256(); }
  static constexpr U256 One() { return U256(1); }

  /// Parses big-endian hex (with or without 0x prefix, up to 64 digits).
  /// Returns false on invalid input.
  static bool FromHex(std::string_view hex, U256* out);

  /// 64-digit zero-padded lowercase big-endian hex.
  std::string ToHex() const;

  /// Big-endian 32-byte encoding.
  std::array<uint8_t, 32> ToBytes() const;
  static U256 FromBytes(const uint8_t bytes[32]);

  bool IsZero() const {
    return (limbs[0] | limbs[1] | limbs[2] | limbs[3]) == 0;
  }
  bool IsOdd() const { return (limbs[0] & 1) != 0; }

  /// Bit i (0 = least significant). i must be < 256.
  bool Bit(int i) const {
    return (limbs[i >> 6] >> (i & 63)) & 1;
  }

  /// Index of the highest set bit, or -1 when zero.
  int HighestBit() const;

  /// -1 / 0 / +1 three-way comparison.
  static int Compare(const U256& a, const U256& b);

  bool operator==(const U256& o) const { return limbs == o.limbs; }
  bool operator!=(const U256& o) const { return limbs != o.limbs; }
  bool operator<(const U256& o) const { return Compare(*this, o) < 0; }
  bool operator<=(const U256& o) const { return Compare(*this, o) <= 0; }
  bool operator>(const U256& o) const { return Compare(*this, o) > 0; }
  bool operator>=(const U256& o) const { return Compare(*this, o) >= 0; }

  /// out = a + b, returns carry-out (0 or 1).
  static uint64_t Add(const U256& a, const U256& b, U256* out);
  /// out = a - b, returns borrow-out (0 or 1).
  static uint64_t Sub(const U256& a, const U256& b, U256* out);
  /// Full 256x256 -> 512-bit product.
  static U512 Mul(const U256& a, const U256& b);
};

/// 512-bit unsigned integer (product width), eight little-endian limbs.
struct U512 {
  std::array<uint64_t, 8> limbs{0, 0, 0, 0, 0, 0, 0, 0};

  /// Low / high 256-bit halves.
  U256 Low() const { return U256(limbs[0], limbs[1], limbs[2], limbs[3]); }
  U256 High() const { return U256(limbs[4], limbs[5], limbs[6], limbs[7]); }
};

/// (a + b) mod m. Inputs must already be < m.
U256 AddMod(const U256& a, const U256& b, const U256& m);
/// (a - b) mod m. Inputs must already be < m.
U256 SubMod(const U256& a, const U256& b, const U256& m);

}  // namespace tokenmagic::crypto
