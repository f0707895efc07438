#include "crypto/u256.h"

namespace tokenmagic::crypto {

namespace {

int HexNibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

bool U256::FromHex(std::string_view hex, U256* out) {
  if (out == nullptr) return false;
  if (hex.size() >= 2 && hex[0] == '0' && (hex[1] == 'x' || hex[1] == 'X')) {
    hex.remove_prefix(2);
  }
  if (hex.empty() || hex.size() > 64) return false;
  U256 value;
  for (char c : hex) {
    int nibble = HexNibble(c);
    if (nibble < 0) return false;
    // value = value * 16 + nibble
    uint64_t carry = static_cast<uint64_t>(nibble);
    for (auto& limb : value.limbs) {
      uint64_t hi = limb >> 60;
      limb = (limb << 4) | carry;
      carry = hi;
    }
    if (carry != 0) return false;  // overflow (cannot happen with <=64 digits)
  }
  *out = value;
  return true;
}

std::string U256::ToHex() const {
  static const char kHex[] = "0123456789abcdef";
  std::string out(64, '0');
  for (int limb = 3; limb >= 0; --limb) {
    for (int nibble = 15; nibble >= 0; --nibble) {
      uint64_t v = (limbs[limb] >> (nibble * 4)) & 0xf;
      out[(3 - limb) * 16 + (15 - nibble)] = kHex[v];
    }
  }
  return out;
}

std::array<uint8_t, 32> U256::ToBytes() const {
  std::array<uint8_t, 32> out{};
  for (int i = 0; i < 32; ++i) {
    // Byte 0 is the most significant.
    out[i] = static_cast<uint8_t>(limbs[3 - i / 8] >> (56 - (i % 8) * 8));
  }
  return out;
}

U256 U256::FromBytes(const uint8_t bytes[32]) {
  U256 out;
  for (int i = 0; i < 32; ++i) {
    out.limbs[3 - i / 8] |= static_cast<uint64_t>(bytes[i])
                            << (56 - (i % 8) * 8);
  }
  return out;
}

int U256::HighestBit() const {
  for (int limb = 3; limb >= 0; --limb) {
    if (limbs[limb] != 0) {
      return limb * 64 + 63 - __builtin_clzll(limbs[limb]);
    }
  }
  return -1;
}

int U256::Compare(const U256& a, const U256& b) {
  for (int i = 3; i >= 0; --i) {
    if (a.limbs[i] < b.limbs[i]) return -1;
    if (a.limbs[i] > b.limbs[i]) return 1;
  }
  return 0;
}

uint64_t U256::Add(const U256& a, const U256& b, U256* out) {
  unsigned __int128 carry = 0;
  for (int i = 0; i < 4; ++i) {
    carry += static_cast<unsigned __int128>(a.limbs[i]) + b.limbs[i];
    out->limbs[i] = static_cast<uint64_t>(carry);
    carry >>= 64;
  }
  return static_cast<uint64_t>(carry);
}

uint64_t U256::Sub(const U256& a, const U256& b, U256* out) {
  unsigned __int128 borrow = 0;
  for (int i = 0; i < 4; ++i) {
    unsigned __int128 diff = static_cast<unsigned __int128>(a.limbs[i]) -
                             b.limbs[i] - borrow;
    out->limbs[i] = static_cast<uint64_t>(diff);
    borrow = (diff >> 64) & 1;  // wrapped => borrow
  }
  return static_cast<uint64_t>(borrow);
}

U512 U256::Mul(const U256& a, const U256& b) {
  U512 out;
  for (int i = 0; i < 4; ++i) {
    unsigned __int128 carry = 0;
    for (int j = 0; j < 4; ++j) {
      carry += static_cast<unsigned __int128>(a.limbs[i]) * b.limbs[j] +
               out.limbs[i + j];
      out.limbs[i + j] = static_cast<uint64_t>(carry);
      carry >>= 64;
    }
    out.limbs[i + 4] = static_cast<uint64_t>(carry);
  }
  return out;
}

namespace {

// out = cond ? a : b with full-width masking; no branch, so modular
// correction steps below leak nothing about their (possibly secret)
// operands. Mirrors crypto::CtSelect without the header dependency.
U256 MaskedSelect(uint64_t cond, const U256& a, const U256& b) {
  uint64_t mask = 0 - static_cast<uint64_t>(cond != 0);
  U256 out;
  for (int i = 0; i < 4; ++i) {
    out.limbs[i] = (a.limbs[i] & mask) | (b.limbs[i] & ~mask);
  }
  return out;
}

}  // namespace

U256 AddMod(const U256& a, const U256& b, const U256& m) {
  // Branch-free: compute both sum and sum - m, then select with a mask.
  // The reduction is needed when the add carried out of 256 bits or the
  // in-range sum still reached m; in the carry case the wrapped
  // subtraction absorbs the implicit 2^256 and diff is already correct.
  U256 sum;
  uint64_t carry = U256::Add(a, b, &sum);
  U256 diff;
  uint64_t borrow = U256::Sub(sum, m, &diff);
  uint64_t take_diff = carry | (borrow ^ 1);
  return MaskedSelect(take_diff, diff, sum);
}

U256 SubMod(const U256& a, const U256& b, const U256& m) {
  // Branch-free: always compute diff + m and select on the borrow.
  U256 diff;
  uint64_t borrow = U256::Sub(a, b, &diff);
  U256 corrected;
  U256::Add(diff, m, &corrected);
  return MaskedSelect(borrow, corrected, diff);
}

}  // namespace tokenmagic::crypto
