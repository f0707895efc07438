#include "crypto/u256.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "oracle/crypto_oracle.h"

namespace tokenmagic::crypto {
namespace {

U256 FromHexOrDie(std::string_view hex) {
  U256 out;
  EXPECT_TRUE(U256::FromHex(hex, &out));
  return out;
}

TEST(U256Test, ZeroAndOne) {
  EXPECT_TRUE(U256::Zero().IsZero());
  EXPECT_FALSE(U256::One().IsZero());
  EXPECT_TRUE(U256::One().IsOdd());
  EXPECT_FALSE(U256(2).IsOdd());
}

TEST(U256Test, HexRoundTrip) {
  U256 v(0x1122334455667788ull, 0x99aabbccddeeff00ull, 0x0123456789abcdefull,
         0xfedcba9876543210ull);
  U256 parsed = FromHexOrDie(v.ToHex());
  EXPECT_EQ(parsed, v);
}

TEST(U256Test, FromHexAcceptsPrefixAndShortStrings) {
  EXPECT_EQ(FromHexOrDie("0xff"), U256(255));
  EXPECT_EQ(FromHexOrDie("FF"), U256(255));
  EXPECT_EQ(FromHexOrDie("0"), U256::Zero());
}

TEST(U256Test, FromHexRejectsBadInput) {
  U256 out;
  EXPECT_FALSE(U256::FromHex("", &out));
  EXPECT_FALSE(U256::FromHex("0x", &out));
  EXPECT_FALSE(U256::FromHex("xyz", &out));
  EXPECT_FALSE(U256::FromHex(std::string(65, 'f'), &out));  // too long
}

TEST(U256Test, BytesRoundTrip) {
  U256 v = FromHexOrDie(
      "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef");
  auto bytes = v.ToBytes();
  EXPECT_EQ(bytes[0], 0x01);   // big-endian: MSB first
  EXPECT_EQ(bytes[31], 0xef);
  EXPECT_EQ(U256::FromBytes(bytes.data()), v);
}

TEST(U256Test, CompareOrdering) {
  U256 small(5);
  U256 big(0, 1, 0, 0);  // 2^64
  EXPECT_LT(small, big);
  EXPECT_GT(big, small);
  EXPECT_LE(small, small);
  EXPECT_EQ(U256::Compare(small, small), 0);
  EXPECT_EQ(U256::Compare(small, big), -1);
  EXPECT_EQ(U256::Compare(big, small), 1);
}

TEST(U256Test, HighestBit) {
  EXPECT_EQ(U256::Zero().HighestBit(), -1);
  EXPECT_EQ(U256::One().HighestBit(), 0);
  EXPECT_EQ(U256(0x80).HighestBit(), 7);
  EXPECT_EQ(U256(0, 0, 0, 0x8000000000000000ull).HighestBit(), 255);
}

TEST(U256Test, BitAccess) {
  U256 v(0b1010);
  EXPECT_FALSE(v.Bit(0));
  EXPECT_TRUE(v.Bit(1));
  EXPECT_FALSE(v.Bit(2));
  EXPECT_TRUE(v.Bit(3));
  EXPECT_FALSE(v.Bit(200));
}

TEST(U256Test, AddWithCarryChain) {
  // (2^64 - 1) + 1 = 2^64: carry ripples into the next limb.
  U256 a(~0ull, 0, 0, 0);
  U256 sum;
  EXPECT_EQ(U256::Add(a, U256::One(), &sum), 0u);
  EXPECT_EQ(sum, U256(0, 1, 0, 0));
}

TEST(U256Test, AddOverflowReturnsCarry) {
  U256 max(~0ull, ~0ull, ~0ull, ~0ull);
  U256 sum;
  EXPECT_EQ(U256::Add(max, U256::One(), &sum), 1u);
  EXPECT_TRUE(sum.IsZero());
}

TEST(U256Test, SubWithBorrowChain) {
  U256 a(0, 1, 0, 0);  // 2^64
  U256 diff;
  EXPECT_EQ(U256::Sub(a, U256::One(), &diff), 0u);
  EXPECT_EQ(diff, U256(~0ull, 0, 0, 0));
}

TEST(U256Test, SubUnderflowReturnsBorrow) {
  U256 diff;
  EXPECT_EQ(U256::Sub(U256::Zero(), U256::One(), &diff), 1u);
  EXPECT_EQ(diff, U256(~0ull, ~0ull, ~0ull, ~0ull));
}

TEST(U256Test, MulSmallValues) {
  U512 p = U256::Mul(U256(6), U256(7));
  EXPECT_EQ(p.Low(), U256(42));
  EXPECT_TRUE(p.High().IsZero());
}

TEST(U256Test, MulFullWidth) {
  // (2^128 - 1)^2 = 2^256 - 2^129 + 1.
  U256 a(~0ull, ~0ull, 0, 0);
  U512 p = U256::Mul(a, a);
  EXPECT_EQ(p.Low(), U256(1, 0, ~0ull - 1, ~0ull));
  EXPECT_EQ(p.High(), U256::Zero());
  // Max * Max: high half is Max - 1, low half is 1.
  U256 max(~0ull, ~0ull, ~0ull, ~0ull);
  U512 p2 = U256::Mul(max, max);
  EXPECT_EQ(p2.Low(), U256::One());
  U256 expect_high;
  U256::Sub(max, U256::One(), &expect_high);
  EXPECT_EQ(p2.High(), expect_high);
}

TEST(U256Test, Shl1ShiftsAndReturnsCarry) {
  U256 v(0, 0, 0, 0x8000000000000000ull);
  EXPECT_EQ(oracle::Shl1(&v), 1u);
  EXPECT_TRUE(v.IsZero());
  U256 w(1);
  EXPECT_EQ(oracle::Shl1(&w), 0u);
  EXPECT_EQ(w, U256(2));
}

TEST(U256Test, ModSmall) {
  EXPECT_EQ(oracle::Mod(U256(17), U256(5)), U256(2));
  EXPECT_EQ(oracle::Mod(U256(4), U256(5)), U256(4));
  EXPECT_EQ(oracle::Mod(U256(5), U256(5)), U256::Zero());
}

TEST(U256Test, U512ModMatchesU256ModForSmallInputs) {
  common::Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    U256 a(rng.Next(), rng.Next(), 0, 0);
    U256 m(rng.Next() | 1, 0, 0, 0);
    U512 wide;
    wide.limbs[0] = a.limbs[0];
    wide.limbs[1] = a.limbs[1];
    EXPECT_EQ(oracle::Mod(wide, m), oracle::Mod(a, m));
  }
}

TEST(U256Test, ModMulAgainstUint128Reference) {
  common::Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    uint64_t a = rng.Next() % 1000000007ull;
    uint64_t b = rng.Next() % 1000000007ull;
    uint64_t m = 1000000007ull;
    unsigned __int128 expected =
        static_cast<unsigned __int128>(a) * b % m;
    EXPECT_EQ(oracle::MulMod(U256(a), U256(b), U256(m)),
              U256(static_cast<uint64_t>(expected)));
  }
}

TEST(U256Test, AddSubModInverseProperty) {
  common::Rng rng(3);
  U256 m = FromHexOrDie(
      "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141");
  for (int i = 0; i < 100; ++i) {
    U256 a(rng.Next(), rng.Next(), rng.Next(), 0);
    U256 b(rng.Next(), rng.Next(), rng.Next(), 0);
    a = oracle::Mod(a, m);
    b = oracle::Mod(b, m);
    EXPECT_EQ(SubMod(AddMod(a, b, m), b, m), a);
    EXPECT_EQ(AddMod(SubMod(a, b, m), b, m), a);
  }
}

TEST(U256Test, PowModSmallCases) {
  // 1024 % 1000
  EXPECT_EQ(oracle::PowMod(U256(2), U256(10), U256(1000)), U256(24));
  EXPECT_EQ(oracle::PowMod(U256(3), U256::Zero(), U256(7)), U256::One());
  EXPECT_EQ(oracle::PowMod(U256(5), U256::One(), U256(7)), U256(5));
}

TEST(U256Test, FermatLittleTheorem) {
  // a^(p-1) ≡ 1 (mod p) for prime p.
  U256 p(1000000007ull);
  common::Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    U256 a(1 + rng.Next() % 1000000006ull);
    U256 exponent;
    U256::Sub(p, U256::One(), &exponent);
    EXPECT_EQ(oracle::PowMod(a, exponent, p), U256::One());
  }
}

TEST(U256Test, InvModIsMultiplicativeInverse) {
  U256 p(1000000007ull);
  common::Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    U256 a(1 + rng.Next() % 1000000006ull);
    U256 inv = oracle::InvMod(a, p);
    EXPECT_EQ(oracle::MulMod(a, inv, p), U256::One());
  }
}

TEST(U256Test, MulModAssociativityProperty) {
  common::Rng rng(11);
  U256 m = FromHexOrDie(
      "fffffffefffffc2fffffffffffffffffffffffffffffffffffffffffffffffff");
  // Note: any odd modulus works for the algebraic identity below.
  for (int i = 0; i < 50; ++i) {
    U256 a =
        oracle::Mod(U256(rng.Next(), rng.Next(), rng.Next(), rng.Next()), m);
    U256 b =
        oracle::Mod(U256(rng.Next(), rng.Next(), rng.Next(), rng.Next()), m);
    U256 c =
        oracle::Mod(U256(rng.Next(), rng.Next(), rng.Next(), rng.Next()), m);
    EXPECT_EQ(oracle::MulMod(oracle::MulMod(a, b, m), c, m),
              oracle::MulMod(a, oracle::MulMod(b, c, m), m));
  }
}

}  // namespace
}  // namespace tokenmagic::crypto
