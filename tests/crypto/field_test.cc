#include "crypto/field.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "oracle/crypto_oracle.h"

namespace tokenmagic::crypto {
namespace {

U256 RandomFieldElement(common::Rng* rng) {
  U256 v(rng->Next(), rng->Next(), rng->Next(), rng->Next());
  return oracle::Mod(v, FieldPrime());
}

// The integer the limbs spell, sum n[i] * 2^(52 i), which may reach past
// 2^256 at magnitudes above 1.
U512 ValueOf(const FieldElement& a) {
  U512 out;
  for (int i = 0; i < 5; ++i) {
    int bit = 52 * i;
    unsigned __int128 acc = static_cast<unsigned __int128>(a.n[i])
                            << (bit % 64);
    for (int word = bit / 64; word < 8 && acc != 0; ++word) {
      acc += out.limbs[word];
      out.limbs[word] = static_cast<uint64_t>(acc);
      acc >>= 64;
    }
  }
  return out;
}

// The value of a mod p, by long division.
U256 Reduced(const FieldElement& a) {
  return oracle::Mod(ValueOf(a), FieldPrime());
}

// Every limb at the bound of magnitude m: the value 2m(2^256 - 1).
FieldElement AtMagnitude(uint32_t m) {
  FieldElement a;
  for (int i = 0; i < 4; ++i) a.n[i] = 2 * uint64_t{m} * 0xFFFFFFFFFFFFFull;
  a.n[4] = 2 * uint64_t{m} * 0x0FFFFFFFFFFFFull;
  return a;
}

TEST(FieldTest, PrimeAndOrderAreTheStandardConstants) {
  EXPECT_EQ(FieldPrime().ToHex(),
            "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefff"
            "ffc2f");
  EXPECT_EQ(GroupOrder().ToHex(),
            "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd03"
            "64141");
}

TEST(FieldTest, ReduceMatchesGenericMod) {
  // Products of arbitrary 256-bit values, p and above included.
  common::Rng rng(101);
  for (int i = 0; i < 300; ++i) {
    U256 a(rng.Next(), rng.Next(), rng.Next(), rng.Next());
    U256 b(rng.Next(), rng.Next(), rng.Next(), rng.Next());
    FieldElement product = FieldMul(FieldFromU256(a), FieldFromU256(b));
    EXPECT_TRUE(FieldWithinMagnitude(product, 1));
    EXPECT_EQ(FieldToU256(product),
              oracle::Mod(U256::Mul(a, b), FieldPrime()));
    EXPECT_EQ(FieldToU256(FieldSqr(FieldFromU256(a))),
              oracle::Mod(U256::Mul(a, a), FieldPrime()));
  }
}

TEST(FieldTest, ReduceHandlesExtremes) {
  // 0, p-1, p, p+1 and 2^256-1 through normalization.
  EXPECT_TRUE(FieldToU256(FieldElement()).IsZero());
  U256 p_minus_1, p_plus_1;
  U256::Sub(FieldPrime(), U256::One(), &p_minus_1);
  U256::Add(FieldPrime(), U256::One(), &p_plus_1);
  EXPECT_EQ(FieldToU256(FieldFromU256(p_minus_1)), p_minus_1);
  EXPECT_TRUE(FieldToU256(FieldFromU256(FieldPrime())).IsZero());
  EXPECT_EQ(FieldToU256(FieldFromU256(p_plus_1)), U256::One());
  U256 all_ones(~0ull, ~0ull, ~0ull, ~0ull);
  EXPECT_EQ(FieldToU256(FieldFromU256(all_ones)),
            oracle::Mod(all_ones, FieldPrime()));
  // The largest products: every limb at the bound of magnitude 8.
  FieldElement top = AtMagnitude(kFieldMulMagnitude);
  U256 top_value = Reduced(top);
  FieldElement squared = FieldSqr(top);
  EXPECT_TRUE(FieldWithinMagnitude(squared, 1));
  EXPECT_EQ(FieldToU256(squared), oracle::FieldMul(top_value, top_value));
  EXPECT_EQ(FieldToU256(FieldMul(top, top)), FieldToU256(squared));
  // (p - 1)^2 = 1.
  FieldElement minus_one = FieldFromU256(p_minus_1);
  EXPECT_EQ(FieldToU256(FieldMul(minus_one, minus_one)), U256::One());
}

TEST(FieldTest, AddSubRoundTrip) {
  common::Rng rng(103);
  for (int i = 0; i < 100; ++i) {
    FieldElement a = FieldFromU256(RandomFieldElement(&rng));
    FieldElement b = FieldFromU256(RandomFieldElement(&rng));
    EXPECT_TRUE(FieldEqual(FieldAdd(FieldAdd(a, b), FieldNegate(b, 1)), a));
  }
}

TEST(FieldTest, NegIsAdditiveInverse) {
  common::Rng rng(105);
  for (int i = 0; i < 100; ++i) {
    FieldElement a = FieldFromU256(RandomFieldElement(&rng));
    EXPECT_TRUE(FieldIsZero(FieldAdd(a, FieldNegate(a, 1))));
  }
  EXPECT_TRUE(FieldIsZero(FieldNegate(FieldElement(), 1)));
}

TEST(FieldTest, MulCommutesAndDistributes) {
  common::Rng rng(107);
  for (int i = 0; i < 50; ++i) {
    FieldElement a = FieldFromU256(RandomFieldElement(&rng));
    FieldElement b = FieldFromU256(RandomFieldElement(&rng));
    FieldElement c = FieldFromU256(RandomFieldElement(&rng));
    EXPECT_TRUE(FieldEqual(FieldMul(a, b), FieldMul(b, a)));
    EXPECT_TRUE(FieldEqual(FieldMul(a, FieldAdd(b, c)),
                           FieldAdd(FieldMul(a, b), FieldMul(a, c))));
  }
}

TEST(FieldTest, SqrMatchesMul) {
  common::Rng rng(109);
  for (int i = 0; i < 50; ++i) {
    FieldElement a = FieldFromU256(RandomFieldElement(&rng));
    EXPECT_EQ(FieldSqr(a).n, FieldMul(a, a).n);
  }
}

TEST(FieldTest, InvIsMultiplicativeInverse) {
  common::Rng rng(111);
  for (int i = 0; i < 20; ++i) {
    U256 a = RandomFieldElement(&rng);
    if (a.IsZero()) continue;
    FieldElement fa = FieldFromU256(a);
    EXPECT_EQ(FieldToU256(FieldMul(fa, FieldInv(fa))), U256::One());
  }
}

TEST(FieldTest, PowMatchesRepeatedMul) {
  U256 a(12345);
  FieldElement expected(1);
  for (int e = 0; e < 20; ++e) {
    EXPECT_EQ(oracle::FieldPow(a, U256(static_cast<uint64_t>(e))),
              FieldToU256(expected));
    expected = FieldMul(expected, FieldFromU256(a));
  }
}

TEST(FieldTest, SqrtOfSquareRecoversRoot) {
  common::Rng rng(113);
  for (int i = 0; i < 20; ++i) {
    FieldElement a = FieldFromU256(RandomFieldElement(&rng));
    FieldElement root;
    ASSERT_TRUE(FieldSqrt(FieldSqr(a), &root));
    // Either a or -a.
    EXPECT_TRUE(FieldEqual(root, a) || FieldEqual(root, FieldNegate(a, 1)));
  }
}

TEST(FieldTest, SqrtRejectsNonResidues) {
  // Exactly half the non-zero elements are residues; find a non-residue.
  common::Rng rng(115);
  int rejected = 0;
  for (int i = 0; i < 40; ++i) {
    FieldElement a = FieldFromU256(RandomFieldElement(&rng));
    FieldElement root;
    if (!FieldSqrt(a, &root)) ++rejected;
  }
  EXPECT_GT(rejected, 5);  // ~20 expected
}

TEST(FieldTest, OpsAtLargestMagnitudesMatchOracle) {
  for (uint32_t m = 1; m <= kFieldMulMagnitude; ++m) {
    FieldElement a = AtMagnitude(m);
    FieldElement b = AtMagnitude(kFieldMulMagnitude + 1 - m);
    U256 va = Reduced(a);
    U256 vb = Reduced(b);
    FieldElement product = FieldMul(a, b);
    EXPECT_TRUE(FieldWithinMagnitude(product, 1)) << "m = " << m;
    EXPECT_EQ(FieldToU256(product), oracle::FieldMul(va, vb)) << "m = " << m;
    EXPECT_EQ(FieldToU256(FieldSqr(a)), oracle::FieldMul(va, va))
        << "m = " << m;
  }
  for (uint32_t m = 1; m < kFieldMaxMagnitude; ++m) {
    FieldElement a = AtMagnitude(m);
    FieldElement negated = FieldNegate(a, m);
    EXPECT_TRUE(FieldWithinMagnitude(negated, m + 1)) << "m = " << m;
    EXPECT_TRUE(FieldIsZero(FieldAdd(a, negated))) << "m = " << m;
    EXPECT_EQ(FieldToU256(negated),
              oracle::FieldSub(U256::Zero(), Reduced(a)))
        << "m = " << m;
  }
  for (uint32_t k = 1; k <= kFieldMaxMagnitude; ++k) {
    FieldElement a = AtMagnitude(kFieldMaxMagnitude / k);
    FieldElement scaled = FieldMulInt(a, k);
    EXPECT_EQ(FieldToU256(scaled), Reduced(scaled)) << "k = " << k;
    EXPECT_EQ(Reduced(scaled), oracle::FieldMul(Reduced(a), U256(k)))
        << "k = " << k;
  }
  FieldElement half = AtMagnitude(kFieldMaxMagnitude / 2);
  FieldElement sum = FieldAdd(half, half);
  EXPECT_TRUE(FieldWithinMagnitude(sum, kFieldMaxMagnitude));
  EXPECT_EQ(FieldToU256(sum),
            oracle::FieldAdd(Reduced(half), Reduced(half)));
  FieldElement top = AtMagnitude(kFieldMaxMagnitude);
  EXPECT_TRUE(FieldWithinMagnitude(FieldNormalizeWeak(top), 1));
  EXPECT_EQ(FieldToU256(top), Reduced(top));
  EXPECT_EQ(FieldToU256(FieldNormalizeWeak(top)), Reduced(top));
}

TEST(FieldTest, NonCanonicalEncodingsNormalize) {
  // Values in [p, 2^256) stand for v - p.
  common::Rng rng(121);
  std::vector<U256> above = {FieldPrime(), U256(~0ull, ~0ull, ~0ull, ~0ull)};
  for (int i = 0; i < 20; ++i) {
    U256 offset(rng.Next() % 0x1000003d1ull);
    U256 v;
    U256::Add(FieldPrime(), offset, &v);
    above.push_back(v);
  }
  for (const U256& v : above) {
    U256 want;
    U256::Sub(v, FieldPrime(), &want);
    FieldElement a = FieldFromU256(v);
    EXPECT_TRUE(FieldWithinMagnitude(a, 1));
    EXPECT_EQ(FieldToU256(a), want) << v.ToHex();
    EXPECT_EQ(FieldIsOdd(a), want.IsOdd()) << v.ToHex();
    EXPECT_TRUE(FieldEqual(a, FieldFromU256(want))) << v.ToHex();
    EXPECT_EQ(FieldToU256(FieldMul(a, a)),
              oracle::FieldMul(want, want)) << v.ToHex();
  }
  // Zero written as p and as 2p.
  FieldElement p = FieldFromU256(FieldPrime());
  FieldElement two_p = FieldAdd(p, p);
  for (const FieldElement& zero : {p, two_p}) {
    EXPECT_TRUE(FieldIsZero(zero));
    EXPECT_TRUE(FieldEqual(zero, FieldElement()));
    EXPECT_FALSE(FieldIsOdd(zero));
    EXPECT_EQ(FieldNormalize(zero).n, FieldElement().n);
    EXPECT_TRUE(FieldToU256(zero).IsZero());
    EXPECT_TRUE(FieldIsZero(FieldMul(zero, FieldElement(7))));
  }
  // p + 1 is one, and its parity is one's, not its limbs'.
  FieldElement p_plus_1 = FieldAdd(p, FieldElement(1));
  EXPECT_TRUE(FieldEqual(p_plus_1, FieldElement(1)));
  EXPECT_TRUE(FieldIsOdd(p_plus_1));
  EXPECT_FALSE(FieldIsZero(p_plus_1));
}

TEST(FieldTest, U256RoundTrip) {
  common::Rng rng(123);
  std::vector<U256> values = {U256::Zero(), U256::One()};
  U256 p_minus_1;
  U256::Sub(FieldPrime(), U256::One(), &p_minus_1);
  values.push_back(p_minus_1);
  for (int i = 0; i < 100; ++i) values.push_back(RandomFieldElement(&rng));
  for (const U256& v : values) {
    FieldElement a = FieldFromU256(v);
    EXPECT_EQ(FieldNormalize(a).n, a.n) << v.ToHex();
    EXPECT_EQ(Reduced(a), v) << v.ToHex();
    EXPECT_EQ(FieldToU256(a), v) << v.ToHex();
  }
}

// Random sequences of the lazy operations over a pool of elements, each
// result checked against the U256 oracle and against the magnitude the
// header promises for it. An operation whose inputs would exceed its
// magnitude rule runs on weakly normalized inputs instead.
TEST(FieldTest, RandomLazyChainsMatchOracle) {
  common::Rng rng(125);
  constexpr int kPool = 6;
  for (int chain = 0; chain < 40; ++chain) {
    FieldElement pool[kPool];
    U256 value[kPool];
    uint32_t magnitude[kPool];
    for (int i = 0; i < kPool; ++i) {
      U256 v(rng.Next(), rng.Next(), rng.Next(), rng.Next());
      pool[i] = FieldFromU256(v);
      value[i] = oracle::Mod(v, FieldPrime());
      magnitude[i] = 1;
    }
    auto weaken = [&](int i) {
      pool[i] = FieldNormalizeWeak(pool[i]);
      magnitude[i] = 1;
    };
    for (int step = 0; step < 200; ++step) {
      int i = static_cast<int>(rng.NextBounded(kPool));
      int j = static_cast<int>(rng.NextBounded(kPool));
      int out = static_cast<int>(rng.NextBounded(kPool));
      FieldElement r;
      U256 v;
      uint32_t m = 1;
      switch (rng.NextBounded(6)) {
        case 0:  // add
          if (magnitude[i] + magnitude[j] > kFieldMaxMagnitude) {
            weaken(i);
            weaken(j);
          }
          r = FieldAdd(pool[i], pool[j]);
          v = oracle::FieldAdd(value[i], value[j]);
          m = magnitude[i] + magnitude[j];
          break;
        case 1: {  // negate, sometimes at a larger stated magnitude
          if (magnitude[i] >= kFieldMaxMagnitude) weaken(i);
          uint32_t stated = magnitude[i] + static_cast<uint32_t>(
              rng.NextBounded(kFieldMaxMagnitude - magnitude[i]));
          r = FieldNegate(pool[i], stated);
          v = oracle::FieldSub(U256::Zero(), value[i]);
          m = stated + 1;
          break;
        }
        case 2: {  // small multiple
          uint32_t k = 1 + static_cast<uint32_t>(rng.NextBounded(8));
          if (k * magnitude[i] > kFieldMaxMagnitude) weaken(i);
          r = FieldMulInt(pool[i], k);
          v = oracle::FieldMul(value[i], U256(k));
          m = k * magnitude[i];
          break;
        }
        case 3:  // mul
          if (magnitude[i] > kFieldMulMagnitude) weaken(i);
          if (magnitude[j] > kFieldMulMagnitude) weaken(j);
          r = FieldMul(pool[i], pool[j]);
          v = oracle::FieldMul(value[i], value[j]);
          break;
        case 4:  // sqr
          if (magnitude[i] > kFieldMulMagnitude) weaken(i);
          r = FieldSqr(pool[i]);
          v = oracle::FieldMul(value[i], value[i]);
          break;
        default:  // weak normalization
          r = FieldNormalizeWeak(pool[i]);
          v = value[i];
          break;
      }
      ASSERT_TRUE(FieldWithinMagnitude(r, m))
          << "chain " << chain << " step " << step;
      ASSERT_EQ(Reduced(r), v) << "chain " << chain << " step " << step;
      ASSERT_EQ(FieldToU256(r), v) << "chain " << chain << " step " << step;
      pool[out] = r;
      value[out] = v;
      magnitude[out] = m;
    }
  }
}

TEST(ScalarTest, ScalarFieldBasics) {
  common::Rng rng(117);
  for (int i = 0; i < 50; ++i) {
    U256 a = ScalarReduce(U256(rng.Next(), rng.Next(), rng.Next(),
                               rng.Next()));
    U256 b = ScalarReduce(U256(rng.Next(), rng.Next(), rng.Next(),
                               rng.Next()));
    EXPECT_EQ(ScalarSub(ScalarAdd(a, b), b), a);
  }
}

TEST(ScalarTest, IsValidScalarBounds) {
  EXPECT_FALSE(oracle::IsValidScalar(U256::Zero()));
  EXPECT_TRUE(oracle::IsValidScalar(U256::One()));
  U256 n_minus_1;
  U256::Sub(GroupOrder(), U256::One(), &n_minus_1);
  EXPECT_TRUE(oracle::IsValidScalar(n_minus_1));
  EXPECT_FALSE(oracle::IsValidScalar(GroupOrder()));
}

}  // namespace
}  // namespace tokenmagic::crypto
