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

TEST(FieldTest, PrimeAndOrderAreTheStandardConstants) {
  EXPECT_EQ(FieldPrime().ToHex(),
            "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefff"
            "ffc2f");
  EXPECT_EQ(GroupOrder().ToHex(),
            "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd03"
            "64141");
}

TEST(FieldTest, ReduceMatchesGenericMod) {
  common::Rng rng(101);
  for (int i = 0; i < 300; ++i) {
    U256 a(rng.Next(), rng.Next(), rng.Next(), rng.Next());
    U256 b(rng.Next(), rng.Next(), rng.Next(), rng.Next());
    U512 product = U256::Mul(a, b);
    EXPECT_EQ(FieldReduce(product), oracle::Mod(product, FieldPrime()));
  }
}

TEST(FieldTest, ReduceHandlesExtremes) {
  // 0, p-1, p, p+1, and the all-ones 512-bit value.
  U512 zero;
  EXPECT_TRUE(FieldReduce(zero).IsZero());

  U512 extreme;
  for (auto& limb : extreme.limbs) limb = ~0ull;
  EXPECT_EQ(FieldReduce(extreme), oracle::Mod(extreme, FieldPrime()));

  U256 p_minus_1;
  U256::Sub(FieldPrime(), U256::One(), &p_minus_1);
  U512 w;
  for (int i = 0; i < 4; ++i) w.limbs[i] = p_minus_1.limbs[i];
  EXPECT_EQ(FieldReduce(w), p_minus_1);
  for (int i = 0; i < 4; ++i) w.limbs[i] = FieldPrime().limbs[i];
  EXPECT_TRUE(FieldReduce(w).IsZero());
}

TEST(FieldTest, AddSubRoundTrip) {
  common::Rng rng(103);
  for (int i = 0; i < 100; ++i) {
    U256 a = RandomFieldElement(&rng);
    U256 b = RandomFieldElement(&rng);
    EXPECT_EQ(FieldSub(FieldAdd(a, b), b), a);
  }
}

TEST(FieldTest, NegIsAdditiveInverse) {
  common::Rng rng(105);
  for (int i = 0; i < 100; ++i) {
    U256 a = RandomFieldElement(&rng);
    EXPECT_TRUE(FieldAdd(a, FieldNeg(a)).IsZero());
  }
  EXPECT_TRUE(FieldNeg(U256::Zero()).IsZero());
}

TEST(FieldTest, MulCommutesAndDistributes) {
  common::Rng rng(107);
  for (int i = 0; i < 50; ++i) {
    U256 a = RandomFieldElement(&rng);
    U256 b = RandomFieldElement(&rng);
    U256 c = RandomFieldElement(&rng);
    EXPECT_EQ(FieldMul(a, b), FieldMul(b, a));
    EXPECT_EQ(FieldMul(a, FieldAdd(b, c)),
              FieldAdd(FieldMul(a, b), FieldMul(a, c)));
  }
}

TEST(FieldTest, SqrMatchesMul) {
  common::Rng rng(109);
  for (int i = 0; i < 50; ++i) {
    U256 a = RandomFieldElement(&rng);
    EXPECT_EQ(FieldSqr(a), FieldMul(a, a));
  }
}

TEST(FieldTest, InvIsMultiplicativeInverse) {
  common::Rng rng(111);
  for (int i = 0; i < 20; ++i) {
    U256 a = RandomFieldElement(&rng);
    if (a.IsZero()) continue;
    EXPECT_EQ(FieldMul(a, FieldInv(a)), U256::One());
  }
}

TEST(FieldTest, PowMatchesRepeatedMul) {
  U256 a(12345);
  U256 expected = U256::One();
  for (int e = 0; e < 20; ++e) {
    EXPECT_EQ(oracle::FieldPow(a, U256(static_cast<uint64_t>(e))), expected);
    expected = FieldMul(expected, a);
  }
}

TEST(FieldTest, SqrtOfSquareRecoversRoot) {
  common::Rng rng(113);
  for (int i = 0; i < 20; ++i) {
    U256 a = RandomFieldElement(&rng);
    U256 square = FieldSqr(a);
    U256 root;
    ASSERT_TRUE(FieldSqrt(square, &root));
    // Either a or -a.
    EXPECT_TRUE(root == a || root == FieldNeg(a));
  }
}

TEST(FieldTest, SqrtRejectsNonResidues) {
  // Exactly half the non-zero elements are residues; find a non-residue.
  common::Rng rng(115);
  int rejected = 0;
  for (int i = 0; i < 40; ++i) {
    U256 a = RandomFieldElement(&rng);
    U256 root;
    if (!FieldSqrt(a, &root)) ++rejected;
  }
  EXPECT_GT(rejected, 5);  // ~20 expected
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
  EXPECT_FALSE(IsValidScalar(U256::Zero()));
  EXPECT_TRUE(IsValidScalar(U256::One()));
  U256 n_minus_1;
  U256::Sub(GroupOrder(), U256::One(), &n_minus_1);
  EXPECT_TRUE(IsValidScalar(n_minus_1));
  EXPECT_FALSE(IsValidScalar(GroupOrder()));
}

}  // namespace
}  // namespace tokenmagic::crypto
