// Unit tests for the branch-free constant-time primitives (crypto/ct.h).
// Functional correctness only — the timing property itself is enforced
// by tm_ct (static) and the poisoned-secret harness (dynamic).

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "common/rng.h"
#include "crypto/ct.h"
#include "crypto/field.h"
#include "crypto/u256.h"
#include "oracle/crypto_oracle.h"

namespace tokenmagic::crypto {
namespace {

TEST(CtEqualsTest, EqualSpans) {
  std::array<uint8_t, 32> a{}, b{};
  for (size_t i = 0; i < a.size(); ++i) a[i] = b[i] = uint8_t(i * 7 + 3);
  EXPECT_TRUE(CtEquals(a, b));
}

TEST(CtEqualsTest, DetectsDifferenceAtEveryPosition) {
  std::array<uint8_t, 16> a{}, b{};
  for (size_t i = 0; i < a.size(); ++i) {
    b = a;
    b[i] ^= 0x80;
    EXPECT_FALSE(CtEquals(a, b)) << "difference at byte " << i << " missed";
  }
}

TEST(CtEqualsTest, LengthMismatchIsFalse) {
  std::array<uint8_t, 4> a{};
  std::array<uint8_t, 5> b{};
  EXPECT_FALSE(CtEquals(a, b));
}

TEST(CtEqualsTest, EmptySpansAreEqual) {
  EXPECT_TRUE(CtEquals({}, {}));
}

TEST(CtSelectTest, SelectsByCondition) {
  U256 t(11), f(22);
  EXPECT_EQ(CtSelect(1, t, f), t);
  EXPECT_EQ(CtSelect(0, t, f), f);
  // Any non-zero condition counts as true, not just 1.
  EXPECT_EQ(CtSelect(0xdeadbeef, t, f), t);
}

TEST(CtIsZeroTest, ZeroAndNonZero) {
  EXPECT_EQ(CtIsZero(U256::Zero()), 1u);
  EXPECT_EQ(CtIsZero(U256::One()), 0u);
  U256 high_only(0, 0, 0, 1);
  EXPECT_EQ(CtIsZero(high_only), 0u);
}

TEST(CtLessTest, MatchesCompare) {
  common::Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    U256 a, b;
    for (auto& limb : a.limbs) limb = rng.Next();
    for (auto& limb : b.limbs) limb = rng.Next();
    EXPECT_EQ(CtLess(a, b), a < b ? 1u : 0u);
  }
  U256 x(5);
  EXPECT_EQ(CtLess(x, x), 0u) << "a < a must be false";
}

TEST(WipeScalarsTest, WipesEveryElement) {
  std::vector<U256> scalars(5, U256(0x1234));
  WipeScalars(scalars);
  for (const U256& s : scalars) EXPECT_TRUE(s.IsZero());
}

// The poisoning hooks must be safe no-ops in an uninstrumented build.
TEST(CtHooksTest, PoisonDeclassifyAreNoopsWithoutInstrumentation) {
  uint64_t value = 42;
  CtPoison(&value, sizeof(value));
  CtDeclassify(&value, sizeof(value));
  EXPECT_EQ(value, 42u);
}

// Cross-check the wide scalar reduction against the generic slow path:
// ScalarMul/ScalarReduce512 feed every signature, so a reduction bug
// would silently break unlinkability proofs rather than crash.
TEST(ScalarReduceTest, Reduce512MatchesMulMod) {
  common::Rng rng(4242);
  const U256& n = GroupOrder();
  for (int i = 0; i < 100; ++i) {
    U256 a, b;
    for (auto& limb : a.limbs) limb = rng.Next();
    for (auto& limb : b.limbs) limb = rng.Next();
    a = ScalarReduce(a);
    b = ScalarReduce(b);
    U512 wide = U256::Mul(a, b);
    EXPECT_EQ(ScalarReduce512(wide), oracle::MulMod(a, b, n));
    EXPECT_EQ(ScalarMul(a, b), oracle::MulMod(a, b, n));
  }
}

}  // namespace
}  // namespace tokenmagic::crypto
