#include "analysis/diversity.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "common/rng.h"
#include "oracle/analysis_oracle.h"

namespace tokenmagic::analysis {
namespace {

using chain::DiversityRequirement;
using chain::HtIndex;
using chain::TokenId;
using chain::TxId;

HtIndex MakeIndex(std::vector<std::pair<TokenId, TxId>> pairs) {
  return HtIndex::FromPairs(pairs);
}

TEST(HtFrequenciesTest, CountsAndSortsDescending) {
  HtIndex idx = MakeIndex({{0, 10}, {1, 10}, {2, 10}, {3, 20}, {4, 30},
                           {5, 30}});
  auto freq = HtFrequencies(std::vector<TokenId>{0, 1, 2, 3, 4, 5}, idx);
  EXPECT_EQ(freq, (std::vector<int64_t>{3, 2, 1}));
}

TEST(HtFrequenciesTest, EmptyTokenSet) {
  HtIndex idx = MakeIndex({});
  EXPECT_TRUE(HtFrequencies(std::span<const TokenId>{}, idx).empty());
}

TEST(DistinctHtCountTest, Basics) {
  HtIndex idx = MakeIndex({{0, 1}, {1, 1}, {2, 2}});
  EXPECT_EQ(DistinctHtCount(std::vector<TokenId>{0, 1, 2}, idx), 2u);
  EXPECT_EQ(DistinctHtCount(std::vector<TokenId>{0, 1}, idx), 1u);
  EXPECT_EQ(DistinctHtCount(std::span<const TokenId>{}, idx), 0u);
}

// Paper Section 2.5 worked example: r3 = {t1, t3, t4}; t1, t3 from h1,
// t4 from h2 => frequencies {2, 1}.
TEST(RecursiveDiversityTest, PaperSection25Example) {
  std::vector<int64_t> freq = {2, 1};
  // (2, 1): q1 < 2 * (q1 + q2) => 2 < 2*3 = 6: satisfied.
  EXPECT_TRUE(SatisfiesRecursiveDiversity(freq, {2.0, 1}));
  // (3, 2): first condition on r3 itself: 2 < 3 * q2 = 3: satisfied.
  EXPECT_TRUE(SatisfiesRecursiveDiversity(freq, {3.0, 2}));
  // The DTRS {t1, t3}... wait, the DTRS has frequencies {1,1}; the failing
  // case in the paper is the DTRS's {2} vs (3,2): 2 >= 3*0.
  std::vector<int64_t> dtrs_freq = {2};
  EXPECT_FALSE(SatisfiesRecursiveDiversity(dtrs_freq, {3.0, 2}));
}

TEST(RecursiveDiversityTest, EmptyNeverSatisfies) {
  EXPECT_FALSE(SatisfiesRecursiveDiversity(std::vector<int64_t>{},
                                           {10.0, 1}));
}

TEST(RecursiveDiversityTest, EllOneComparesTopAgainstWholeSum) {
  // q1 < c * (q1 + ... + qθ).
  std::vector<int64_t> freq = {5, 3, 2};
  EXPECT_TRUE(SatisfiesRecursiveDiversity(freq, {0.51, 1}));   // 5 < 5.1
  EXPECT_FALSE(SatisfiesRecursiveDiversity(freq, {0.5, 1}));   // 5 == 5
}

TEST(RecursiveDiversityTest, EllBeyondThetaFails) {
  std::vector<int64_t> freq = {1, 1, 1};
  EXPECT_FALSE(SatisfiesRecursiveDiversity(freq, {100.0, 4}));
  EXPECT_TRUE(SatisfiesRecursiveDiversity(freq, {2.0, 3}));  // 1 < 2*1
}

TEST(RecursiveDiversityTest, StrictInequalityAtBoundary) {
  std::vector<int64_t> freq = {2, 2};
  // c=1, ell=2: 2 < 1*2 is false (strict).
  EXPECT_FALSE(SatisfiesRecursiveDiversity(freq, {1.0, 2}));
  EXPECT_TRUE(SatisfiesRecursiveDiversity(freq, {1.01, 2}));
}

TEST(RecursiveDiversityTest, UniformSingletonsAreMaximallyDiverse) {
  std::vector<int64_t> freq(40, 1);
  EXPECT_TRUE(SatisfiesRecursiveDiversity(freq, {0.2, 5}));  // 1 < 0.2*36
  EXPECT_TRUE(SatisfiesRecursiveDiversity(freq, {0.6, 38}));  // 1 < 0.6*3
  EXPECT_FALSE(SatisfiesRecursiveDiversity(freq, {0.6, 40}));  // 1 < 0.6*1?
}

TEST(RecursiveDiversityTest, TokenSetOverloadAgrees) {
  HtIndex idx = MakeIndex({{0, 1}, {1, 1}, {2, 2}, {3, 3}});
  std::vector<TokenId> tokens = {0, 1, 2, 3};
  DiversityRequirement req{1.5, 2};
  EXPECT_EQ(SatisfiesRecursiveDiversity(tokens, idx, req),
            SatisfiesRecursiveDiversity(HtFrequencies(tokens, idx), req));
}

TEST(DiversitySlackTest, NegativeIffSatisfied) {
  std::vector<int64_t> freq = {3, 2, 1};
  DiversityRequirement req{1.0, 2};
  // slack = 3 - 1*(2+1) = 0 -> not satisfied (needs strict <).
  EXPECT_DOUBLE_EQ(DiversitySlack(freq, req), 0.0);
  EXPECT_FALSE(SatisfiesRecursiveDiversity(freq, req));

  DiversityRequirement loose{2.0, 2};
  EXPECT_LT(DiversitySlack(freq, loose), 0.0);
  EXPECT_TRUE(SatisfiesRecursiveDiversity(freq, loose));

  DiversityRequirement tight{0.5, 2};
  EXPECT_GT(DiversitySlack(freq, tight), 0.0);
  EXPECT_FALSE(SatisfiesRecursiveDiversity(freq, tight));
}

TEST(DiversitySlackTest, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(DiversitySlack({}, {1.0, 1}), 0.0);
}

int SignOf(double x) { return (x > 0.0) - (x < 0.0); }

/// Sign of DiversitySlack(q1, tail) at c, checked against the bit-at-a-
/// time reference.
int SlackSign(int64_t q1, double c, int64_t tail) {
  int sign = SignOf(DiversitySlack(q1, tail, {c, 1}));
  EXPECT_EQ(sign, oracle::CompareSlackBitwise(q1, c, tail))
      << "q1 " << q1 << " c " << c << " tail " << tail;
  return sign;
}

// q_1 == c * tail exactly at c = 2^k for k in [-60, 60]: the slack is 0,
// one more q_1 token makes it positive and one more tail token negative.
TEST(DiversitySlackExactTest, PowerOfTwoBoundaries) {
  for (int k = -60; k <= 60; ++k) {
    SCOPED_TRACE(k);
    double c = std::ldexp(1.0, k);
    for (int64_t j : {1, 3, 4}) {
      int64_t q1 = k >= 0 ? j << k : j;
      int64_t tail = k >= 0 ? j : j << -k;
      EXPECT_EQ(SlackSign(q1, c, tail), 0);
      EXPECT_EQ(SlackSign(q1 + 1, c, tail), 1);
      EXPECT_EQ(SlackSign(q1, c, tail + 1), -1);
      EXPECT_EQ(SlackSign(q1 - 1, c, tail), -1);
    }
  }
}

// c = 1e300 scales the tail past 128 bits (the e > 0 overflow branch);
// the smallest subnormal scales q_1 past them instead.
TEST(DiversitySlackExactTest, ExtremeExponents) {
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  EXPECT_EQ(SlackSign(kMax, 1e300, 1), -1);
  EXPECT_EQ(SlackSign(1, 1e300, kMax), -1);
  EXPECT_EQ(SlackSign(0, 1e300, 1), -1);
  const double kTiny = std::numeric_limits<double>::denorm_min();
  EXPECT_EQ(SlackSign(1, kTiny, kMax), 1);
  EXPECT_EQ(SlackSign(0, kTiny, kMax), -1);
  EXPECT_EQ(SlackSign(kMax, kTiny, 1), 1);
}

// A c with a full 53-bit mantissa sheds nothing: 1 + 2^-52 and 2 - 2^-52
// still meet q_1 == c * tail exactly at tail = 2^52 * j.
TEST(DiversitySlackExactTest, FullMantissaBoundaries) {
  const int64_t kTwo52 = int64_t{1} << 52;
  const double kUp = 1.0 + std::ldexp(1.0, -52);
  const double kDown = 2.0 - std::ldexp(1.0, -52);
  for (int64_t j : {1, 2, 3}) {
    SCOPED_TRACE(j);
    EXPECT_EQ(SlackSign((kTwo52 + 1) * j, kUp, kTwo52 * j), 0);
    EXPECT_EQ(SlackSign((kTwo52 + 1) * j + 1, kUp, kTwo52 * j), 1);
    EXPECT_EQ(SlackSign((kTwo52 + 1) * j - 1, kUp, kTwo52 * j), -1);
    EXPECT_EQ(SlackSign((2 * kTwo52 - 1) * j, kDown, kTwo52 * j), 0);
    EXPECT_EQ(SlackSign((2 * kTwo52 - 1) * j - 1, kDown, kTwo52 * j), -1);
  }
}

// Random c over many binades and random (q_1, tail): the sign always
// matches the reference.
TEST(DiversitySlackExactTest, RandomSignsMatchBitwiseReference) {
  common::Rng rng(20261024);
  for (int i = 0; i < 20000; ++i) {
    double c = std::ldexp(
        1.0 + static_cast<double>(rng.NextBounded(uint64_t{1} << 52)) /
                  std::ldexp(1.0, 52),
        static_cast<int>(rng.NextBounded(160)) - 80);
    int64_t tail = static_cast<int64_t>(rng.NextBounded(uint64_t{1} << 40));
    int64_t q1 = rng.NextBounded(2) == 0
                     ? static_cast<int64_t>(rng.NextBounded(uint64_t{1} << 62))
                     : static_cast<int64_t>(std::llround(
                           std::min(c * static_cast<double>(tail), 1e18)));
    SlackSign(q1, c, tail);
  }
}

TEST(SlackIsExactTest, ShortDyadicCIsExact) {
  for (double c : {1.0, 2.0, 1.5, 0.75}) {
    EXPECT_TRUE(SlackIsExact(c, 1'000'000)) << c;
    EXPECT_TRUE(SlackIsExact(c, 0)) << c;
  }
  EXPECT_FALSE(SlackIsExact(0.6, 1'000'000));
  EXPECT_FALSE(SlackIsExact(0.6, 1));
  const int64_t kTwo53 = int64_t{1} << 53;
  EXPECT_TRUE(SlackIsExact(1.0, (int64_t{1} << 50)));
  EXPECT_FALSE(SlackIsExact(1.0, kTwo53 - 1));
  EXPECT_FALSE(SlackIsExact(1.0, kTwo53 / 2));
  EXPECT_FALSE(SlackIsExact(0.0, 10));
  EXPECT_FALSE(SlackIsExact(std::numeric_limits<double>::infinity(), 10));
}

// Under SlackIsExact the slack is the exact value, with no rounding and
// no nudge: for c = num / den (den a power of two) it equals
// (q_1 * den - num * tail) / den.
TEST(SlackIsExactTest, SlackIsTheExactValue) {
  struct Dyadic {
    int64_t num, den;
  };
  common::Rng rng(20261025);
  for (Dyadic c : {Dyadic{1, 2}, Dyadic{3, 4}, Dyadic{1, 1}, Dyadic{3, 2},
                   Dyadic{2, 1}, Dyadic{3, 1}}) {
    double cd = static_cast<double>(c.num) / static_cast<double>(c.den);
    ASSERT_TRUE(SlackIsExact(cd, 1'000'000));
    for (int i = 0; i < 2000; ++i) {
      int64_t q1 = static_cast<int64_t>(rng.NextBounded(1'000'001));
      int64_t tail = static_cast<int64_t>(rng.NextBounded(1'000'001));
      double exact = static_cast<double>(q1 * c.den - c.num * tail) /
                     static_cast<double>(c.den);
      ASSERT_EQ(DiversitySlack(q1, tail, {cd, 1}), exact)
          << q1 << " " << cd << " " << tail;
    }
  }
}

// Parameterized sweep over c for a fixed frequency profile: satisfaction
// must be monotone in c.
class DiversityCSweep : public ::testing::TestWithParam<double> {};

TEST_P(DiversityCSweep, MonotoneInC) {
  std::vector<int64_t> freq = {4, 3, 2, 2, 1};
  double c = GetParam();
  bool sat = SatisfiesRecursiveDiversity(freq, {c, 3});
  bool sat_higher = SatisfiesRecursiveDiversity(freq, {c + 0.5, 3});
  EXPECT_TRUE(!sat || sat_higher);  // sat => sat_higher
}

INSTANTIATE_TEST_SUITE_P(CValues, DiversityCSweep,
                         ::testing::Values(0.2, 0.4, 0.6, 0.8, 1.0, 1.5));

// Monotone in ell (larger ell is stricter).
class DiversityEllSweep : public ::testing::TestWithParam<int> {};

TEST_P(DiversityEllSweep, AntitoneInEll) {
  std::vector<int64_t> freq = {3, 2, 2, 1, 1, 1};
  int ell = GetParam();
  bool sat = SatisfiesRecursiveDiversity(freq, {1.0, ell});
  bool sat_looser = SatisfiesRecursiveDiversity(freq, {1.0, ell - 1});
  EXPECT_TRUE(!sat || sat_looser);  // sat at ell => sat at ell-1
}

INSTANTIATE_TEST_SUITE_P(EllValues, DiversityEllSweep,
                         ::testing::Values(2, 3, 4, 5, 6, 7));

TEST(HtIndexTest, FromBlockchainMapsSourceTx) {
  chain::Blockchain bc;
  bc.AddBlock(0, {2, 3});
  HtIndex idx = HtIndex::FromBlockchain(bc);
  EXPECT_EQ(idx.size(), 5u);
  EXPECT_EQ(idx.HtOf(0), 0u);
  EXPECT_EQ(idx.HtOf(1), 0u);
  EXPECT_EQ(idx.HtOf(2), 1u);
  EXPECT_TRUE(idx.Contains(4));
  EXPECT_FALSE(idx.Contains(5));
}

TEST(HtIndexTest, HtsOfPreservesOrderAndDuplicates) {
  HtIndex idx = MakeIndex({{0, 7}, {1, 8}});
  EXPECT_EQ(idx.HtsOf({1, 0, 1}), (std::vector<TxId>{8, 7, 8}));
}

}  // namespace
}  // namespace tokenmagic::analysis
