// Differential suite: the secp256k1 kernels, and the endomorphism split
// under them, against the from-scratch oracles in
// tests/oracle/crypto_oracle.h.
//
// Each scalar list aims at a boundary of one kernel: the wNAF recoding's
// carries (runs of ones, 2^k - 1, values near the group order and 2^256),
// the fixed window's all-zero and all-fifteen digits, and the zero digits
// between nonzero ones that both constant-time kernels add and discard.
// k = 0, k = n, lambda and 2^124*lambda mod n reach the constant-time
// kernels' accumulator offset: the product is the identity in the first
// two, and in the last two the first split half is zero where the second
// is not, the windows that took an identity shortcut before the offset.
// The point pairs cover the addition special cases the interleaved kernel
// can meet: P = Q, P = -Q and an identity operand. The split-boundary list
// aims at the endomorphism split every kernel but the comb runs first:
// scalars whose halves sit at 0, at +-1, near n/2 (where a half flips to
// its negation) and at the +-2^128 edge of the halves' range; the split
// itself is checked on it and on 100k random scalars.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "crypto/field.h"
#include "crypto/secp256k1.h"
#include "oracle/crypto_oracle.h"

namespace tokenmagic::crypto {
namespace {

U256 PowerOfTwo(int k) {
  U256 out;
  if (k < 256) out.limbs[k / 64] = uint64_t{1} << (k % 64);
  return out;
}

U256 PowerOfTwoMinusOne(int k) {
  U256 out;
  U256::Sub(PowerOfTwo(k), U256::One(), &out);  // wraps to 2^256 - 1
  return out;
}

// Every base-16 digit is 0 or 15, following the bits of `pattern` (one
// bit per limb-nibble, low nibble first).
U256 NibblePattern(uint64_t pattern) {
  U256 out;
  for (int w = 0; w < 64; ++w) {
    if ((pattern >> w) & 1) {
      out.limbs[w / 16] |= uint64_t{15} << (4 * (w % 16));
    }
  }
  return out;
}

std::vector<U256> EdgeScalars() {
  const U256& n = GroupOrder();
  U256 n_minus_1, n_minus_2;
  U256::Sub(n, U256(1), &n_minus_1);
  U256::Sub(n, U256(2), &n_minus_2);
  std::vector<U256> out = {U256::Zero(), U256::One(), U256(2), n_minus_1,
                           n_minus_2, PowerOfTwo(255), n};
  // wNAF carry boundaries: a run of ones turns into a carry that ripples
  // up to the next window, or past the top bit.
  for (int k : {4, 5, 7, 8, 9, 63, 64, 65, 127, 128, 129, 252, 255, 256}) {
    out.push_back(PowerOfTwoMinusOne(k));
    if (k < 256) out.push_back(PowerOfTwo(k));
  }
  // Fixed-window / comb digits all 0 or all 15.
  out.push_back(NibblePattern(0x5555555555555555ull));
  out.push_back(NibblePattern(0xaaaaaaaaaaaaaaaaull));
  out.push_back(NibblePattern(0x8000000000000001ull));
  out.push_back(NibblePattern(0x00000000ffffffffull));
  out.push_back(NibblePattern(0xffffffff00000000ull));
  // Split halves (0, 1) and (0, 2^124); see LambdaMultiplesHaveAZeroFirstHalf.
  out.push_back(EndomorphismLambda());
  out.push_back(ScalarMul(PowerOfTwo(124), EndomorphismLambda()));
  // Zero digits between nonzero ones, which the constant-time kernels add
  // against a stand-in entry and must discard: only the top and bottom
  // digits set; digits 1, 2, ..., 15, 1, ... in the even positions; one
  // digit at several positions; random digits with runs of 1..8 zeros.
  out.push_back(U256(0x3, 0, 0, 0xa000000000000000ull));
  U256 alternating;
  for (int w = 0; w < 64; w += 2) {
    uint64_t digit = 1 + static_cast<uint64_t>(w / 2) % 15;
    alternating.limbs[w / 16] |= digit << (4 * (w % 16));
  }
  out.push_back(alternating);
  for (int w : {1, 15, 16, 31, 32, 47, 62}) {
    U256 k;
    k.limbs[w / 16] = uint64_t{9} << (4 * (w % 16));
    out.push_back(k);
  }
  common::Rng rng(431);
  for (int i = 0; i < 4; ++i) {
    U256 k;
    for (int w = 63; w >= 0; w -= 2 + static_cast<int>(rng.Next() % 8)) {
      k.limbs[w / 16] |= (1 + rng.Next() % 15) << (4 * (w % 16));
    }
    out.push_back(k);
  }
  return out;
}

std::vector<U256> RandomScalars(uint64_t seed, int count) {
  common::Rng rng(seed);
  std::vector<U256> out;
  for (int i = 0; i < count; ++i) {
    U256 k(rng.Next(), rng.Next(), rng.Next(), rng.Next());
    out.push_back(i % 2 == 0 ? ScalarReduce(k) : k);
  }
  return out;
}

// A point with no known relation to G.
Point OtherPoint() {
  const std::string tag = "kernel-oracle";
  return Secp256k1::HashToPoint(reinterpret_cast<const uint8_t*>(tag.data()),
                                tag.size());
}

// oracle::Mul (one inversion per group operation) is tens of times slower
// than the kernels; memoize it per (point, k).
class OracleCache {
 public:
  const Point& Mul(const U256& k, const Point& p) {
    auto key = std::make_pair(p.ToString(), k.ToHex());
    auto it = cache_.find(key);
    if (it == cache_.end()) it = cache_.emplace(key, oracle::Mul(k, p)).first;
    return it->second;
  }

 private:
  std::map<std::pair<std::string, std::string>, Point> cache_;
};

std::vector<U256> AllScalars() {
  std::vector<U256> out = EdgeScalars();
  for (const U256& k : RandomScalars(401, 8)) out.push_back(k);
  return out;
}

TEST(KernelOracleTest, MulAndMulBaseMatchDoubleAndAdd) {
  OracleCache oracle;
  const Point& g = Secp256k1::Generator();
  const Point r = OtherPoint();
  for (const U256& k : AllScalars()) {
    EXPECT_EQ(Secp256k1::Mul(k, r), oracle.Mul(k, r)) << "k = " << k.ToHex();
    EXPECT_EQ(Secp256k1::Mul(k, g), oracle.Mul(k, g)) << "k = " << k.ToHex();
    EXPECT_EQ(Secp256k1::MulBase(k), oracle.Mul(k, g)) << "k = " << k.ToHex();
    EXPECT_TRUE(Secp256k1::Mul(k, Point::Infinity()).infinity);
  }
}

TEST(KernelOracleTest, ConstantTimeKernelsMatchDoubleAndAdd) {
  OracleCache oracle;
  const Point& g = Secp256k1::Generator();
  const Point r = OtherPoint();
  for (const U256& k : AllScalars()) {
    EXPECT_EQ(Secp256k1::MulCT(k, r), oracle.Mul(k, r))
        << "k = " << k.ToHex();
    EXPECT_EQ(Secp256k1::MulCT(k, g), oracle.Mul(k, g))
        << "k = " << k.ToHex();
    EXPECT_EQ(Secp256k1::MulBaseCT(k), oracle.Mul(k, g))
        << "k = " << k.ToHex();
    EXPECT_TRUE(Secp256k1::MulCT(k, Point::Infinity()).infinity);
  }
}

TEST(KernelOracleTest, MulAddMatchesOracleOnSpecialPointPairs) {
  OracleCache oracle;
  const Point& g = Secp256k1::Generator();
  const Point r = OtherPoint();
  const Point neg_r = Secp256k1::Negate(r);
  const Point inf = Point::Infinity();
  struct Pair {
    const char* name;
    Point p;
    Point q;
  };
  const std::vector<Pair> pairs = {
      {"G, R", g, r},         {"R, G", r, g},
      {"R, R (P = Q)", r, r}, {"R, -R (P = -Q)", r, neg_r},
      {"G, G (P = Q)", g, g}, {"G, -G (P = -Q)", g, Secp256k1::Negate(g)},
      {"R, inf", r, inf},     {"G, inf", g, inf},
      {"inf, R", inf, r},
  };
  std::vector<U256> scalars = EdgeScalars();
  std::vector<U256> random = RandomScalars(409, 4);
  scalars.insert(scalars.end(), random.begin(), random.end());
  for (const Pair& pair : pairs) {
    for (size_t i = 0; i < scalars.size(); ++i) {
      // Same scalar on both sides (a*P + a*(-P) = identity), and a
      // rotating partner.
      const U256& a = scalars[i];
      for (const U256& b : {a, scalars[(i * 7 + 3) % scalars.size()]}) {
        Point expected =
            oracle::Add(oracle.Mul(a, pair.p), oracle.Mul(b, pair.q));
        EXPECT_EQ(Secp256k1::MulAdd(a, pair.p, b, pair.q), expected)
            << pair.name << ": a = " << a.ToHex() << ", b = " << b.ToHex();
      }
    }
  }
}

// -v mod n.
U256 Negated(const U256& v) { return SubMod(U256::Zero(), v, GroupOrder()); }

std::vector<U256> SplitBoundaryScalars() {
  const U256& n = GroupOrder();
  const U256& lambda = EndomorphismLambda();
  U256 n_minus_1, half_down, half_up, n_plus_1;
  U256::Sub(n, U256::One(), &n_minus_1);
  for (int i = 0; i < 4; ++i) {  // (n - 1) / 2
    half_down.limbs[i] = n_minus_1.limbs[i] >> 1;
    if (i < 3) half_down.limbs[i] |= n_minus_1.limbs[i + 1] << 63;
  }
  U256::Add(half_down, U256::One(), &half_up);
  U256::Add(n, U256::One(), &n_plus_1);
  std::vector<U256> out = {U256::Zero(),
                           U256::One(),
                           lambda,
                           Negated(lambda),
                           n_minus_1,
                           half_down,
                           half_up,
                           PowerOfTwoMinusOne(128),
                           PowerOfTwo(128),
                           n,
                           n_plus_1,
                           PowerOfTwoMinusOne(256)};
  // a + b*lambda for a, b in {0, +-1, +-2^127, +-(2^128 - 1)}.
  std::vector<U256> coefficients = {U256::Zero(), U256::One(),
                                    PowerOfTwo(127), PowerOfTwoMinusOne(128)};
  for (size_t i = 1; i < 4; ++i) {
    coefficients.push_back(Negated(coefficients[i]));
  }
  for (const U256& a : coefficients) {
    for (const U256& b : coefficients) {
      out.push_back(AddMod(a, oracle::MulMod(b, lambda, n), n));
    }
  }
  return out;
}

U256 Hex(const char* hex) {
  U256 out;
  EXPECT_TRUE(U256::FromHex(hex, &out)) << hex;
  return out;
}

// min(h, n - h): the magnitude a half is applied with.
U256 Magnitude(const U256& h) {
  U256 neg = Negated(h);
  return neg < h ? neg : h;
}

// k = k1 + k2*lambda (mod n), both halves reduced, and both magnitudes
// below 2^128 and within libsecp256k1's proved bounds (scalar_impl.h),
// which are tighter: a rounding step dropped from c1 keeps the halves
// below 2^128 but breaks them.
::testing::AssertionResult SplitIsValid(const U256& k) {
  static const U256 kK1Bound = Hex("a2a8918ca85bafe22016d0b917e4dd77");
  static const U256 kK2Bound = Hex("8a65287bd47179fb2be08846cea267ed");
  const U256& n = GroupOrder();
  U256 k1, k2;
  ScalarSplitLambda(k, &k1, &k2);
  if (!(k1 < n) || !(k2 < n)) {
    return ::testing::AssertionFailure() << "unreduced half";
  }
  U256 sum = AddMod(k1, oracle::MulMod(k2, EndomorphismLambda(), n), n);
  if (sum != oracle::Mod(k, n)) {
    return ::testing::AssertionFailure() << "k1 + k2*lambda != k (mod n)";
  }
  U256 m1 = Magnitude(k1);
  U256 m2 = Magnitude(k2);
  if (m1.HighestBit() >= 128 || m2.HighestBit() >= 128 || kK1Bound < m1 ||
      kK2Bound < m2) {
    return ::testing::AssertionFailure() << "|k1| = " << m1.ToHex()
                                         << ", |k2| = " << m2.ToHex();
  }
  return ::testing::AssertionSuccess();
}

TEST(ScalarSplitTest, EndomorphismConstantsAreCubeRootsOfUnity) {
  const U256& lambda = EndomorphismLambda();
  const U256& beta = EndomorphismBeta();
  EXPECT_EQ(lambda, Hex("5363ad4cc05c30e0a5261c028812645a"
                        "122e22ea20816678df02967c1b23bd72"));
  EXPECT_EQ(beta, Hex("7ae96a2b657c07106e64479eac3434e9"
                      "9cf0497512f58995c1396c28719501ee"));
  const U256& n = GroupOrder();
  const U256& p = FieldPrime();
  EXPECT_NE(lambda, U256::One());
  EXPECT_NE(beta, U256::One());
  EXPECT_EQ(oracle::MulMod(oracle::MulMod(lambda, lambda, n), lambda, n),
            U256::One());
  EXPECT_EQ(oracle::MulMod(oracle::MulMod(beta, beta, p), beta, p),
            U256::One());
  // LambdaMultipleIsTheEndomorphism checks that this beta, not the other
  // cube root, is the one that goes with this lambda.
}

TEST(ScalarSplitTest, KnownAnswers) {
  // Computed independently: the reduced lattice basis from the extended
  // Euclidean algorithm on (n, lambda), then k2 = c1*(-b1) + c2*(-b2) with
  // c1, c2 rounded to nearest. The last three scalars round both c1 and
  // c2 up.
  struct Case {
    const char* k;
    const char* k1;
    const char* k2;
  };
  const Case cases[] = {
      {"1", "1", "0"},
      {"5363ad4cc05c30e0a5261c028812645a122e22ea20816678df02967c1b23bd72",
       "0", "1"},
      {"100000000000000000000000000000000",
       "fffffffffffffffffffffffffffffffea5e48bef0665ac4568114dff32f17169",
       "fffffffffffffffffffffffffffffffe8a280ac50774346dd765cda83db1562c"},
      {"ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
       "3086d221a7d46bcde86c90e59284eee6",
       "fffffffffffffffffffffffffffffffe8a280ac50774346dd765cda83db1562c"},
      {"795b929e9a9a80fdea7b5bf55eb561a4216363698b529b4a97b750923ceb3ffd",
       "fffffffffffffffffffffffffffffffe3d574699d75e070a956aa0807c0d8a5c",
       "26373813e38943b862a7bcae481822a9"},
      {"8a7d43b578633074b7970386fee29476311624273bfd1d338d0038ec42650644",
       "fffffffffffffffffffffffffffffffe7b7d6a8e5251624410715d5d3c377c87",
       "1ce85f88df6a86d58ac28b802e29797c"},
      {"6d4b9adbebcd1f5ec9c18070b6d13089633a50eee0f9e038eb8f624fb804d820",
       "fffffffffffffffffffffffffffffffe5829fcdd4fc05ee3981d0c5e4c596416",
       "fffffffffffffffffffffffffffffffeb7f7321327cad456eca9d37324dfc67a"},
  };
  for (const Case& c : cases) {
    U256 k1, k2;
    ScalarSplitLambda(Hex(c.k), &k1, &k2);
    EXPECT_EQ(k1, Hex(c.k1)) << "k = " << c.k;
    EXPECT_EQ(k2, Hex(c.k2)) << "k = " << c.k;
  }
}

// The edge scalars lambda and 2^124*lambda: in the top window where either
// half has a nonzero digit, the first half's digit is zero.
TEST(ScalarSplitTest, LambdaMultiplesHaveAZeroFirstHalf) {
  U256 k1, k2;
  ScalarSplitLambda(EndomorphismLambda(), &k1, &k2);
  EXPECT_EQ(k1, U256::Zero());
  EXPECT_EQ(k2, U256::One());
  ScalarSplitLambda(ScalarMul(PowerOfTwo(124), EndomorphismLambda()), &k1,
                    &k2);
  EXPECT_EQ(k1, U256::Zero());
  EXPECT_EQ(k2, PowerOfTwo(124));
}

TEST(ScalarSplitTest, BoundaryScalars) {
  for (const U256& k : SplitBoundaryScalars()) {
    EXPECT_TRUE(SplitIsValid(k)) << "k = " << k.ToHex();
  }
}

TEST(ScalarSplitTest, RandomScalars) {
  common::Rng rng(1913);
  for (int i = 0; i < 100000; ++i) {
    U256 k(rng.Next(), rng.Next(), rng.Next(), rng.Next());
    ASSERT_TRUE(SplitIsValid(k)) << "k = " << k.ToHex();
  }
}

// phi(P) = (beta*x, y).
Point Phi(const Point& p) {
  Point out = p;
  out.x = oracle::FieldMul(p.x, EndomorphismBeta());
  return out;
}

TEST(KernelOracleTest, LambdaMultipleIsTheEndomorphism) {
  const U256& lambda = EndomorphismLambda();
  const Point& g = Secp256k1::Generator();
  // The pairing of beta with lambda, independent of the kernels.
  EXPECT_EQ(oracle::Mul(lambda, g), Phi(g));
  EXPECT_EQ(Secp256k1::Mul(lambda, g), Phi(g));
  EXPECT_EQ(Secp256k1::MulCT(lambda, g), Phi(g));
  common::Rng rng(433);
  for (int i = 0; i < 8; ++i) {
    uint64_t seed = rng.Next();
    Point p = Secp256k1::HashToPoint(reinterpret_cast<const uint8_t*>(&seed),
                                     sizeof(seed));
    EXPECT_EQ(Secp256k1::Mul(lambda, p), Phi(p)) << p.ToString();
    EXPECT_EQ(Secp256k1::MulCT(lambda, p), Phi(p)) << p.ToString();
  }
}

TEST(KernelOracleTest, SplitBoundaryScalarsMatchDoubleAndAdd) {
  OracleCache oracle;
  const Point& g = Secp256k1::Generator();
  const Point r = OtherPoint();
  const std::vector<U256> scalars = SplitBoundaryScalars();
  for (const U256& k : scalars) {
    EXPECT_EQ(Secp256k1::Mul(k, r), oracle.Mul(k, r)) << "k = " << k.ToHex();
    EXPECT_EQ(Secp256k1::MulBase(k), oracle.Mul(k, g)) << "k = " << k.ToHex();
    EXPECT_EQ(Secp256k1::MulCT(k, r), oracle.Mul(k, r))
        << "k = " << k.ToHex();
    EXPECT_EQ(Secp256k1::MulCT(k, g), oracle.Mul(k, g))
        << "k = " << k.ToHex();
  }
  for (size_t i = 0; i < scalars.size(); ++i) {
    const U256& a = scalars[i];
    const U256& b = scalars[(i * 5 + 1) % scalars.size()];
    EXPECT_EQ(Secp256k1::MulAdd(a, g, b, r),
              oracle::Add(oracle.Mul(a, g), oracle.Mul(b, r)))
        << "a = " << a.ToHex() << ", b = " << b.ToHex();
    EXPECT_EQ(Secp256k1::MulAdd(a, r, b, g),
              oracle::Add(oracle.Mul(a, r), oracle.Mul(b, g)))
        << "a = " << a.ToHex() << ", b = " << b.ToHex();
  }
}

std::vector<U256> FieldSamples() {
  const U256& p = FieldPrime();
  U256 p_minus_1, p_minus_2;
  U256::Sub(p, U256(1), &p_minus_1);
  U256::Sub(p, U256(2), &p_minus_2);
  std::vector<U256> out = {U256::One(), U256(2), U256(3), U256(7), p_minus_1,
                           p_minus_2, PowerOfTwo(255), PowerOfTwoMinusOne(128)};
  common::Rng rng(419);
  for (int i = 0; i < 24; ++i) {
    U256 v(rng.Next(), rng.Next(), rng.Next(), rng.Next());
    out.push_back(oracle::Mod(v, p));
  }
  return out;
}

TEST(KernelOracleTest, FieldInvMatchesFermatPower) {
  for (const U256& a : FieldSamples()) {
    if (a.IsZero()) continue;
    EXPECT_EQ(FieldToU256(FieldInv(FieldFromU256(a))), oracle::FieldInv(a))
        << "a = " << a.ToHex();
  }
}

TEST(KernelOracleTest, FieldSqrtMatchesFermatPowerOnResiduesAndNonResidues) {
  int residues = 0, non_residues = 0;
  std::vector<U256> samples = FieldSamples();
  samples.push_back(U256::Zero());
  for (const U256& a : samples) {
    for (const U256& v : {a, oracle::FieldMul(a, a)}) {
      FieldElement got;
      U256 want;
      bool got_ok = FieldSqrt(FieldFromU256(v), &got);
      bool want_ok = oracle::FieldSqrt(v, &want);
      ASSERT_EQ(got_ok, want_ok) << "v = " << v.ToHex();
      if (got_ok) {
        EXPECT_EQ(FieldToU256(got), want) << "v = " << v.ToHex();
        ++residues;
      } else {
        ++non_residues;
      }
    }
  }
  // -1 and 7 are non-residues mod p (p ≡ 3 mod 4; x^3 + 7 has no root
  // at x = 0), so both branches always run.
  EXPECT_GT(non_residues, 2);
  EXPECT_GT(residues, 2);
}

}  // namespace
}  // namespace tokenmagic::crypto
