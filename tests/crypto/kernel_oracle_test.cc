// Differential suite: the secp256k1 kernels against the from-scratch
// oracles in tests/oracle/crypto_oracle.h.
//
// Each scalar list aims at a boundary of one kernel: the wNAF recoding's
// carries (runs of ones, 2^k - 1, values near the group order and 2^256),
// the fixed window's all-zero and all-fifteen digits, and the zero digits
// between nonzero ones that both constant-time kernels add and discard.
// The point pairs cover the addition special cases the interleaved kernel
// can meet: P = Q, P = -Q and an identity operand.
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
    EXPECT_EQ(FieldInv(a), oracle::FieldInv(a)) << "a = " << a.ToHex();
  }
}

TEST(KernelOracleTest, FieldSqrtMatchesFermatPowerOnResiduesAndNonResidues) {
  int residues = 0, non_residues = 0;
  std::vector<U256> samples = FieldSamples();
  samples.push_back(U256::Zero());
  for (const U256& a : samples) {
    for (const U256& v : {a, FieldMul(a, a)}) {
      U256 got, want;
      bool got_ok = FieldSqrt(v, &got);
      bool want_ok = oracle::FieldSqrt(v, &want);
      ASSERT_EQ(got_ok, want_ok) << "v = " << v.ToHex();
      if (got_ok) {
        EXPECT_EQ(got, want) << "v = " << v.ToHex();
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
