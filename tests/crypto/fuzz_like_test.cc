// Deterministic fuzz-style batteries: randomized structural mutations
// that must never be accepted, and differential checks of the bigint
// arithmetic against independent reference computations.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "crypto/field.h"
#include "crypto/serialize.h"
#include "oracle/crypto_oracle.h"

namespace tokenmagic::crypto {
namespace {

TEST(SerializeFuzzTest, Everysingle0ByteFlipIsRejectedOrFailsVerify) {
  common::Rng rng(42);
  std::vector<Keypair> keys;
  std::vector<Point> ring;
  for (int i = 0; i < 3; ++i) {
    keys.push_back(Keypair::Generate(&rng));
    ring.push_back(keys.back().pub);
  }
  auto sig = Lsag::Sign(ring, 1, keys[1], "fuzz target", &rng);
  ASSERT_TRUE(sig.ok());
  auto bytes = SerializeLsag(*sig);
  ASSERT_TRUE(Lsag::Verify(*DeserializeLsag(bytes), "fuzz target"));

  // Flip one byte at a time through the whole blob: the result must
  // never deserialize into a signature that verifies.
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::vector<uint8_t> mutated = bytes;
    mutated[i] ^= 0x5a;
    auto parsed = DeserializeLsag(mutated);
    if (!parsed.ok()) continue;  // structurally rejected: fine
    EXPECT_FALSE(Lsag::Verify(*parsed, "fuzz target"))
        << "byte " << i << " flip produced a verifying signature";
  }
}

TEST(SerializeFuzzTest, RandomBlobsNeverCrash) {
  common::Rng rng(43);
  for (int trial = 0; trial < 200; ++trial) {
    size_t size = rng.NextBounded(300);
    std::vector<uint8_t> blob(size);
    for (auto& b : blob) b = static_cast<uint8_t>(rng.Next());
    // Must return an error or a structurally valid object — never crash.
    auto lsag = DeserializeLsag(blob);
    if (lsag.ok()) {
      EXPECT_FALSE(Lsag::Verify(*lsag, "random"));
    }
  }
}

TEST(U256FuzzTest, DivModIdentityAgainstRandomInputs) {
  // For random a, m: a mod m < m, and the 512-bit path agrees with the
  // 256-bit path when the input fits.
  common::Rng rng(44);
  for (int trial = 0; trial < 500; ++trial) {
    U256 a(rng.Next(), rng.Next(), rng.Next(), rng.Next());
    U256 m(rng.Next(), rng.Next(), rng.Next() & 0xff, 0);
    if (m.IsZero()) m = U256::One();
    U256 r = oracle::Mod(a, m);
    EXPECT_LT(U256::Compare(r, m), 0);
    U512 wide;
    for (int i = 0; i < 4; ++i) wide.limbs[i] = a.limbs[i];
    EXPECT_EQ(oracle::Mod(wide, m), r);
  }
}

TEST(U256FuzzTest, MulModDistributesOverAdd) {
  common::Rng rng(45);
  const U256& n = GroupOrder();
  for (int trial = 0; trial < 200; ++trial) {
    U256 a = ScalarReduce(U256(rng.Next(), rng.Next(), rng.Next(),
                               rng.Next()));
    U256 b = ScalarReduce(U256(rng.Next(), rng.Next(), rng.Next(),
                               rng.Next()));
    U256 c = ScalarReduce(U256(rng.Next(), rng.Next(), rng.Next(),
                               rng.Next()));
    // a*(b+c) == a*b + a*c  (mod n)
    U256 lhs = oracle::MulMod(a, AddMod(b, c, n), n);
    U256 rhs = AddMod(oracle::MulMod(a, b, n), oracle::MulMod(a, c, n), n);
    EXPECT_EQ(lhs, rhs);
  }
}

TEST(U256FuzzTest, FieldReduceIdempotentAndCanonical) {
  common::Rng rng(46);
  for (int trial = 0; trial < 300; ++trial) {
    // Random limbs anywhere within the largest magnitude.
    FieldElement x;
    for (int i = 0; i < 5; ++i) {
      uint64_t bound = 2 * kFieldMaxMagnitude *
                       (i < 4 ? 0xFFFFFFFFFFFFFull : 0x0FFFFFFFFFFFFull);
      x.n[i] = rng.Next() % (bound + 1);
    }
    FieldElement reduced = FieldNormalize(x);
    U256 value = FieldToU256(reduced);
    EXPECT_LT(U256::Compare(value, FieldPrime()), 0);
    EXPECT_EQ(FieldFromU256(value).n, reduced.n);
    // Normalizing the normalized value is the identity, and so is the
    // weak pass's value.
    EXPECT_EQ(FieldNormalize(reduced).n, reduced.n);
    EXPECT_EQ(FieldNormalize(FieldNormalizeWeak(x)).n, reduced.n);
  }
}

TEST(U256FuzzTest, AddSubCarryChainsRoundTrip) {
  common::Rng rng(47);
  for (int trial = 0; trial < 500; ++trial) {
    U256 a(rng.Next(), rng.Next(), rng.Next(), rng.Next());
    U256 b(rng.Next(), rng.Next(), rng.Next(), rng.Next());
    U256 sum, back;
    uint64_t carry = U256::Add(a, b, &sum);
    uint64_t borrow = U256::Sub(sum, b, &back);
    // (a + b) - b == a with matching carry/borrow bookkeeping.
    EXPECT_EQ(back, a);
    EXPECT_EQ(carry, borrow);
  }
}

TEST(PointFuzzTest, DecodeNeverAcceptsOffCurve) {
  common::Rng rng(48);
  size_t accepted = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::array<uint8_t, 33> enc;
    for (auto& b : enc) b = static_cast<uint8_t>(rng.Next());
    enc[0] = rng.NextBool() ? 0x02 : 0x03;
    auto point = Point::Decode(enc);
    if (point.has_value()) {
      ++accepted;
      EXPECT_TRUE(Secp256k1::IsOnCurve(*point));
    }
  }
  // Roughly half of random x values decode (quadratic residues); the
  // check above guarantees every accepted one is genuinely on-curve.
  EXPECT_GT(accepted, 50u);
}

}  // namespace
}  // namespace tokenmagic::crypto
