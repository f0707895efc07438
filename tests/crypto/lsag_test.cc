#include "crypto/lsag.h"

#include <gtest/gtest.h>

#include "crypto/field.h"
#include "oracle/crypto_oracle.h"

namespace tokenmagic::crypto {
namespace {

struct RingFixture {
  std::vector<Keypair> keys;
  std::vector<Point> ring;

  explicit RingFixture(size_t n, uint64_t seed = 99) {
    common::Rng rng(seed);
    for (size_t i = 0; i < n; ++i) {
      keys.push_back(Keypair::Generate(&rng));
      ring.push_back(keys.back().pub);
    }
  }
};

TEST(LsagTest, SignVerifyRoundTrip) {
  RingFixture fx(4);
  common::Rng rng(1);
  auto sig = Lsag::Sign(fx.ring, 2, fx.keys[2], "spend token 42", &rng);
  ASSERT_TRUE(sig.ok());
  EXPECT_TRUE(Lsag::Verify(*sig, "spend token 42"));
}

TEST(LsagTest, EverySignerIndexVerifies) {
  RingFixture fx(5);
  common::Rng rng(2);
  for (size_t j = 0; j < fx.ring.size(); ++j) {
    auto sig = Lsag::Sign(fx.ring, j, fx.keys[j], "msg", &rng);
    ASSERT_TRUE(sig.ok()) << "signer " << j;
    EXPECT_TRUE(Lsag::Verify(*sig, "msg")) << "signer " << j;
  }
}

TEST(LsagTest, WrongMessageRejected) {
  RingFixture fx(3);
  common::Rng rng(3);
  auto sig = Lsag::Sign(fx.ring, 0, fx.keys[0], "original", &rng);
  ASSERT_TRUE(sig.ok());
  EXPECT_FALSE(Lsag::Verify(*sig, "forged"));
}

TEST(LsagTest, TamperedResponseRejected) {
  RingFixture fx(3);
  common::Rng rng(4);
  auto sig = Lsag::Sign(fx.ring, 1, fx.keys[1], "msg", &rng);
  ASSERT_TRUE(sig.ok());
  LsagSignature bad = *sig;
  bad.responses[0] = ScalarAdd(bad.responses[0], U256::One());
  EXPECT_FALSE(Lsag::Verify(bad, "msg"));
}

TEST(LsagTest, TamperedC0Rejected) {
  RingFixture fx(3);
  common::Rng rng(5);
  auto sig = Lsag::Sign(fx.ring, 1, fx.keys[1], "msg", &rng);
  ASSERT_TRUE(sig.ok());
  LsagSignature bad = *sig;
  bad.c0 = ScalarAdd(bad.c0, U256::One());
  EXPECT_FALSE(Lsag::Verify(bad, "msg"));
}

TEST(LsagTest, SwappedKeyImageRejected) {
  RingFixture fx(3);
  common::Rng rng(6);
  auto sig1 = Lsag::Sign(fx.ring, 0, fx.keys[0], "msg", &rng);
  auto sig2 = Lsag::Sign(fx.ring, 1, fx.keys[1], "msg", &rng);
  ASSERT_TRUE(sig1.ok());
  ASSERT_TRUE(sig2.ok());
  LsagSignature frankenstein = *sig1;
  frankenstein.key_image = sig2->key_image;
  EXPECT_FALSE(Lsag::Verify(frankenstein, "msg"));
}

TEST(LsagTest, RingMembershipIsBound) {
  RingFixture fx(3);
  common::Rng rng(7);
  auto sig = Lsag::Sign(fx.ring, 0, fx.keys[0], "msg", &rng);
  ASSERT_TRUE(sig.ok());
  // Replacing a ring member invalidates the signature.
  LsagSignature bad = *sig;
  common::Rng rng2(8);
  bad.ring[2] = Keypair::Generate(&rng2).pub;
  EXPECT_FALSE(Lsag::Verify(bad, "msg"));
}

TEST(LsagTest, SameKeySignaturesAreLinked) {
  RingFixture fx(4);
  common::Rng rng(9);
  // Same signer, two different rings/messages: key image must match.
  RingFixture fx2(4, 123);
  std::vector<Point> other_ring = fx2.ring;
  other_ring[1] = fx.keys[2].pub;
  auto sig1 = Lsag::Sign(fx.ring, 2, fx.keys[2], "first spend", &rng);
  auto sig2 = Lsag::Sign(other_ring, 1, fx.keys[2], "second spend", &rng);
  ASSERT_TRUE(sig1.ok());
  ASSERT_TRUE(sig2.ok());
  EXPECT_TRUE(Lsag::Linked(*sig1, *sig2));
}

TEST(LsagTest, DifferentKeysAreNotLinked) {
  RingFixture fx(4);
  common::Rng rng(10);
  auto sig1 = Lsag::Sign(fx.ring, 0, fx.keys[0], "a", &rng);
  auto sig2 = Lsag::Sign(fx.ring, 1, fx.keys[1], "b", &rng);
  ASSERT_TRUE(sig1.ok());
  ASSERT_TRUE(sig2.ok());
  EXPECT_FALSE(Lsag::Linked(*sig1, *sig2));
}

TEST(LsagTest, SignatureDoesNotRevealSignerIndex) {
  // Structural check: responses are all in-range scalars and the
  // signature layout is independent of the signer position.
  RingFixture fx(6);
  common::Rng rng(11);
  for (size_t j : {0u, 3u, 5u}) {
    auto sig = Lsag::Sign(fx.ring, j, fx.keys[j], "msg", &rng);
    ASSERT_TRUE(sig.ok());
    EXPECT_EQ(sig->responses.size(), fx.ring.size());
    for (const U256& s : sig->responses) {
      EXPECT_TRUE(s < GroupOrder());
    }
  }
}

TEST(LsagTest, RejectsInvalidArguments) {
  RingFixture fx(3);
  common::Rng rng(12);
  // Ring too small.
  std::vector<Point> tiny = {fx.ring[0]};
  EXPECT_TRUE(Lsag::Sign(tiny, 0, fx.keys[0], "m", &rng)
                  .status()
                  .IsInvalidArgument());
  // Signer index out of range.
  EXPECT_TRUE(Lsag::Sign(fx.ring, 9, fx.keys[0], "m", &rng)
                  .status()
                  .IsInvalidArgument());
  // Mismatched signer key.
  EXPECT_TRUE(Lsag::Sign(fx.ring, 0, fx.keys[1], "m", &rng)
                  .status()
                  .IsInvalidArgument());
}

TEST(LsagTest, VerifyRejectsMalformedStructures) {
  RingFixture fx(3);
  common::Rng rng(13);
  auto sig = Lsag::Sign(fx.ring, 0, fx.keys[0], "m", &rng);
  ASSERT_TRUE(sig.ok());
  LsagSignature bad = *sig;
  bad.responses.pop_back();
  EXPECT_FALSE(Lsag::Verify(bad, "m"));
  bad = *sig;
  bad.key_image = Point::Infinity();
  EXPECT_FALSE(Lsag::Verify(bad, "m"));
  bad = *sig;
  bad.c0 = U256::Zero();
  EXPECT_FALSE(Lsag::Verify(bad, "m"));
}

TEST(KeyImageRegistryTest, DetectsDoubleSpend) {
  RingFixture fx(3);
  common::Rng rng(14);
  auto sig1 = Lsag::Sign(fx.ring, 0, fx.keys[0], "first", &rng);
  ASSERT_TRUE(sig1.ok());
  KeyImageRegistry registry;
  EXPECT_TRUE(registry.Register(sig1->key_image).ok());
  EXPECT_TRUE(registry.Contains(sig1->key_image));
  // Second spend with the same key (different ring) is rejected.
  auto sig2 = Lsag::Sign(fx.ring, 0, fx.keys[0], "second", &rng);
  ASSERT_TRUE(sig2.ok());
  auto st = registry.Register(sig2->key_image);
  EXPECT_EQ(st.code(), common::StatusCode::kAlreadyExists);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(KeyImageRegistryTest, DistinctKeysCoexist) {
  RingFixture fx(3);
  common::Rng rng(15);
  KeyImageRegistry registry;
  for (size_t j = 0; j < 3; ++j) {
    auto sig = Lsag::Sign(fx.ring, j, fx.keys[j], "m", &rng);
    ASSERT_TRUE(sig.ok());
    EXPECT_TRUE(registry.Register(sig->key_image).ok());
  }
  EXPECT_EQ(registry.size(), 3u);
}

// Ring-size sweep: sign/verify across the sizes used in the examples and
// benchmarks (Monero's default 11 included).
class LsagRingSizeSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(LsagRingSizeSweep, SignVerifyAtSize) {
  size_t n = GetParam();
  RingFixture fx(n, 1000 + n);
  common::Rng rng(2000 + n);
  size_t signer = n / 2;
  auto sig = Lsag::Sign(fx.ring, signer, fx.keys[signer], "sweep", &rng);
  ASSERT_TRUE(sig.ok());
  EXPECT_TRUE(Lsag::Verify(*sig, "sweep"));
  EXPECT_FALSE(Lsag::Verify(*sig, "other"));
}

INSTANTIATE_TEST_SUITE_P(Sizes, LsagRingSizeSweep,
                         ::testing::Values(2, 3, 5, 8, 11, 16));

TEST(KeypairTest, GenerateProducesValidKeys) {
  common::Rng rng(9);
  for (int i = 0; i < 10; ++i) {
    Keypair key = Keypair::Generate(&rng);
    EXPECT_TRUE(oracle::IsValidScalar(key.secret));
    EXPECT_TRUE(Secp256k1::IsOnCurve(key.pub));
    EXPECT_EQ(key.pub, Secp256k1::MulBase(key.secret));
  }
}

}  // namespace
}  // namespace tokenmagic::crypto
