// Secret-material hygiene: key zeroization on destruction and the
// constant-time scalar-multiplication path used by LSAG signing.

#include <gtest/gtest.h>

#include <cstring>
#include <new>
#include <string_view>

#include "common/rng.h"
#include "crypto/field.h"
#include "crypto/keys.h"
#include "crypto/lsag.h"
#include "crypto/memzero.h"
#include "crypto/secp256k1.h"
#include "oracle/crypto_oracle.h"

namespace tokenmagic::crypto {
namespace {

TEST(SecureWipeTest, ZeroizesEveryByte) {
  unsigned char buf[64];
  std::memset(buf, 0xAB, sizeof(buf));
  SecureWipe(buf, sizeof(buf));
  for (unsigned char b : buf) EXPECT_EQ(b, 0);
}

TEST(SecureWipeTest, ZeroLengthIsANoop) {
  unsigned char sentinel = 0x5A;
  SecureWipe(&sentinel, 0);
  EXPECT_EQ(sentinel, 0x5A);
}

// Destroys a Keypair in caller-owned storage and inspects the raw bytes
// afterwards: the secret scalar must be gone. Reading the storage after the
// destructor is fine here because the buffer itself stays alive and we only
// ever look at it as raw bytes.
TEST(KeypairHygieneTest, SecretIsZeroizedOnDestruction) {
  alignas(Keypair) unsigned char storage[sizeof(Keypair)];
  common::Rng rng(2024);
  Keypair* kp = new (storage) Keypair(Keypair::Generate(&rng));
  ASSERT_FALSE(kp->secret.IsZero());

  // Locate the secret's bytes inside the object before destroying it.
  const size_t offset =
      reinterpret_cast<unsigned char*>(&kp->secret) - storage;
  ASSERT_LE(offset + sizeof(U256), sizeof(Keypair));

  kp->~Keypair();
  for (size_t i = 0; i < sizeof(kp->secret.limbs); ++i) {
    EXPECT_EQ(storage[offset + i], 0) << "secret byte " << i << " survived";
  }
}

TEST(KeypairHygieneTest, CopiesWipeIndependently) {
  common::Rng rng(7);
  Keypair original = Keypair::Generate(&rng);
  alignas(Keypair) unsigned char storage[sizeof(Keypair)];
  Keypair* copy = new (storage) Keypair(original);
  ASSERT_EQ(copy->secret, original.secret);
  copy->~Keypair();
  // The original must be untouched by the copy's wipe.
  EXPECT_FALSE(original.secret.IsZero());
}

// The constant-time kernels must agree with the double-and-add oracle on
// every scalar shape that exercises a distinct code path: zero, one, small,
// high-bit-set, and random full-width scalars.
TEST(ConstantTimeMulTest, MatchesVariableTimePath) {
  common::Rng rng(31337);
  const Point& g = Secp256k1::Generator();
  constexpr std::string_view kTag = "ct-test-point";
  Point p = Secp256k1::HashToPoint(
      reinterpret_cast<const uint8_t*>(kTag.data()), kTag.size());

  std::vector<U256> scalars = {
      U256::Zero(), U256::One(), U256(2), U256(3), U256(255),
      ScalarSub(U256::Zero(), U256::One()),  // n - 1
  };
  for (int i = 0; i < 8; ++i) {
    U256 k;
    for (auto& limb : k.limbs) limb = rng.Next();
    scalars.push_back(ScalarReduce(k));
  }

  for (const U256& k : scalars) {
    EXPECT_EQ(Secp256k1::MulCT(k, p), oracle::Mul(k, p))
        << "k = " << k.ToHex();
    EXPECT_EQ(Secp256k1::MulBaseCT(k), oracle::Mul(k, g))
        << "k = " << k.ToHex();
  }
  EXPECT_EQ(Secp256k1::MulCT(U256::One(), g), g);
  EXPECT_TRUE(Secp256k1::MulCT(U256::Zero(), p).infinity);
}

TEST(ConstantTimeMulTest, IdentityInputStaysIdentity) {
  U256 k(12345);
  EXPECT_TRUE(Secp256k1::MulCT(k, Point::Infinity()).infinity);
}

// Signing must produce identical signatures through the constant-time path
// given identical randomness: determinism guards against the kernels
// silently diverging from the old Mul-based signer.
TEST(ConstantTimeMulTest, SigningIsDeterministicPerSeed) {
  common::Rng key_rng(5);
  std::vector<Keypair> keys;
  std::vector<Point> ring;
  for (int i = 0; i < 4; ++i) {
    keys.push_back(Keypair::Generate(&key_rng));
    ring.push_back(keys.back().pub);
  }
  common::Rng rng_a(77);
  common::Rng rng_b(77);
  auto sig_a = Lsag::Sign(ring, 1, keys[1], "determinism", &rng_a);
  auto sig_b = Lsag::Sign(ring, 1, keys[1], "determinism", &rng_b);
  ASSERT_TRUE(sig_a.ok());
  ASSERT_TRUE(sig_b.ok());
  EXPECT_EQ(sig_a->c0, sig_b->c0);
  EXPECT_EQ(sig_a->key_image, sig_b->key_image);
  EXPECT_EQ(sig_a->responses.size(), sig_b->responses.size());
  for (size_t i = 0; i < sig_a->responses.size(); ++i) {
    EXPECT_EQ(sig_a->responses[i], sig_b->responses[i]);
  }
}

}  // namespace
}  // namespace tokenmagic::crypto
