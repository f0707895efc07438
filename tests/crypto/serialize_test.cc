#include "crypto/serialize.h"

#include <gtest/gtest.h>

#include "crypto/field.h"

namespace tokenmagic::crypto {
namespace {

LsagSignature MakeSignature(size_t ring_size, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<Keypair> keys;
  std::vector<Point> ring;
  for (size_t i = 0; i < ring_size; ++i) {
    keys.push_back(Keypair::Generate(&rng));
    ring.push_back(keys.back().pub);
  }
  auto sig = Lsag::Sign(ring, 0, keys[0], "serialize me", &rng);
  EXPECT_TRUE(sig.ok());
  return *sig;
}

TEST(SerializeLsagTest, RoundTripPreservesVerifiability) {
  LsagSignature sig = MakeSignature(5, 1);
  auto bytes = SerializeLsag(sig);
  auto restored = DeserializeLsag(bytes);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->ring.size(), 5u);
  EXPECT_EQ(restored->key_image, sig.key_image);
  EXPECT_EQ(restored->c0, sig.c0);
  EXPECT_EQ(restored->responses, sig.responses);
  EXPECT_TRUE(Lsag::Verify(*restored, "serialize me"));
  EXPECT_FALSE(Lsag::Verify(*restored, "other message"));
}

TEST(SerializeLsagTest, SizeIsExactlyAsDocumented) {
  for (size_t n : {2u, 11u}) {
    LsagSignature sig = MakeSignature(n, 7 + n);
    auto bytes = SerializeLsag(sig);
    EXPECT_EQ(bytes.size(), 1 + 4 + n * 33 + 33 + 32 + n * 32);
    EXPECT_EQ(bytes[0], kLsagMagic);
  }
}

TEST(SerializeLsagTest, RejectsWrongMagic) {
  auto bytes = SerializeLsag(MakeSignature(3, 2));
  bytes[0] = 0x00;
  EXPECT_FALSE(DeserializeLsag(bytes).ok());
}

TEST(SerializeLsagTest, RejectsTruncation) {
  auto bytes = SerializeLsag(MakeSignature(3, 3));
  bytes.pop_back();
  EXPECT_FALSE(DeserializeLsag(bytes).ok());
  EXPECT_FALSE(DeserializeLsag({}).ok());
  EXPECT_FALSE(DeserializeLsag({kLsagMagic, 1, 0, 0}).ok());
}

TEST(SerializeLsagTest, RejectsCorruptedPoint) {
  auto bytes = SerializeLsag(MakeSignature(3, 4));
  // Corrupt the first ring point's x-coordinate beyond repair: set the
  // prefix to an invalid value.
  bytes[5] = 0x07;
  EXPECT_FALSE(DeserializeLsag(bytes).ok());
}

TEST(SerializeLsagTest, RejectsOutOfRangeScalar) {
  LsagSignature sig = MakeSignature(2, 5);
  sig.responses[0] = GroupOrder();  // invalid on purpose
  auto bytes = SerializeLsag(sig);
  EXPECT_FALSE(DeserializeLsag(bytes).ok());
}

}  // namespace
}  // namespace tokenmagic::crypto
