#include "node/verifier.h"

#include <gtest/gtest.h>

#include "analysis/diversity.h"
#include "core/progressive.h"
#include "node/node.h"
#include "node/wallet.h"

namespace tokenmagic::node {
namespace {

/// Fixture producing a valid transaction plus the node it targets.
struct VerifierFixture {
  Node node;
  Wallet alice;
  Wallet bob;
  SignedTransaction valid_tx;

  explicit VerifierFixture(VerifierPolicy policy = {})
      : node(Config(policy)), alice("a", &node, 10), bob("b", &node, 20) {
    std::vector<std::vector<crypto::Point>> grants;
    for (int i = 0; i < 12; ++i) {
      grants.push_back({alice.NewOutputKey()});
      grants.push_back({bob.NewOutputKey()});
    }
    auto minted = node.Genesis(grants);
    for (size_t i = 0; i < minted.size(); ++i) {
      Wallet& owner = (i % 2 == 0) ? alice : bob;
      for (chain::TokenId t : minted[i]) (void)owner.Claim(t);
    }
    core::ProgressiveSelector selector;
    auto tx = alice.BuildSpend(alice.SpendableTokens()[0], {2.0, 3},
                               selector, {bob.NewOutputKey()}, "fixture");
    EXPECT_TRUE(tx.ok());
    valid_tx = std::move(tx).value();
  }

  static NodeConfig Config(VerifierPolicy policy) {
    NodeConfig config;
    config.lambda = 64;
    config.verifier = policy;
    return config;
  }
};

TEST(VerifierTest, AcceptsValidTransaction) {
  VerifierFixture fx;
  EXPECT_TRUE(fx.node.MakeVerifier().Verify(fx.valid_tx).ok());
}

TEST(VerifierTest, RejectsEmptyTransaction) {
  VerifierFixture fx;
  SignedTransaction empty;
  EXPECT_TRUE(fx.node.MakeVerifier().Verify(empty).IsVerificationFailed());
  SignedTransaction no_outputs = fx.valid_tx;
  no_outputs.output_count = 0;
  EXPECT_TRUE(
      fx.node.MakeVerifier().Verify(no_outputs).IsVerificationFailed());
}

TEST(VerifierTest, RejectsUnknownRingToken) {
  VerifierFixture fx;
  SignedTransaction bad = fx.valid_tx;
  bad.inputs[0].ring.push_back(99999);
  EXPECT_TRUE(fx.node.MakeVerifier().Verify(bad).IsVerificationFailed());
}

TEST(VerifierTest, RejectsUnsortedRing) {
  VerifierFixture fx;
  SignedTransaction bad = fx.valid_tx;
  std::swap(bad.inputs[0].ring.front(), bad.inputs[0].ring.back());
  EXPECT_TRUE(fx.node.MakeVerifier().Verify(bad).IsVerificationFailed());
}

TEST(VerifierTest, RejectsRingBelowSizeFloor) {
  VerifierPolicy policy;
  policy.min_ring_size = 50;
  VerifierFixture fx(policy);
  EXPECT_TRUE(
      fx.node.MakeVerifier().Verify(fx.valid_tx).IsVerificationFailed());
}

TEST(VerifierTest, PolicyTogglesStrictDtrs) {
  // A ring satisfying (c, ell) but not (c, ell+1) passes only when the
  // strict-DTRS enforcement is off.
  VerifierPolicy lax;
  lax.enforce_strict_dtrs = false;
  VerifierFixture fx(lax);
  // Craft: declared requirement exactly matches the ring's theta.
  SignedTransaction tx = fx.valid_tx;
  // The wallet built the ring at strict (2,3) -> >= 4 HTs; declare (2,4):
  // strict mode would demand 5 HTs.
  size_t theta = analysis::DistinctHtCount(tx.inputs[0].ring,
                                           fx.node.ht_index());
  tx.inputs[0].requirement = {2.0, static_cast<int>(theta)};
  EXPECT_TRUE(fx.node.MakeVerifier().Verify(tx).ok());

  VerifierPolicy strict;
  strict.enforce_strict_dtrs = true;
  VerifierFixture fx2(strict);
  SignedTransaction tx2 = fx2.valid_tx;
  size_t theta2 = analysis::DistinctHtCount(tx2.inputs[0].ring,
                                            fx2.node.ht_index());
  tx2.inputs[0].requirement = {2.0, static_cast<int>(theta2)};
  EXPECT_TRUE(fx2.node.MakeVerifier().Verify(tx2).IsVerificationFailed());
}

TEST(VerifierTest, ConfigurationEnforcementToggle) {
  // With enforcement off, a partially-overlapping ring is only rejected
  // by the LSAG binding (which we keep valid here by reusing the
  // original ring), so a configuration violation alone must pass.
  VerifierPolicy lax;
  lax.enforce_configuration = false;
  VerifierFixture fx(lax);
  // Mine the valid tx to put an RS on the ledger.
  ASSERT_TRUE(fx.node
                  .SubmitTransaction(fx.valid_tx, {fx.bob.NewOutputKey()})
                  .ok());
  fx.node.MineBlock();

  // Second spend from bob whose ring will overlap the first RS
  // partially with near-certainty (it selects from the same batch but
  // without the configuration constraint the verifier won't care).
  core::ProgressiveSelector selector;
  auto tx2 = fx.bob.BuildSpend(fx.bob.SpendableTokens()[0], {2.0, 3},
                               selector, {fx.alice.NewOutputKey()}, "b");
  ASSERT_TRUE(tx2.ok());
  EXPECT_TRUE(fx.node.MakeVerifier().Verify(*tx2).ok());
}

// Verify runs the state checks before the curve math: a transaction that
// fails both is rejected, and the state failure is the one reported.
TEST(VerifierTest, StateAndSignatureFailureIsVerificationFailed) {
  VerifierFixture fx;
  SignedTransaction bad = fx.valid_tx;
  bad.memo = "tampered";                         // breaks the LSAG message
  bad.inputs[0].requirement = {0.0001, 50};      // and declared diversity
  Verifier verifier = fx.node.MakeVerifier();
  common::Status verdict = verifier.Verify(bad);
  EXPECT_TRUE(verdict.IsVerificationFailed());
  EXPECT_NE(verdict.message().find("violates its declared"),
            std::string::npos)
      << verdict.ToString();
  EXPECT_TRUE(verifier.VerifyState(bad).IsVerificationFailed());
  EXPECT_TRUE(verifier.VerifyInput(bad, 0).IsVerificationFailed());

  // Either failure alone is still caught by Verify; only the LSAG one
  // gets past VerifyState.
  SignedTransaction lsag_only = fx.valid_tx;
  lsag_only.memo = "tampered";
  EXPECT_TRUE(verifier.VerifyState(lsag_only).ok());
  common::Status lsag_verdict = verifier.Verify(lsag_only);
  EXPECT_TRUE(lsag_verdict.IsVerificationFailed());
  EXPECT_NE(lsag_verdict.message().find("LSAG"), std::string::npos)
      << lsag_verdict.ToString();
  SignedTransaction state_only = fx.valid_tx;
  state_only.inputs[0].requirement = {0.0001, 50};
  EXPECT_TRUE(verifier.Verify(state_only).IsVerificationFailed());
}

// A signature whose ring keys are not the chain's keys for the ring's
// tokens fails the (stateless) key binding, not a state check.
TEST(VerifierTest, KeyBindingIsASignatureCheck) {
  VerifierFixture fx;
  SignedTransaction bad = fx.valid_tx;
  std::swap(bad.inputs[0].signature.ring.front(),
            bad.inputs[0].signature.ring.back());
  Verifier verifier = fx.node.MakeVerifier();
  EXPECT_TRUE(verifier.VerifyState(bad).ok());
  common::Status verdict = verifier.Verify(bad);
  EXPECT_TRUE(verdict.IsVerificationFailed());
  EXPECT_NE(verdict.message().find("output key"), std::string::npos)
      << verdict.ToString();
}

TEST(VerifierTest, VerifyInputIndexOutOfRange) {
  VerifierFixture fx;
  EXPECT_TRUE(fx.node.MakeVerifier()
                  .VerifyInput(fx.valid_tx, 5)
                  .IsInvalidArgument());
}

TEST(KeyDirectoryTest, RegisterAndLookup) {
  KeyDirectory directory;
  common::Rng rng(1);
  crypto::Keypair kp = crypto::Keypair::Generate(&rng);
  EXPECT_FALSE(directory.Contains(7));
  directory.Register(7, kp.pub);
  EXPECT_TRUE(directory.Contains(7));
  EXPECT_EQ(directory.KeyOf(7), kp.pub);
  EXPECT_EQ(directory.size(), 1u);
  // Re-register overwrites.
  crypto::Keypair kp2 = crypto::Keypair::Generate(&rng);
  directory.Register(7, kp2.pub);
  EXPECT_EQ(directory.KeyOf(7), kp2.pub);
  EXPECT_EQ(directory.size(), 1u);
}

}  // namespace
}  // namespace tokenmagic::node
