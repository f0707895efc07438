#include "core/token_magic.h"

#include <gtest/gtest.h>

#include "analysis/chain_reaction.h"
#include "core/baselines.h"
#include "core/progressive.h"

namespace tokenmagic::core {
namespace {

using chain::DiversityRequirement;

/// A chain whose tokens all come from distinct transactions: 4 blocks of
/// 8 single-output transactions each, lambda 16 -> 2 batches of 16.
chain::Blockchain MakeChain() {
  chain::Blockchain bc;
  for (int b = 0; b < 4; ++b) {
    std::vector<uint32_t> counts(8, 1);
    bc.AddBlock(b, counts);
  }
  return bc;
}

TEST(TokenMagicTest, InstanceForBuildsBatchLocalUniverse) {
  chain::Blockchain bc = MakeChain();
  TokenMagicConfig config;
  config.lambda = 16;
  TokenMagic tm(&bc, config);
  auto instance = tm.InstanceFor(0, {2.0, 2});
  ASSERT_TRUE(instance.ok());
  EXPECT_EQ(instance->universe.size(), 16u);
  EXPECT_EQ(instance->target, 0u);
  // Token 20 lives in the second batch.
  auto instance2 = tm.InstanceFor(20, {2.0, 2});
  ASSERT_TRUE(instance2.ok());
  EXPECT_NE(instance2->universe.front(), instance->universe.front());
}

TEST(TokenMagicTest, InstanceForUnknownTokenFails) {
  chain::Blockchain bc = MakeChain();
  TokenMagic tm(&bc, {});
  EXPECT_TRUE(tm.InstanceFor(999, {1.0, 1}).status().IsNotFound());
}

TEST(TokenMagicTest, GenerateCommitsToLedger) {
  chain::Blockchain bc = MakeChain();
  TokenMagicConfig config;
  config.lambda = 16;
  TokenMagic tm(&bc, config);
  ProgressiveSelector selector;
  common::Rng rng(1);
  auto generated = tm.GenerateRs(3, {2.0, 3}, selector, &rng);
  ASSERT_TRUE(generated.ok());
  EXPECT_EQ(tm.ledger().size(), 1u);
  EXPECT_EQ(tm.ledger().GroundTruthSpent(generated->id), 3u);
  EXPECT_TRUE(tm.ledger().IsSpent(3));
  // The proposed members satisfy the (strict-mode) requirement.
  EXPECT_TRUE(analysis::SatisfiesRecursiveDiversity(
      generated->members, tm.ht_index(), {2.0, 3}));
}

// A proposal re-seals only its own batch's snapshot: instances of another
// batch keep co-owning the very same snapshot object.
TEST(TokenMagicTest, GenerateKeepsOtherBatchSnapshot) {
  chain::Blockchain bc = MakeChain();
  TokenMagicConfig config;
  config.lambda = 16;
  TokenMagic tm(&bc, config);
  auto batch_a = tm.InstanceFor(3, {2.0, 3});
  auto batch_b = tm.InstanceFor(20, {2.0, 3});
  ASSERT_TRUE(batch_a.ok());
  ASSERT_TRUE(batch_b.ok());
  ProgressiveSelector selector;
  common::Rng rng(6);
  ASSERT_TRUE(tm.GenerateRs(3, {2.0, 3}, selector, &rng).ok());

  auto after_b = tm.InstanceFor(20, {2.0, 3});
  ASSERT_TRUE(after_b.ok());
  EXPECT_EQ(after_b->owner.get(), batch_b->owner.get());
  auto after_a = tm.InstanceFor(5, {2.0, 3});
  ASSERT_TRUE(after_a.ok());
  EXPECT_NE(after_a->owner.get(), batch_a->owner.get());
  EXPECT_EQ(after_a->history.size(), batch_a->history.size() + 1);
}

TEST(TokenMagicTest, DoubleSpendRejected) {
  chain::Blockchain bc = MakeChain();
  TokenMagicConfig config;
  config.lambda = 16;
  TokenMagic tm(&bc, config);
  ProgressiveSelector selector;
  common::Rng rng(2);
  ASSERT_TRUE(tm.GenerateRs(3, {2.0, 3}, selector, &rng).ok());
  auto again = tm.GenerateRs(3, {2.0, 3}, selector, &rng);
  EXPECT_EQ(again.status().code(), common::StatusCode::kAlreadyExists);
}

TEST(TokenMagicTest, SequentialSpendsKeepHistoryAnalysisClean) {
  chain::Blockchain bc = MakeChain();
  TokenMagicConfig config;
  config.lambda = 16;
  TokenMagic tm(&bc, config);
  ProgressiveSelector selector;
  common::Rng rng(3);
  // Spend several tokens of batch 0 in sequence.
  for (chain::TokenId t : {0u, 5u, 9u}) {
    auto generated = tm.GenerateRs(t, {2.0, 3}, selector, &rng);
    ASSERT_TRUE(generated.ok()) << "token " << t;
  }
  // The adversary's exact analysis on the resulting history eliminates
  // nothing and reveals nothing.
  auto result = analysis::ChainReactionAnalyzer::Analyze(
      analysis::AnalysisContext::Build(tm.ledger().Views()));
  EXPECT_TRUE(result.NoTokenEliminated());
  EXPECT_TRUE(result.revealed_spends.empty());
}

TEST(TokenMagicTest, FullRandomizationCollectsCandidates) {
  chain::Blockchain bc = MakeChain();
  TokenMagicConfig config;
  config.lambda = 16;
  config.full_randomization = true;
  TokenMagic tm(&bc, config);
  ProgressiveSelector selector;
  common::Rng rng(4);
  auto generated = tm.GenerateRs(2, {2.0, 2}, selector, &rng);
  ASSERT_TRUE(generated.ok());
  // Algorithm 1 runs the selector for every unspent token; at least the
  // target's own run qualifies, usually many more.
  EXPECT_GE(generated->candidate_count, 1u);
}

TEST(TokenMagicTest, LiquidityGuardBlocksDrainingUniverse) {
  // Tiny batch of 4 tokens; eta = 1 demands i - mu_i >= |T| - i, i.e.
  // spends cannot run ahead of remaining capacity.
  chain::Blockchain bc;
  bc.AddBlock(0, {1, 1, 1, 1});
  TokenMagicConfig config;
  config.lambda = 4;
  config.eta = 1.0;
  config.policy.strict_dtrs = false;
  TokenMagic tm(&bc, config);
  // First RS: i=1, mu=0, |T|=4: 1 - 0 >= 1*(4-1) = 3? No -> blocked.
  ProgressiveSelector selector;
  common::Rng rng(5);
  auto generated = tm.GenerateRs(0, {2.0, 2}, selector, &rng);
  EXPECT_TRUE(generated.status().IsUnsatisfiable());
}

TEST(TokenMagicTest, LiquidityAllowsChecksProspectiveMembers) {
  chain::Blockchain bc = MakeChain();
  TokenMagicConfig config;
  config.lambda = 16;
  config.eta = 0.0;  // permissive
  TokenMagic tm(&bc, config);
  EXPECT_TRUE(tm.LiquidityAllows(0, {0, 1, 2}));
}

TEST(TokenMagicTest, BatchesAccessorExposesPartition) {
  chain::Blockchain bc = MakeChain();
  TokenMagicConfig config;
  config.lambda = 16;
  TokenMagic tm(&bc, config);
  EXPECT_EQ(tm.batches().batch_count(), 2u);
  EXPECT_EQ(tm.batches().lambda(), 16u);
}

}  // namespace
}  // namespace tokenmagic::core
