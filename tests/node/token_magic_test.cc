// The TokenMagic protocol run end to end on one node: a wallet builds a
// ring for a token over its batch, the node verifies and mines it, and the
// mined history stays clean under the adversary's exact analysis.

#include <gtest/gtest.h>

#include "analysis/chain_reaction.h"
#include "analysis/diversity.h"
#include "core/progressive.h"
#include "node/node.h"
#include "node/wallet.h"

namespace tokenmagic::node {
namespace {

/// One wallet granted 16 single-token transactions at genesis (every token
/// its own HT); lambda 16 seals them as batch 0, tokens 0..15.
struct Batch0 {
  Node node;
  Wallet alice;
  Wallet bob;

  Batch0()
      : node(MakeConfig()), alice("alice", &node, 11), bob("bob", &node, 22) {
    std::vector<std::vector<crypto::Point>> grants;
    for (int i = 0; i < 16; ++i) grants.push_back({alice.NewOutputKey()});
    for (const auto& minted : node.Genesis(grants)) {
      for (chain::TokenId t : minted) EXPECT_TRUE(alice.Claim(t).ok());
    }
  }

  static NodeConfig MakeConfig() {
    NodeConfig config;
    config.lambda = 16;
    return config;
  }

  common::Status SpendAndMine(chain::TokenId token,
                              const core::MixinSelector& selector) {
    common::Status status = alice.Spend(&node, token, {2.0, 3}, selector,
                                        {bob.NewOutputKey()}, "pay");
    if (status.ok()) node.MineBlock();
    return status;
  }
};

TEST(TokenMagicTest, GenerateCommitsToLedger) {
  Batch0 net;
  core::ProgressiveSelector selector;
  ASSERT_TRUE(net.SpendAndMine(3, selector).ok());
  ASSERT_EQ(net.node.ledger().size(), 1u);
  EXPECT_EQ(net.node.spent_images().size(), 1u);
  // The committed ring holds the spent token and satisfies the
  // (strict-mode) requirement.
  const chain::RsView& ring = net.node.ledger().view(0);
  EXPECT_TRUE(ring.Contains(3));
  EXPECT_TRUE(analysis::SatisfiesRecursiveDiversity(
      ring.members, net.node.ht_index(), {2.0, 3}));
}

// A mined ring re-seals only its own batch's snapshot: instances of another
// batch keep co-owning the very same snapshot object.
TEST(TokenMagicTest, GenerateKeepsOtherBatchSnapshot) {
  Batch0 net;
  core::ProgressiveSelector selector;
  // Block 1 mints 16 outputs to bob: batch 1.
  std::vector<crypto::Point> outputs;
  for (int i = 0; i < 16; ++i) outputs.push_back(net.bob.NewOutputKey());
  ASSERT_TRUE(net.alice
                  .Spend(&net.node, 0, {2.0, 3}, selector, outputs,
                         "open batch 1")
                  .ok());
  MinedBlock opened = net.node.MineBlock();
  ASSERT_EQ(opened.transactions, 1u);
  ASSERT_EQ(net.node.batches().batch_count(), 2u);
  chain::TokenId in_batch1 = opened.outputs[0][4];

  auto batch_a = net.node.InstanceFor(3, {2.0, 3});
  auto batch_b = net.node.InstanceFor(in_batch1, {2.0, 3});
  ASSERT_TRUE(batch_a.ok());
  ASSERT_TRUE(batch_b.ok());
  ASSERT_TRUE(net.SpendAndMine(3, selector).ok());

  auto after_b = net.node.InstanceFor(in_batch1, {2.0, 3});
  ASSERT_TRUE(after_b.ok());
  EXPECT_EQ(after_b->owner.get(), batch_b->owner.get());
  auto after_a = net.node.InstanceFor(5, {2.0, 3});
  ASSERT_TRUE(after_a.ok());
  EXPECT_NE(after_a->owner.get(), batch_a->owner.get());
  EXPECT_EQ(after_a->history.size(), batch_a->history.size() + 1);
}

TEST(TokenMagicTest, DoubleSpendRejected) {
  Batch0 net;
  core::ProgressiveSelector selector;
  ASSERT_TRUE(net.SpendAndMine(3, selector).ok());
  common::Status again = net.SpendAndMine(3, selector);
  EXPECT_EQ(again.code(), common::StatusCode::kAlreadyExists);
  EXPECT_EQ(net.node.mempool_size(), 0u);
  EXPECT_EQ(net.node.ledger().size(), 1u);
  EXPECT_EQ(net.node.spent_images().size(), 1u);
}

TEST(TokenMagicTest, SequentialSpendsKeepHistoryAnalysisClean) {
  Batch0 net;
  core::ProgressiveSelector selector;
  // Spend several tokens of batch 0 in sequence, one block each.
  for (chain::TokenId t : {0u, 5u, 9u}) {
    ASSERT_TRUE(net.SpendAndMine(t, selector).ok()) << "token " << t;
  }
  ASSERT_EQ(net.node.ledger().size(), 3u);
  // The adversary's exact analysis on the resulting history eliminates
  // nothing and reveals nothing.
  auto result = analysis::ChainReactionAnalyzer::Analyze(
      analysis::AnalysisContext::Build(net.node.ledger().Views()));
  EXPECT_TRUE(result.NoTokenEliminated());
  EXPECT_TRUE(result.revealed_spends.empty());
}

}  // namespace
}  // namespace tokenmagic::node
