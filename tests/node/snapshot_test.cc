#include "node/snapshot.h"

#include <gtest/gtest.h>

#include "analysis/chain_reaction.h"
#include "core/progressive.h"
#include "common/strings.h"
#include "node/wallet.h"

namespace tokenmagic::node {
namespace {

/// Builds a node with activity: genesis grants for two wallets, a few
/// spends, mined blocks.
struct LiveState {
  Node node;
  Wallet alice;
  Wallet bob;

  LiveState() : node(Config()), alice("a", &node, 1), bob("b", &node, 2) {
    std::vector<std::vector<crypto::Point>> grants;
    for (int i = 0; i < 10; ++i) {
      grants.push_back({alice.NewOutputKey()});
      grants.push_back({bob.NewOutputKey()});
    }
    auto minted = node.Genesis(grants);
    for (size_t i = 0; i < minted.size(); ++i) {
      Wallet& owner = (i % 2 == 0) ? alice : bob;
      for (chain::TokenId t : minted[i]) (void)owner.Claim(t);
    }
    core::ProgressiveSelector selector;
    for (chain::TokenId t : alice.SpendableTokens()) {
      if (node.ledger().size() >= 2) break;
      (void)alice.Spend(&node, t, {2.0, 3}, selector,
                        {bob.NewOutputKey()}, "spend");
      node.MineBlock();
    }
  }

  static NodeConfig Config() {
    NodeConfig config;
    config.lambda = 64;
    return config;
  }
};

TEST(SnapshotTest, RoundTripPreservesChainState) {
  LiveState live;
  std::string snapshot = SnapshotToString(live.node);
  auto restored = NodeFromSnapshot(snapshot, LiveState::Config());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  const Node& r = **restored;
  EXPECT_EQ(r.blockchain().block_count(),
            live.node.blockchain().block_count());
  EXPECT_EQ(r.blockchain().token_count(),
            live.node.blockchain().token_count());
  EXPECT_EQ(r.blockchain().transaction_count(),
            live.node.blockchain().transaction_count());
  EXPECT_EQ(r.ledger().size(), live.node.ledger().size());
  for (size_t i = 0; i < r.ledger().size(); ++i) {
    EXPECT_EQ(r.ledger().view(i).members,
              live.node.ledger().view(i).members);
    EXPECT_EQ(r.ledger().view(i).requirement,
              live.node.ledger().view(i).requirement);
  }
  EXPECT_EQ(r.keys().size(), live.node.keys().size());
  EXPECT_EQ(r.spent_images().size(), live.node.spent_images().size());
  // HT structure survives: the same adversary analysis results.
  auto a1 = analysis::ChainReactionAnalyzer::Analyze(
      analysis::AnalysisContext::Build(live.node.ledger().Views()));
  auto a2 = analysis::ChainReactionAnalyzer::Analyze(
      analysis::AnalysisContext::Build(r.ledger().Views()));
  EXPECT_EQ(a1.spent_tokens.size(), a2.spent_tokens.size());
}

TEST(SnapshotTest, RestoredNodeKeepsVerifying) {
  LiveState live;
  std::string snapshot = SnapshotToString(live.node);
  auto restored = NodeFromSnapshot(snapshot, LiveState::Config());
  ASSERT_TRUE(restored.ok());

  // A wallet pointed at the restored node can keep spending: keys match
  // because the KeyDirectory was restored.
  Wallet bob2("b", restored->get(), 2);  // same seed => same key stream
  // Re-derive bob's keys in the same order and claim his tokens.
  for (int i = 0; i < 24; ++i) bob2.NewOutputKey();
  size_t claimed = 0;
  for (chain::TokenId t : (*restored)->blockchain().AllTokens()) {
    if (bob2.Claim(t).ok()) ++claimed;
  }
  EXPECT_GT(claimed, 0u);
  core::ProgressiveSelector selector;
  auto spendable = bob2.SpendableTokens();
  ASSERT_FALSE(spendable.empty());
  auto st = bob2.Spend(restored->get(), spendable[0], {2.0, 3}, selector,
                       {bob2.NewOutputKey()}, "post-restore spend");
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ((*restored)->MineBlock().transactions, 1u);
}

TEST(SnapshotTest, DoubleSpendStillBlockedAfterRestore) {
  LiveState live;
  // Build a double-spend attempt against the live node but submit it to
  // the restored node: the key image came from a mined transaction, so
  // the restored registry must reject it.
  std::string snapshot = SnapshotToString(live.node);
  auto restored = NodeFromSnapshot(snapshot, LiveState::Config());
  ASSERT_TRUE(restored.ok());
  ASSERT_GT((*restored)->spent_images().size(), 0u);
  // The registry contents match the live node's.
  for (const std::string& hex : live.node.SpentImageHexList()) {
    std::vector<uint8_t> bytes;
    ASSERT_TRUE(common::HexDecode(hex, &bytes));
    std::array<uint8_t, 33> raw;
    std::copy(bytes.begin(), bytes.end(), raw.begin());
    auto point = crypto::Point::Decode(raw);
    ASSERT_TRUE(point.has_value());
    EXPECT_TRUE((*restored)->spent_images().Contains(*point));
  }
}

TEST(SnapshotTest, FileRoundTrip) {
  LiveState live;
  std::string path = ::testing::TempDir() + "/tm_snapshot_test.txt";
  ASSERT_TRUE(SaveSnapshot(live.node, path).ok());
  auto restored = LoadSnapshot(path, LiveState::Config());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ((*restored)->ledger().size(), live.node.ledger().size());
}

TEST(SnapshotTest, RejectsCorruptedInput) {
  EXPECT_FALSE(NodeFromSnapshot("", {}).ok());
  EXPECT_FALSE(NodeFromSnapshot("not a snapshot\n", {}).ok());
  LiveState live;
  std::string snapshot = SnapshotToString(live.node);
  // Unknown record type.
  EXPECT_FALSE(NodeFromSnapshot(snapshot + "bogus,1,2\n", {}).ok());
  // Malformed key point.
  EXPECT_FALSE(
      NodeFromSnapshot(snapshot + "key,0,zzzz\n", {}).ok());
  // tx record with no open block.
  std::string header_only = "tokenmagic-snapshot v1\ntx,0,1\n";
  EXPECT_FALSE(NodeFromSnapshot(header_only, {}).ok());
}

TEST(SnapshotTest, EmptyNodeRoundTrips) {
  Node empty;
  auto restored = NodeFromSnapshot(SnapshotToString(empty), {});
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ((*restored)->blockchain().block_count(), 0u);
  EXPECT_EQ((*restored)->ledger().size(), 0u);
}

}  // namespace
}  // namespace tokenmagic::node
