// End-to-end pipeline tests: wallet selection on a node -> LSAG
// signing -> verification -> mining -> adversarial analysis.
#include <gtest/gtest.h>

#include "analysis/chain_reaction.h"
#include "analysis/diversity.h"
#include "analysis/homogeneity.h"
#include "core/progressive.h"
#include "core/game_theoretic.h"
#include "crypto/lsag.h"
#include "data/monero_like.h"
#include "data/synthetic.h"
#include "node/node.h"
#include "node/wallet.h"
#include "support/snapshot.h"

namespace tokenmagic {
namespace {

using core::ProgressiveSelector;

/// A node whose genesis mints `tokens` single-output transactions (every
/// token its own HT), all owned by one wallet.
struct SingleWalletNetwork {
  node::Node node;
  node::Wallet wallet;

  SingleWalletNetwork(size_t tokens, size_t lambda, uint64_t seed)
      : node(Config(lambda)), wallet("w", &node, seed) {
    std::vector<std::vector<crypto::Point>> grants;
    for (size_t i = 0; i < tokens; ++i) grants.push_back({wallet.NewOutputKey()});
    for (const auto& minted : node.Genesis(grants)) {
      for (chain::TokenId t : minted) EXPECT_TRUE(wallet.Claim(t).ok());
    }
  }

  static node::NodeConfig Config(size_t lambda) {
    node::NodeConfig config;
    config.lambda = lambda;
    return config;
  }

  /// Spends `token` and mines it alone; returns the ground truth of the
  /// mined ring (the ring is the ledger's newest).
  chain::TokenRsPair SpendAndMine(chain::TokenId token,
                                  chain::DiversityRequirement req,
                                  const core::MixinSelector& selector) {
    common::Status spent = wallet.Spend(&node, token, req, selector,
                                        {wallet.NewOutputKey()}, "spend");
    EXPECT_TRUE(spent.ok()) << "token " << token << ": " << spent.ToString();
    node::MinedBlock block = node.MineBlock();
    EXPECT_EQ(block.transactions, 1u) << "token " << token;
    return {token, node.ledger().size() - 1};
  }
};

TEST(EndToEndTest, SelectSignVerifySpend) {
  SingleWalletNetwork net(16, 16, 2024);
  ProgressiveSelector selector;

  // Select mixins for token 5 under (2, 3)-diversity and sign: the
  // transaction carries one ring holding token 5 and its LSAG.
  auto first = net.wallet.BuildSpend(5, {2.0, 3}, selector,
                                     {net.wallet.NewOutputKey()},
                                     "pay 1 XTM to bob");
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->inputs.size(), 1u);
  const node::TxInput& input = first->inputs[0];
  EXPECT_NE(std::find(input.ring.begin(), input.ring.end(), 5u),
            input.ring.end());
  EXPECT_EQ(input.signature.responses.size(), input.ring.size());
  EXPECT_TRUE(crypto::Lsag::Verify(input.signature, first->SigningMessage(0)));

  // A second spend of token 5 signs validly but carries the same key
  // image, so the node refuses it once the first is mined.
  auto second = net.wallet.BuildSpend(5, {2.0, 3}, selector,
                                      {net.wallet.NewOutputKey()},
                                      "pay 1 XTM to carol");
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(crypto::Lsag::Verify(second->inputs[0].signature,
                                   second->SigningMessage(0)));
  EXPECT_EQ(second->inputs[0].signature.key_image, input.signature.key_image);
  ASSERT_TRUE(net.node
                  .SubmitTransaction(std::move(first).value(),
                                     {net.wallet.NewOutputKey()})
                  .ok());
  ASSERT_EQ(net.node.MineBlock().transactions, 1u);
  EXPECT_TRUE(net.node
                  .SubmitTransaction(std::move(second).value(),
                                     {net.wallet.NewOutputKey()})
                  .IsVerificationFailed());
}

TEST(EndToEndTest, MoneroLikeWorkloadSelectionsAreWellFormed) {
  data::Dataset ds = data::MakeMoneroLikeTrace();
  common::Rng rng(7);
  ProgressiveSelector selector;

  core::SelectionInput input;
  input.universe = ds.universe;
  input.history = ds.history;
  input.requirement = {0.6, 20};
  input.index = &ds.index;
  test_support::AttachContext(&input);

  auto unspent = ds.UnspentTokens();
  for (int trial = 0; trial < 5; ++trial) {
    input.target = unspent[rng.NextBounded(unspent.size())];
    auto result = selector.Select(input, &rng);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(std::binary_search(result->members.begin(),
                                   result->members.end(), input.target));
    // Strict mode: the RS satisfies (c, ell+1), hence also (c, ell).
    EXPECT_TRUE(analysis::SatisfiesRecursiveDiversity(
        result->members, ds.index, {0.6, 21}));
  }
}

TEST(EndToEndTest, SyntheticWorkloadBothAlgorithmsAgreeOnFeasibility) {
  data::SyntheticParams params;
  params.seed = 99;
  data::Dataset ds = data::MakeSyntheticDataset(params);
  common::Rng rng(8);

  core::SelectionInput input;
  input.universe = ds.universe;
  input.history = ds.history;
  input.requirement = {0.6, 20};
  input.index = &ds.index;
  test_support::AttachContext(&input);
  input.target = ds.UnspentTokens().front();

  ProgressiveSelector progressive;
  core::GameTheoreticSelector game;
  auto p = progressive.Select(input, &rng);
  auto g = game.Select(input, &rng);
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(g.ok());
  EXPECT_LE(g->members.size(), p->members.size() * 2);  // sanity bound
}

TEST(EndToEndTest, AttackFailsAgainstDaMsSelections) {
  // Spend 6 tokens through the node; the exact adversary must not
  // deanonymize any of them and no homogeneity leak may exist.
  SingleWalletNetwork net(24, 24, 31337);
  ProgressiveSelector selector;
  for (chain::TokenId t : {0u, 3u, 7u, 11u, 15u, 19u}) {
    net.SpendAndMine(t, {2.0, 3}, selector);
  }
  const std::vector<chain::RsView>& views = net.node.ledger().Views();
  ASSERT_EQ(views.size(), 6u);
  auto result = analysis::ChainReactionAnalyzer::Analyze(
      analysis::AnalysisContext::Build(views));
  EXPECT_TRUE(result.NoTokenEliminated());
  EXPECT_TRUE(result.revealed_spends.empty());
  for (const auto& view : views) {
    auto probe =
        analysis::ProbeHomogeneity(view.members, {}, net.node.ht_index());
    EXPECT_FALSE(probe.ht_determined);
  }
}

TEST(EndToEndTest, LedgerGroundTruthIsConsistentWithAnalysis) {
  // The true spend must always be among the adversary's possible spends
  // (otherwise the analysis would be unsound). The ledger is blind, so
  // the test records which token each mined ring spent.
  SingleWalletNetwork net(12, 12, 55);
  ProgressiveSelector selector;
  std::vector<chain::TokenRsPair> truth;
  for (chain::TokenId t : {1u, 4u, 8u}) {
    truth.push_back(net.SpendAndMine(t, {2.0, 2}, selector));
  }
  auto result = analysis::ChainReactionAnalyzer::Analyze(
      analysis::AnalysisContext::Build(net.node.ledger().Views()));
  ASSERT_EQ(truth.size(), net.node.ledger().size());
  for (const chain::TokenRsPair& pair : truth) {
    EXPECT_TRUE(net.node.ledger().view(pair.rs).Contains(pair.token));
    const auto& possible = result.possible_spends.at(pair.rs);
    EXPECT_NE(std::find(possible.begin(), possible.end(), pair.token),
              possible.end());
  }
}

}  // namespace
}  // namespace tokenmagic
