// End-to-end pipeline tests: chain -> TokenMagic selection -> LSAG
// signing -> verification -> adversarial analysis.
#include <gtest/gtest.h>

#include "analysis/chain_reaction.h"
#include "analysis/homogeneity.h"
#include "chain/ledger.h"
#include "core/progressive.h"
#include "core/game_theoretic.h"
#include "core/token_magic.h"
#include "crypto/lsag.h"
#include "data/monero_like.h"
#include "data/synthetic.h"
#include "support/snapshot.h"

namespace tokenmagic {
namespace {

using core::ProgressiveSelector;
using core::TokenMagic;
using core::TokenMagicConfig;

TEST(EndToEndTest, SelectSignVerifySpend) {
  // A small chain; each token gets a one-time keypair.
  chain::Blockchain bc;
  for (int b = 0; b < 2; ++b) bc.AddBlock(b, {1, 1, 1, 1, 1, 1, 1, 1});
  TokenMagicConfig config;
  config.lambda = 16;
  TokenMagic tm(&bc, config);

  common::Rng rng(2024);
  std::vector<crypto::Keypair> keys;
  for (size_t i = 0; i < bc.token_count(); ++i) {
    keys.push_back(crypto::Keypair::Generate(&rng));
  }

  // Select mixins for token 5 under (2, 3)-diversity.
  ProgressiveSelector selector;
  auto generated = tm.GenerateRs(5, {2.0, 3}, selector, &rng);
  ASSERT_TRUE(generated.ok());

  // Build the cryptographic ring in member order and sign.
  std::vector<crypto::Point> ring;
  size_t signer_index = 0;
  for (size_t i = 0; i < generated->members.size(); ++i) {
    ring.push_back(keys[generated->members[i]].pub);
    if (generated->members[i] == 5) signer_index = i;
  }
  auto sig = crypto::Lsag::Sign(ring, signer_index, keys[5],
                                "tx: pay 1 XTM to bob", &rng);
  ASSERT_TRUE(sig.ok());
  EXPECT_TRUE(crypto::Lsag::Verify(*sig, "tx: pay 1 XTM to bob"));

  // Key image registry blocks a second spend of token 5.
  crypto::KeyImageRegistry registry;
  EXPECT_TRUE(registry.Register(sig->key_image).ok());
  auto sig2 = crypto::Lsag::Sign(ring, signer_index, keys[5],
                                 "tx: pay 1 XTM to carol", &rng);
  ASSERT_TRUE(sig2.ok());
  EXPECT_TRUE(crypto::Lsag::Verify(*sig2, "tx: pay 1 XTM to carol"));
  EXPECT_EQ(registry.Register(sig2->key_image).code(),
            common::StatusCode::kAlreadyExists);
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
  // Spend 6 tokens through TokenMagic; the exact adversary must not
  // deanonymize any of them and no homogeneity leak may exist.
  chain::Blockchain bc;
  for (int b = 0; b < 3; ++b) bc.AddBlock(b, {1, 1, 1, 1, 1, 1, 1, 1});
  TokenMagicConfig config;
  config.lambda = 24;
  TokenMagic tm(&bc, config);
  ProgressiveSelector selector;
  common::Rng rng(31337);

  std::vector<chain::TokenId> spends = {0, 3, 7, 11, 15, 19};
  for (chain::TokenId t : spends) {
    ASSERT_TRUE(tm.GenerateRs(t, {2.0, 3}, selector, &rng).ok())
        << "token " << t;
  }
  auto views = tm.ledger().Views();
  auto result = analysis::ChainReactionAnalyzer::Analyze(
      analysis::AnalysisContext::Build(views));
  EXPECT_TRUE(result.NoTokenEliminated());
  EXPECT_TRUE(result.revealed_spends.empty());
  for (const auto& view : views) {
    auto probe = analysis::ProbeHomogeneity(view.members, {}, tm.ht_index());
    EXPECT_FALSE(probe.ht_determined);
  }
}

TEST(EndToEndTest, LedgerGroundTruthIsConsistentWithAnalysis) {
  // The true spend must always be among the adversary's possible spends
  // (otherwise the analysis would be unsound).
  chain::Blockchain bc;
  bc.AddBlock(0, {1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1});
  TokenMagicConfig config;
  config.lambda = 12;
  TokenMagic tm(&bc, config);
  ProgressiveSelector selector;
  common::Rng rng(55);
  for (chain::TokenId t : {1u, 4u, 8u}) {
    ASSERT_TRUE(tm.GenerateRs(t, {2.0, 2}, selector, &rng).ok());
  }
  auto result = analysis::ChainReactionAnalyzer::Analyze(
      analysis::AnalysisContext::Build(tm.ledger().Views()));
  for (const auto& view : tm.ledger().Views()) {
    chain::TokenId truth = tm.ledger().GroundTruthSpent(view.id);
    const auto& possible = result.possible_spends.at(view.id);
    EXPECT_NE(std::find(possible.begin(), possible.end(), truth),
              possible.end());
  }
}

}  // namespace
}  // namespace tokenmagic
