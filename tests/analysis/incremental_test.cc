// The incremental liquidity cascade as production runs it: each arriving
// RS is appended to an EpochChain as one epoch, the sealed view is
// re-cascaded, and a prospective RS is probed with the overlay form of
// CountInferableSpent without touching the chain (the
// TokenMagic::LiquidityAllows pattern). Every step must agree with a
// from-scratch cascade over the same prefix.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "analysis/chain_reaction.h"
#include "analysis/epoch_chain.h"
#include "common/rng.h"
#include "oracle/analysis_oracle.h"

namespace tokenmagic::analysis {
namespace {

using chain::RsId;
using chain::RsView;
using chain::TokenId;

RsView View(RsId id, std::vector<TokenId> members) {
  RsView v;
  v.id = id;
  v.members = std::move(members);
  std::sort(v.members.begin(), v.members.end());
  v.proposed_at = id;
  return v;
}

/// An EpochChain over tokens [0, num_tokens) fed one RS per Add.
class LiquidityChain {
 public:
  explicit LiquidityChain(TokenId num_tokens) {
    std::vector<TokenId> tokens;
    for (TokenId t = 0; t < num_tokens; ++t) tokens.push_back(t);
    chain_.Append({}, nullptr, tokens);
  }

  void Add(const RsView& view) {
    chain_.Append(std::span<const RsView>(&view, 1), nullptr, {});
  }

  AnalysisResult Cascade() const {
    return ChainReactionAnalyzer::Cascade(chain_.View());
  }

  size_t SpentCountIfAdded(const RsView& view) const {
    return ChainReactionAnalyzer::CountInferableSpent(chain_.View(), view);
  }

  size_t rs_count() const { return chain_.rs_count(); }

 private:
  EpochChain chain_;
};

TEST(IncrementalCascadeTest, EmptyState) {
  LiquidityChain chain(4);
  EXPECT_EQ(chain.Cascade().spent_tokens.size(), 0u);
  EXPECT_EQ(chain.rs_count(), 0u);
}

TEST(IncrementalCascadeTest, MatchesBatchOnPaperExample1) {
  LiquidityChain chain(4);
  chain.Add(View(1, {1, 2}));
  EXPECT_EQ(chain.Cascade().spent_tokens.size(), 0u);
  chain.Add(View(2, {1, 2}));
  // Two identical pairs: both tokens provably spent (Theorem 4.1).
  AnalysisResult pair = chain.Cascade();
  EXPECT_EQ(pair.spent_tokens.size(), 2u);
  EXPECT_TRUE(pair.spent_tokens.count(1));
  EXPECT_TRUE(pair.spent_tokens.count(2));
  chain.Add(View(3, {2, 3}));
  // r3 must spend 3.
  AnalysisResult all = chain.Cascade();
  EXPECT_TRUE(all.spent_tokens.count(3));
  ASSERT_TRUE(all.revealed_spends.count(3));
  EXPECT_EQ(all.revealed_spends.at(3), 3u);
}

TEST(IncrementalCascadeTest, TriangleClosure) {
  LiquidityChain chain(4);
  chain.Add(View(0, {1, 2}));
  chain.Add(View(1, {2, 3}));
  EXPECT_EQ(chain.Cascade().spent_tokens.size(), 0u);
  chain.Add(View(2, {1, 3}));
  EXPECT_EQ(chain.Cascade().spent_tokens.size(), 3u);
}

TEST(IncrementalCascadeTest, SpentCountIfAddedDoesNotMutate) {
  LiquidityChain chain(4);
  chain.Add(View(0, {1, 2}));
  EXPECT_EQ(chain.SpentCountIfAdded(View(1, {1, 2})), 2u);
  EXPECT_EQ(chain.Cascade().spent_tokens.size(), 0u);
  EXPECT_EQ(chain.rs_count(), 1u);
}

TEST(IncrementalCascadeTest, EquivalentToBatchCascadeOnRandomHistories) {
  common::Rng rng(99);
  for (int trial = 0; trial < 40; ++trial) {
    size_t num_tokens = 6 + rng.NextBounded(8);
    size_t num_rs = 2 + rng.NextBounded(6);
    std::vector<RsView> history;
    LiquidityChain chain(static_cast<TokenId>(num_tokens));
    for (size_t r = 0; r < num_rs; ++r) {
      std::vector<TokenId> members;
      size_t size = 1 + rng.NextBounded(3);
      for (size_t i = 0; i < size; ++i) {
        members.push_back(rng.NextBounded(num_tokens));
      }
      std::sort(members.begin(), members.end());
      members.erase(std::unique(members.begin(), members.end()),
                    members.end());
      RsView view = View(r, members);

      // The overlay probe counts what appending the RS would count.
      history.push_back(view);
      EXPECT_EQ(chain.SpentCountIfAdded(view),
                oracle::CountInferableSpent(history))
          << "trial " << trial << " step " << r;
      chain.Add(view);

      // After every insertion the chained state matches the batch
      // cascade over the prefix.
      AnalysisResult batch = oracle::Cascade(history);
      AnalysisResult incremental = chain.Cascade();
      EXPECT_EQ(incremental.spent_tokens, batch.spent_tokens)
          << "trial " << trial << " step " << r;
      EXPECT_EQ(incremental.revealed_spends, batch.revealed_spends)
          << "trial " << trial << " step " << r;
    }
  }
}

TEST(IncrementalCascadeTest, RevealedSpendsMatchBatch) {
  LiquidityChain chain(4);
  std::vector<RsView> history = {View(0, {1}), View(1, {1, 2}),
                                 View(2, {2, 3})};
  for (const auto& view : history) chain.Add(view);
  AnalysisResult batch = oracle::Cascade(history);
  AnalysisResult incremental = chain.Cascade();
  EXPECT_EQ(incremental.revealed_spends.size(), batch.revealed_spends.size());
  for (const auto& [rs, token] : batch.revealed_spends) {
    ASSERT_TRUE(incremental.revealed_spends.count(rs));
    EXPECT_EQ(incremental.revealed_spends.at(rs), token);
  }
}

}  // namespace
}  // namespace tokenmagic::analysis
