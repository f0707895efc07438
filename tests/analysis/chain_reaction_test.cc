#include "analysis/chain_reaction.h"

#include <gtest/gtest.h>

namespace tokenmagic::analysis {
namespace {

using chain::RsId;
using chain::RsView;
using chain::TokenId;
using chain::TokenRsPair;

RsView View(RsId id, std::vector<TokenId> members) {
  RsView v;
  v.id = id;
  v.members = std::move(members);
  std::sort(v.members.begin(), v.members.end());
  v.proposed_at = id;
  return v;
}

/// The production cascade over a from-scratch interning of `history`.
AnalysisResult CascadeOf(std::span<const RsView> history) {
  return ChainReactionAnalyzer::Cascade(AnalysisContext::Build(history));
}

/// The exact analysis over a from-scratch interning of `history`.
AnalysisResult AnalyzeOf(std::span<const RsView> history,
                         const SideInformation& si = {}) {
  return ChainReactionAnalyzer::Analyze(AnalysisContext::Build(history), si);
}

// Paper Example 1, second solution: r1 = r2 = {t1, t2}, r3 = {t2, t3}.
// Chain reaction: t1 and t2 are both spent by r1/r2, so r3's spend must
// be t3 — t2 is eliminated from r3.
TEST(AnalyzeTest, PaperExample1ChainReaction) {
  std::vector<RsView> history = {View(1, {1, 2}), View(2, {1, 2}),
                                 View(3, {2, 3})};
  auto result = AnalyzeOf(history);
  EXPECT_FALSE(result.NoTokenEliminated());
  ASSERT_TRUE(result.revealed_spends.count(3));
  EXPECT_EQ(result.revealed_spends.at(3), 3u);
  EXPECT_EQ(result.eliminated.at(3), (std::vector<TokenId>{2}));
  // r1 and r2 remain ambiguous between t1/t2.
  EXPECT_FALSE(result.revealed_spends.count(1));
  EXPECT_FALSE(result.revealed_spends.count(2));
  // But both t1 and t2 are known-spent.
  EXPECT_TRUE(result.spent_tokens.count(1));
  EXPECT_TRUE(result.spent_tokens.count(2));
}

// Paper Example 1, good solution: r3 = {t3, t4} keeps everything hidden.
TEST(AnalyzeTest, PaperExample1GoodSolution) {
  std::vector<RsView> history = {View(1, {1, 2}), View(2, {1, 2}),
                                 View(3, {3, 4})};
  auto result = AnalyzeOf(history);
  EXPECT_TRUE(result.NoTokenEliminated());
  EXPECT_TRUE(result.revealed_spends.empty());
  EXPECT_EQ(result.possible_spends.at(3),
            (std::vector<TokenId>{3, 4}));
}

// Section 3.1 example: after r6 = {t2, t4} joins Example 2's history, the
// spends of r1 and r5 become inferable.
TEST(AnalyzeTest, PaperSection31NewRsBreaksOldOnes) {
  std::vector<RsView> history = {
      View(1, {1, 2, 5}), View(2, {1, 3}), View(3, {1, 3}),
      View(4, {2, 4}),    View(5, {4, 5, 6})};
  auto before = AnalyzeOf(history);
  EXPECT_FALSE(before.revealed_spends.count(1));
  EXPECT_FALSE(before.revealed_spends.count(5));

  history.push_back(View(6, {2, 4}));
  auto after = AnalyzeOf(history);
  ASSERT_TRUE(after.revealed_spends.count(1));
  EXPECT_EQ(after.revealed_spends.at(1), 5u);
  ASSERT_TRUE(after.revealed_spends.count(5));
  EXPECT_EQ(after.revealed_spends.at(5), 6u);
}

TEST(AnalyzeTest, SideInformationEliminatesAndReveals) {
  // r0={1,2}, r1={2,3}. Reveal <2, r0>: then r1 must spend 3.
  std::vector<RsView> history = {View(0, {1, 2}), View(1, {2, 3})};
  SideInformation si;
  si.revealed.push_back(TokenRsPair{2, 0});
  auto result = AnalyzeOf(history, si);
  ASSERT_TRUE(result.revealed_spends.count(1));
  EXPECT_EQ(result.revealed_spends.at(1), 3u);
  // Token 1 is eliminated from r0 by the side info itself.
  EXPECT_EQ(result.eliminated.at(0), (std::vector<TokenId>{1}));
}

TEST(AnalyzeTest, EmptyHistory) {
  auto result = AnalyzeOf({});
  EXPECT_TRUE(result.spent_tokens.empty());
  EXPECT_TRUE(result.revealed_spends.empty());
  EXPECT_TRUE(result.NoTokenEliminated());
}

TEST(AnalyzeTest, SingleRsFullyAmbiguous) {
  std::vector<RsView> history = {View(0, {1, 2, 3})};
  auto result = AnalyzeOf(history);
  EXPECT_TRUE(result.NoTokenEliminated());
  EXPECT_EQ(result.possible_spends.at(0), (std::vector<TokenId>{1, 2, 3}));
}

// Theorem 4.1: n RSs over exactly n tokens => all tokens spent.
TEST(CascadeTest, Theorem41Closure) {
  std::vector<RsView> history = {View(0, {1, 2}), View(1, {2, 3}),
                                 View(2, {1, 3})};
  auto result = CascadeOf(history);
  EXPECT_EQ(result.spent_tokens.size(), 3u);
  EXPECT_TRUE(result.spent_tokens.count(1));
  EXPECT_TRUE(result.spent_tokens.count(2));
  EXPECT_TRUE(result.spent_tokens.count(3));
}

TEST(CascadeTest, NoFalsePositives) {
  // 2 RSs over 4 tokens: nothing is provably spent.
  std::vector<RsView> history = {View(0, {1, 2}), View(1, {3, 4})};
  auto result = CascadeOf(history);
  EXPECT_TRUE(result.spent_tokens.empty());
}

TEST(CascadeTest, ZeroMixinCascade) {
  // r0={1} is a zero-mixin RS: token 1 revealed; then r1={1,2} must
  // spend 2; then r2={2,3} must spend 3.
  std::vector<RsView> history = {View(0, {1}), View(1, {1, 2}),
                                 View(2, {2, 3})};
  auto result = CascadeOf(history);
  EXPECT_EQ(result.revealed_spends.at(0), 1u);
  EXPECT_EQ(result.revealed_spends.at(1), 2u);
  EXPECT_EQ(result.revealed_spends.at(2), 3u);
  EXPECT_EQ(result.spent_tokens.size(), 3u);
}

TEST(CascadeTest, SoundWithRespectToExactAnalysis) {
  // Everything the cascade marks spent must also be spent under the
  // exact analysis on a batch of tricky families.
  std::vector<std::vector<RsView>> cases = {
      {View(0, {1, 2}), View(1, {1, 2}), View(2, {2, 3})},
      {View(0, {1, 2, 3}), View(1, {2, 3}), View(2, {3, 1})},
      {View(0, {1}), View(1, {1, 2, 3})},
  };
  for (const auto& history : cases) {
    auto cascade = CascadeOf(history);
    auto exact = AnalyzeOf(history);
    for (const auto& [rs, token] : cascade.revealed_spends) {
      ASSERT_TRUE(exact.possible_spends.count(rs));
      EXPECT_EQ(exact.possible_spends.at(rs),
                (std::vector<TokenId>{token}));
    }
  }
}

TEST(CountInferableSpentTest, MatchesCascade) {
  std::vector<RsView> history = {View(0, {1, 2}), View(1, {1, 2}),
                                 View(2, {5, 6})};
  EXPECT_EQ(ChainReactionAnalyzer::CountInferableSpent(
                AnalysisContext::Build(history)),
            2u);
  EXPECT_EQ(ChainReactionAnalyzer::CountInferableSpent(
                AnalysisContext::Build({})),
            0u);
}

TEST(AnalysisResultTest, NoTokenEliminatedReflectsContent) {
  AnalysisResult r;
  EXPECT_TRUE(r.NoTokenEliminated());
  r.eliminated[0] = {};
  EXPECT_TRUE(r.NoTokenEliminated());
  r.eliminated[1] = {7};
  EXPECT_FALSE(r.NoTokenEliminated());
}

}  // namespace
}  // namespace tokenmagic::analysis
