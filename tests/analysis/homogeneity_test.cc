#include "analysis/homogeneity.h"

#include <gtest/gtest.h>

#include "analysis/anonymity.h"
#include "analysis/chain_reaction.h"

namespace tokenmagic::analysis {
namespace {

using chain::RsView;
using chain::HtIndex;
using chain::TokenId;
using chain::TokenRsPair;

// Paper Example 1, first solution: r3 = {t1, t3} with both tokens from
// h1 — the homogeneity attack succeeds without any elimination.
TEST(HomogeneityTest, PaperExample1FirstSolution) {
  HtIndex idx;
  idx.Set(1, 100);  // h1
  idx.Set(3, 100);  // h1
  auto report = ProbeHomogeneity(std::vector<TokenId>{1, 3}, {}, idx);
  EXPECT_TRUE(report.ht_determined);
  EXPECT_EQ(report.distinct_hts, 1u);
  EXPECT_DOUBLE_EQ(report.top_ht_confidence, 1.0);
}

// Paper Section 2.4, first adversary method: r3 = {t1,t2,t3,t4}; knowing
// t2 and t4 are not spent leaves {t1, t3}, both from h1.
TEST(HomogeneityTest, PaperSection24EliminationThenHomogeneity) {
  HtIndex idx;
  idx.Set(1, 100);
  idx.Set(3, 100);
  idx.Set(2, 200);
  idx.Set(4, 300);
  auto no_elim = ProbeHomogeneity(std::vector<TokenId>{1, 2, 3, 4}, {}, idx);
  EXPECT_FALSE(no_elim.ht_determined);
  EXPECT_DOUBLE_EQ(no_elim.top_ht_confidence, 0.5);

  auto with_elim = ProbeHomogeneity(std::vector<TokenId>{1, 2, 3, 4}, {2, 4}, idx);
  EXPECT_TRUE(with_elim.ht_determined);
  EXPECT_EQ(with_elim.surviving, (std::vector<TokenId>{1, 3}));
}

TEST(HomogeneityTest, EmptySurvivorsIsSafeDegenerate) {
  HtIndex idx;
  idx.Set(1, 100);
  auto report = ProbeHomogeneity(std::vector<TokenId>{1}, {1}, idx);
  EXPECT_TRUE(report.surviving.empty());
  EXPECT_FALSE(report.ht_determined);
  EXPECT_EQ(report.top_ht_confidence, 0.0);
}

TEST(HomogeneityTest, ConfidenceTracksDominantHt) {
  HtIndex idx;
  idx.Set(1, 100);
  idx.Set(2, 100);
  idx.Set(3, 100);
  idx.Set(4, 200);
  auto report = ProbeHomogeneity(std::vector<TokenId>{1, 2, 3, 4}, {}, idx);
  EXPECT_FALSE(report.ht_determined);
  EXPECT_EQ(report.distinct_hts, 2u);
  EXPECT_EQ(report.top_ht_frequency, 3);
  EXPECT_DOUBLE_EQ(report.top_ht_confidence, 0.75);
}

RsView View(chain::RsId id, std::vector<TokenId> members) {
  RsView v;
  v.id = id;
  v.members = std::move(members);
  std::sort(v.members.begin(), v.members.end());
  return v;
}

TEST(AnonymityStatsTest, SummarizesAnalysis) {
  std::vector<RsView> history = {View(0, {1, 2}), View(1, {1, 2}),
                                 View(2, {2, 3})};
  auto result = ChainReactionAnalyzer::Analyze(AnalysisContext::Build(history));
  auto stats = SummarizeAnonymity(result);
  EXPECT_EQ(stats.rs_count, 3u);
  EXPECT_EQ(stats.fully_revealed, 1u);  // r2 -> t3
  EXPECT_EQ(stats.with_eliminations, 1u);
  EXPECT_DOUBLE_EQ(stats.min_anonymity_set, 1.0);
  EXPECT_NEAR(stats.mean_anonymity_set, (2 + 2 + 1) / 3.0, 1e-12);
  EXPECT_GT(stats.mean_entropy_bits, 0.0);
}

TEST(AnonymityStatsTest, EmptyResult) {
  AnalysisResult empty;
  auto stats = SummarizeAnonymity(empty);
  EXPECT_EQ(stats.rs_count, 0u);
  EXPECT_EQ(stats.mean_anonymity_set, 0.0);
}

TEST(DeanonymizationRateTest, CountsExactHits) {
  std::vector<RsView> history = {View(0, {1, 2}), View(1, {1, 2}),
                                 View(2, {2, 3})};
  auto result = ChainReactionAnalyzer::Analyze(AnalysisContext::Build(history));
  // Truth: r2 spends 3 (matches the forced inference), r0 spends 1.
  std::vector<TokenRsPair> truth = {{1, 0}, {2, 1}, {3, 2}};
  EXPECT_NEAR(DeanonymizationRate(result, truth), 1.0 / 3.0, 1e-12);
  EXPECT_EQ(DeanonymizationRate(result, {}), 0.0);
}

}  // namespace
}  // namespace tokenmagic::analysis
