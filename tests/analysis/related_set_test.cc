#include "analysis/related_set.h"

#include <gtest/gtest.h>

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

// Paper Example 2: r1={t1,t2,t5}, r2={t1,t3}, r3={t1,t3}, r4={t2,t4},
// r5={t4,t5,t6}. The related set of r4 is {r1, r2, r3, r5}: specifically
// level 0 = {r1, r5} and level 1 = {r2, r3}.
TEST(RelatedSetTest, PaperExample2) {
  std::vector<RsView> history = {
      View(1, {1, 2, 5}), View(2, {1, 3}), View(3, {1, 3}),
      View(5, {4, 5, 6})};
  // Target = r4's members {t2, t4}.
  auto result = ComputeRelatedSet(std::vector<TokenId>{2, 4},
                                  AnalysisContext::Build(history));
  auto level0 = result.IdsAtLevel(0);
  auto level1 = result.IdsAtLevel(1);
  std::sort(level0.begin(), level0.end());
  std::sort(level1.begin(), level1.end());
  EXPECT_EQ(level0, (std::vector<RsId>{1, 5}));
  EXPECT_EQ(level1, (std::vector<RsId>{2, 3}));
  auto ids = result.Ids();
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<RsId>{1, 2, 3, 5}));
}

TEST(RelatedSetTest, DisjointHistoryIsUnrelated) {
  std::vector<RsView> history = {View(0, {10, 11}), View(1, {12, 13})};
  auto result = ComputeRelatedSet(std::vector<TokenId>{1, 2},
                                  AnalysisContext::Build(history));
  EXPECT_TRUE(result.related.empty());
}

TEST(RelatedSetTest, EmptyHistory) {
  auto result = ComputeRelatedSet(std::vector<TokenId>{1, 2},
                                  AnalysisContext::Build({}));
  EXPECT_TRUE(result.related.empty());
}

TEST(RelatedSetTest, ChainOfSharingDiscoversTransitively) {
  // 0-{1,2}, 1-{2,3}, 2-{3,4}, 3-{4,5}: target {1} pulls the whole chain.
  std::vector<RsView> history = {View(0, {1, 2}), View(1, {2, 3}),
                                 View(2, {3, 4}), View(3, {4, 5})};
  auto result = ComputeRelatedSet(std::vector<TokenId>{1},
                                  AnalysisContext::Build(history));
  EXPECT_EQ(result.related.size(), 4u);
  EXPECT_EQ(result.IdsAtLevel(0), (std::vector<RsId>{0}));
  EXPECT_EQ(result.IdsAtLevel(1), (std::vector<RsId>{1}));
  EXPECT_EQ(result.IdsAtLevel(2), (std::vector<RsId>{2}));
  EXPECT_EQ(result.IdsAtLevel(3), (std::vector<RsId>{3}));
}

TEST(RelatedSetTest, EachRsDiscoveredOnce) {
  // Diamond: two paths to rs 2; it must appear once at the lower level.
  std::vector<RsView> history = {View(0, {1, 2}), View(1, {1, 3}),
                                 View(2, {2, 3})};
  auto result = ComputeRelatedSet(std::vector<TokenId>{1},
                                  AnalysisContext::Build(history));
  EXPECT_EQ(result.related.size(), 3u);
  size_t count_rs2 = 0;
  for (const auto& r : result.related) {
    if (r.id == 2) ++count_rs2;
  }
  EXPECT_EQ(count_rs2, 1u);
}

TEST(RelatedSetTest, BatchDisjointnessKeepsSetsLocal) {
  // Two "batches" of RSs with disjoint token ranges: a target in the
  // first batch never reaches the second.
  std::vector<RsView> history = {View(0, {1, 2}), View(1, {2, 3}),
                                 View(2, {100, 101}), View(3, {101, 102})};
  auto result = ComputeRelatedSet(std::vector<TokenId>{3},
                                  AnalysisContext::Build(history));
  auto ids = result.Ids();
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<RsId>{0, 1}));
}

}  // namespace
}  // namespace tokenmagic::analysis
