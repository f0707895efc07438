#include "analysis/matching.h"

#include <gtest/gtest.h>

#include "common/rng.h"

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

TEST(SdrEnumeratorTest, TwoDisjointRsHaveProductCount) {
  std::vector<RsView> views = {View(0, {1, 2}), View(1, {3, 4})};
  const AnalysisContext context = AnalysisContext::Build(views);
  auto count = SdrEnumerator::Count(context);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 4u);
  EXPECT_EQ(CountSdrsDp(context), 4u);
}

TEST(SdrEnumeratorTest, SharedTokenReducesCount) {
  // r0={1,2}, r1={2,3}: assignments (1,2),(1,3),(2,3) => 3.
  std::vector<RsView> views = {View(0, {1, 2}), View(1, {2, 3})};
  const AnalysisContext context = AnalysisContext::Build(views);
  auto count = SdrEnumerator::Count(context);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 3u);
  EXPECT_EQ(CountSdrsDp(context), 3u);
}

TEST(SdrEnumeratorTest, IdenticalPairHasTwoOrders) {
  // Example 1 of the paper: r1 = r2 = {t1, t2} forces {t1, t2} spent.
  std::vector<RsView> views = {View(0, {1, 2}), View(1, {1, 2})};
  const AnalysisContext context = AnalysisContext::Build(views);
  auto count = SdrEnumerator::Count(context);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 2u);  // (1,2) and (2,1)
}

TEST(SdrEnumeratorTest, InfeasibleFamilyHasZero) {
  // Three RSs over two tokens: pigeonhole.
  std::vector<RsView> views = {View(0, {1, 2}), View(1, {1, 2}),
                               View(2, {1, 2})};
  const AnalysisContext context = AnalysisContext::Build(views);
  auto count = SdrEnumerator::Count(context);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 0u);
  EXPECT_EQ(CountSdrsDp(context), 0u);
  EXPECT_FALSE(HopcroftKarp::HasCompleteSdr(context));
}

TEST(SdrEnumeratorTest, VisitorSeesValidAssignments) {
  std::vector<RsView> views = {View(0, {1, 2, 3}), View(1, {2, 3})};
  const AnalysisContext context = AnalysisContext::Build(views);
  size_t visits = 0;
  auto st = SdrEnumerator::Enumerate(
      context, {}, [&](const SdrAssignment& u) {
        ++visits;
        EXPECT_EQ(u.size(), 2u);
        EXPECT_NE(u[0], u[1]);  // distinct tokens
        return true;
      });
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(visits, 4u);  // (1,2),(1,3),(2,3),(3,2)
}

TEST(SdrEnumeratorTest, EarlyStopViaVisitor) {
  std::vector<RsView> views = {View(0, {1, 2, 3, 4})};
  const AnalysisContext context = AnalysisContext::Build(views);
  size_t visits = 0;
  auto st = SdrEnumerator::Enumerate(context, {},
                                     [&](const SdrAssignment&) {
                                       ++visits;
                                       return visits < 2;
                                     });
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(visits, 2u);
}

TEST(SdrEnumeratorTest, MaxResultsCapReported) {
  std::vector<RsView> views = {View(0, {1, 2, 3, 4, 5})};
  const AnalysisContext context = AnalysisContext::Build(views);
  SdrEnumerator::Options options;
  options.max_results = 3;
  size_t visits = 0;
  auto st = SdrEnumerator::Enumerate(context, options,
                                     [&](const SdrAssignment&) {
                                       ++visits;
                                       return true;
                                     });
  EXPECT_EQ(st.code(), common::StatusCode::kResourceExhausted);
  EXPECT_EQ(visits, 3u);
}

TEST(HopcroftKarpTest, CompleteSdrDetection) {
  std::vector<RsView> feasible = {View(0, {1, 2}), View(1, {2, 3}),
                                  View(2, {3, 1})};
  EXPECT_TRUE(HopcroftKarp::HasCompleteSdr(AnalysisContext::Build(feasible)));
  std::vector<RsView> infeasible = {View(0, {1}), View(1, {1})};
  EXPECT_FALSE(HopcroftKarp::HasCompleteSdr(AnalysisContext::Build(infeasible)));
}

TEST(HopcroftKarpTest, PossibleSpendsMatchEnumeration) {
  // Compare HK-based possible-spend sets with brute-force enumeration on
  // random small families.
  common::Rng rng(55);
  for (int trial = 0; trial < 30; ++trial) {
    size_t num_rs = 2 + rng.NextBounded(3);
    size_t num_tokens = num_rs + rng.NextBounded(3);
    std::vector<RsView> views;
    for (size_t r = 0; r < num_rs; ++r) {
      std::vector<TokenId> members;
      for (size_t t = 0; t < num_tokens; ++t) {
        if (rng.NextBool(0.6)) members.push_back(t);
      }
      if (members.empty()) members.push_back(rng.NextBounded(num_tokens));
      views.push_back(View(r, members));
    }
    const AnalysisContext context = AnalysisContext::Build(views);

    // Brute force: collect per-RS spend sets over all SDRs.
    std::vector<std::set<size_t>> possible_bf(num_rs);
    auto st = SdrEnumerator::Enumerate(
        context, {}, [&](const SdrAssignment& u) {
          for (size_t r = 0; r < num_rs; ++r) possible_bf[r].insert(u[r]);
          return true;
        });
    ASSERT_TRUE(st.ok());

    for (size_t r = 0; r < num_rs; ++r) {
      auto hk = HopcroftKarp::PossibleSpends(context, r);
      std::set<size_t> hk_set(hk.begin(), hk.end());
      EXPECT_EQ(hk_set, possible_bf[r]) << "trial " << trial << " rs " << r;
    }
  }
}

TEST(CountSdrsDpTest, MatchesBacktrackingOnRandomFamilies) {
  common::Rng rng(77);
  for (int trial = 0; trial < 30; ++trial) {
    size_t num_rs = 1 + rng.NextBounded(4);
    size_t num_tokens = num_rs + rng.NextBounded(4);
    std::vector<RsView> views;
    for (size_t r = 0; r < num_rs; ++r) {
      std::vector<TokenId> members;
      for (size_t t = 0; t < num_tokens; ++t) {
        if (rng.NextBool(0.5)) members.push_back(t);
      }
      if (members.empty()) members.push_back(rng.NextBounded(num_tokens));
      views.push_back(View(r, members));
    }
    const AnalysisContext context = AnalysisContext::Build(views);
    auto bt = SdrEnumerator::Count(context);
    ASSERT_TRUE(bt.ok());
    EXPECT_EQ(*bt, CountSdrsDp(context)) << "trial " << trial;
  }
}

TEST(CountSdrsDpTest, EmptyFamilyHasOneSdr) {
  const AnalysisContext context = AnalysisContext::Build({});
  EXPECT_EQ(CountSdrsDp(context), 1u);
  auto count = SdrEnumerator::Count(context);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 1u);
}

}  // namespace
}  // namespace tokenmagic::analysis
