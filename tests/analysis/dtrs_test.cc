#include "analysis/dtrs.h"

#include <gtest/gtest.h>

namespace tokenmagic::analysis {
namespace {

using chain::RsId;
using chain::RsView;
using chain::HtIndex;
using chain::TokenId;
using chain::TokenRsPair;
using chain::TxId;

RsView View(RsId id, std::vector<TokenId> members) {
  RsView v;
  v.id = id;
  v.members = std::move(members);
  std::sort(v.members.begin(), v.members.end());
  v.proposed_at = id;
  return v;
}

/// The exact DTRSs of `target` over a from-scratch interning of `history`.
common::Result<std::vector<Dtrs>> FindAllOf(
    std::span<const RsView> history, RsId target, const HtIndex& index,
    const DtrsFinder::Options& options = {}) {
  return DtrsFinder::FindAll(AnalysisContext::Build(history), target, index,
                             options);
}

HtIndex IdentityIndex(std::vector<TokenId> tokens) {
  // Each token its own HT.
  HtIndex idx;
  for (TokenId t : tokens) idx.Set(t, static_cast<TxId>(t));
  return idx;
}

// Paper Section 2.3: with Example 2's RSs, {<t2, r1>} is a DTRS of r5:
// fixing t2 spent in r1 forces r4 to spend t4, so r5 spends t5 or t6,
// both from HT h1.
TEST(DtrsTest, PaperExample2DtrsOfR5) {
  std::vector<RsView> history = {
      View(1, {1, 2, 5}), View(2, {1, 3}), View(3, {1, 3}),
      View(4, {2, 4}),    View(5, {4, 5, 6})};
  HtIndex idx = IdentityIndex({1, 2, 3, 4});
  // t5 and t6 share HT h1 (= 100).
  idx.Set(5, 100);
  idx.Set(6, 100);

  auto dtrss = FindAllOf(history, 5, idx);
  ASSERT_TRUE(dtrss.ok());
  bool found_t2_r1 = false;
  for (const Dtrs& d : *dtrss) {
    if (d.pairs.size() == 1 && d.pairs[0] == (TokenRsPair{2, 1})) {
      found_t2_r1 = true;
      EXPECT_EQ(d.determined_ht, 100u);
    }
  }
  EXPECT_TRUE(found_t2_r1);
}

// Paper Section 2.4: r4 has three DTRSs — {<t4,r5>}, {<t5,r5>}, {<t2,r1>}.
TEST(DtrsTest, PaperSection24DtrssOfR4) {
  std::vector<RsView> history = {
      View(1, {1, 2, 5}), View(2, {1, 3}), View(3, {1, 3}),
      View(4, {2, 4}),    View(5, {4, 5, 6})};
  HtIndex idx = IdentityIndex({1, 2, 3, 4});
  idx.Set(5, 100);
  idx.Set(6, 100);

  auto dtrss = FindAllOf(history, 4, idx);
  ASSERT_TRUE(dtrss.ok());
  auto has_singleton = [&](TokenId t, RsId r) {
    for (const Dtrs& d : *dtrss) {
      if (d.pairs.size() == 1 && d.pairs[0] == (TokenRsPair{t, r})) {
        return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(has_singleton(4, 5));  // t4 spent in r5 => r4 spends t2
  EXPECT_TRUE(has_singleton(5, 5));  // t5 spent in r5 => r4 spends t4
  EXPECT_TRUE(has_singleton(2, 1));  // t2 spent in r1 => r4 spends t4
}

// One enumeration serves every RS: a finder's Find gives what a fresh
// FindAll gives, for each RS of the Example 2 history in turn.
TEST(DtrsTest, OneFinderServesEveryRs) {
  std::vector<RsView> history = {
      View(1, {1, 2, 5}), View(2, {1, 3}), View(3, {1, 3}),
      View(4, {2, 4}),    View(5, {4, 5, 6})};
  HtIndex idx = IdentityIndex({1, 2, 3, 4});
  idx.Set(5, 100);
  idx.Set(6, 100);
  const AnalysisContext context = AnalysisContext::Build(history);
  auto finder = DtrsFinder::ForContext(context, idx, {});
  ASSERT_TRUE(finder.ok());
  size_t total = 0;
  for (RsId r = 1; r <= 5; ++r) {
    auto shared = finder->Find(r);
    auto fresh = FindAllOf(history, r, idx);
    ASSERT_TRUE(shared.ok());
    ASSERT_TRUE(fresh.ok());
    ASSERT_EQ(shared->size(), fresh->size()) << "r" << r;
    for (size_t i = 0; i < shared->size(); ++i) {
      EXPECT_EQ((*shared)[i].pairs, (*fresh)[i].pairs) << "r" << r;
      EXPECT_EQ((*shared)[i].determined_ht, (*fresh)[i].determined_ht)
          << "r" << r;
    }
    total += shared->size();
  }
  EXPECT_GE(total, 4u);  // at least r4's three and r5's {<t2, r1>}
}

TEST(DtrsTest, SingleRsHasNoDtrs) {
  std::vector<RsView> history = {View(0, {1, 2})};
  HtIndex idx = IdentityIndex({1, 2});
  auto dtrss = FindAllOf(history, 0, idx);
  ASSERT_TRUE(dtrss.ok());
  EXPECT_TRUE(dtrss->empty());
}

TEST(DtrsTest, MinimalityPrunesSupersets) {
  // r0={1,2}, r1={2,3}: <2,r0> determines r1 spends 3 (HT 3). The pair
  // set {<2,r0>} is minimal, so no 2-pair DTRS containing it survives.
  std::vector<RsView> history = {View(0, {1, 2}), View(1, {2, 3})};
  HtIndex idx = IdentityIndex({1, 2, 3});
  auto dtrss = FindAllOf(history, 1, idx);
  ASSERT_TRUE(dtrss.ok());
  for (const Dtrs& d : *dtrss) {
    if (d.pairs.size() >= 2) {
      bool contains_small = false;
      for (const auto& p : d.pairs) {
        if (p == (TokenRsPair{2, 0})) contains_small = true;
      }
      EXPECT_FALSE(contains_small);
    }
  }
}

TEST(DtrsTest, TokensHelperExtractsTokens) {
  Dtrs d;
  d.pairs = {TokenRsPair{5, 0}, TokenRsPair{9, 1}};
  EXPECT_EQ(d.Tokens(), (std::vector<TokenId>{5, 9}));
}

// Theorem 6.1 practical check.
TEST(PracticalDtrsTest, LowSubsetCountMeansNoDtrs) {
  // |r| = 4, all different HTs: a DTRS pinning HT h_j needs
  // v >= 4 - 1 + 1 = 4. With v = 1 no DTRS exists: trivially diverse.
  HtIndex idx = IdentityIndex({1, 2, 3, 4});
  EXPECT_TRUE(PracticalDtrsDiversityHolds(std::vector<TokenId>{1, 2, 3, 4}, 1, idx,
                                          {0.0001, 100}));
}

TEST(PracticalDtrsTest, HighSubsetCountActivatesPsiChecks) {
  // v = 4 activates every ψ_{i,j} = r \ T̃_{i,j}, each of size 3 with
  // 3 distinct HTs: satisfies (1, 2) (1 < 1*1... wait: q1=1 < c*(q2+q3)
  // = 1*2) but not (1, 3) (1 < 1*q3 = 1 fails).
  HtIndex idx = IdentityIndex({1, 2, 3, 4});
  EXPECT_TRUE(PracticalDtrsDiversityHolds(std::vector<TokenId>{1, 2, 3, 4}, 4, idx, {1.0, 2}));
  EXPECT_FALSE(PracticalDtrsDiversityHolds(std::vector<TokenId>{1, 2, 3, 4}, 4, idx, {1.0, 3}));
}

TEST(PracticalDtrsTest, RingCoveringThreeRsActivatesPsiChecks) {
  // A ring that is one super RS shared by three history RSs has v = 4 >=
  // |r| - |T̃| + 1 = 3, so every ψ set (2 tokens, 2 HTs) is a DTRS:
  // (1, 2) fails (1 < 1*1 does not hold), (2, 1) holds (1 < 2*2).
  HtIndex idx = IdentityIndex({1, 2, 3});
  EXPECT_FALSE(PracticalDtrsDiversityHolds(std::vector<TokenId>{1, 2, 3}, 4,
                                           idx, {1.0, 2}));
  EXPECT_TRUE(PracticalDtrsDiversityHolds(std::vector<TokenId>{1, 2, 3}, 4,
                                          idx, {2.0, 1}));
}

TEST(PracticalDtrsTest, HomogeneousRsFailsWhenDtrsExists) {
  HtIndex idx;
  for (TokenId t : {1, 2, 3}) idx.Set(t, 7);
  // Single-HT RS: ψ is empty; with v large enough this is a violation.
  EXPECT_FALSE(PracticalDtrsDiversityHolds(std::vector<TokenId>{1, 2, 3}, 3, idx, {1.0, 1}));
  // With v = 1 the DTRS cannot exist (3 - 3 + 1 = 1 <= 1... existence
  // condition: v >= |r| - |T̃| + 1 = 1, so it DOES exist => violation.
  EXPECT_FALSE(PracticalDtrsDiversityHolds(std::vector<TokenId>{1, 2, 3}, 1, idx, {1.0, 1}));
}

TEST(PracticalDtrsTest, MixedHtsPartialActivation) {
  // Tokens 1,2 from HT a; token 3 from HT b. |r|=3.
  HtIndex idx;
  idx.Set(1, 100);
  idx.Set(2, 100);
  idx.Set(3, 200);
  // DTRS for HT a (T̃ = {1,2}): needs v >= 3-2+1 = 2.
  // DTRS for HT b (T̃ = {3}): needs v >= 3-1+1 = 3.
  // With v = 2: only the HT-a DTRS exists, ψ = {3}: frequencies {1}.
  // (2, 1): 1 < 2*1 ok. (1, 1): 1 < 1 fails.
  EXPECT_TRUE(PracticalDtrsDiversityHolds(std::vector<TokenId>{1, 2, 3}, 2, idx, {2.0, 1}));
  EXPECT_FALSE(PracticalDtrsDiversityHolds(std::vector<TokenId>{1, 2, 3}, 2, idx, {1.0, 1}));
}

TEST(SideInfoThresholdTest, Theorem62Formula) {
  HtIndex idx;
  idx.Set(1, 100);
  idx.Set(2, 100);
  idx.Set(3, 200);
  idx.Set(4, 300);
  // q_M = 2, |r| = 4 => threshold 2.
  EXPECT_EQ(SideInfoThreshold(std::vector<TokenId>{1, 2, 3, 4}, idx), 2u);
  // Homogeneous: threshold 0 (already knowable).
  HtIndex homo;
  for (TokenId t : {1, 2}) homo.Set(t, 7);
  EXPECT_EQ(SideInfoThreshold(std::vector<TokenId>{1, 2}, homo), 0u);
}

TEST(DtrsTest, CapsAreReported) {
  std::vector<RsView> history = {View(0, {1, 2, 3, 4, 5, 6}),
                                 View(1, {1, 2, 3, 4, 5, 6}),
                                 View(2, {1, 2, 3, 4, 5, 6})};
  HtIndex idx = IdentityIndex({1, 2, 3, 4, 5, 6});
  DtrsFinder::Options options;
  options.max_combinations = 2;
  auto result = FindAllOf(history, 0, idx, options);
  // With a 2-combination cap the search completes on the truncated space
  // (ResourceExhausted is surfaced as a status).
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(),
            common::StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace tokenmagic::analysis
