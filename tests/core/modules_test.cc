#include "core/modules.h"

#include <gtest/gtest.h>

#include "analysis/context.h"
#include "common/rng.h"
#include "oracle/analysis_oracle.h"
#include "support/snapshot.h"

namespace tokenmagic::core {
namespace {

using chain::RsId;
using chain::RsView;
using chain::TokenId;

template <typename T>
std::vector<T> ToVector(std::span<const T> span) {
  return {span.begin(), span.end()};
}

RsView View(RsId id, std::vector<TokenId> members,
            chain::Timestamp at = 0) {
  RsView v;
  v.id = id;
  v.members = std::move(members);
  std::sort(v.members.begin(), v.members.end());
  v.proposed_at = at == 0 ? id : at;
  return v;
}

// Paper Section 6.1 example: r1={t1,t2}@π, r2={t1,t2,t3}@π+1,
// r3={t4,t5}@π+2, T={t1..t6}. Super RSs: r2 (v=2) and r3 (v=1); t6 fresh.
TEST(ModuleUniverseTest, PaperSection61Example) {
  std::vector<TokenId> universe = {1, 2, 3, 4, 5, 6};
  std::vector<RsView> history = {View(1, {1, 2}, 10), View(2, {1, 2, 3}, 11),
                                 View(3, {4, 5}, 12)};
  auto mu = test_support::BuildModules(universe, history);
  ASSERT_TRUE(mu.ok());

  auto supers = mu->SuperRsModuleIndices();
  ASSERT_EQ(supers.size(), 2u);
  Module m2 = mu->module(mu->ModuleOfToken(3));
  EXPECT_EQ(m2.super_rs, 2u);
  EXPECT_EQ(m2.subset_count, 2u);  // r1 and r2
  Module m3 = mu->module(mu->ModuleOfToken(4));
  EXPECT_EQ(m3.super_rs, 3u);
  EXPECT_EQ(m3.subset_count, 1u);

  auto fresh = mu->FreshModuleIndices();
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(ToVector(mu->module(fresh[0]).tokens), (std::vector<TokenId>{6}));
  EXPECT_TRUE(mu->module(fresh[0]).is_fresh);
  EXPECT_EQ(mu->token_count(), 6u);
}

TEST(ModuleUniverseTest, EmptyHistoryIsAllFresh) {
  std::vector<TokenId> universe = {1, 2, 3};
  auto mu = test_support::BuildModules(universe, {});
  ASSERT_TRUE(mu.ok());
  EXPECT_EQ(mu->FreshModuleIndices().size(), 3u);
  EXPECT_TRUE(mu->SuperRsModuleIndices().empty());
}

TEST(ModuleUniverseTest, RejectsPartialOverlap) {
  // {1,2} and {2,3} violate the first practical configuration.
  std::vector<TokenId> universe = {1, 2, 3};
  std::vector<RsView> history = {View(0, {1, 2}), View(1, {2, 3})};
  auto mu = test_support::BuildModules(universe, history);
  EXPECT_FALSE(mu.ok());
  EXPECT_TRUE(mu.status().IsInvalidArgument());
}

TEST(ModuleUniverseTest, RejectsTokensOutsideUniverse) {
  std::vector<TokenId> universe = {1, 2};
  std::vector<RsView> history = {View(0, {1, 2, 99})};
  auto mu = test_support::BuildModules(universe, history);
  EXPECT_FALSE(mu.ok());
  EXPECT_TRUE(mu.status().IsInvalidArgument());
}

TEST(ModuleUniverseTest, NestedChainsCollapseToLatestSuper) {
  // r0 ⊂ r1 ⊂ r2: only r2 is a super RS, with subset count 3.
  std::vector<RsView> history = {View(0, {1}, 1), View(1, {1, 2}, 2),
                                 View(2, {1, 2, 3}, 3)};
  std::vector<TokenId> universe = {1, 2, 3, 4};
  auto mu = test_support::BuildModules(universe, history);
  ASSERT_TRUE(mu.ok());
  auto supers = mu->SuperRsModuleIndices();
  ASSERT_EQ(supers.size(), 1u);
  EXPECT_EQ(mu->module(supers[0]).super_rs, 2u);
  EXPECT_EQ(mu->module(supers[0]).subset_count, 3u);
  EXPECT_EQ(mu->SubsetRsOf(supers[0]).size(), 3u);
  EXPECT_EQ(mu->FreshModuleIndices().size(), 1u);  // token 4
}

TEST(ModuleUniverseTest, EqualSetsLaterWins) {
  // Two identical RSs: the later one is the super RS (Def. 7 excludes an
  // RS that a later superset covers; ⊇ includes equality).
  std::vector<RsView> history = {View(0, {1, 2}, 1), View(1, {1, 2}, 2)};
  std::vector<TokenId> universe = {1, 2};
  auto mu = test_support::BuildModules(universe, history);
  ASSERT_TRUE(mu.ok());
  auto supers = mu->SuperRsModuleIndices();
  ASSERT_EQ(supers.size(), 1u);
  EXPECT_EQ(mu->module(supers[0]).super_rs, 1u);
  EXPECT_EQ(mu->module(supers[0]).subset_count, 2u);
}

TEST(ModuleUniverseTest, ModuleOfTokenCoversEveryToken) {
  std::vector<RsView> history = {View(0, {1, 2}), View(1, {3, 4, 5})};
  std::vector<TokenId> universe = {1, 2, 3, 4, 5, 6, 7};
  auto mu = test_support::BuildModules(universe, history);
  ASSERT_TRUE(mu.ok());
  for (TokenId t : {1, 2, 3, 4, 5, 6, 7}) {
    size_t index = mu->ModuleOfToken(t);
    Module module = mu->module(index);
    EXPECT_NE(std::find(module.tokens.begin(), module.tokens.end(), t),
              module.tokens.end());
  }
}

void ExpectSameUniverse(const oracle::ModuleDecomposition& legacy,
                        const ModuleUniverse& fast, int trial) {
  ASSERT_EQ(legacy.modules.size(), fast.module_count()) << "trial " << trial;
  EXPECT_EQ(legacy.token_count, fast.token_count()) << "trial " << trial;
  for (size_t i = 0; i < legacy.modules.size(); ++i) {
    const oracle::OracleModule& a = legacy.modules[i];
    Module b = fast.module(i);
    EXPECT_EQ(a.index, b.index) << "trial " << trial << " module " << i;
    EXPECT_EQ(a.is_fresh, b.is_fresh) << "trial " << trial << " module " << i;
    EXPECT_EQ(a.super_rs, b.super_rs) << "trial " << trial << " module " << i;
    EXPECT_EQ(a.tokens, ToVector(b.tokens)) << "trial " << trial << " module " << i;
    EXPECT_EQ(a.subset_count, b.subset_count)
        << "trial " << trial << " module " << i;
    EXPECT_EQ(legacy.subset_rs[i], ToVector(fast.SubsetRsOf(i)))
        << "trial " << trial << " module " << i;
    for (TokenId t : a.tokens) {
      EXPECT_EQ(fast.ModuleOfToken(t), i)
          << "trial " << trial << " token " << t;
    }
  }
}

// Build replaces the O(|history|²) configuration check and the per-super
// subset scans with inverted-index walks; the output must be
// byte-identical to the pairwise reference (tests/oracle) on random
// laminar histories.
TEST(ModuleUniverseTest, ContextBuildMatchesLegacyOnRandomHistories) {
  common::Rng rng(20260806);
  for (int trial = 0; trial < 100; ++trial) {
    size_t num_tokens = 6 + rng.NextBounded(30);
    std::vector<TokenId> universe;
    chain::HtIndex index;
    for (TokenId t = 0; t < static_cast<TokenId>(num_tokens); ++t) {
      universe.push_back(t);
      index.Set(t, 100 + rng.NextBounded(5));
    }

    // Laminar history: partition the tokens into groups, then grow a
    // nested prefix chain inside each group so later RSs are supersets.
    std::vector<RsView> history;
    RsId next_id = 5;
    TokenId cursor = 0;
    while (cursor < static_cast<TokenId>(num_tokens)) {
      size_t group = 1 + rng.NextBounded(5);
      group = std::min<size_t>(group, num_tokens - cursor);
      size_t chain_len = rng.NextBounded(4);
      for (size_t c = 0; c < chain_len; ++c) {
        size_t prefix = 1 + rng.NextBounded(group);
        std::vector<TokenId> members;
        for (size_t k = 0; k < prefix; ++k) {
          members.push_back(cursor + static_cast<TokenId>(k));
        }
        history.push_back(View(next_id, members,
                               static_cast<chain::Timestamp>(
                                   1 + rng.NextBounded(6))));
        next_id += 2;
      }
      cursor += static_cast<TokenId>(group);
    }

    auto legacy = oracle::BuildModules(universe, history);
    ASSERT_TRUE(legacy.ok()) << "trial " << trial;
    analysis::AnalysisContext context =
        analysis::AnalysisContext::Build(history, &index, universe);
    auto fast = ModuleUniverse::Build(universe, history, context);
    ASSERT_TRUE(fast.ok()) << "trial " << trial;
    ExpectSameUniverse(*legacy, *fast, trial);
  }
}

TEST(ModuleUniverseTest, ContextBuildMatchesLegacyWithEmptyRs) {
  // An empty RS is a super of its own and a subset of every super.
  std::vector<TokenId> universe = {1, 2, 3, 4};
  std::vector<RsView> history = {View(0, {1, 2}, 1), View(1, {}, 2),
                                 View(2, {3}, 3), View(3, {}, 4)};
  auto legacy = oracle::BuildModules(universe, history);
  ASSERT_TRUE(legacy.ok());
  auto fast = test_support::BuildModules(universe, history);
  ASSERT_TRUE(fast.ok());
  ExpectSameUniverse(*legacy, *fast, 0);
}

TEST(ModuleUniverseTest, ContextBuildRejectsLikeLegacy) {
  // Partial overlap: Build detects it via the inverted index and only
  // then runs the pairwise scan, so the diagnostics match exactly.
  std::vector<TokenId> universe = {1, 2, 3};
  std::vector<RsView> history = {View(0, {1, 2}), View(1, {2, 3})};
  analysis::AnalysisContext context =
      analysis::AnalysisContext::Build(history, nullptr, universe);
  auto legacy = oracle::BuildModules(universe, history);
  auto fast = ModuleUniverse::Build(universe, history, context);
  ASSERT_FALSE(fast.ok());
  EXPECT_TRUE(fast.status().IsInvalidArgument());
  EXPECT_EQ(legacy.status().message(), fast.status().message());

  // Token outside the universe.
  std::vector<TokenId> small_universe = {1, 2};
  std::vector<RsView> outside = {View(0, {1, 2, 99})};
  analysis::AnalysisContext outside_context =
      analysis::AnalysisContext::Build(outside, nullptr, small_universe);
  auto legacy_outside = oracle::BuildModules(small_universe, outside);
  auto fast_outside =
      ModuleUniverse::Build(small_universe, outside, outside_context);
  ASSERT_FALSE(fast_outside.ok());
  EXPECT_TRUE(fast_outside.status().IsInvalidArgument());
  EXPECT_EQ(legacy_outside.status().message(),
            fast_outside.status().message());
}

TEST(ModuleUniverseTest, ModuleIndicesAreDense) {
  std::vector<RsView> history = {View(0, {1, 2})};
  std::vector<TokenId> universe = {1, 2, 3};
  auto mu = test_support::BuildModules(universe, history);
  ASSERT_TRUE(mu.ok());
  for (size_t i = 0; i < mu->module_count(); ++i) {
    EXPECT_EQ(mu->module(i).index, i);
  }
}

}  // namespace
}  // namespace tokenmagic::core
