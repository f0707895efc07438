#include "core/bfs.h"

#include <gtest/gtest.h>

#include "analysis/chain_reaction.h"
#include "analysis/diversity.h"
#include "support/snapshot.h"

namespace tokenmagic::core {
namespace {

using chain::DiversityRequirement;
using chain::RsView;
using chain::TokenId;
using test_support::AttachContext;

RsView View(chain::RsId id, std::vector<TokenId> members,
            DiversityRequirement req = {2.0, 1}) {
  RsView v;
  v.id = id;
  v.members = std::move(members);
  std::sort(v.members.begin(), v.members.end());
  v.proposed_at = id;
  v.requirement = req;
  return v;
}

chain::HtIndex IdentityIndex(TokenId first, TokenId last) {
  chain::HtIndex idx;
  for (TokenId t = first; t <= last; ++t) {
    idx.Set(t, static_cast<chain::TxId>(t));
  }
  return idx;
}

// Paper Example 1: tokens t1..t4; r1 = r2 = {t1, t2}; t1, t3 share HT h1.
// Generating for t3 must avoid {t1,t3} (homogeneity), {t2,t3} (chain
// reaction), and the paper points to {t3, t4} as a good minimal answer.
TEST(BfsTest, PaperExample1FindsGoodSolution) {
  chain::HtIndex idx;
  idx.Set(1, 100);  // h1
  idx.Set(3, 100);  // h1
  idx.Set(2, 200);
  idx.Set(4, 300);
  SelectionInput input;
  input.target = 3;
  std::vector<TokenId> universe = {1, 2, 3, 4};
  std::vector<RsView> history = {View(1, {1, 2}), View(2, {1, 2})};
  input.universe = universe;
  input.history = history;
  input.requirement = {2.0, 2};
  input.index = &idx;
  AttachContext(&input);
  common::Rng rng(1);
  BfsSelector selector;
  auto result = selector.Select(input, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->members, (std::vector<TokenId>{3, 4}));
}

TEST(BfsTest, ReturnsMinimumSizeSolution) {
  // No history: any 2 distinct-HT tokens satisfy (2.0, 2); BFS must
  // return exactly 2 members (target + 1 mixin).
  chain::HtIndex idx = IdentityIndex(1, 6);
  SelectionInput input;
  input.target = 1;
  std::vector<TokenId> universe = {1, 2, 3, 4, 5, 6};
  input.universe = universe;
  input.requirement = {2.0, 2};
  input.index = &idx;
  AttachContext(&input);
  common::Rng rng(1);
  BfsSelector selector;
  auto result = selector.Select(input, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->members.size(), 2u);
}

TEST(BfsTest, ResultPassesExactNonEliminationCheck) {
  chain::HtIndex idx = IdentityIndex(1, 8);
  SelectionInput input;
  input.target = 5;
  std::vector<TokenId> universe = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<RsView> history = {View(0, {1, 2}), View(1, {2, 3})};
  input.universe = universe;
  input.history = history;
  input.requirement = {2.0, 2};
  input.index = &idx;
  AttachContext(&input);
  common::Rng rng(1);
  BfsSelector selector;
  auto result = selector.Select(input, &rng);
  ASSERT_TRUE(result.ok());

  // Re-run the adversary on history + the new RS: nothing eliminated.
  std::vector<RsView> after = history;
  after.push_back(View(99, result->members, input.requirement));
  auto analysis = analysis::ChainReactionAnalyzer::Analyze(
      analysis::AnalysisContext::Build(after));
  EXPECT_TRUE(analysis.NoTokenEliminated());
}

TEST(BfsTest, RespectsDiversityRequirement) {
  chain::HtIndex idx;
  // Tokens 1-4 from h1; 5-8 distinct.
  for (TokenId t = 1; t <= 4; ++t) idx.Set(t, 100);
  for (TokenId t = 5; t <= 8; ++t) idx.Set(t, static_cast<chain::TxId>(t));
  SelectionInput input;
  input.target = 1;
  std::vector<TokenId> universe = {1, 2, 3, 4, 5, 6, 7, 8};
  input.universe = universe;
  input.requirement = {1.5, 2};
  input.index = &idx;
  AttachContext(&input);
  common::Rng rng(1);
  BfsSelector selector;
  auto result = selector.Select(input, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(analysis::SatisfiesRecursiveDiversity(result->members, idx,
                                                    input.requirement));
}

TEST(BfsTest, UnsatisfiableWhenUniverseTooHomogeneous) {
  chain::HtIndex idx;
  for (TokenId t = 1; t <= 4; ++t) idx.Set(t, 100);
  SelectionInput input;
  input.target = 1;
  std::vector<TokenId> universe = {1, 2, 3, 4};
  input.universe = universe;
  input.requirement = {1.0, 2};
  input.index = &idx;
  AttachContext(&input);
  common::Rng rng(1);
  BfsSelector selector;
  auto result = selector.Select(input, &rng);
  EXPECT_TRUE(result.status().IsUnsatisfiable());
}

TEST(BfsTest, UniverseCapRejectsHugeInstances) {
  chain::HtIndex idx = IdentityIndex(1, 30);
  SelectionInput input;
  input.target = 1;
  std::vector<TokenId> universe;
  for (TokenId t = 1; t <= 30; ++t) universe.push_back(t);
  input.universe = universe;
  input.requirement = {2.0, 2};
  input.index = &idx;
  AttachContext(&input);
  BfsSelector::Options options;
  options.max_universe = 20;
  BfsSelector selector(options);
  common::Rng rng(1);
  EXPECT_TRUE(selector.Select(input, &rng).status().IsInvalidArgument());
}

TEST(BfsTest, BudgetExpiryReturnsTimeout) {
  // A large universe with an unsatisfiable requirement forces the search
  // to exhaust the time budget.
  chain::HtIndex idx;
  for (TokenId t = 1; t <= 18; ++t) idx.Set(t, 100);  // single HT
  SelectionInput input;
  input.target = 1;
  std::vector<TokenId> universe;
  for (TokenId t = 1; t <= 18; ++t) universe.push_back(t);
  input.universe = universe;
  input.requirement = {1.0, 2};
  input.index = &idx;
  AttachContext(&input);
  BfsSelector::Options options;
  options.budget_seconds = 0.05;
  BfsSelector selector(options);
  common::Rng rng(1);
  auto result = selector.Select(input, &rng);
  // Either proves unsatisfiable quickly or times out; both are accepted
  // terminal states, never a crash.
  EXPECT_FALSE(result.ok());
}

TEST(BfsTest, MatchesPracticalSelectorsOnEasyInstance) {
  // On an instance with no history the optimal size is determined by the
  // diversity requirement alone; BFS gives a certified minimum.
  chain::HtIndex idx = IdentityIndex(1, 10);
  SelectionInput input;
  input.target = 2;
  std::vector<TokenId> universe;
  for (TokenId t = 1; t <= 10; ++t) universe.push_back(t);
  input.universe = universe;
  input.requirement = {1.5, 3};
  input.index = &idx;
  AttachContext(&input);
  common::Rng rng(1);
  BfsSelector bfs;
  auto exact = bfs.Select(input, &rng);
  ASSERT_TRUE(exact.ok());
  // (1.5, 3) over singleton HTs: need q1=1 < 1.5*(theta-2) -> theta >= 3.
  EXPECT_EQ(exact->members.size(), 3u);
}

}  // namespace
}  // namespace tokenmagic::core
