#include "core/module_greedy.h"
#include "support/snapshot.h"

#include <gtest/gtest.h>

namespace tokenmagic::core {
namespace {

using chain::RsView;
using chain::TokenId;
using chain::TxId;

RsView View(chain::RsId id, std::vector<TokenId> members) {
  RsView v;
  v.id = id;
  v.members = std::move(members);
  std::sort(v.members.begin(), v.members.end());
  v.proposed_at = id;
  return v;
}

struct Fixture {
  chain::HtIndex index;
  SelectionInput input;
  std::vector<TokenId> universe;
  std::vector<RsView> history;

  Fixture() {
    // Two super RSs {1,2},{3,4} + fresh tokens 5,6; HTs: 1,2 share h1;
    // others distinct.
    index.Set(1, 100);
    index.Set(2, 100);
    index.Set(3, 300);
    index.Set(4, 400);
    index.Set(5, 500);
    index.Set(6, 600);
    input.target = 5;
    universe = {1, 2, 3, 4, 5, 6};
    history = {View(0, {1, 2}), View(1, {3, 4})};
    input.universe = universe;
    input.history = history;
    input.requirement = {2.0, 2};
    input.index = &index;
    input.policy.strict_dtrs = false;
    test_support::AttachContext(&input);
  }
};

TEST(InitModuleStateTest, SeedsWithTargetModule) {
  Fixture fx;
  auto state = InitModuleState(fx.input);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state->chosen.size(), 1u);
  EXPECT_EQ(state->chosen[0], state->target_module);
  EXPECT_EQ(state->token_size, 1u);  // target 5 is a fresh token
  EXPECT_EQ(state->covered_hts.size(), 1u);
  EXPECT_TRUE(state->covered_hts.count(500));
  // 4 modules total (2 supers + 2 fresh); 3 remaining.
  EXPECT_EQ(state->mu.module_count(), 4u);
  EXPECT_EQ(state->remaining.size(), 3u);
}

TEST(InitModuleStateTest, TargetInSuperRsSeedsWholeModule) {
  Fixture fx;
  fx.input.target = 1;  // inside super RS {1,2}
  auto state = InitModuleState(fx.input);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state->token_size, 2u);
  EXPECT_EQ(state->covered_hts.size(), 1u);  // both tokens share h1
}

TEST(ChooseUnchooseTest, RoundTripRestoresState) {
  Fixture fx;
  auto state = InitModuleState(fx.input);
  ASSERT_TRUE(state.ok());
  size_t other = state->remaining[0];
  size_t size_before = state->token_size;
  auto hts_before = state->covered_hts;
  size_t remaining_before = state->remaining.size();

  ChooseModule(&*state, fx.index, other);
  EXPECT_EQ(state->chosen.size(), 2u);
  EXPECT_GT(state->token_size, size_before);
  EXPECT_EQ(state->remaining.size(), remaining_before - 1);

  UnchooseModule(&*state, fx.index, other);
  EXPECT_EQ(state->chosen.size(), 1u);
  EXPECT_EQ(state->token_size, size_before);
  EXPECT_EQ(state->covered_hts, hts_before);
  EXPECT_EQ(state->remaining.size(), remaining_before);
}

TEST(ChooseUnchooseTest, SharedHtSurvivesRemoval) {
  // Two modules sharing an HT: removing one must keep the HT covered.
  chain::HtIndex index;
  index.Set(1, 100);
  index.Set(2, 100);
  index.Set(3, 300);
  SelectionInput input;
  input.target = 3;
  std::vector<TokenId> universe = {1, 2, 3};
  input.universe = universe;
  input.requirement = {2.0, 1};
  input.index = &index;
  test_support::AttachContext(&input);
  auto state = InitModuleState(input);
  ASSERT_TRUE(state.ok());
  size_t m1 = state->mu.ModuleOfToken(1);
  size_t m2 = state->mu.ModuleOfToken(2);
  ChooseModule(&*state, index, m1);
  ChooseModule(&*state, index, m2);
  EXPECT_TRUE(state->covered_hts.count(100));
  UnchooseModule(&*state, index, m2);
  EXPECT_TRUE(state->covered_hts.count(100));  // still via module m1
}

TEST(GreedyCoverHtsTest, StopsExactlyAtEll) {
  Fixture fx;
  auto state = InitModuleState(fx.input);
  ASSERT_TRUE(state.ok());
  auto steps = GreedyCoverHts(&*state, fx.index, 3);
  ASSERT_TRUE(steps.ok());
  EXPECT_GE(state->covered_hts.size(), 3u);
  // Greedy must not overshoot by more than one module's worth.
  EXPECT_LE(*steps, 2u);
}

TEST(GreedyCoverHtsTest, PrefersCheapHtsPerToken) {
  Fixture fx;
  auto state = InitModuleState(fx.input);
  ASSERT_TRUE(state.ok());
  // Needing 2 HTs: fresh token 6 (1 token, 1 new HT, alpha = 1) beats
  // super {3,4} (2 tokens, 2 new HTs, alpha = 2/min(1,2)=2) and super
  // {1,2} (2 tokens, 1 new HT, alpha = 2).
  auto steps = GreedyCoverHts(&*state, fx.index, 2);
  ASSERT_TRUE(steps.ok());
  EXPECT_EQ(*steps, 1u);
  auto members = MaterializeCandidate(state->mu, state->chosen);
  EXPECT_EQ(members, (std::vector<TokenId>{5, 6}));
}

TEST(GreedyCoverHtsTest, UnsatisfiableWhenHtsRunOut) {
  Fixture fx;
  auto state = InitModuleState(fx.input);
  ASSERT_TRUE(state.ok());
  auto steps = GreedyCoverHts(&*state, fx.index, 99);
  EXPECT_FALSE(steps.ok());
  EXPECT_TRUE(steps.status().IsUnsatisfiable());
}

TEST(ModuleHtsTest, DistinctHtsOfModule) {
  Fixture fx;
  auto state = InitModuleState(fx.input);
  ASSERT_TRUE(state.ok());
  const Module& super1 = state->mu.module(state->mu.ModuleOfToken(1));
  auto hts = ModuleHts(super1, fx.index);
  EXPECT_EQ(hts.size(), 1u);
  EXPECT_TRUE(hts.count(100));
}

}  // namespace
}  // namespace tokenmagic::core
