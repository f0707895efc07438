#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "analysis/diversity.h"
#include "core/baselines.h"
#include "core/bfs.h"
#include "core/game_theoretic.h"
#include "core/module_greedy.h"
#include "core/progressive.h"
#include "core/relaxing.h"
#include "core/resilient.h"
#include "support/snapshot.h"

namespace tokenmagic::core {
namespace {

using chain::DiversityRequirement;
using chain::RsView;
using chain::TokenId;
using chain::TxId;
using test_support::AttachContext;

RsView View(chain::RsId id, std::vector<TokenId> members) {
  RsView v;
  v.id = id;
  v.members = std::move(members);
  std::sort(v.members.begin(), v.members.end());
  v.proposed_at = id;
  v.requirement = {1.0, 1};
  return v;
}

/// Paper Example 3 fixture.
/// s1={t1..t6}, s2={t7..t10}, s3={t11,t12}, s4={t13..t15}.
/// HTs: h1:{1,2,7,8}, h2:{3,4,9}, h3:{5,13,14}, h6:{6,10}, h4:{11,15},
/// h5:{12}. Target t11, recursive (1,4)-diversity: the selectors test
/// (c, ℓ+1), so the instance requests (1, 3).
struct Example3 {
  SelectionInput input;
  chain::HtIndex index;
  std::vector<TokenId> universe;
  std::vector<RsView> history;

  Example3() {
    index.Set(1, 1);
    index.Set(2, 1);
    index.Set(7, 1);
    index.Set(8, 1);
    index.Set(3, 2);
    index.Set(4, 2);
    index.Set(9, 2);
    index.Set(5, 3);
    index.Set(13, 3);
    index.Set(14, 3);
    index.Set(6, 6);
    index.Set(10, 6);
    index.Set(11, 4);
    index.Set(15, 4);
    index.Set(12, 5);

    input.target = 11;
    for (TokenId t = 1; t <= 15; ++t) universe.push_back(t);
    history = {View(1, {1, 2, 3, 4, 5, 6}), View(2, {7, 8, 9, 10}),
               View(3, {11, 12}), View(4, {13, 14, 15})};
    input.universe = universe;
    input.history = history;
    input.requirement = {1.0, 3};
    input.index = &index;
    AttachContext(&input);
  }
};

TEST(GreedyCoverHtsTest, Example3Phase1PicksS2) {
  Example3 fx;
  auto state = InitModuleState(fx.input);
  ASSERT_TRUE(state.ok());
  auto steps = GreedyCoverHts(&*state, 4);
  ASSERT_TRUE(steps.ok());
  // r_tau = s3 ∪ s2 after the first loop (paper trace).
  auto members = MaterializeCandidate(*state->mu, state->chosen);
  EXPECT_EQ(members, (std::vector<TokenId>{7, 8, 9, 10, 11, 12}));
}

TEST(ProgressiveTest, PaperExample3Trace) {
  Example3 fx;
  ProgressiveSelector selector;
  common::Rng rng(1);
  auto result = selector.Select(fx.input, &rng);
  ASSERT_TRUE(result.ok());
  // Paper: phase 2 adds s4 (beta_4 = 1/3 > beta_1 = -1/6), giving
  // s2 ∪ s3 ∪ s4 = {t7..t15}.
  EXPECT_EQ(result->members,
            (std::vector<TokenId>{7, 8, 9, 10, 11, 12, 13, 14, 15}));
}

TEST(GameTheoreticTest, PaperExample3ReachesS1S3) {
  Example3 fx;
  GameTheoreticSelector selector;
  common::Rng rng(1);
  auto result = selector.Select(fx.input, &rng);
  ASSERT_TRUE(result.ok());
  // Paper Section 6.3: the equilibrium is r_tau = s1 ∪ s3 (8 tokens),
  // strictly smaller than the Progressive result (9 tokens).
  EXPECT_EQ(result->members,
            (std::vector<TokenId>{1, 2, 3, 4, 5, 6, 11, 12}));
}

TEST(SelectorsTest, ResultsAlwaysContainTarget) {
  Example3 fx;
  common::Rng rng(7);
  for (const MixinSelector* selector :
       std::initializer_list<const MixinSelector*>{
           new ProgressiveSelector, new GameTheoreticSelector,
           new SmallestSelector, new RandomSelector}) {
    auto result = selector->Select(fx.input, &rng);
    ASSERT_TRUE(result.ok()) << selector->name();
    EXPECT_TRUE(std::binary_search(result->members.begin(),
                                   result->members.end(), fx.input.target))
        << selector->name();
    delete selector;
  }
}

TEST(SelectorsTest, ResultsSatisfyTheRequirement) {
  Example3 fx;
  common::Rng rng(11);
  ProgressiveSelector progressive;
  GameTheoreticSelector game;
  SmallestSelector smallest;
  RandomSelector random;
  std::vector<const MixinSelector*> selectors = {&progressive, &game,
                                                 &smallest, &random};
  for (const MixinSelector* selector : selectors) {
    auto result = selector->Select(fx.input, &rng);
    ASSERT_TRUE(result.ok()) << selector->name();
    EXPECT_TRUE(analysis::SatisfiesRecursiveDiversity(
        result->members, fx.index, EffectiveRequirement(fx.input.requirement)))
        << selector->name();
  }
}

TEST(SelectorsTest, GameNeverLargerThanProgressiveOnExample3) {
  Example3 fx;
  common::Rng rng(13);
  ProgressiveSelector progressive;
  GameTheoreticSelector game;
  auto p = progressive.Select(fx.input, &rng);
  auto g = game.Select(fx.input, &rng);
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(g.ok());
  EXPECT_LE(g->members.size(), p->members.size());
}

TEST(SelectorsTest, UnsatisfiableUniverseReported) {
  // Universe with a single HT can never reach 4 distinct HTs.
  chain::HtIndex idx;
  for (TokenId t = 1; t <= 5; ++t) idx.Set(t, 1);
  SelectionInput input;
  input.target = 1;
  std::vector<TokenId> universe = {1, 2, 3, 4, 5};
  input.universe = universe;
  input.requirement = {1.0, 3};  // tested at (1, 4)
  input.index = &idx;
  AttachContext(&input);
  common::Rng rng(1);
  ProgressiveSelector progressive;
  GameTheoreticSelector game;
  SmallestSelector smallest;
  RandomSelector random;
  std::vector<const MixinSelector*> selectors = {&progressive, &game,
                                                 &smallest, &random};
  for (const MixinSelector* selector : selectors) {
    auto result = selector->Select(input, &rng);
    EXPECT_FALSE(result.ok()) << selector->name();
    EXPECT_TRUE(result.status().IsUnsatisfiable()) << selector->name();
  }
}

TEST(SelectorsTest, TargetOutsideUniverseIsInvalid) {
  chain::HtIndex idx;
  idx.Set(1, 1);
  SelectionInput input;
  input.target = 99;
  std::vector<TokenId> universe = {1};
  input.universe = universe;
  input.requirement = {1.0, 1};
  input.index = &idx;
  AttachContext(&input);
  common::Rng rng(1);
  ProgressiveSelector selector;
  EXPECT_TRUE(selector.Select(input, &rng).status().IsInvalidArgument());
}

TEST(SelectorsTest, MissingIndexIsInvalid) {
  SelectionInput input;
  input.target = 1;
  std::vector<TokenId> universe = {1};
  input.universe = universe;
  AttachContext(&input);
  common::Rng rng(1);
  ProgressiveSelector selector;
  EXPECT_TRUE(selector.Select(input, &rng).status().IsInvalidArgument());
}

TEST(SmallestTest, PrefersSmallModules) {
  // Modules: fresh tokens (size 1) with distinct HTs vs a big super RS.
  chain::HtIndex idx;
  for (TokenId t = 1; t <= 10; ++t) {
    idx.Set(t, static_cast<TxId>(t));  // all distinct HTs
  }
  SelectionInput input;
  input.target = 1;
  std::vector<TokenId> universe;
  for (TokenId t = 1; t <= 10; ++t) universe.push_back(t);
  input.universe = universe;
  std::vector<RsView> history = {View(0, {5, 6, 7, 8, 9, 10})};
  input.history = history;  // one big super RS
  input.requirement = {2.0, 2};  // tested at (2, 3)
  input.index = &idx;
  AttachContext(&input);
  common::Rng rng(1);
  SmallestSelector selector;
  auto result = selector.Select(input, &rng);
  ASSERT_TRUE(result.ok());
  // Needs 3 distinct HTs; fresh tokens 2,3 (size 1 each) beat the
  // 6-token super RS: members = {1, 2, 3}.
  EXPECT_EQ(result->members.size(), 3u);
}

TEST(RandomTest, IsSeedDeterministic) {
  Example3 fx;
  RandomSelector selector;
  common::Rng rng1(99), rng2(99);
  auto r1 = selector.Select(fx.input, &rng1);
  auto r2 = selector.Select(fx.input, &rng2);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->members, r2->members);
}

TEST(MoneroSelectorTest, ProducesFixedSizeRing) {
  chain::HtIndex idx;
  SelectionInput input;
  std::vector<TokenId> universe;
  for (TokenId t = 0; t < 100; ++t) {
    idx.Set(t, static_cast<TxId>(t / 2));
    universe.push_back(t);
  }
  input.universe = universe;
  input.target = 50;
  input.index = &idx;
  AttachContext(&input);
  common::Rng rng(3);
  MoneroSelector selector(11);
  auto result = selector.Select(input, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->members.size(), 11u);
  EXPECT_TRUE(std::binary_search(result->members.begin(),
                                 result->members.end(), TokenId{50}));
}

TEST(GameTheoreticTest, FallsBackToFeasibleProfileOnNonMonotoneInstance) {
  // A universe where the whole-universe profile violates the diversity
  // requirement (one dominant HT) and no single flip repairs it, but a
  // careful subset satisfies it: the raw accretion dynamics plateau
  // infeasibly and the Progressive restart must rescue the game.
  chain::HtIndex idx;
  // 12 tokens of HT 0 (dominant), plus 8 singleton HTs.
  for (TokenId t = 0; t < 12; ++t) idx.Set(t, 0);
  for (TokenId t = 12; t < 20; ++t) idx.Set(t, static_cast<TxId>(t));
  SelectionInput input;
  std::vector<TokenId> universe;
  for (TokenId t = 0; t < 20; ++t) universe.push_back(t);
  input.universe = universe;
  // Five 2-token super RSs of the dominant HT (modules 0-4) and two fresh
  // dominant-HT tokens 10, 11 (modules 5, 6); tokens 12..19 are modules
  // 7..14, so module 7 is the target.
  std::vector<RsView> history = {View(0, {0, 1}), View(1, {2, 3}),
                                 View(2, {4, 5}), View(3, {6, 7}),
                                 View(4, {8, 9})};
  input.history = history;
  input.target = 12;
  input.requirement = {1.0, 3};  // tested at (1, 4)
  input.index = &idx;
  AttachContext(&input);
  // Whole universe: q1 = 12 against a tail of 6 (ranks 4..9 of 9 HTs):
  // infeasible, and dropping any one module leaves q1 >= 10. Singletons
  // only: q1 = 1 < 1*(theta - 3), feasible for theta >= 5.
  common::Rng rng(5);
  GameTheoreticSelector game;
  auto result = game.Select(input, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(analysis::SatisfiesRecursiveDiversity(
      result->members, idx, EffectiveRequirement(input.requirement)));
  // The restart re-seeds from the Progressive ring's modules; the
  // equilibrium it reaches, which leaves every dominant super RS out, is
  // pinned exactly.
  EXPECT_EQ(result->members, (std::vector<TokenId>{10, 12, 13, 14, 15}));
  EXPECT_EQ(result->chosen_modules, (std::vector<size_t>{7, 5, 8, 9, 10}));
}

TEST(MoneroSelectorTest, SmallUniverseUnsatisfiable) {
  chain::HtIndex idx;
  SelectionInput input;
  std::vector<TokenId> universe;
  for (TokenId t = 0; t < 5; ++t) {
    idx.Set(t, 0);
    universe.push_back(t);
  }
  input.universe = universe;
  input.target = 0;
  input.index = &idx;
  AttachContext(&input);
  common::Rng rng(3);
  MoneroSelector selector(11);
  EXPECT_TRUE(selector.Select(input, &rng).status().IsUnsatisfiable());
}

/// Runs the selector named `name` on `input` and returns its status.
common::Status SelectStatus(const std::string& name,
                            const SelectionInput& input) {
  common::Rng rng(1);
  if (name == "Relaxing") {
    ProgressiveSelector inner;
    return RelaxingSelector(&inner).Select(input, &rng).status();
  }
  std::unique_ptr<MixinSelector> selector;
  if (name == "TM_P") selector = std::make_unique<ProgressiveSelector>();
  if (name == "TM_G") selector = std::make_unique<GameTheoreticSelector>();
  if (name == "TM_S") selector = std::make_unique<SmallestSelector>();
  if (name == "TM_R") selector = std::make_unique<RandomSelector>();
  if (name == "TM_B") selector = std::make_unique<BfsSelector>();
  if (name == "TM_M") selector = std::make_unique<MoneroSelector>(4);
  if (name == "Resilient") selector = std::make_unique<ResilientSelector>();
  if (selector == nullptr) {
    ADD_FAILURE() << "unknown selector " << name;
    return common::Status::OK();
  }
  return selector->Select(input, &rng).status();
}

class MissingContextTest : public ::testing::TestWithParam<std::string> {};

// The context is required: no selector may fall back to re-interning the
// history span when the snapshot is missing.
TEST_P(MissingContextTest, IsInvalidArgument) {
  Example3 fx;
  fx.input.context = nullptr;
  common::Status status = SelectStatus(GetParam(), fx.input);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
}

INSTANTIATE_TEST_SUITE_P(AllSelectors, MissingContextTest,
                         ::testing::Values("TM_P", "TM_G", "TM_S", "TM_R",
                                           "TM_B", "TM_M", "Resilient",
                                           "Relaxing"));

class MismatchedSnapshotTest
    : public ::testing::TestWithParam<std::string> {};

/// Four tokens of four HTs and one RS {1, 2}, interned from that history
/// and universe {1, 2, 3, 4}.
struct SmallSnapshot {
  chain::HtIndex index;
  std::vector<TokenId> universe = {1, 2, 3, 4};
  std::vector<RsView> history = {View(1, {1, 2})};
  SelectionInput input;

  SmallSnapshot() {
    for (TokenId t = 1; t <= 9; ++t) index.Set(t, static_cast<TxId>(t));
    input.target = 3;
    input.universe = universe;
    input.history = history;
    input.requirement = {2.0, 2};
    input.index = &index;
    AttachContext(&input);
  }
};

// A universe holding a token the context never interned is a caller
// error, not a failed interning check.
TEST_P(MismatchedSnapshotTest, UninternedUniverseTokenIsInvalidArgument) {
  SmallSnapshot fx;
  std::vector<TokenId> universe = {1, 2, 3, 4, 9};
  fx.input.universe = universe;
  common::Status status = SelectStatus(GetParam(), fx.input);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
}

// So is a history span whose length differs from the context's RS count.
TEST_P(MismatchedSnapshotTest, HistoryLengthMismatchIsInvalidArgument) {
  SmallSnapshot fx;
  fx.input.history = {};
  common::Status status = SelectStatus(GetParam(), fx.input);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
}

INSTANTIATE_TEST_SUITE_P(AllSelectors, MismatchedSnapshotTest,
                         ::testing::Values("TM_P", "TM_G", "TM_S", "TM_R",
                                           "TM_B", "Resilient",
                                           "Relaxing"));

class UnknownUniverseTokenTest : public ::testing::TestWithParam<std::string> {
};

// The module selectors resolve every universe token's HT up front, so a
// token the index does not know is InvalidArgument even when it sits
// outside the target's module, never a failed HtIndex::HtOf check.
TEST_P(UnknownUniverseTokenTest, IsInvalidArgument) {
  chain::HtIndex idx;
  for (TokenId t = 1; t <= 5; ++t) idx.Set(t, static_cast<TxId>(t));
  SelectionInput input;
  input.target = 5;
  std::vector<TokenId> universe = {1, 2, 3, 4, 5, 6};  // 6 has no HT
  input.universe = universe;
  input.requirement = {2.0, 3};
  input.index = &idx;
  AttachContext(&input);
  common::Status status = SelectStatus(GetParam(), input);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_NE(status.message().find("universe token 6 has no HT"),
            std::string::npos)
      << status.ToString();
}

INSTANTIATE_TEST_SUITE_P(ModuleSelectors, UnknownUniverseTokenTest,
                         ::testing::Values("TM_P", "TM_G", "TM_S", "TM_R"));

}  // namespace
}  // namespace tokenmagic::core
