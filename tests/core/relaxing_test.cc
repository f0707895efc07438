#include "core/relaxing.h"

#include <gtest/gtest.h>

#include "analysis/diversity.h"
#include "core/eligibility.h"
#include "core/progressive.h"
#include "support/snapshot.h"

namespace tokenmagic::core {
namespace {

using chain::DiversityRequirement;
using chain::TokenId;
using test_support::AttachContext;

chain::HtIndex TwoHtIndex() {
  // Tokens 1-4 from HT 100, tokens 5-6 from HT 200: only 2 distinct HTs.
  chain::HtIndex idx;
  for (TokenId t = 1; t <= 4; ++t) idx.Set(t, 100);
  for (TokenId t = 5; t <= 6; ++t) idx.Set(t, 200);
  return idx;
}

SelectionInput TwoHtInput(const chain::HtIndex* idx,
                          DiversityRequirement req) {
  SelectionInput input;
  input.target = 1;
  static const std::vector<TokenId> kUniverse = {1, 2, 3, 4, 5, 6};
  input.universe = kUniverse;
  input.requirement = req;
  input.index = idx;
  AttachContext(&input);
  return input;
}

TEST(RelaxingTest, NoRelaxationWhenFeasible) {
  chain::HtIndex idx = TwoHtIndex();
  // (3.0, 1), tested at (3.0, 2): feasible directly.
  SelectionInput input = TwoHtInput(&idx, {3.0, 1});
  ProgressiveSelector inner;
  RelaxingSelector relaxing(&inner);
  common::Rng rng(1);
  auto result = relaxing.Select(input, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->relaxation_steps, 0);
  EXPECT_EQ(result->used_requirement, (DiversityRequirement{3.0, 1}));
}

TEST(RelaxingTest, RelaxesEllWhenUniverseTooNarrow) {
  chain::HtIndex idx = TwoHtIndex();
  // ell = 3, tested at 4, can never be met (only 2 HTs exist); the
  // schedule must step ell down (and c up) until feasible.
  SelectionInput input = TwoHtInput(&idx, {3.0, 3});
  ProgressiveSelector inner;
  RelaxingSelector relaxing(&inner);
  common::Rng rng(1);
  auto result = relaxing.Select(input, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->relaxation_steps, 0);
  EXPECT_LE(EffectiveRequirement(result->used_requirement).ell, 2);
  // The returned members satisfy the relaxed requirement's rule.
  EXPECT_TRUE(analysis::SatisfiesRecursiveDiversity(
      result->result.members, idx,
      EffectiveRequirement(result->used_requirement)));
}

TEST(RelaxingTest, RelaxesCWhenTooTight) {
  chain::HtIndex idx = TwoHtIndex();
  // (0.01, 1), tested at (0.01, 2): ell is attainable but c makes it
  // unsatisfiable: relax c.
  SelectionInput input = TwoHtInput(&idx, {0.01, 1});
  ProgressiveSelector inner;
  RelaxingSelector relaxing(&inner);
  common::Rng rng(1);
  auto result = relaxing.Select(input, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->used_requirement.c, 0.01);
}

TEST(RelaxingTest, UnsatisfiableAtFloorIsReported) {
  // One single HT: the schedule's floor is ℓ = 1, which the rule tests at
  // ℓ = 2, so every step needs two HTs and none succeeds.
  chain::HtIndex idx;
  for (TokenId t = 1; t <= 3; ++t) idx.Set(t, 100);
  SelectionInput input;
  input.target = 1;
  std::vector<TokenId> universe = {1, 2, 3};
  input.universe = universe;
  input.requirement = {0.5, 3};
  input.index = &idx;
  AttachContext(&input);
  ProgressiveSelector inner;
  RelaxingSelector relaxing(&inner);
  common::Rng rng(1);
  auto result = relaxing.Select(input, &rng);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsUnsatisfiable());
}

TEST(RelaxingTest, ScheduleAlternatesAndRespectsFloors) {
  auto schedule = RelaxingSelector::Schedule({1.0, 3});
  // c grows by 1.5 and ℓ steps down by 1, alternating and c first, until
  // ℓ reaches its floor of 1...
  const std::vector<DiversityRequirement> head = {
      {1.0, 3}, {1.5, 3}, {1.5, 2}, {2.25, 2}, {2.25, 1}, {3.375, 1}};
  ASSERT_GE(schedule.size(), head.size());
  for (size_t i = 0; i < head.size(); ++i) {
    EXPECT_EQ(schedule[i], head[i]) << "step " << i;
  }
  // ...then only c grows, to its floor of 16, where the schedule ends.
  for (size_t i = 1; i < schedule.size(); ++i) {
    EXPECT_GE(schedule[i].c, schedule[i - 1].c);
    EXPECT_LE(schedule[i].c, 16.0);
    EXPECT_GE(schedule[i].ell, 1);
  }
  EXPECT_EQ(schedule.back(), (DiversityRequirement{16.0, 1}));
}

TEST(RelaxingTest, NonUnsatisfiableErrorsPassThrough) {
  ProgressiveSelector inner;
  RelaxingSelector relaxing(&inner);
  SelectionInput input;  // missing index -> InvalidArgument
  input.target = 1;
  std::vector<TokenId> universe = {1};
  input.universe = universe;
  AttachContext(&input);
  common::Rng rng(1);
  auto result = relaxing.Select(input, &rng);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

}  // namespace
}  // namespace tokenmagic::core
