#include "core/resilient.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "analysis/diversity.h"
#include "common/deadline.h"
#include "common/stopwatch.h"
#include "core/baselines.h"
#include "core/bfs.h"
#include "core/game_theoretic.h"
#include "core/progressive.h"
#include "support/snapshot.h"

namespace tokenmagic::core {
namespace {

using chain::DiversityRequirement;
using chain::RsView;
using chain::TokenId;

RsView View(chain::RsId id, std::vector<TokenId> members) {
  RsView v;
  v.id = id;
  v.members = std::move(members);
  std::sort(v.members.begin(), v.members.end());
  v.proposed_at = id;
  v.requirement = {1.0, 1};
  return v;
}

/// A randomized DA-MS instance: tokens partitioned into HTs and a ring
/// history, with a random target and requirement. The index is owned so
/// instances can be constructed in place (input.index points into *this).
struct RandomInstance {
  SelectionInput input;
  chain::HtIndex index;
  std::vector<TokenId> universe;
  std::vector<RsView> history;

  explicit RandomInstance(common::Rng* rng) {
    const size_t num_tokens = 12 + rng->NextBounded(10);
    const size_t num_hts = 3 + rng->NextBounded(5);
    for (TokenId t = 1; t <= static_cast<TokenId>(num_tokens); ++t) {
      index.Set(t, 1 + rng->NextBounded(num_hts));
      universe.push_back(t);
    }
    chain::RsId id = 1;
    TokenId t = 1;
    while (t <= static_cast<TokenId>(num_tokens)) {
      const size_t size = 2 + rng->NextBounded(4);
      std::vector<TokenId> members;
      for (size_t i = 0;
           i < size && t <= static_cast<TokenId>(num_tokens); ++i) {
        members.push_back(t++);
      }
      history.push_back(View(id++, std::move(members)));
    }
    input.universe = universe;
    input.history = history;
    input.target = 1 + rng->NextBounded(num_tokens);
    input.requirement = {1.0 + rng->NextDouble(),
                         2 + static_cast<int>(rng->NextBounded(4))};
    input.index = &index;
    input.policy.strict_dtrs = false;
    input.policy.check_dtrs_explicitly = false;
    input.policy.check_immutability = false;
    test_support::AttachContext(&input);
  }
};

/// A deterministic instance the exact BFS selector cannot finish in any
/// reasonable budget: 24 tokens in 6 HTs with an ℓ far above the HT
/// count, so the diversity test fails for every candidate and the search
/// space (2^23 subsets) must be exhausted.
struct HardInstance {
  SelectionInput input;
  chain::HtIndex index;
  std::vector<TokenId> universe;
  std::vector<RsView> history;

  HardInstance() {
    const size_t num_tokens = 24;
    for (TokenId t = 1; t <= static_cast<TokenId>(num_tokens); ++t) {
      index.Set(t, 1 + (t - 1) % 6);
      universe.push_back(t);
    }
    chain::RsId id = 1;
    for (TokenId t = 1; t <= static_cast<TokenId>(num_tokens); t += 3) {
      history.push_back(View(id++, {t, t + 1, t + 2}));
    }
    input.universe = universe;
    input.history = history;
    input.target = 1;
    input.requirement = {1.0, 10};
    input.index = &index;
    input.policy.strict_dtrs = false;
    input.policy.check_dtrs_explicitly = false;
    input.policy.check_immutability = false;
    test_support::AttachContext(&input);
  }
};

// The resilient selector's contract over randomized instances: either a
// valid ring — containing the target and satisfying the requirement the
// report claims — or a typed Unsatisfiable/Timeout. Nothing else.
TEST(ResilientSelectorTest, PropertyValidRingOrTypedError) {
  common::Rng meta(20260806);
  for (int trial = 0; trial < 40; ++trial) {
    RandomInstance inst(&meta);
    // Budgets keep exponential stages bounded (each BFS candidate can
    // trigger family-wide DTRS analysis, so the wall budget matters as
    // much as the tick budget); Timeout is an acceptable property
    // outcome.
    ResilientOptions options;
    options.total_budget_seconds = 0.25;
    options.total_iteration_budget = 20000;
    ResilientSelector selector(options);
    common::Rng rng(static_cast<uint64_t>(trial) + 1);
    auto selection = selector.SelectWithReport(inst.input, &rng);
    if (!selection.ok()) {
      EXPECT_TRUE(selection.status().IsUnsatisfiable() ||
                  selection.status().IsTimeout())
          << "trial " << trial << ": " << selection.status().ToString();
      continue;
    }
    const auto& members = selection->result.members;
    EXPECT_TRUE(std::binary_search(members.begin(), members.end(),
                                   inst.input.target))
        << "trial " << trial;
    EXPECT_TRUE(analysis::SatisfiesRecursiveDiversity(
        members, inst.index, selection->report.satisfied_requirement))
        << "trial " << trial;
    EXPECT_FALSE(selection->report.stage.empty());
    EXPECT_FALSE(selection->report.attempts.empty());
    // A non-degraded selection must satisfy the original requirement.
    if (!selection->report.degraded) {
      EXPECT_TRUE(analysis::SatisfiesRecursiveDiversity(
          members, inst.index, inst.input.requirement))
          << "trial " << trial;
    }
  }
}

// Every selector must honor a zero-budget deadline by returning Timeout
// before doing any work.
TEST(ResilientSelectorTest, ZeroBudgetDeadlineTimesOutOnAllSelectors) {
  common::Rng meta(99);
  RandomInstance inst(&meta);
  common::Deadline expired = common::Deadline::AlreadyExpired();
  inst.input.deadline = &expired;

  BfsSelector bfs;
  ProgressiveSelector progressive;
  GameTheoreticSelector game;
  SmallestSelector smallest;
  RandomSelector random;
  MoneroSelector monero;
  ResilientSelector resilient;
  const MixinSelector* all[] = {&bfs,      &progressive, &game,
                                &smallest, &random,      &monero,
                                &resilient};
  common::Rng rng(7);
  for (const MixinSelector* selector : all) {
    auto result = selector->Select(inst.input, &rng);
    ASSERT_FALSE(result.ok()) << selector->name();
    EXPECT_TRUE(result.status().IsTimeout())
        << selector->name() << ": " << result.status().ToString();
  }
}

// Acceptance scenario: an over-budget BFS instance returns Timeout within
// 2x the configured wall deadline...
TEST(ResilientSelectorTest, OverBudgetBfsTimesOutWithinTwiceTheDeadline) {
  HardInstance inst;
  BfsSelector::Options options;
  options.budget_seconds = 0.1;
  BfsSelector bfs(options);
  common::Rng rng(3);
  common::StopWatch watch;
  auto result = bfs.Select(inst.input, &rng);
  const double elapsed = watch.ElapsedSeconds();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsTimeout()) << result.status().ToString();
  EXPECT_LT(elapsed, 2.0 * options.budget_seconds)
      << "BFS overshot its deadline: " << elapsed << "s";
}

// ...while the resilient ladder completes the same instance through a
// fallback stage and says so in its DegradationReport.
TEST(ResilientSelectorTest, LadderCompletesTheInstanceBfsCannot) {
  HardInstance inst;
  ResilientOptions options;
  options.total_budget_seconds = 2.0;
  ResilientSelector selector(options);
  common::Rng rng(3);
  auto selection = selector.SelectWithReport(inst.input, &rng);
  ASSERT_TRUE(selection.ok()) << selection.status().ToString();
  const DegradationReport& report = selection->report;
  EXPECT_TRUE(report.degraded);
  EXPECT_FALSE(report.stage.empty());
  // The winning ring is valid under the requirement the report admits to.
  EXPECT_TRUE(analysis::SatisfiesRecursiveDiversity(
      selection->result.members, inst.index, report.satisfied_requirement));
  EXPECT_TRUE(std::binary_search(selection->result.members.begin(),
                                 selection->result.members.end(),
                                 inst.input.target));
  // The report names every stage tried and its outcome.
  ASSERT_FALSE(report.attempts.empty());
  EXPECT_EQ(report.attempts.back().stage, report.stage);
  EXPECT_EQ(report.attempts.back().outcome, common::StatusCode::kOk);
  EXPECT_FALSE(report.ToString().empty());
}

// Iteration budgets are deterministic: a tiny budget must abort the exact
// search after exactly that many candidate visits.
TEST(ResilientSelectorTest, IterationBudgetIsDeterministic) {
  HardInstance inst;
  common::Deadline budget(0.0, 50);
  inst.input.deadline = &budget;
  BfsSelector bfs;
  common::Rng rng(3);
  auto result = bfs.Select(inst.input, &rng);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsTimeout());
  EXPECT_EQ(budget.iterations_used(), 50u);
}

// A custom single-stage ladder that cannot satisfy the instance surfaces
// Unsatisfiable (not a silent weaker ring) when relaxation is disabled.
TEST(ResilientSelectorTest, UnsatisfiableWithoutRelaxationIsTyped) {
  HardInstance inst;  // ell=10 with only 6 HTs: unsatisfiable as posed
  ProgressiveSelector progressive;
  ResilientOptions options;
  options.allow_relaxation = false;
  ResilientSelector selector({&progressive}, options);
  common::Rng rng(3);
  auto selection = selector.SelectWithReport(inst.input, &rng);
  ASSERT_FALSE(selection.ok());
  EXPECT_TRUE(selection.status().IsUnsatisfiable())
      << selection.status().ToString();
}

}  // namespace
}  // namespace tokenmagic::core
