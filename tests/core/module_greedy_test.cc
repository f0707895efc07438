#include "core/module_greedy.h"
#include "support/snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "analysis/diversity.h"
#include "common/rng.h"
#include "oracle/module_greedy_oracle.h"

namespace tokenmagic::core {
namespace {

using chain::RsView;
using chain::TokenId;
using chain::TxId;

/// True when a chosen module holds a token of external HT `ht`.
bool Covers(const ModuleSelectionState& state, TxId ht) {
  for (uint32_t h = 0; h < state.ht_count.size(); ++h) {
    if (state.ht_id(h) == ht) return state.ht_count[h] > 0;
  }
  return false;
}

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
  EXPECT_EQ(state->covered_ht_count, 1u);
  EXPECT_TRUE(Covers(*state, 500));
  // 4 modules total (2 supers + 2 fresh); 3 remaining.
  EXPECT_EQ(state->mu->module_count(), 4u);
  EXPECT_EQ(state->remaining.size(), 3u);
}

TEST(InitModuleStateTest, TargetInSuperRsSeedsWholeModule) {
  Fixture fx;
  fx.input.target = 1;  // inside super RS {1,2}
  auto state = InitModuleState(fx.input);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state->token_size, 2u);
  EXPECT_EQ(state->covered_ht_count, 1u);  // both tokens share h1
}

TEST(ChooseUnchooseTest, RoundTripRestoresState) {
  Fixture fx;
  auto state = InitModuleState(fx.input);
  ASSERT_TRUE(state.ok());
  size_t other = state->remaining[0];
  size_t size_before = state->token_size;
  auto counts_before = state->ht_count;
  size_t covered_before = state->covered_ht_count;
  size_t remaining_before = state->remaining.size();

  ChooseModule(&*state, other);
  EXPECT_EQ(state->chosen.size(), 2u);
  EXPECT_GT(state->token_size, size_before);
  EXPECT_EQ(state->remaining.size(), remaining_before - 1);

  UnchooseModule(&*state, other);
  EXPECT_EQ(state->chosen.size(), 1u);
  EXPECT_EQ(state->token_size, size_before);
  EXPECT_EQ(state->ht_count, counts_before);
  EXPECT_EQ(state->covered_ht_count, covered_before);
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
  size_t m1 = state->mu->ModuleOfToken(1);
  size_t m2 = state->mu->ModuleOfToken(2);
  ChooseModule(&*state, m1);
  ChooseModule(&*state, m2);
  EXPECT_TRUE(Covers(*state, 100));
  UnchooseModule(&*state, m2);
  EXPECT_TRUE(Covers(*state, 100));  // still via module m1
}

TEST(GreedyCoverHtsTest, StopsExactlyAtEll) {
  Fixture fx;
  auto state = InitModuleState(fx.input);
  ASSERT_TRUE(state.ok());
  auto steps = GreedyCoverHts(&*state, 3);
  ASSERT_TRUE(steps.ok());
  EXPECT_GE(state->covered_ht_count, 3u);
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
  auto steps = GreedyCoverHts(&*state, 2);
  ASSERT_TRUE(steps.ok());
  EXPECT_EQ(*steps, 1u);
  auto members = MaterializeCandidate(*state->mu, state->chosen);
  EXPECT_EQ(members, (std::vector<TokenId>{5, 6}));
}

TEST(GreedyCoverHtsTest, UnsatisfiableWhenHtsRunOut) {
  Fixture fx;
  auto state = InitModuleState(fx.input);
  ASSERT_TRUE(state.ok());
  auto steps = GreedyCoverHts(&*state, 99);
  EXPECT_FALSE(steps.ok());
  EXPECT_TRUE(steps.status().IsUnsatisfiable());
}

TEST(ModuleHtsTest, DistinctHtsOfModule) {
  Fixture fx;
  auto state = InitModuleState(fx.input);
  ASSERT_TRUE(state.ok());
  auto hts = state->HtsOf(state->mu->ModuleOfToken(1));
  ASSERT_EQ(hts.size(), 1u);
  EXPECT_EQ(state->ht_id(hts[0].ht), 100u);
  EXPECT_EQ(hts[0].tokens, 2u);
}


/// A random laminar instance: 4-43 tokens over 1-12 HTs, a history of
/// groups of consecutive tokens, each with a chain of nested prefixes (so
/// supers and fresh tokens both occur), and a random target.
struct RandomInstance {
  chain::HtIndex index;
  std::vector<TokenId> universe;
  std::vector<RsView> history;
  SelectionInput input;

  explicit RandomInstance(common::Rng* rng) {
    size_t num_tokens = 4 + rng->NextBounded(40);
    uint64_t ht_pool = 1 + rng->NextBounded(12);
    for (TokenId t = 0; t < static_cast<TokenId>(num_tokens); ++t) {
      universe.push_back(t);
      index.Set(t, 1000 + rng->NextBounded(ht_pool));
    }
    chain::RsId next_id = 1;
    TokenId cursor = 0;
    while (cursor < static_cast<TokenId>(num_tokens)) {
      size_t group = std::min<size_t>(1 + rng->NextBounded(6),
                                      num_tokens - cursor);
      size_t chain_len = rng->NextBounded(3);
      for (size_t c = 0; c < chain_len; ++c) {
        size_t prefix = 1 + rng->NextBounded(group);
        std::vector<TokenId> members;
        for (size_t k = 0; k < prefix; ++k) {
          members.push_back(cursor + static_cast<TokenId>(k));
        }
        history.push_back(View(next_id++, members));
      }
      cursor += static_cast<TokenId>(group);
    }
    input.target = universe[rng->NextBounded(universe.size())];
    input.universe = universe;
    input.history = history;
    input.index = &index;
    test_support::AttachContext(&input);
  }
};

/// Asserts that the state's per-HT counts equal a recount of the chosen
/// modules' materialized tokens.
void ExpectCountsMatchOracle(const ModuleSelectionState& state,
                             const chain::HtIndex& index) {
  std::map<TxId, int64_t> recount =
      oracle::HtCounts(*state.mu, state.chosen, index);
  ASSERT_EQ(state.covered_ht_count, recount.size());
  for (uint32_t h = 0; h < state.ht_count.size(); ++h) {
    auto it = recount.find(state.ht_id(h));
    ASSERT_EQ(static_cast<int64_t>(state.ht_count[h]),
              it == recount.end() ? 0 : it->second)
        << "ht " << h;
  }
}

// The seal's module index against the from-scratch oracles: over the same
// seeded instances as the kernel test below, every module's (HT, count)
// pairs equal a recount of its tokens, and the state after
// InitModuleState and after GreedyCoverHts matches a recount of the
// chosen ring.
TEST(ModuleIndexHtsTest, MatchFromScratchOracle) {
  common::Rng rng(20261017);
  common::Rng ell_rng(17);
  for (int trial = 0; trial < 120; ++trial) {
    SCOPED_TRACE(trial);
    RandomInstance fx(&rng);
    auto state = InitModuleState(fx.input);
    ASSERT_TRUE(state.ok()) << state.status().ToString();
    for (size_t m = 0; m < state->mu->module_count(); ++m) {
      std::map<TxId, int64_t> pairs;
      uint32_t previous = 0;
      for (HtTokens pair : state->HtsOf(m)) {
        if (!pairs.empty()) {
          EXPECT_GT(pair.ht, previous) << "module " << m;
        }
        previous = pair.ht;
        pairs[state->ht_id(pair.ht)] = pair.tokens;
      }
      EXPECT_EQ(pairs, oracle::HtCounts(*state->mu, {m}, fx.index))
          << "module " << m;
    }
    ExpectCountsMatchOracle(*state, fx.index);

    std::map<TxId, int64_t> all = oracle::HtCounts(
        *state->mu, state->mu->SuperRsModuleIndices(), fx.index);
    for (size_t m : state->mu->FreshModuleIndices()) {
      ++all[fx.index.HtOf(state->mu->module(m).tokens.front())];
    }
    int ell = 1 + static_cast<int>(ell_rng.NextBounded(8));
    auto steps = GreedyCoverHts(&*state, ell);
    if (static_cast<size_t>(ell) > all.size()) {
      EXPECT_TRUE(steps.status().IsUnsatisfiable());
      continue;
    }
    ASSERT_TRUE(steps.ok()) << steps.status().ToString();
    EXPECT_GE(state->covered_ht_count, static_cast<size_t>(ell));
    ExpectCountsMatchOracle(*state, fx.index);
  }
}

// The incremental kernel against the from-scratch oracles: over random
// laminar module universes and random choose/unchoose walks, every
// candidate's fresh-HT count and δ_i (bit-identical, compared with ==) and
// the per-HT counts match a recount of the materialized ring.
TEST(IncrementalKernelTest, MatchesFromScratchOracle) {
  common::Rng rng(20261017);
  const double kCs[] = {0.35, 0.6, 1.0, 1.3, 2.0, 3.7};
  std::vector<int64_t> scratch;
  for (int trial = 0; trial < 120; ++trial) {
    RandomInstance fx(&rng);
    const chain::HtIndex& index = fx.index;
    const SelectionInput& input = fx.input;
    chain::DiversityRequirement req{kCs[rng.NextBounded(6)],
                                    1 + static_cast<int>(rng.NextBounded(6))};
    auto state = InitModuleState(input);
    ASSERT_TRUE(state.ok()) << "trial " << trial;

    for (int step = 0; step < 24; ++step) {
      // The per-HT counts equal a recount of the materialized ring.
      std::map<TxId, int64_t> recount =
          oracle::HtCounts(*state->mu, state->chosen, index);
      ASSERT_EQ(state->covered_ht_count, recount.size())
          << "trial " << trial << " step " << step;
      for (size_t h = 0; h < state->ht_count.size(); ++h) {
        auto it = recount.find(state->ht_id(h));
        ASSERT_EQ(static_cast<int64_t>(state->ht_count[h]),
                  it == recount.end() ? 0 : it->second)
            << "trial " << trial << " step " << step << " ht " << h;
      }

      ChosenFrequencies chosen = ChosenFrequenciesOf(*state);
      ASSERT_EQ(analysis::DiversitySlack(chosen.sorted, req),
                oracle::SlackOf(*state->mu, state->chosen, index, req))
          << "trial " << trial << " step " << step;
      for (size_t candidate : state->remaining) {
        ASSERT_EQ(FreshHtCount(*state, candidate),
                  oracle::FreshHtCount(*state->mu, state->chosen, candidate,
                                       index))
            << "trial " << trial << " step " << step << " module "
            << candidate;
        std::vector<size_t> tentative = state->chosen;
        tentative.push_back(candidate);
        ASSERT_EQ(SlackWith(chosen, state->HtsOf(candidate), req, &scratch),
                  oracle::SlackOf(*state->mu, tentative, index, req))
            << "trial " << trial << " step " << step << " module "
            << candidate;
      }

      // Random walk: choose a remaining module or unchoose a non-target.
      std::vector<size_t> removable;
      for (size_t m : state->chosen) {
        if (m != state->target_module) removable.push_back(m);
      }
      bool add = removable.empty() ||
                 (!state->remaining.empty() && rng.NextBounded(3) != 0);
      if (add && state->remaining.empty()) break;
      if (add) {
        ChooseModule(&*state,
                     state->remaining[rng.NextBounded(state->remaining.size())]);
      } else {
        UnchooseModule(&*state,
                       removable[rng.NextBounded(removable.size())]);
      }
    }
  }
}

}  // namespace
}  // namespace tokenmagic::core
