#include "core/module_greedy.h"
#include "support/snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>
#include <span>
#include <utility>

#include "analysis/diversity.h"
#include "common/rng.h"
#include "core/progressive.h"
#include "oracle/module_greedy_oracle.h"

namespace tokenmagic::core {
namespace {

using chain::RsView;
using chain::TokenId;
using chain::TxId;

/// True when a chosen module holds a token of external HT `ht`; HT locals
/// are those of `context`, the input's snapshot.
bool Covers(const ModuleSelectionState& state,
            const analysis::AnalysisContext& context, TxId ht) {
  for (uint32_t h = 0; h < state.ht_count.size(); ++h) {
    if (context.ht_id(h) == ht) return state.ht_count[h] > 0;
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
    input.requirement = {2.0, 1};
    input.index = &index;
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
  EXPECT_TRUE(Covers(*state, *fx.input.context, 500));
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
  EXPECT_EQ(state->covered_hts.size(), 1u);  // both tokens share h1
}

TEST(ChooseUnchooseTest, RoundTripRestoresState) {
  Fixture fx;
  auto state = InitModuleState(fx.input);
  ASSERT_TRUE(state.ok());
  size_t other = state->remaining[0];
  size_t size_before = state->token_size;
  auto counts_before = state->ht_count;
  size_t covered_before = state->covered_hts.size();
  size_t remaining_before = state->remaining.size();

  ChooseModule(&*state, other);
  EXPECT_EQ(state->chosen.size(), 2u);
  EXPECT_GT(state->token_size, size_before);
  EXPECT_EQ(state->remaining.size(), remaining_before - 1);

  UnchooseModule(&*state, other);
  EXPECT_EQ(state->chosen.size(), 1u);
  EXPECT_EQ(state->token_size, size_before);
  EXPECT_EQ(state->ht_count, counts_before);
  EXPECT_EQ(state->covered_hts.size(), covered_before);
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
  size_t m1 = test_support::ModuleOfToken(*state->mu, 1);
  size_t m2 = test_support::ModuleOfToken(*state->mu, 2);
  ChooseModule(&*state, m1);
  ChooseModule(&*state, m2);
  EXPECT_TRUE(Covers(*state, *input.context, 100));
  UnchooseModule(&*state, m2);
  EXPECT_TRUE(Covers(*state, *input.context, 100));  // still via module m1
}

TEST(GreedyCoverHtsTest, StopsExactlyAtEll) {
  Fixture fx;
  auto state = InitModuleState(fx.input);
  ASSERT_TRUE(state.ok());
  auto steps = GreedyCoverHts(&*state, 3);
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
  auto hts = state->HtsOf(test_support::ModuleOfToken(*state->mu, 1));
  ASSERT_EQ(hts.size(), 1u);
  EXPECT_EQ(fx.input.context->ht_id(hts[0].ht), 100u);
  EXPECT_EQ(hts[0].tokens, 2u);
}


/// A random laminar instance: 4 to 3 + `max_tokens` tokens over 1 to
/// `max_hts` HTs, a history of groups of consecutive tokens, each with a
/// chain of nested prefixes (so supers and fresh tokens both occur), and a
/// random target. With `no_fresh`, every group has at least two tokens, a
/// super RS over the whole group and its first two tokens in one HT, so
/// every module has fewer distinct HTs than tokens.
struct RandomInstance {
  chain::HtIndex index;
  std::vector<TokenId> universe;
  std::vector<RsView> history;
  SelectionInput input;

  explicit RandomInstance(common::Rng* rng, uint64_t max_tokens = 40,
                          uint64_t max_hts = 12, bool no_fresh = false) {
    size_t num_tokens = 4 + rng->NextBounded(max_tokens);
    uint64_t ht_pool = 1 + rng->NextBounded(max_hts);
    std::vector<TxId> hts;
    for (TokenId t = 0; t < static_cast<TokenId>(num_tokens); ++t) {
      universe.push_back(t);
      hts.push_back(1000 + rng->NextBounded(ht_pool));
    }
    chain::RsId next_id = 1;
    TokenId cursor = 0;
    while (cursor < static_cast<TokenId>(num_tokens)) {
      size_t left = num_tokens - cursor;
      size_t group = std::min<size_t>(1 + rng->NextBounded(6), left);
      if (no_fresh) {
        group = std::max<size_t>(group, 2);
        if (left - group < 2) group = left;
        hts[cursor + 1] = hts[cursor];
      }
      size_t chain_len = rng->NextBounded(3);
      for (size_t c = 0; c < chain_len; ++c) {
        size_t prefix = no_fresh ? 1 + rng->NextBounded(group - 1)
                                 : 1 + rng->NextBounded(group);
        history.push_back(View(next_id++, Range(cursor, prefix)));
      }
      if (no_fresh) history.push_back(View(next_id++, Range(cursor, group)));
      cursor += static_cast<TokenId>(group);
    }
    for (TokenId t : universe) index.Set(t, hts[t]);
    input.target = universe[rng->NextBounded(universe.size())];
    input.universe = universe;
    input.history = history;
    input.index = &index;
    test_support::AttachContext(&input);
  }

  static std::vector<TokenId> Range(TokenId first, size_t count) {
    std::vector<TokenId> members;
    for (size_t k = 0; k < count; ++k) {
      members.push_back(first + static_cast<TokenId>(k));
    }
    return members;
  }
};

/// Asserts that the state's per-HT counts equal a recount of the chosen
/// modules' materialized tokens.
void ExpectCountsMatchOracle(const ModuleSelectionState& state,
                             const analysis::AnalysisContext& context,
                             const chain::HtIndex& index) {
  std::map<TxId, int64_t> recount =
      oracle::HtCounts(*state.mu, state.chosen, index);
  ASSERT_EQ(state.covered_hts.size(), recount.size());
  for (uint32_t h = 0; h < state.ht_count.size(); ++h) {
    auto it = recount.find(context.ht_id(h));
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
        pairs[fx.input.context->ht_id(pair.ht)] = pair.tokens;
      }
      EXPECT_EQ(pairs, oracle::HtCounts(*state->mu, {m}, fx.index))
          << "module " << m;
    }
    ExpectCountsMatchOracle(*state, *fx.input.context, fx.index);

    std::vector<size_t> every(state->mu->module_count());
    std::iota(every.begin(), every.end(), size_t{0});
    std::map<TxId, int64_t> all = oracle::HtCounts(*state->mu, every, fx.index);
    int ell = 1 + static_cast<int>(ell_rng.NextBounded(8));
    auto steps = GreedyCoverHts(&*state, ell);
    if (static_cast<size_t>(ell) > all.size()) {
      EXPECT_TRUE(steps.status().IsUnsatisfiable());
      continue;
    }
    ASSERT_TRUE(steps.ok()) << steps.status().ToString();
    EXPECT_GE(state->covered_hts.size(), static_cast<size_t>(ell));
    ExpectCountsMatchOracle(*state, *fx.input.context, fx.index);
  }
}

// The seal's HT -> modules CSR is exactly the inverse of HtsOf: every
// (HT, module) pair appears once on each side, and each HT's modules are
// ascending.
TEST(ModuleIndexHtsTest, ModulesOfHtInvertsHtsOf) {
  common::Rng rng(20261019);
  for (int trial = 0; trial < 120; ++trial) {
    SCOPED_TRACE(trial);
    RandomInstance fx(&rng, trial % 2 == 0 ? 40 : 160,
                      trial % 2 == 0 ? 12 : 80);
    auto state = InitModuleState(fx.input);
    ASSERT_TRUE(state.ok()) << state.status().ToString();
    std::vector<std::pair<uint32_t, uint32_t>> forward;
    for (size_t m = 0; m < state->mu->module_count(); ++m) {
      for (HtTokens pair : state->HtsOf(m)) {
        forward.emplace_back(pair.ht, static_cast<uint32_t>(m));
      }
    }
    std::sort(forward.begin(), forward.end());
    std::vector<std::pair<uint32_t, uint32_t>> inverse;
    for (uint32_t h = 0; h < fx.input.context->ht_count(); ++h) {
      std::span<const uint32_t> modules = state->mu->ModulesOfHt(h);
      EXPECT_TRUE(std::is_sorted(modules.begin(), modules.end()))
          << "ht " << h;
      for (uint32_t m : modules) inverse.emplace_back(h, m);
    }
    EXPECT_EQ(inverse, forward);
  }
}

// Phase 1's incremental fresh-HT counts against the from-scratch oracle:
// GreedyCoverHts's picks are replayed through FreshHtCounts::Choose, and
// after every step each module's count equals oracle::FreshHtCount and the
// pick equals the α rule evaluated on oracle counts (same scan order,
// first strict minimum). Random picks then carry the walk past ℓ.
TEST(FreshHtCountsTest, MatchOracleAfterEveryGreedyStep) {
  common::Rng rng(20261020);
  for (int trial = 0; trial < 120; ++trial) {
    SCOPED_TRACE(trial);
    RandomInstance fx(&rng, trial % 2 == 0 ? 40 : 120,
                      trial % 2 == 0 ? 12 : 60);
    auto state = InitModuleState(fx.input);
    ASSERT_TRUE(state.ok()) << state.status().ToString();
    int ell = 1 + static_cast<int>(rng.NextBounded(40));
    ModuleSelectionState greedy = *state;
    auto steps = GreedyCoverHts(&greedy, ell);
    if (!steps.ok()) {
      ASSERT_TRUE(steps.status().IsUnsatisfiable());
      continue;
    }
    std::vector<size_t> picks(greedy.chosen.begin() + 1, greedy.chosen.end());
    ASSERT_EQ(picks.size(), *steps);
    while (!greedy.remaining.empty() && picks.size() < *steps + 4) {
      size_t extra = greedy.remaining[rng.NextBounded(greedy.remaining.size())];
      ChooseModule(&greedy, extra);
      picks.push_back(extra);
    }

    FreshHtCounts fresh(*state);
    for (size_t step = 0; step <= picks.size(); ++step) {
      SCOPED_TRACE(step);
      std::vector<size_t> oracle_counts(state->mu->module_count());
      for (size_t m = 0; m < state->mu->module_count(); ++m) {
        oracle_counts[m] =
            oracle::FreshHtCount(*state->mu, state->chosen, m, fx.index);
        ASSERT_EQ(fresh.count(m), oracle_counts[m]) << "module " << m;
      }
      if (step == picks.size()) break;
      if (step < *steps) {
        size_t deficit = static_cast<size_t>(ell) - state->covered_hts.size();
        double best_alpha = std::numeric_limits<double>::infinity();
        size_t best = static_cast<size_t>(-1);
        for (size_t m : state->remaining) {
          if (oracle_counts[m] == 0) continue;
          double alpha = static_cast<double>(state->mu->ModuleSize(m)) /
                         static_cast<double>(std::min(deficit,
                                                      oracle_counts[m]));
          if (alpha < best_alpha) {
            best_alpha = alpha;
            best = m;
          }
        }
        ASSERT_EQ(picks[step], best);
      }
      fresh.Choose(&*state, picks[step]);
    }
    EXPECT_EQ(state->chosen, greedy.chosen);
    ExpectCountsMatchOracle(*state, *fx.input.context, fx.index);
  }
}

// The incremental kernel against the from-scratch oracles: over random
// laminar module universes (up to 123 tokens over up to 60 HTs, ℓ up to
// 40) and random choose/unchoose walks, the per-HT counts match a recount
// of the materialized ring, and every candidate's δ_i equals (==, bit for
// bit) both the recount's slack and the former copy-and-sort kernel. The
// walk must reach every branch of the (q_1, tail) merge.
TEST(IncrementalKernelTest, MatchesFromScratchOracle) {
  common::Rng rng(20261017);
  const double kCs[] = {0.35, 0.6, 1.0, 1.3, 2.0, 3.7};
  SlackScratch scratch;
  size_t empty_tail = 0, from_largest = 0, from_smallest = 0;
  size_t all_new = 0, bumps_first = 0;
  for (int trial = 0; trial < 160; ++trial) {
    SCOPED_TRACE(trial);
    bool wide = trial % 2 == 1;
    RandomInstance fx(&rng, wide ? 120 : 40, wide ? 60 : 12);
    const chain::HtIndex& index = fx.index;
    const SelectionInput& input = fx.input;
    chain::DiversityRequirement req{
        kCs[rng.NextBounded(6)],
        1 + static_cast<int>(rng.NextBounded(wide ? 40 : 6))};
    const size_t head = static_cast<size_t>(req.ell) - 1;
    auto state = InitModuleState(input);
    ASSERT_TRUE(state.ok());

    for (int step = 0; step < (wide ? 48 : 24); ++step) {
      SCOPED_TRACE(step);
      ExpectCountsMatchOracle(*state, *input.context, index);

      ChosenFrequencies chosen = ChosenFrequenciesOf(*state);
      ASSERT_EQ(analysis::DiversitySlack(chosen.sorted, req),
                oracle::SlackOf(*state->mu, state->chosen, index, req));
      for (size_t candidate : state->remaining) {
        std::span<const HtTokens> pairs = state->HtsOf(candidate);
        std::vector<size_t> tentative = state->chosen;
        tentative.push_back(candidate);
        double delta_i = SlackWith(chosen, pairs, req, &scratch);
        ASSERT_EQ(delta_i,
                  oracle::SlackOf(*state->mu, tentative, index, req))
            << "module " << candidate;
        ASSERT_EQ(delta_i, oracle::SlackWith(chosen, pairs, req))
            << "module " << candidate;

        size_t fresh = 0;
        bool first = false;
        for (HtTokens pair : pairs) {
          uint32_t slot = chosen.slot[pair.ht];
          if (slot == ChosenFrequencies::kNoSlot) ++fresh;
          if (slot == 0) first = true;
        }
        size_t theta = chosen.sorted.size() + fresh;
        if (theta <= head) {
          ++empty_tail;
        } else if (head <= theta - head) {
          ++from_largest;
        } else {
          ++from_smallest;
        }
        if (!pairs.empty() && fresh == pairs.size()) ++all_new;
        if (first) ++bumps_first;
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
  EXPECT_GT(empty_tail, 0u);
  EXPECT_GT(from_largest, 0u);
  EXPECT_GT(from_smallest, 0u);
  EXPECT_GT(all_new, 0u);
  EXPECT_GT(bumps_first, 0u);
}

/// How often the kernel's picks stopped at their bound during one run.
struct ExitCounts {
  size_t cover_steps = 0, cover_at_bound = 0;
  size_t slack_steps = 0, slack_at_bound = 0;
};

/// Algorithm 4 driven by the oracle's full scans, with
/// oracle::CheckCandidate as the stopping test. At every step the
/// kernel's pick on the same state must name the same module; `counts`
/// records where it stopped early.
/// Returns the chosen modules in choice order, or the selector's status.
common::Result<std::vector<size_t>> OracleProgressive(
    const SelectionInput& input, ExitCounts* counts) {
  chain::DiversityRequirement effective =
      EffectiveRequirement(input.requirement);
  auto state = InitModuleState(input);
  if (!state.ok()) return state.status();
  const size_t ell = static_cast<size_t>(effective.ell);
  if (state->covered_hts.size() < ell) {
    FreshHtCounts fresh(*state);
    while (state->covered_hts.size() < ell) {
      size_t deficit = ell - state->covered_hts.size();
      size_t full = oracle::PickCoverModule(*state, fresh, deficit);
      GreedyPick pick = PickCoverModule(*state, fresh, deficit);
      EXPECT_EQ(pick.module, full);
      if (full == GreedyPick::kNoModule) {
        return common::Status::Unsatisfiable("phase 1");
      }
      ++counts->cover_steps;
      if (pick.at_bound) ++counts->cover_at_bound;
      fresh.Choose(&*state, full);
    }
  }
  const bool exact = analysis::SlackIsExact(
      effective.c, static_cast<int64_t>(state->mu->token_count()));
  SlackScratch scratch;
  while (!oracle::CheckCandidate(*state->mu, state->chosen, *input.index,
                                 input.requirement)) {
    ChosenFrequencies chosen = ChosenFrequenciesOf(*state);
    double delta = analysis::DiversitySlack(chosen.sorted, effective);
    EXPECT_GE(delta, 0.0);
    size_t full = oracle::PickSlackModule(*state, chosen, delta, effective);
    GreedyPick pick =
        PickSlackModule(*state, chosen, delta, effective, &scratch);
    EXPECT_EQ(pick.module, full);
    if (full == GreedyPick::kNoModule) {
      return common::Status::Unsatisfiable("phase 2");
    }
    EXPECT_TRUE(exact || !pick.at_bound);
    ++counts->slack_steps;
    if (pick.at_bound) ++counts->slack_at_bound;
    ChooseModule(&*state, full);
  }
  return state->chosen;
}

// The early exits against the full scans: over 240 seeded universes (a
// quarter without fresh tokens, where no module reaches α == 1) at
// c in {0.5, 0.6, 1.0, 1.5, 2.0, 3.0} and an effective ℓ (the ℓ + 1 the
// rule tests) from 2 to 41, every phase-1 and phase-2 pick equals the
// full scan's, and
// ProgressiveSelector returns the oracle run's modules in the same order
// and the same members. Each exit must have fired in some trials and
// scanned to the end in others.
TEST(EarlyExitTest, PicksMatchFullScans) {
  common::Rng rng(20261022);
  const double kCs[] = {0.5, 0.6, 1.0, 1.5, 2.0, 3.0};
  size_t rings = 0;
  size_t cover_exit_trials = 0, cover_full_trials = 0;
  size_t slack_exit_trials = 0, slack_full_trials = 0;
  ProgressiveSelector progressive;
  for (int trial = 0; trial < 240; ++trial) {
    SCOPED_TRACE(trial);
    bool wide = trial % 3 != 0;
    RandomInstance fx(&rng, wide ? 160 : 40, wide ? 80 : 12,
                      /*no_fresh=*/trial % 4 == 3);
    const int effective_ell = 2 + static_cast<int>(rng.NextBounded(40));
    fx.input.requirement = {kCs[trial % 6], effective_ell - 1};

    ExitCounts counts;
    auto expected = OracleProgressive(fx.input, &counts);
    if (HasFatalFailure() || HasNonfatalFailure()) return;
    auto result = progressive.Select(fx.input, nullptr);
    ASSERT_EQ(result.ok(), expected.ok())
        << (result.ok() ? expected.status() : result.status()).ToString();
    if (result.ok()) {
      ++rings;
      EXPECT_EQ(result->chosen_modules, *expected);
      auto state = InitModuleState(fx.input);
      ASSERT_TRUE(state.ok());
      EXPECT_EQ(result->members, MaterializeCandidate(*state->mu, *expected));
    } else {
      EXPECT_TRUE(result.status().IsUnsatisfiable());
    }
    if (counts.cover_steps > 0) {
      ++(counts.cover_at_bound > 0 ? cover_exit_trials : cover_full_trials);
    }
    if (counts.slack_steps > 0) {
      ++(counts.slack_at_bound > 0 ? slack_exit_trials : slack_full_trials);
    }
  }
  EXPECT_GE(rings, 100u);
  EXPECT_GT(cover_exit_trials, 0u);
  EXPECT_GT(cover_full_trials, 0u);
  EXPECT_GT(slack_exit_trials, 0u);
  EXPECT_GT(slack_full_trials, 0u);
}

// The count-based verdict against oracle::CheckCandidate: along random
// walks that flip one non-target module at a time, ChosenEligible equals
// the materialized ring's verdict after every flip, at every c of the
// suite above and an effective ℓ from 2 to 13. Both verdicts must occur.
TEST(ChosenEligibleTest, MatchesCheckCandidateAfterEveryFlip) {
  common::Rng rng(20261023);
  const double kCs[] = {0.5, 0.6, 1.0, 1.5, 2.0, 3.0};
  size_t eligible = 0, ineligible = 0;
  for (int trial = 0; trial < 120; ++trial) {
    SCOPED_TRACE(trial);
    bool wide = trial % 2 == 1;
    RandomInstance fx(&rng, wide ? 120 : 40, wide ? 60 : 12);
    const int effective_ell =
        2 + static_cast<int>(rng.NextBounded(wide ? 12 : 4));
    fx.input.requirement = {kCs[trial % 6], effective_ell - 1};
    auto state = InitModuleState(fx.input);
    ASSERT_TRUE(state.ok());
    const size_t modules = state->mu->module_count();
    for (int flip = 0; flip <= 48 && modules > 1; ++flip) {
      SCOPED_TRACE(flip);
      bool expected = oracle::CheckCandidate(*state->mu, state->chosen,
                                             fx.index, fx.input.requirement);
      ASSERT_EQ(ChosenEligible(*state, fx.input), expected);
      ++(expected ? eligible : ineligible);

      size_t module = rng.NextBounded(modules);
      if (module == state->target_module) continue;
      if (std::find(state->chosen.begin(), state->chosen.end(), module) !=
          state->chosen.end()) {
        UnchooseModule(&*state, module);
      } else {
        ChooseModule(&*state, module);
      }
    }
  }
  EXPECT_GT(eligible, 100u);
  EXPECT_GT(ineligible, 100u);
}

}  // namespace
}  // namespace tokenmagic::core
