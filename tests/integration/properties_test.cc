// Property-based validation of the paper's theorems over randomized
// instances: Theorem 6.1 (psi-set DTRS characterization), Theorem 6.3
// (immutability under the first practical configuration), Theorem 6.4
// ((c, ell+1) on the RS implies (c, ell) on every DTRS), and the
// approximation behaviour of the Progressive/Game-theoretic selectors.
#include <gtest/gtest.h>

#include "analysis/chain_reaction.h"
#include "analysis/diversity.h"
#include "analysis/dtrs.h"
#include "core/baselines.h"
#include "core/eligibility.h"
#include "core/game_theoretic.h"
#include "core/progressive.h"
#include "data/synthetic.h"
#include "support/snapshot.h"

namespace tokenmagic {
namespace {

using chain::RsView;
using chain::TokenId;
using chain::TxId;

/// Random small instance: a universe with clustered HTs and a history of
/// disjoint super RSs (respecting the first practical configuration).
struct RandomInstance {
  std::vector<TokenId> universe;
  std::vector<RsView> history;
  chain::HtIndex index;

  explicit RandomInstance(uint64_t seed) {
    common::Rng rng(seed);
    size_t num_tokens = 12 + rng.NextBounded(8);
    size_t num_hts = 3 + rng.NextBounded(5);
    for (TokenId t = 0; t < num_tokens; ++t) {
      universe.push_back(t);
      index.Set(t, static_cast<TxId>(rng.NextBounded(num_hts)));
    }
    // Partition a prefix into 2-4 disjoint RSs.
    std::vector<TokenId> shuffled = universe;
    rng.Shuffle(&shuffled);
    size_t cursor = 0;
    size_t num_rs = 2 + rng.NextBounded(3);
    for (size_t r = 0; r < num_rs && cursor + 2 < shuffled.size(); ++r) {
      RsView view;
      view.id = r;
      view.proposed_at = r;
      view.requirement = {1.0, 1};
      size_t size = 2 + rng.NextBounded(3);
      for (size_t i = 0; i < size && cursor < shuffled.size() - 1; ++i) {
        view.members.push_back(shuffled[cursor++]);
      }
      std::sort(view.members.begin(), view.members.end());
      history.push_back(std::move(view));
    }
  }
};

class TheoremSweep : public ::testing::TestWithParam<uint64_t> {};

// Theorem 6.4: if an RS's HT multiset satisfies (c, ell+1), every exact
// DTRS of it satisfies (c, ell).
TEST_P(TheoremSweep, Theorem64DtrsDiversityFollowsFromStrictRs) {
  RandomInstance instance(GetParam());
  // Append a new RS that is the union of the first two history RSs (a
  // valid superset under the configuration).
  RsView candidate;
  candidate.id = 100;
  candidate.proposed_at = 100;
  for (size_t i = 0; i < std::min<size_t>(2, instance.history.size()); ++i) {
    const auto& m = instance.history[i].members;
    candidate.members.insert(candidate.members.end(), m.begin(), m.end());
  }
  std::sort(candidate.members.begin(), candidate.members.end());
  if (candidate.members.empty()) GTEST_SKIP();

  for (int ell = 1; ell <= 3; ++ell) {
    chain::DiversityRequirement strict{1.5, ell + 1};
    if (!analysis::SatisfiesRecursiveDiversity(candidate.members,
                                               instance.index, strict)) {
      continue;  // premise not met for this ell
    }
    std::vector<RsView> family = instance.history;
    family.push_back(candidate);
    analysis::DtrsFinder::Options options;
    options.max_combinations = 50000;
    auto dtrss = analysis::DtrsFinder::FindAll(
        analysis::AnalysisContext::Build(family), candidate.id,
        instance.index, options);
    if (!dtrss.ok()) continue;  // capped-out instance: skip
    for (const auto& d : *dtrss) {
      EXPECT_TRUE(analysis::SatisfiesRecursiveDiversity(
          d.Tokens(), instance.index, {1.5, ell}))
          << "seed " << GetParam() << " ell " << ell;
    }
  }
}

// Theorem 6.3: proposing a new RS that is a superset of (or disjoint
// from) every existing RS cannot newly reveal any existing spend.
TEST_P(TheoremSweep, Theorem63NewRsDoesNotRevealOldSpends) {
  RandomInstance instance(GetParam());
  auto before = analysis::ChainReactionAnalyzer::Analyze(
      analysis::AnalysisContext::Build(instance.history));

  // Candidate: union of ALL history RSs plus any free tokens — a strict
  // superset of every RS, trivially respecting the configuration.
  RsView candidate;
  candidate.id = 100;
  candidate.proposed_at = 100;
  candidate.members = instance.universe;
  std::sort(candidate.members.begin(), candidate.members.end());

  std::vector<RsView> after_views = instance.history;
  after_views.push_back(candidate);
  auto after = analysis::ChainReactionAnalyzer::Analyze(
      analysis::AnalysisContext::Build(after_views));

  for (const auto& view : instance.history) {
    bool revealed_before = before.revealed_spends.count(view.id) > 0;
    bool revealed_after = after.revealed_spends.count(view.id) > 0;
    EXPECT_TRUE(!revealed_after || revealed_before)
        << "rs " << view.id << " newly revealed, seed " << GetParam();
  }
}

// Theorem 6.1 cross-check: on instances where the exact SDR space is
// tractable, the psi-set characterization of DTRS token sets agrees with
// the exactly enumerated minimal DTRSs for fully covered super RSs.
TEST_P(TheoremSweep, Theorem61PsiSetsAreDtrsTokenSets) {
  uint64_t seed = GetParam();
  common::Rng rng(seed * 31 + 7);
  // Construct: two identical super RSs s (so v = 2) over 3 tokens, and
  // one disjoint RS. Check DTRSs of the later copy.
  std::vector<TokenId> tokens = {0, 1, 2, 3, 4};
  chain::HtIndex index;
  size_t num_hts = 2 + rng.NextBounded(2);
  for (TokenId t : tokens) {
    index.Set(t, static_cast<TxId>(rng.NextBounded(num_hts)));
  }
  RsView r0{0, {0, 1, 2}, 0, {1.0, 1}};
  RsView r1{1, {0, 1, 2}, 1, {1.0, 1}};
  RsView r2{2, {3, 4}, 2, {1.0, 1}};
  std::vector<RsView> history = {r0, r1, r2};

  auto dtrss = analysis::DtrsFinder::FindAll(
      analysis::AnalysisContext::Build(history), 1, index);
  ASSERT_TRUE(dtrss.ok());

  // Theorem 6.1 with r_i = r1, v = 2, |r| = 3: a DTRS pinning HT h exists
  // iff 2 >= 3 - |T~_h| + 1, i.e. |T~_h| >= 2. Its token set is r \ T~_h.
  std::map<TxId, std::vector<TokenId>> by_ht;
  for (TokenId t : r1.members) by_ht[index.HtOf(t)].push_back(t);
  for (const auto& [ht, same] : by_ht) {
    std::vector<TokenId> psi;
    for (TokenId t : r1.members) {
      if (index.HtOf(t) != ht) psi.push_back(t);
    }
    bool expected_exists = same.size() >= 2 && !psi.empty();
    bool found = false;
    for (const auto& d : *dtrss) {
      if (d.determined_ht == ht) {
        std::vector<TokenId> dtrs_tokens = d.Tokens();
        std::sort(dtrs_tokens.begin(), dtrs_tokens.end());
        if (dtrs_tokens == psi) found = true;
      }
    }
    EXPECT_EQ(found, expected_exists)
        << "seed " << seed << " ht " << ht;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TheoremSweep,
                         ::testing::Range<uint64_t>(1, 16));

// Selector-level properties on synthetic datasets.
class SelectorPropertySweep : public ::testing::TestWithParam<uint64_t> {};

// Theorems 6.4 and 6.3 on the rings the selectors build under their one
// rule, checked after selection: the ring satisfies (c, ℓ+1), so every
// ψ-set DTRS of it is (c, ℓ)-diverse at v = 1 + the history RSs it
// covers; and every covered RS that meets its own (c_r, ℓ_r+1) keeps
// (c_r, ℓ_r)-diverse DTRSs at that v (immutability). A covered RS that
// fails its own (c_r, ℓ_r+1) is skipped: the node's verifier never admits
// one, but the synthetic history, declared at (1, 1), holds some.
TEST_P(SelectorPropertySweep, SelectionsSatisfyAllPracticalConstraints) {
  data::SyntheticParams params;
  params.num_super_rs = 15;
  params.super_size_min = 3;
  params.super_size_max = 8;
  params.num_fresh = 5;
  params.sigma = 6;
  params.seed = GetParam();
  data::Dataset ds = data::MakeSyntheticDataset(params);
  common::Rng rng(GetParam() * 17 + 3);

  core::SelectionInput input;
  input.universe = ds.universe;
  input.history = ds.history;
  input.requirement = {1.0, 6};
  input.index = &ds.index;
  test_support::AttachContext(&input);

  core::ProgressiveSelector progressive;
  core::GameTheoreticSelector game;
  core::SmallestSelector smallest;
  core::RandomSelector random;
  std::vector<const core::MixinSelector*> selectors = {
      &progressive, &game, &smallest, &random};
  const std::vector<TokenId> unspent = ds.UnspentTokens();
  size_t rings = 0, covered_checks = 0;
  for (size_t k = 0; k < 20 && k < unspent.size(); ++k) {
    input.target = unspent[k];
    for (const auto* selector : selectors) {
      auto result = selector->Select(input, &rng);
      if (!result.ok()) {
        EXPECT_TRUE(result.status().IsUnsatisfiable()) << selector->name();
        continue;
      }
      ++rings;
      const std::vector<TokenId>& members = result->members;
      SCOPED_TRACE(testing::Message() << selector->name() << " seed "
                                      << GetParam() << " target "
                                      << input.target);
      // (c, ℓ+1) holds, hence (c, ℓ) holds too.
      EXPECT_TRUE(
          analysis::SatisfiesRecursiveDiversity(members, ds.index, {1.0, 7}));
      EXPECT_TRUE(
          std::binary_search(members.begin(), members.end(), input.target));
      // First practical configuration: the result is a union of whole
      // modules — every history RS is inside or outside, never split.
      std::vector<const RsView*> covered;
      for (const auto& view : ds.history) {
        size_t inside = 0;
        for (TokenId t : view.members) {
          if (std::binary_search(members.begin(), members.end(), t)) {
            ++inside;
          }
        }
        EXPECT_TRUE(inside == 0 || inside == view.members.size())
            << "split rs " << view.id;
        if (inside == view.members.size()) covered.push_back(&view);
      }
      const size_t v = 1 + covered.size();
      // Theorem 6.4: no DTRS check is needed at selection.
      EXPECT_TRUE(analysis::PracticalDtrsDiversityHolds(members, v, ds.index,
                                                        input.requirement));
      // Immutability: no re-check of covered RSs is needed either.
      for (const RsView* view : covered) {
        if (!analysis::SatisfiesRecursiveDiversity(
                view->members, ds.index,
                core::EffectiveRequirement(view->requirement))) {
          continue;
        }
        ++covered_checks;
        EXPECT_TRUE(analysis::PracticalDtrsDiversityHolds(
            view->members, v, ds.index, view->requirement))
            << "covered rs " << view->id;
      }
    }
  }
  EXPECT_GT(rings, 0u);
  EXPECT_GT(covered_checks, 0u);
}

// Theorem 6.7 (PoA proof, intermediate bound): the converged RS obeys
// |r_c| <= q_M * (ell - 1) + q_M / c + z_M, with q_M the peak HT
// frequency in T and z_M the largest super-RS size.
TEST_P(SelectorPropertySweep, GameRespectsTheorem67SizeBound) {
  data::SyntheticParams params;
  params.num_super_rs = 12;
  params.super_size_min = 4;
  params.super_size_max = 10;
  params.num_fresh = 6;
  params.sigma = 8;
  params.seed = GetParam() + 1000;
  data::Dataset ds = data::MakeSyntheticDataset(params);
  common::Rng rng(GetParam() * 13 + 1);

  // The game plays to the requirement the rule tests, (c, ℓ+1), so the
  // bound is stated at that ℓ: a request at (1, 7) plays to (1, 8).
  const chain::DiversityRequirement req =
      core::EffectiveRequirement({1.0, 7});
  core::SelectionInput input;
  input.universe = ds.universe;
  input.history = ds.history;
  input.requirement = {1.0, 7};
  input.index = &ds.index;
  test_support::AttachContext(&input);
  input.target = ds.UnspentTokens()[0];

  core::GameTheoreticSelector game;
  auto g = game.Select(input, &rng);
  if (!g.ok()) GTEST_SKIP();

  auto freq = analysis::HtFrequencies(ds.universe, ds.index);
  double q_max = static_cast<double>(freq.front());
  size_t z_max = 0;
  for (const auto& view : ds.history) {
    z_max = std::max(z_max, view.members.size());
  }
  double bound = q_max * (req.ell - 1) + q_max / req.c +
                 static_cast<double>(z_max);
  EXPECT_LE(static_cast<double>(g->members.size()), bound)
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SelectorPropertySweep,
                         ::testing::Range<uint64_t>(1, 11));

// Aggregate comparison across seeds: on average the equilibrium is at
// least as small as the random baseline (matching Figures 5-10's ordering
// TM_G <= TM_R), even though single instances can deviate.
TEST(SelectorAggregateTest, GameBeatsRandomOnAverage) {
  double game_total = 0.0;
  double random_total = 0.0;
  int counted = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    data::SyntheticParams params;
    params.num_super_rs = 12;
    params.super_size_min = 4;
    params.super_size_max = 10;
    params.num_fresh = 6;
    params.sigma = 8;
    params.seed = seed + 1000;
    data::Dataset ds = data::MakeSyntheticDataset(params);
    common::Rng rng(seed * 13 + 1);

    core::SelectionInput input;
    input.universe = ds.universe;
    input.history = ds.history;
    input.requirement = {1.0, 8};
    input.index = &ds.index;
    test_support::AttachContext(&input);
    input.target = ds.UnspentTokens()[0];

    core::GameTheoreticSelector game;
    core::RandomSelector random;
    auto g = game.Select(input, &rng);
    auto r = random.Select(input, &rng);
    if (!g.ok() || !r.ok()) continue;
    game_total += static_cast<double>(g->members.size());
    random_total += static_cast<double>(r->members.size());
    ++counted;
  }
  ASSERT_GT(counted, 5);
  EXPECT_LE(game_total, random_total);
}

}  // namespace
}  // namespace tokenmagic
