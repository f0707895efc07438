// Equivalence suite for the interned columnar AnalysisContext: every
// context-based read path must produce byte-identical results to the
// span-based reference oracles (tests/oracle/) on randomized histories.
// This is the contract that lets node::Node and the selectors share one
// snapshot per batch without changing any analysis outcome.
#include "analysis/context.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <unordered_set>
#include <vector>

#include "analysis/chain_reaction.h"
#include "analysis/diversity.h"
#include "analysis/homogeneity.h"
#include "analysis/related_set.h"
#include "chain/ht_index.h"
#include "common/rng.h"
#include "oracle/analysis_oracle.h"

namespace tokenmagic::analysis {
namespace {

using chain::DiversityRequirement;
using chain::HtIndex;
using chain::RsId;
using chain::RsView;
using chain::TokenId;
using chain::TokenRsPair;
using chain::TxId;

RsView View(RsId id, std::vector<TokenId> members) {
  RsView v;
  v.id = id;
  v.members = std::move(members);
  std::sort(v.members.begin(), v.members.end());
  v.members.erase(std::unique(v.members.begin(), v.members.end()),
                  v.members.end());
  v.proposed_at = id;
  v.requirement = {1.0, 1};
  return v;
}

/// One randomized instance: a token universe with HT assignments and a
/// ring history over it. RS ids ascend but are deliberately non-dense so
/// the LocalOfRs search is exercised.
struct RandomHistory {
  std::vector<TokenId> universe;
  HtIndex index;
  std::vector<RsView> history;

  RandomHistory(common::Rng* rng, size_t num_tokens, size_t num_rs) {
    size_t num_hts = 1 + rng->NextBounded(num_tokens);
    for (TokenId t = 0; t < static_cast<TokenId>(num_tokens); ++t) {
      universe.push_back(t);
      index.Set(t, 100 + rng->NextBounded(num_hts));
    }
    for (size_t r = 0; r < num_rs; ++r) {
      size_t size = 1 + rng->NextBounded(5);
      std::vector<TokenId> members;
      for (size_t i = 0; i < size; ++i) {
        members.push_back(rng->NextBounded(num_tokens));
      }
      history.push_back(View(static_cast<RsId>(r * 3 + 7), members));
    }
  }

  AnalysisContext Context() const {
    return AnalysisContext::Build(history, &index, universe);
  }
};

void ExpectSameAnalysis(const AnalysisResult& legacy,
                        const AnalysisResult& dense, const char* what,
                        int trial) {
  EXPECT_EQ(legacy.spent_tokens, dense.spent_tokens)
      << what << " spent_tokens, trial " << trial;
  EXPECT_EQ(legacy.revealed_spends, dense.revealed_spends)
      << what << " revealed_spends, trial " << trial;
  EXPECT_EQ(legacy.eliminated, dense.eliminated)
      << what << " eliminated, trial " << trial;
  EXPECT_EQ(legacy.possible_spends, dense.possible_spends)
      << what << " possible_spends, trial " << trial;
}

TEST(AnalysisContextTest, InterningRoundTripsStructure) {
  common::Rng rng(2026);
  RandomHistory instance(&rng, 20, 8);
  AnalysisContext context = instance.Context();
  EXPECT_EQ(context.token_count(), instance.universe.size());
  oracle::ExpectInterned(context, instance.history, &instance.index,
                         instance.universe);
  EXPECT_EQ(context.LocalOfToken(999999), AnalysisContext::kNoLocal);
  EXPECT_EQ(context.LocalOfRs(999999), AnalysisContext::kNoLocal);
}

// The central equivalence property: interning, related set, cascade (with
// and without side information), homogeneity, HT frequencies and
// diversity agree byte-for-byte with the span-based oracles and index
// paths on >= 100 seeded randomized histories.
TEST(AnalysisContextTest, EquivalentToLegacyOnRandomHistories) {
  common::Rng rng(20260806);
  for (int trial = 0; trial < 120; ++trial) {
    size_t num_tokens = 4 + rng.NextBounded(24);
    size_t num_rs = 1 + rng.NextBounded(12);
    RandomHistory instance(&rng, num_tokens, num_rs);
    AnalysisContext context = instance.Context();
    std::span<const RsView> history = instance.history;
    oracle::ExpectInterned(context, history, &instance.index,
                           instance.universe);

    // Related set: identical BFS emission order (ids AND levels).
    std::vector<TokenId> targets;
    size_t num_targets = 1 + rng.NextBounded(3);
    for (size_t i = 0; i < num_targets; ++i) {
      targets.push_back(rng.NextBounded(num_tokens + 2));  // may be absent
    }
    RelatedSetResult legacy_rel =
        oracle::ComputeRelatedSet(targets, history);
    RelatedSetResult dense_rel = ComputeRelatedSet(targets, context);
    ASSERT_EQ(legacy_rel.related.size(), dense_rel.related.size())
        << "trial " << trial;
    for (size_t i = 0; i < legacy_rel.related.size(); ++i) {
      EXPECT_EQ(legacy_rel.related[i].id, dense_rel.related[i].id)
          << "trial " << trial << " pos " << i;
      EXPECT_EQ(legacy_rel.related[i].level, dense_rel.related[i].level)
          << "trial " << trial << " pos " << i;
    }

    // Cascade without side information.
    AnalysisResult baseline = oracle::Cascade(history);
    ExpectSameAnalysis(baseline, ChainReactionAnalyzer::Cascade(context),
                       "cascade", trial);
    EXPECT_EQ(oracle::CountInferableSpent(history),
              ChainReactionAnalyzer::CountInferableSpent(context))
        << "trial " << trial;

    // Cascade under side information, including pairs naming unknown RSs
    // and duplicate pairs for one RS (both have defined oracle semantics).
    SideInformation si;
    size_t num_pairs = rng.NextBounded(4);
    for (size_t i = 0; i < num_pairs; ++i) {
      TokenRsPair pair;
      const RsView& view = instance.history[rng.NextBounded(num_rs)];
      pair.rs = rng.NextBounded(10) == 0 ? 999999 : view.id;
      pair.token = view.members[rng.NextBounded(view.members.size())];
      si.revealed.push_back(pair);
    }
    ExpectSameAnalysis(oracle::Cascade(history, si),
                       ChainReactionAnalyzer::Cascade(context, si),
                       "cascade+si", trial);

    // Per-RS probes: homogeneity, HT frequencies, diversity.
    for (const RsView& view : instance.history) {
      std::unordered_set<TokenId> eliminated;
      for (TokenId t : view.members) {
        if (rng.NextBounded(3) == 0) eliminated.insert(t);
      }
      HomogeneityReport legacy_probe =
          ProbeHomogeneity(view.members, eliminated, instance.index);
      HomogeneityReport dense_probe =
          ProbeHomogeneity(view.members, eliminated, context);
      EXPECT_EQ(legacy_probe.surviving, dense_probe.surviving);
      EXPECT_EQ(legacy_probe.distinct_hts, dense_probe.distinct_hts);
      EXPECT_EQ(legacy_probe.top_ht_frequency, dense_probe.top_ht_frequency);
      EXPECT_DOUBLE_EQ(legacy_probe.top_ht_confidence,
                       dense_probe.top_ht_confidence);
      EXPECT_EQ(legacy_probe.ht_determined, dense_probe.ht_determined);

      EXPECT_EQ(HtFrequencies(view.members, instance.index),
                HtFrequencies(view.members, context))
          << "trial " << trial << " rs " << view.id;

      DiversityRequirement req{0.5 + rng.NextBounded(4) * 0.5,
                               1 + static_cast<int>(rng.NextBounded(4))};
      EXPECT_EQ(
          SatisfiesRecursiveDiversity(view.members, instance.index, req),
          SatisfiesRecursiveDiversity(view.members, context, req))
          << "trial " << trial << " rs " << view.id;

      // An unused draw, kept so later trials see the same seeded
      // histories.
      rng.NextBounded(4);
    }
  }
}

TEST(AnalysisContextTest, EmptyHistory) {
  AnalysisContext context = AnalysisContext::Build({});
  EXPECT_EQ(context.rs_count(), 0u);
  EXPECT_EQ(context.token_count(), 0u);
  auto result = ChainReactionAnalyzer::Cascade(context);
  EXPECT_TRUE(result.spent_tokens.empty());
  EXPECT_TRUE(result.revealed_spends.empty());
  EXPECT_EQ(ChainReactionAnalyzer::CountInferableSpent(context), 0u);
}

TEST(AnalysisContextTest, UniverseOnlyTokensAreInternedWithHts) {
  // Tokens never appearing in a ring must still resolve (the selectors
  // probe candidate mixins that have no ring history yet).
  HtIndex idx;
  for (TokenId t = 0; t < 6; ++t) idx.Set(t, 50 + t / 2);
  std::vector<TokenId> universe = {0, 1, 2, 3, 4, 5};
  std::vector<RsView> history = {View(3, {0, 1})};
  AnalysisContext context = AnalysisContext::Build(history, &idx, universe);
  EXPECT_EQ(context.token_count(), 6u);
  for (TokenId t : universe) {
    auto token = context.LocalOfToken(t);
    ASSERT_NE(token, AnalysisContext::kNoLocal);
    EXPECT_EQ(context.HtOf(token), idx.HtOf(t));
    if (t >= 2) {
      EXPECT_TRUE(context.RsOfToken(token).empty());
    }
  }
}

TEST(AnalysisContextTest, CascadePaperExamples) {
  // Theorem 4.1 triangle closure and the zero-mixin chain, via context.
  std::vector<RsView> triangle = {View(0, {1, 2}), View(1, {2, 3}),
                                  View(2, {1, 3})};
  auto closed = ChainReactionAnalyzer::Cascade(
      AnalysisContext::Build(triangle));
  EXPECT_EQ(closed.spent_tokens.size(), 3u);

  std::vector<RsView> chain = {View(0, {1}), View(1, {1, 2}),
                               View(2, {2, 3})};
  auto revealed = ChainReactionAnalyzer::Cascade(
      AnalysisContext::Build(chain));
  EXPECT_EQ(revealed.revealed_spends.at(0), 1u);
  EXPECT_EQ(revealed.revealed_spends.at(1), 2u);
  EXPECT_EQ(revealed.revealed_spends.at(2), 3u);
}

}  // namespace
}  // namespace tokenmagic::analysis
