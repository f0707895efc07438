// Equivalence and lifetime suite for the epoch-chained AnalysisContext:
// at every block height, the chained View() must be observationally
// byte-identical to a sort-based from-scratch interning of the same prefix
// (the tests/oracle reference), and sealed views must stay valid and
// unchanged while the chain keeps growing. This is the contract that lets
// node::Node use O(delta) epoch appends per block without
// changing any selection or analysis outcome.
#include "analysis/epoch_chain.h"

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "analysis/chain_reaction.h"
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
using Local = AnalysisContext::Local;

/// A growing randomized chain: each block mints a few dense tokens and
/// proposes a few RSs (dense ascending ids) over the tokens minted so far.
struct GrowingChain {
  explicit GrowingChain(uint64_t seed) : rng(seed) {}

  /// Returns (new views, new tokens) for one block.
  void NextBlock(std::vector<RsView>* views, std::vector<TokenId>* tokens) {
    size_t mint = 1 + rng.NextBounded(6);
    for (size_t i = 0; i < mint; ++i) {
      TokenId t = next_token++;
      tokens->push_back(t);
      index.Set(t, 1000 + rng.NextBounded(7));  // few HTs: forced sharing
      universe.push_back(t);
    }
    size_t rings = rng.NextBounded(4);
    for (size_t i = 0; i < rings; ++i) {
      RsView v;
      v.id = next_rs++;
      v.proposed_at = static_cast<chain::Timestamp>(block);
      v.requirement = {1.0, 1 + static_cast<int>(rng.NextBounded(3))};
      size_t size = 1 + rng.NextBounded(5);
      for (size_t k = 0; k < size; ++k) {
        v.members.push_back(rng.NextBounded(next_token));
      }
      std::sort(v.members.begin(), v.members.end());
      v.members.erase(std::unique(v.members.begin(), v.members.end()),
                      v.members.end());
      views->push_back(std::move(v));
      history.push_back(views->back());
    }
    ++block;
  }

  common::Rng rng;
  HtIndex index;
  std::vector<TokenId> universe;
  std::vector<RsView> history;
  TokenId next_token = 0;
  RsId next_rs = 0;
  size_t block = 0;
};

TEST(EpochChainTest, MatchesFromScratchBuildAtEveryHeightManySeeds) {
  // >= 50 randomized histories, equivalence asserted at every height.
  for (uint64_t seed = 1; seed <= 56; ++seed) {
    GrowingChain gen(seed);
    EpochChain chain;
    size_t blocks = 4 + seed % 13;
    for (size_t b = 0; b < blocks; ++b) {
      std::vector<RsView> views;
      std::vector<TokenId> tokens;
      gen.NextBlock(&views, &tokens);
      chain.Append(views, &gen.index, tokens);
      oracle::ExpectInterned(chain.View(), gen.history, &gen.index,
                             gen.universe);
      ASSERT_EQ(chain.rs_count(), gen.history.size());
      ASSERT_EQ(chain.token_count(), gen.universe.size());
    }
    ASSERT_EQ(chain.epoch_count(), blocks);
  }
}

TEST(EpochChainTest, SealedViewsSurviveAndIgnoreLaterAppends) {
  GrowingChain gen(1234);
  EpochChain chain;
  std::vector<AnalysisContext> sealed;
  std::vector<size_t> sealed_history;  // prefix length per sealed view
  struct Prefix {
    std::vector<RsView> history;
    std::vector<TokenId> universe;
  };
  std::vector<Prefix> prefixes;
  for (size_t b = 0; b < 40; ++b) {
    std::vector<RsView> views;
    std::vector<TokenId> tokens;
    gen.NextBlock(&views, &tokens);
    chain.Append(views, &gen.index, tokens);
    sealed.push_back(chain.View());
    sealed_history.push_back(chain.History().size());
    prefixes.push_back({gen.history, gen.universe});
  }
  // Only after the chain fully grew (forcing column generations and tail
  // regrows) is every sealed view checked against its own prefix.
  for (size_t b = 0; b < sealed.size(); ++b) {
    oracle::ExpectInterned(sealed[b], prefixes[b].history, &gen.index,
                           prefixes[b].universe);
    ASSERT_EQ(sealed_history[b], prefixes[b].history.size());
  }
  // Sealed views keep the core alive even after the chain itself dies.
  AnalysisContext survivor = sealed.back();
  std::span<const RsView> history = chain.History();
  sealed.clear();
  {
    EpochChain graveyard;  // scope marker: original chain destroyed below
    std::swap(graveyard, chain);
  }
  oracle::ExpectInterned(survivor, prefixes.back().history, &gen.index,
                         prefixes.back().universe);
  ASSERT_EQ(history.size(), prefixes.back().history.size());
  for (size_t r = 0; r < history.size(); ++r) {
    ASSERT_EQ(history[r].members, prefixes.back().history[r].members);
  }
}

TEST(EpochChainTest, ChainedContextDrivesAnalysisIdentically) {
  // The cascade (the heaviest consumer of the inverted index) must see no
  // difference between a multi-epoch view and the reference fixpoint.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    GrowingChain gen(7000 + seed);
    EpochChain chain;
    for (size_t b = 0; b < 12; ++b) {
      std::vector<RsView> views;
      std::vector<TokenId> tokens;
      gen.NextBlock(&views, &tokens);
      chain.Append(views, &gen.index, tokens);
    }
    AnalysisResult a = ChainReactionAnalyzer::Cascade(chain.View());
    AnalysisResult b = oracle::Cascade(gen.history);
    ASSERT_EQ(a.spent_tokens, b.spent_tokens);
    ASSERT_EQ(a.revealed_spends, b.revealed_spends);
  }
}

TEST(EpochChainTest, OverlayCascadeMatchesRebuiltExtendedContext) {
  // The liquidity probe's overlay cascade must count exactly what a
  // from-scratch cascade over history + prospective RS counts.
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    GrowingChain gen(4000 + seed);
    EpochChain chain;
    for (size_t b = 0; b < 10; ++b) {
      std::vector<RsView> views;
      std::vector<TokenId> tokens;
      gen.NextBlock(&views, &tokens);
      chain.Append(views, &gen.index, tokens);
    }
    RsView prospective;
    prospective.id = chain::kInvalidRs - 1;
    size_t size = 1 + gen.rng.NextBounded(5);
    for (size_t k = 0; k < size; ++k) {
      prospective.members.push_back(gen.rng.NextBounded(gen.next_token));
    }
    std::sort(prospective.members.begin(), prospective.members.end());
    prospective.members.erase(
        std::unique(prospective.members.begin(), prospective.members.end()),
        prospective.members.end());

    std::vector<RsView> extended = gen.history;
    extended.push_back(prospective);
    ASSERT_EQ(ChainReactionAnalyzer::CountInferableSpent(chain.View(),
                                                         prospective),
              oracle::CountInferableSpent(extended))
        << "seed " << seed;
  }
}

TEST(EpochChainTest, EmptyAndTokenOnlyEpochs) {
  EpochChain chain;
  chain.Append({}, nullptr, {});
  oracle::ExpectInterned(chain.View(), {}, nullptr, {});
  HtIndex index;
  std::vector<TokenId> tokens{0, 1, 2};
  for (TokenId t : tokens) index.Set(t, 500);
  chain.Append({}, &index, tokens);
  oracle::ExpectInterned(chain.View(), {}, &index, tokens);
  ASSERT_EQ(chain.View().RsOfToken(0).size(), 0u);
  ASSERT_EQ(chain.epoch_count(), 2u);
  ASSERT_EQ(chain.epoch(1).token_end, 3u);
  ASSERT_EQ(chain.epoch(1).rs_end, 0u);
}

TEST(EpochChainTest, ConcurrentSealedReadersRaceAppends) {
  // Readers hammer sealed views while the writer keeps sealing epochs.
  // Under TSan this pins the tail-table atomics contract; everywhere it
  // pins that sealed views never dangle or change.
  GrowingChain gen(99);
  auto chain = std::make_shared<EpochChain>();
  std::vector<RsView> views;
  std::vector<TokenId> tokens;
  for (size_t b = 0; b < 6; ++b) {
    views.clear();
    tokens.clear();
    gen.NextBlock(&views, &tokens);
    chain->Append(views, &gen.index, tokens);
  }
  AnalysisContext sealed = chain->View();
  std::vector<RsView> sealed_history = gen.history;
  std::vector<TokenId> sealed_universe = gen.universe;

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int i = 0; i < 4; ++i) {
    readers.emplace_back([&sealed, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        size_t edges = 0;
        for (Local t = 0; t < sealed.token_count(); ++t) {
          edges += sealed.RsOfToken(t).size();
        }
        for (Local r = 0; r < sealed.rs_count(); ++r) {
          edges += sealed.Members(r).size();
        }
        ASSERT_GT(edges + 1, 0u);
      }
    });
  }
  for (size_t b = 0; b < 200; ++b) {
    views.clear();
    tokens.clear();
    gen.NextBlock(&views, &tokens);
    chain->Append(views, &gen.index, tokens);
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  oracle::ExpectInterned(sealed, sealed_history, &gen.index, sealed_universe);
}

}  // namespace
}  // namespace tokenmagic::analysis
