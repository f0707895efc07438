// Equivalence and invalidation suite for the per-batch snapshot service.
// After any sequence of block appends and ledger proposals, every batch's
// snapshot must equal a from-scratch interning of exactly that batch's
// ledger views and tokens (the tests/oracle sort-based reference), and a
// Sync must replace only the snapshots of the batches it touched.
#include "core/batch_snapshots.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "analysis/chain_reaction.h"
#include "chain/blockchain.h"
#include "chain/ht_index.h"
#include "chain/ledger.h"
#include "common/rng.h"
#include "oracle/analysis_oracle.h"

namespace tokenmagic::core {
namespace {

using chain::RsView;
using chain::TokenId;

/// A growing chain with the derived state a snapshot owner keeps: the
/// BatchIndex and HtIndex extended per block the way node::Node does, and
/// a ledger of rings drawn inside one batch each.
struct GrowingState {
  GrowingState(uint64_t seed, size_t lambda)
      : rng(seed), batches(bc, lambda) {}

  /// Appends one block of 0-3 transactions with 1-3 outputs each (a small
  /// block grows the trailing batch; a large one seals it).
  void AppendBlock() {
    std::vector<uint32_t> outputs(rng.NextBounded(4));
    for (uint32_t& n : outputs) n = 1 + static_cast<uint32_t>(rng.NextBounded(3));
    bc.AddBlock(static_cast<chain::Timestamp>(bc.block_count()), outputs);
    for (TokenId t = static_cast<TokenId>(ht_index.size());
         t < bc.token_count(); ++t) {
      ht_index.Set(t, bc.HistoricalTransactionOf(t));
    }
    batches.AppendBlocks(bc);
  }

  /// Proposes one ring over 1-4 tokens of a random non-empty batch.
  void Propose() {
    if (bc.token_count() == 0) return;
    const Batch& batch =
        batches.BatchOfToken(rng.NextBounded(bc.token_count()));
    std::vector<TokenId> members;
    size_t size = 1 + rng.NextBounded(4);
    for (size_t i = 0; i < size; ++i) {
      members.push_back(batch.tokens[rng.NextBounded(batch.tokens.size())]);
    }
    ASSERT_TRUE(ledger
                    .Append(members, {1.0, 1 + static_cast<int>(
                                                         rng.NextBounded(3))})
                    .ok());
  }

  /// Batch `b`'s ledger views, in ledger order.
  std::vector<RsView> ViewsOf(size_t b) const {
    std::vector<RsView> out;
    for (const RsView& view : ledger.Views()) {
      if (batches.BatchOfToken(view.members.front()).index == b) {
        out.push_back(view);
      }
    }
    return out;
  }

  void ExpectMatchesOracle(const BatchSnapshots& snapshots) const {
    for (size_t b = 0; b < batches.batch_count(); ++b) {
      SCOPED_TRACE(b);
      std::shared_ptr<const BatchSnapshot> snapshot = snapshots.Get(b);
      ASSERT_NE(snapshot, nullptr);
      std::vector<RsView> views = ViewsOf(b);
      ASSERT_EQ(snapshot->history.size(), views.size());
      for (size_t i = 0; i < views.size(); ++i) {
        EXPECT_EQ(snapshot->history[i].id, views[i].id);
        EXPECT_EQ(snapshot->history[i].members, views[i].members);
      }
      oracle::ExpectInterned(snapshot->context, views, &ht_index,
                             batches.batch(b).tokens);
    }
  }

  common::Rng rng;
  chain::Blockchain bc;
  BatchIndex batches;
  chain::HtIndex ht_index;
  chain::Ledger ledger;
};

TEST(BatchSnapshotsTest, MatchesFromScratchInterningAfterEverySync) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    GrowingState state(seed, /*lambda=*/3 + seed % 6);
    BatchSnapshots snapshots;
    snapshots.Sync(state.ledger, state.batches, state.ht_index);
    for (int step = 0; step < 24; ++step) {
      // Blocks and proposals interleave, and a Sync may cover several of
      // each, so one epoch can carry new tokens and new views together.
      if (state.rng.NextBounded(3) == 0) state.AppendBlock();
      size_t proposals = state.rng.NextBounded(3);
      for (size_t i = 0; i < proposals; ++i) state.Propose();
      if (state.rng.NextBounded(4) != 0) {
        snapshots.Sync(state.ledger, state.batches, state.ht_index);
        state.ExpectMatchesOracle(snapshots);
      }
    }
    // A reset re-derives the same snapshots from scratch.
    snapshots.Reset();
    snapshots.Sync(state.ledger, state.batches, state.ht_index);
    state.ExpectMatchesOracle(snapshots);
  }
}

TEST(BatchSnapshotsTest, EmptyBatchGetsAnEmptySnapshot) {
  // A block with no transactions still opens a batch once the previous
  // one is sealed; its snapshot exists and is empty.
  GrowingState state(7, /*lambda=*/1);
  state.bc.AddBlock(0, {1});
  state.bc.AddBlock(1, {});
  state.batches.AppendBlocks(state.bc);
  state.ht_index = chain::HtIndex::FromBlockchain(state.bc);
  ASSERT_EQ(state.batches.batch_count(), 2u);
  BatchSnapshots snapshots;
  snapshots.Sync(state.ledger, state.batches, state.ht_index);
  std::shared_ptr<const BatchSnapshot> empty = snapshots.Get(1);
  ASSERT_NE(empty, nullptr);
  EXPECT_EQ(empty->context.token_count(), 0u);
  EXPECT_TRUE(empty->history.empty());
}

TEST(BatchSnapshotsTest, SyncReplacesOnlyTouchedBatches) {
  // Two single-block batches of four tokens each.
  GrowingState state(3, /*lambda=*/4);
  state.bc.AddBlock(0, {1, 1, 1, 1});
  state.bc.AddBlock(1, {1, 1, 1, 1});
  state.batches.AppendBlocks(state.bc);
  state.ht_index = chain::HtIndex::FromBlockchain(state.bc);
  ASSERT_EQ(state.batches.batch_count(), 2u);
  BatchSnapshots snapshots;
  snapshots.Sync(state.ledger, state.batches, state.ht_index);
  std::shared_ptr<const BatchSnapshot> batch0 = snapshots.Get(0);
  std::shared_ptr<const BatchSnapshot> batch1 = snapshots.Get(1);

  // A ring in batch 1 touches batch 1 only.
  ASSERT_TRUE(state.ledger.Append({4, 5, 6}, {1.0, 1}).ok());
  snapshots.Sync(state.ledger, state.batches, state.ht_index);
  EXPECT_EQ(snapshots.Get(0).get(), batch0.get());
  std::shared_ptr<const BatchSnapshot> fresh = snapshots.Get(1);
  EXPECT_NE(fresh.get(), batch1.get());
  EXPECT_EQ(fresh->history.size(), 1u);

  // The superseded snapshot is still alive and still describes the
  // pre-update ledger.
  EXPECT_TRUE(batch1->history.empty());
  EXPECT_EQ(batch1->context.rs_count(), 0u);
  EXPECT_EQ(batch1->context.token_count(), 4u);
  EXPECT_EQ(analysis::ChainReactionAnalyzer::CountInferableSpent(
                batch1->context),
            0u);

  // A Sync with nothing new replaces nothing.
  snapshots.Sync(state.ledger, state.batches, state.ht_index);
  EXPECT_EQ(snapshots.Get(0).get(), batch0.get());
  EXPECT_EQ(snapshots.Get(1).get(), fresh.get());
}

}  // namespace
}  // namespace tokenmagic::core
