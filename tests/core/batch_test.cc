#include "core/batch.h"
#include <algorithm>

#include "common/rng.h"

#include <gtest/gtest.h>

namespace tokenmagic::core {
namespace {

TEST(BatchIndexTest, SingleBatchWhenLambdaLarge) {
  chain::Blockchain bc;
  bc.AddBlock(0, {2, 3});
  bc.AddBlock(1, {1});
  BatchIndex index(bc, 100);
  EXPECT_EQ(index.batch_count(), 1u);
  EXPECT_FALSE(index.batch(0).sealed);  // never reached lambda
  EXPECT_EQ(index.batch(0).tokens.size(), 6u);
}

TEST(BatchIndexTest, BatchesCloseAtLambdaBoundary) {
  chain::Blockchain bc;
  for (int b = 0; b < 6; ++b) bc.AddBlock(b, {2});  // 2 tokens per block
  BatchIndex index(bc, 4);
  // Blocks 0-1 -> batch 0 (4 tokens), 2-3 -> batch 1, 4-5 -> batch 2.
  ASSERT_EQ(index.batch_count(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(index.batch(i).sealed);
    EXPECT_EQ(index.batch(i).tokens.size(), 4u);
    EXPECT_EQ(index.batch(i).first_block, 2 * i);
    EXPECT_EQ(index.batch(i).last_block, 2 * i + 1);
  }
}

TEST(BatchIndexTest, BlockNeverSplitsAcrossBatches) {
  chain::Blockchain bc;
  bc.AddBlock(0, {3});   // 3 tokens
  bc.AddBlock(1, {5});   // pushes past lambda=4: batch closes after blk 1
  bc.AddBlock(2, {1});
  BatchIndex index(bc, 4);
  ASSERT_EQ(index.batch_count(), 2u);
  EXPECT_EQ(index.batch(0).tokens.size(), 8u);  // 3 + 5, indivisible block
  EXPECT_EQ(index.batch(1).tokens.size(), 1u);
}

TEST(BatchIndexTest, TokenLookupAndMixinUniverse) {
  chain::Blockchain bc;
  bc.AddBlock(0, {2});  // tokens 0,1 -> batch 0
  bc.AddBlock(1, {2});  // tokens 2,3 -> batch 1
  BatchIndex index(bc, 2);
  EXPECT_EQ(index.BatchOfToken(0).index, 0u);
  EXPECT_EQ(index.BatchOfToken(3).index, 1u);
  EXPECT_EQ(index.MixinUniverse(1),
            (std::vector<chain::TokenId>{0, 1}));
  EXPECT_EQ(index.MixinUniverse(2),
            (std::vector<chain::TokenId>{2, 3}));
}

TEST(BatchIndexTest, BatchesAccessorExposesPartition) {
  // 4 blocks of 8 single-output transactions at lambda 16: two batches.
  chain::Blockchain bc;
  for (int b = 0; b < 4; ++b) bc.AddBlock(b, std::vector<uint32_t>(8, 1));
  BatchIndex index(bc, 16);
  EXPECT_EQ(index.batch_count(), 2u);
  EXPECT_EQ(index.lambda(), 16u);
}

TEST(BatchIndexTest, BatchesPartitionAllTokens) {
  chain::Blockchain bc;
  common::Rng rng(5);
  for (int b = 0; b < 20; ++b) {
    std::vector<uint32_t> counts;
    for (int t = 0; t < 3; ++t) {
      counts.push_back(1 + static_cast<uint32_t>(rng.NextBounded(4)));
    }
    bc.AddBlock(b, counts);
  }
  BatchIndex index(bc, 10);
  size_t covered = 0;
  for (size_t i = 0; i < index.batch_count(); ++i) {
    covered += index.batch(i).tokens.size();
    if (i + 1 < index.batch_count()) {
      EXPECT_GE(index.batch(i).tokens.size(), 10u);
      EXPECT_TRUE(index.batch(i).sealed);
    }
  }
  EXPECT_EQ(covered, bc.token_count());
  // Every token maps to the batch that lists it.
  for (chain::TokenId t : bc.AllTokens()) {
    const Batch& batch = index.BatchOfToken(t);
    EXPECT_NE(std::find(batch.tokens.begin(), batch.tokens.end(), t),
              batch.tokens.end());
  }
}

TEST(BatchIndexTest, LambdaOneMakesPerBlockBatches) {
  chain::Blockchain bc;
  bc.AddBlock(0, {1});
  bc.AddBlock(1, {2});
  BatchIndex index(bc, 1);
  EXPECT_EQ(index.batch_count(), 2u);
}

TEST(BatchIndexTest, EmptyChainHasNoBatches) {
  chain::Blockchain bc;
  BatchIndex index(bc, 8);
  EXPECT_EQ(index.batch_count(), 0u);
}

void ExpectSameBatches(const BatchIndex& got, const BatchIndex& want,
                       const chain::Blockchain& bc) {
  ASSERT_EQ(got.batch_count(), want.batch_count());
  for (size_t i = 0; i < want.batch_count(); ++i) {
    EXPECT_EQ(got.batch(i).index, want.batch(i).index);
    EXPECT_EQ(got.batch(i).first_block, want.batch(i).first_block);
    EXPECT_EQ(got.batch(i).last_block, want.batch(i).last_block);
    EXPECT_EQ(got.batch(i).sealed, want.batch(i).sealed);
    EXPECT_EQ(got.batch(i).tokens, want.batch(i).tokens);
  }
  for (chain::TokenId t = 0; t < bc.token_count(); ++t) {
    ASSERT_EQ(got.BatchOfToken(t).index, want.BatchOfToken(t).index);
  }
}

TEST(BatchIndexTest, AppendBlocksMatchesFullRebuildAtEveryHeight) {
  common::Rng rng(42);
  for (uint64_t seed = 0; seed < 20; ++seed) {
    chain::Blockchain bc;
    size_t lambda = 1 + rng.NextBounded(8);
    BatchIndex incremental(bc, lambda);
    for (int b = 0; b < 30; ++b) {
      size_t txs = rng.NextBounded(3);
      std::vector<uint32_t> outputs;
      for (size_t i = 0; i < txs; ++i) {
        outputs.push_back(1 + static_cast<uint32_t>(rng.NextBounded(4)));
      }
      bc.AddBlock(b, outputs);
      // Appending after every block must equal a from-scratch build; a
      // second AppendBlocks with no new blocks must be a no-op.
      incremental.AppendBlocks(bc);
      incremental.AppendBlocks(bc);
      BatchIndex full(bc, lambda);
      ExpectSameBatches(incremental, full, bc);
    }
  }
}

}  // namespace
}  // namespace tokenmagic::core
