#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "analysis/diversity.h"
#include "common/histogram.h"
#include "data/csv.h"
#include "data/monero_like.h"
#include "data/synthetic.h"

namespace tokenmagic::data {
namespace {

TEST(BuildOutputCountsTest, ExactTotals) {
  auto counts = BuildOutputCounts(285, 633);
  EXPECT_EQ(counts.size(), 285u);
  size_t sum = 0;
  for (uint32_t c : counts) sum += c;
  EXPECT_EQ(sum, 633u);
}

TEST(BuildOutputCountsTest, TwoOutputsIsTheMode) {
  auto counts = BuildOutputCounts(285, 633);
  common::Histogram h;
  for (uint32_t c : counts) h.Add(c);
  int64_t mode_count = h.CountOf(2);
  for (int64_t v : h.Values()) {
    if (v != 2) {
      EXPECT_GT(mode_count, h.CountOf(v));
    }
  }
}

TEST(BuildOutputCountsTest, SmallInstances) {
  auto counts = BuildOutputCounts(3, 3);
  EXPECT_EQ(counts.size(), 3u);
  size_t sum = 0;
  for (uint32_t c : counts) sum += c;
  EXPECT_EQ(sum, 3u);
  counts = BuildOutputCounts(2, 10);
  sum = 0;
  for (uint32_t c : counts) sum += c;
  EXPECT_EQ(sum, 10u);
}

TEST(MoneroLikeTest, ReproducesPublishedStatistics) {
  Dataset ds = MakeMoneroLikeTrace();
  EXPECT_EQ(ds.blockchain.block_count(), 32u);
  EXPECT_EQ(ds.blockchain.transaction_count(), 285u);
  EXPECT_EQ(ds.blockchain.token_count(), 633u);
  EXPECT_EQ(ds.history.size(), 57u);
  for (const auto& view : ds.history) {
    EXPECT_EQ(view.members.size(), 11u);
  }
  EXPECT_EQ(ds.fresh.size(), 6u);  // 633 - 57*11
  EXPECT_EQ(ds.universe.size(), 633u);
}

TEST(MoneroLikeTest, SuperRsPartitionIsDisjoint) {
  Dataset ds = MakeMoneroLikeTrace();
  std::set<chain::TokenId> seen;
  for (const auto& view : ds.history) {
    for (chain::TokenId t : view.members) {
      EXPECT_TRUE(seen.insert(t).second) << "token in two super RSs";
    }
  }
  for (chain::TokenId t : ds.fresh) {
    EXPECT_TRUE(seen.insert(t).second) << "fresh token also in a super RS";
  }
  EXPECT_EQ(seen.size(), 633u);
}

TEST(MoneroLikeTest, GroundTruthSpendsAreMembers) {
  Dataset ds = MakeMoneroLikeTrace();
  ASSERT_EQ(ds.ground_truth.size(), ds.history.size());
  for (size_t i = 0; i < ds.history.size(); ++i) {
    EXPECT_EQ(ds.ground_truth[i].rs, ds.history[i].id);
    EXPECT_TRUE(std::binary_search(ds.history[i].members.begin(),
                                   ds.history[i].members.end(),
                                   ds.ground_truth[i].token));
  }
}

TEST(MoneroLikeTest, DeterministicForFixedSeed) {
  Dataset a = MakeMoneroLikeTrace();
  Dataset b = MakeMoneroLikeTrace();
  ASSERT_EQ(a.history.size(), b.history.size());
  for (size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].members, b.history[i].members);
  }
  MoneroLikeParams other;
  other.seed = 777;
  Dataset c = MakeMoneroLikeTrace(other);
  bool any_diff = false;
  for (size_t i = 0; i < a.history.size(); ++i) {
    if (a.history[i].members != c.history[i].members) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(SyntheticTest, RespectsSizeParameters) {
  SyntheticParams params;
  params.num_super_rs = 20;
  params.super_size_min = 5;
  params.super_size_max = 9;
  params.num_fresh = 7;
  params.seed = 3;
  Dataset ds = MakeSyntheticDataset(params);
  EXPECT_EQ(ds.history.size(), 20u);
  for (const auto& view : ds.history) {
    EXPECT_GE(view.members.size(), 5u);
    EXPECT_LE(view.members.size(), 9u);
  }
  EXPECT_EQ(ds.fresh.size(), 7u);
  size_t total = ds.fresh.size();
  for (const auto& view : ds.history) total += view.members.size();
  EXPECT_EQ(ds.universe.size(), total);
}

TEST(SyntheticTest, LargerSigmaSpreadsHts) {
  SyntheticParams narrow;
  narrow.sigma = 8;
  narrow.seed = 9;
  SyntheticParams wide = narrow;
  wide.sigma = 16;
  Dataset n = MakeSyntheticDataset(narrow);
  Dataset w = MakeSyntheticDataset(wide);
  size_t hts_narrow = analysis::DistinctHtCount(n.universe, n.index);
  size_t hts_wide = analysis::DistinctHtCount(w.universe, w.index);
  EXPECT_GT(hts_wide, hts_narrow);
  // Peak HT frequency shrinks as sigma grows.
  auto fn = analysis::HtFrequencies(n.universe, n.index);
  auto fw = analysis::HtFrequencies(w.universe, w.index);
  EXPECT_GT(fn.front(), fw.front());
}

TEST(SyntheticTest, Sigma16PeakNearMoneroMaximum) {
  // Paper Section 7.1: sigma=16 with ~800 tokens puts roughly 16 tokens
  // in the heaviest HT (Monero's historical max). Allow a loose band.
  SyntheticParams params;
  params.sigma = 16;
  params.seed = 4;
  Dataset ds = MakeSyntheticDataset(params);
  auto freq = analysis::HtFrequencies(ds.universe, ds.index);
  EXPECT_GE(freq.front(), 10);
  EXPECT_LE(freq.front(), 30);
}

TEST(SyntheticTest, DeterministicPerSeed) {
  SyntheticParams params;
  params.seed = 5;
  Dataset a = MakeSyntheticDataset(params);
  Dataset b = MakeSyntheticDataset(params);
  EXPECT_EQ(a.universe.size(), b.universe.size());
  for (size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].members, b.history[i].members);
  }
}

TEST(DatasetTest, UnspentTokensExcludesGroundTruth) {
  Dataset ds = MakeMoneroLikeTrace();
  auto unspent = ds.UnspentTokens();
  EXPECT_EQ(unspent.size(), 633u - 57u);
  std::set<chain::TokenId> spent;
  for (const auto& pair : ds.ground_truth) spent.insert(pair.token);
  for (chain::TokenId t : unspent) EXPECT_EQ(spent.count(t), 0u);
}

TEST(CsvTest, TokensRoundTrip) {
  SyntheticParams params;
  params.num_super_rs = 5;
  params.num_fresh = 3;
  params.seed = 11;
  Dataset ds = MakeSyntheticDataset(params);
  std::string tokens_csv = TokensToCsv(ds);
  std::string rings_csv = RingsToCsv(ds);
  auto loaded = DatasetFromCsv(tokens_csv, rings_csv);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->universe.size(), ds.universe.size());
  EXPECT_EQ(loaded->history.size(), ds.history.size());
  EXPECT_EQ(loaded->fresh.size(), ds.fresh.size());
  // HT frequency profile is preserved exactly.
  EXPECT_EQ(analysis::HtFrequencies(loaded->universe, loaded->index),
            analysis::HtFrequencies(ds.universe, ds.index));
  // Per-ring HT profiles are preserved.
  for (size_t i = 0; i < ds.history.size(); ++i) {
    EXPECT_EQ(
        analysis::HtFrequencies(loaded->history[i].members, loaded->index),
        analysis::HtFrequencies(ds.history[i].members, ds.index));
  }
}

TEST(CsvTest, SaveLoadThroughFilesystem) {
  SyntheticParams params;
  params.num_super_rs = 3;
  params.num_fresh = 2;
  params.seed = 13;
  Dataset ds = MakeSyntheticDataset(params);
  std::string dir = ::testing::TempDir() + "/tm_csv_test";
  ASSERT_TRUE(SaveDataset(ds, dir).ok());
  auto loaded = LoadDataset(dir);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->universe.size(), ds.universe.size());
  EXPECT_EQ(loaded->history.size(), ds.history.size());
}

TEST(CsvTest, MalformedInputRejected) {
  EXPECT_FALSE(DatasetFromCsv("token_id,ht_id\n1\n", "h\n").ok());
  EXPECT_FALSE(DatasetFromCsv("token_id,ht_id\nx,y\n", "h\n").ok());
  EXPECT_FALSE(DatasetFromCsv("token_id,ht_id\n", "h\n").ok());  // empty
  // Ring referencing an unknown token.
  EXPECT_FALSE(DatasetFromCsv("token_id,ht_id\n1,1\n",
                              "rs_id,proposed_at,c,ell,members\n"
                              "0,0,1.0,1,1;2\n")
                   .ok());
}

/// Writes a one-HT tokens.csv and the given rings.csv body into a fresh
/// directory and loads it back.
common::Result<Dataset> LoadRings(const std::string& name,
                                  const std::string& rings_body) {
  std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::create_directories(dir);
  std::ofstream(dir + "/tokens.csv") << "token_id,ht_id\n1,1\n2,1\n3,1\n";
  std::ofstream(dir + "/rings.csv")
      << "rs_id,proposed_at,c,ell,members\n" << rings_body;
  return LoadDataset(dir);
}

TEST(CsvTest, ReversedRingIdsRejected) {
  auto loaded = LoadRings("tm_csv_reversed", "5,0,1.0,1,1;2\n4,1,1.0,1,2;3\n");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), common::StatusCode::kIoError);
  EXPECT_NE(loaded.status().message().find("rings.csv line 3"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST(CsvTest, DuplicateRingIdsRejected) {
  auto loaded = LoadRings("tm_csv_duplicate",
                          "0,0,1.0,1,1;2\n1,1,1.0,1,2;3\n1,2,1.0,1,1;3\n");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), common::StatusCode::kIoError);
  EXPECT_NE(loaded.status().message().find("rings.csv line 4"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST(CsvTest, LoadMissingDirectoryFails) {
  EXPECT_TRUE(LoadDataset("/nonexistent/path").status().code() ==
              common::StatusCode::kIoError);
}

}  // namespace
}  // namespace tokenmagic::data
