// Concurrency smoke tests for the node's single-writer/multi-reader
// contract. These are the tests the `tsan` preset exists for: every
// scenario here races the documented-concurrent APIs against each other
// (snapshot readers vs a mining writer, parallel wallet submissions,
// shared fault injectors) so ThreadSanitizer can observe an actual
// interleaving, and the assertions pin the invariants that must survive
// it. They also pass single-threaded, so they run in every suite.
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/chain_reaction.h"
#include "core/algorithm1.h"
#include "core/module_greedy.h"
#include "core/modules.h"
#include "core/progressive.h"
#include "node/fault_injection.h"
#include "node/node.h"
#include "node/wallet.h"

namespace tokenmagic::node {
namespace {

struct Network {
  Node node;
  Wallet alice;
  Wallet bob;

  explicit Network(size_t tokens_each = 12, size_t lambda = 64)
      : node(MakeConfig(lambda)),
        alice("alice", &node, 111),
        bob("bob", &node, 222) {
    std::vector<std::vector<crypto::Point>> grants;
    for (size_t i = 0; i < tokens_each; ++i) {
      grants.push_back({alice.NewOutputKey()});
      grants.push_back({bob.NewOutputKey()});
    }
    auto minted = node.Genesis(grants);
    for (size_t i = 0; i < minted.size(); ++i) {
      Wallet& owner = (i % 2 == 0) ? alice : bob;
      for (chain::TokenId t : minted[i]) {
        EXPECT_TRUE(owner.Claim(t).ok());
      }
    }
  }

  static NodeConfig MakeConfig(size_t lambda) {
    NodeConfig config;
    config.lambda = lambda;
    return config;
  }
};

// Pins the cache-coherence contract the tm-invalidates annotations
// describe: MineBlock replaces the cached analysis snapshot of the batch
// it touched, so a borrower that kept the old pointer reads the *old*
// history (alive, not dangling) and a re-fetch observes the new one.
// This is the stale-pointer repro: before the shared_ptr cache, the
// mined block would have left the old reference dangling.
TEST(ConcurrencySmokeTest, RebuildIndicesInvalidatesCachedContext) {
  Network net(12);
  core::ProgressiveSelector selector;

  auto before = net.node.AnalysisSnapshotShared(0);
  ASSERT_NE(before, nullptr);
  const size_t history_before = before->history.size();
  EXPECT_EQ(history_before, 0u);  // genesis only, no RSs yet

  chain::TokenId token = net.alice.SpendableTokens()[0];
  ASSERT_TRUE(net.alice
                  .Spend(&net.node, token, {2.0, 3}, selector,
                         {net.bob.NewOutputKey()}, "pay")
                  .ok());
  net.node.MineBlock();

  auto after = net.node.AnalysisSnapshotShared(0);
  ASSERT_NE(after, nullptr);
  // The cache was invalidated: a fresh snapshot object, not the old one.
  EXPECT_NE(before.get(), after.get());
  // The new snapshot sees the mined RS; the stale one still (safely)
  // describes the pre-mutation ledger.
  EXPECT_EQ(after->history.size(), 1u);
  EXPECT_EQ(before->history.size(), history_before);
  // The stale snapshot's context is still fully usable — the interned
  // columns are owned by the snapshot, not by the node.
  EXPECT_EQ(analysis::ChainReactionAnalyzer::CountInferableSpent(
                before->context),
            0u);
}

// Readers loop AnalysisSnapshotShared + an analysis probe while a writer
// thread mines blocks underneath them. Each reader's snapshot is
// self-contained, so the probe runs on a consistent history even while
// the ledger moves; the per-batch history size may only grow.
TEST(ConcurrencySmokeTest, SnapshotReadersRaceMiningWriter) {
  Network net(16);
  constexpr int kReaders = 4;
  constexpr int kSpends = 4;

  std::atomic<bool> done{false};
  std::atomic<int> probes{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&net, &done, &probes] {
      size_t last_seen = 0;
      while (!done.load(std::memory_order_acquire)) {
        auto snapshot = net.node.AnalysisSnapshotShared(0);
        ASSERT_NE(snapshot, nullptr);
        // History per batch only grows as blocks are mined.
        EXPECT_GE(snapshot->history.size(), last_seen);
        last_seen = snapshot->history.size();
        // The cascade must never infer more spends than there are RSs.
        size_t inferable = analysis::ChainReactionAnalyzer::
            CountInferableSpent(snapshot->context);
        EXPECT_LE(inferable, snapshot->history.size());
        probes.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  core::ProgressiveSelector selector;
  size_t mined_rs = 0;
  for (int i = 0; i < kSpends; ++i) {
    Wallet& spender = (i % 2 == 0) ? net.alice : net.bob;
    Wallet& receiver = (i % 2 == 0) ? net.bob : net.alice;
    auto spendable = spender.SpendableTokens();
    ASSERT_FALSE(spendable.empty());
    auto verdict = spender.Spend(&net.node, spendable[0], {2.0, 3},
                                 selector, {receiver.NewOutputKey()}, "race");
    if (verdict.ok()) {
      MinedBlock block = net.node.MineBlock();
      mined_rs += block.transactions;
    }
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_GT(probes.load(), 0);
  EXPECT_EQ(net.node.AnalysisSnapshotShared(0)->history.size(), mined_rs);
}

// Many wallets submit concurrently. SubmitTransaction serializes them
// under the node's writer lock; rings selected concurrently against the
// same snapshot may still conflict at mine time (the practical
// configuration moved), which must surface as recorded rejections —
// never as lost or double-counted transactions.
TEST(ConcurrencySmokeTest, ConcurrentWalletSpends) {
  constexpr size_t kWallets = 4;
  NodeConfig config;
  config.lambda = 64;
  Node node(config);
  std::vector<std::unique_ptr<Wallet>> wallets;
  std::vector<std::vector<crypto::Point>> grants;
  for (size_t w = 0; w < kWallets; ++w) {
    std::string name = "w";
    name += std::to_string(w);
    wallets.push_back(std::make_unique<Wallet>(name, &node, 1000 + w));
    for (int i = 0; i < 8; ++i) {
      grants.push_back({wallets[w]->NewOutputKey()});
    }
  }
  auto minted = node.Genesis(grants);
  for (size_t i = 0; i < minted.size(); ++i) {
    for (chain::TokenId t : minted[i]) {
      ASSERT_TRUE(wallets[i / 8]->Claim(t).ok());
    }
  }

  core::ProgressiveSelector selector;
  std::atomic<size_t> accepted{0};
  std::vector<std::thread> threads;
  threads.reserve(kWallets);
  for (size_t w = 0; w < kWallets; ++w) {
    threads.emplace_back([&, w] {
      Wallet& wallet = *wallets[w];
      chain::TokenId token = wallet.SpendableTokens()[0];
      auto verdict = wallet.Spend(&node, token, {2.0, 3}, selector,
                                  {wallet.NewOutputKey()}, "concurrent");
      if (verdict.ok()) accepted.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_GT(accepted.load(), 0u);
  EXPECT_EQ(node.mempool_size(), accepted.load());

  MinedBlock block = node.MineBlock();
  // Every pooled transaction is accounted for: mined or rejected.
  EXPECT_EQ(block.transactions + block.rejected.size(), accepted.load());
  EXPECT_EQ(node.ledger().size(), block.transactions);
  EXPECT_EQ(node.mempool_size(), 0u);
}

// Concurrent Node::InstanceFor probes share the cached batch snapshot;
// the cache reads themselves must be race-free.
TEST(ConcurrencySmokeTest, ConcurrentTokenMagicProbes) {
  Network net(16);
  const Node& node = net.node;

  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  std::atomic<int> ok_instances{0};
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&node, &ok_instances] {
      for (chain::TokenId t = 0; t < 8; ++t) {
        auto instance = node.InstanceFor(t, {2.0, 3});
        if (!instance.ok()) continue;
        EXPECT_EQ(instance->target, t);
        EXPECT_NE(instance->context, nullptr);
        EXPECT_TRUE(core::LiquidityAllows(*instance, {t}, 0.0));
        ok_instances.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok_instances.load(), kThreads * 8);
}

// Regression for the InstanceFor snapshot lifetime: instances co-own
// their batch's snapshot (SelectionInput::owner), so an instance stays
// fully readable while other threads probe other batches' snapshots out
// of the same per-batch cache. Threads deliberately alternate batches so
// every probe interleaves reads of several cache slots (the same-batch
// test above reads only one).
TEST(ConcurrencySmokeTest, ConcurrentTokenMagicProbesAcrossBatches) {
  // Genesis mints 8 tokens (batch 0); each of three mined blocks mints 8
  // more from one spend: 4 batches of 8 at lambda 8.
  Network net(4, /*lambda=*/8);
  core::ProgressiveSelector selector;
  for (int b = 1; b < 4; ++b) {
    std::vector<crypto::Point> outputs;
    for (int k = 0; k < 8; ++k) outputs.push_back(net.bob.NewOutputKey());
    ASSERT_TRUE(net.alice
                    .Spend(&net.node, net.alice.SpendableTokens()[0],
                           {1.0, 1}, selector, outputs, "open batch")
                    .ok());
    ASSERT_EQ(net.node.MineBlock().transactions, 1u);
  }
  ASSERT_EQ(net.node.batches().batch_count(), 4u);
  ASSERT_EQ(net.node.blockchain().token_count(), 32u);
  const Node& node = net.node;

  constexpr int kThreads = 4;
  constexpr int kRounds = 16;
  std::atomic<int> ok_instances{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&node, &ok_instances, i] {
      for (int round = 0; round < kRounds; ++round) {
        chain::TokenId mine = static_cast<chain::TokenId>(
            ((i + round) % 4) * 8 + round % 8);
        auto instance = node.InstanceFor(mine, {2.0, 3});
        ASSERT_TRUE(instance.ok());
        // Probe a token one batch over (other threads do the same
        // concurrently).
        chain::TokenId other = static_cast<chain::TokenId>((mine + 8) % 32);
        auto neighbor = node.InstanceFor(other, {2.0, 3});
        ASSERT_TRUE(neighbor.ok());
        // The first instance must still be fully readable: its spans and
        // context point into the snapshot it co-owns.
        EXPECT_EQ(instance->universe.size(), 8u);
        EXPECT_LE(analysis::ChainReactionAnalyzer::CountInferableSpent(
                      *instance->context),
                  instance->history.size());
        ok_instances.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok_instances.load(), kThreads * kRounds);
}

// Sealed-epoch lifetime under a racing writer: readers retain snapshots
// of *every* batch — superseded ones included, keyed by identity — while
// the writer mines blocks that seal new epochs onto the per-batch chains
// (including blocks that open brand-new batches). Every retained sealed
// view must stay fully readable (columns, inverted index, cascade) no
// matter how many epochs are appended after it. Before the epoch chain a
// full rebuild guaranteed this by copying; now it is the generation-
// buffer contract, and this is the test the TSan lane pins it with.
TEST(ConcurrencySmokeTest, SelectorProbesRaceEpochSealsAcrossBatches) {
  Network net(16, /*lambda=*/4);  // mined blocks open fresh batches fast
  constexpr int kReaders = 4;
  constexpr int kSpends = 6;

  std::atomic<bool> done{false};
  std::atomic<size_t> batches_published{1};  // the genesis batch
  std::atomic<int> sealed_probes{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&net, &done, &batches_published, &sealed_probes] {
      std::unordered_map<const void*,
                         std::shared_ptr<const Node::BatchAnalysisSnapshot>>
          held;
      while (!done.load(std::memory_order_acquire)) {
        size_t count = batches_published.load(std::memory_order_acquire);
        for (size_t b = 0; b < count; ++b) {
          auto snapshot = net.node.AnalysisSnapshotShared(b);
          ASSERT_NE(snapshot, nullptr);
          held.emplace(snapshot.get(), snapshot);
        }
        for (const auto& [_, old] : held) {
          EXPECT_EQ(old->context.rs_count(), old->history.size());
          EXPECT_LE(analysis::ChainReactionAnalyzer::CountInferableSpent(
                        old->context),
                    old->history.size());
        }
        sealed_probes.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  core::ProgressiveSelector selector;
  for (int i = 0; i < kSpends; ++i) {
    Wallet& spender = (i % 2 == 0) ? net.alice : net.bob;
    Wallet& receiver = (i % 2 == 0) ? net.bob : net.alice;
    auto spendable = spender.SpendableTokens();
    ASSERT_FALSE(spendable.empty());
    (void)spender.Spend(&net.node, spendable[0], {2.0, 3}, selector,
                        {receiver.NewOutputKey()}, "seal-race");
    net.node.MineBlock();
    // Safe outside the lock: only MineBlock (this thread) mutates the
    // batch index, and the batch count only grows, so readers can probe
    // any index below a published count forever.
    batches_published.store(net.node.batches().batch_count(),
                            std::memory_order_release);
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_GT(sealed_probes.load(), 0);
}

// A shared FaultInjector consumes exactly the armed number of verdict
// flips across racing threads — no lost or duplicated faults.
// The first selections on a freshly sealed snapshot race to build its
// module index: the seal's once-flag lets exactly one build run, every
// racing selection reads that one index, and the rings agree.
TEST(ConcurrencySmokeTest, ConcurrentSelectsShareOneModuleIndex) {
  Network net(24);
  const chain::TokenId target = 3;
  const core::Batch& batch = net.node.batches().BatchOfToken(target);
  std::shared_ptr<const Node::BatchAnalysisSnapshot> snapshot =
      net.node.AnalysisSnapshotShared(batch.index);
  ASSERT_FALSE(core::ModuleIndexBuilt(snapshot->context));

  core::SelectionInput input;
  input.target = target;
  input.universe = net.node.batches().MixinUniverse(target);
  input.requirement = {2.0, 3};
  input.index = &net.node.ht_index();
  input.history = snapshot->history;
  input.context = &snapshot->context;
  input.owner = snapshot;

  constexpr int kThreads = 8;
  std::vector<const core::ModuleUniverse*> indices(kThreads, nullptr);
  std::vector<std::vector<chain::TokenId>> rings(kThreads);
  std::atomic<int> arrived{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      // Line every thread up so the first InitModuleState calls overlap.
      arrived.fetch_add(1);
      while (arrived.load() < kThreads) std::this_thread::yield();
      auto state = core::InitModuleState(input);
      ASSERT_TRUE(state.ok()) << state.status().ToString();
      indices[i] = state->mu;
      core::ProgressiveSelector selector;
      common::Rng rng(static_cast<uint64_t>(i));
      auto selected = selector.Select(input, &rng);
      ASSERT_TRUE(selected.ok()) << selected.status().ToString();
      rings[i] = selected->members;
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_TRUE(core::ModuleIndexBuilt(snapshot->context));
  const core::ModuleUniverse* index =
      &core::ModuleIndexOf(snapshot->context)->value();
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(indices[i], index) << "thread " << i;
    EXPECT_EQ(rings[i], rings[0]) << "thread " << i;
  }
  EXPECT_FALSE(rings[0].empty());
}

TEST(ConcurrencySmokeTest, FaultInjectorSharedAcrossThreads) {
  FaultInjector faults(7);
  constexpr int kArmed = 10;
  constexpr int kThreads = 4;
  constexpr int kCallsPerThread = 25;
  faults.FlipNextVerdicts(kArmed);

  std::atomic<int> flipped{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&faults, &flipped] {
      for (int c = 0; c < kCallsPerThread; ++c) {
        if (!faults.FilterVerdict(common::Status::OK()).ok()) {
          flipped.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(flipped.load(), kArmed);
  EXPECT_EQ(faults.verdicts_flipped(), static_cast<size_t>(kArmed));
}

}  // namespace
}  // namespace tokenmagic::node
