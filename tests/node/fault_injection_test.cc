// Fault-injection suite (ctest label: fault): deterministic corruption,
// crash, and adversarial-ordering schedules against the node and the
// snapshot subsystem. The invariant under every fault: the node is never
// left inconsistent — restores either fail loudly or reproduce the exact
// state, crashes never clobber the last good snapshot, and flipped or
// scrambled submissions can lose liveness but not consistency.
#include "node/fault_injection.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/progressive.h"
#include "node/snapshot.h"
#include "node/wallet.h"
#include "support/crafted_snapshot.h"

namespace tokenmagic::node {
namespace {

/// A node with activity (mirrors the snapshot-test fixture), with an
/// optional FaultInjector wired into the node's verdict path.
struct LiveState {
  FaultInjector faults{42};
  Node node;
  Wallet alice;
  Wallet bob;

  explicit LiveState(bool wire_faults = false)
      : node(Config(wire_faults ? &faults : nullptr)),
        alice("a", &node, 1),
        bob("b", &node, 2) {
    std::vector<std::vector<crypto::Point>> grants;
    for (int i = 0; i < 10; ++i) {
      grants.push_back({alice.NewOutputKey()});
      grants.push_back({bob.NewOutputKey()});
    }
    auto minted = node.Genesis(grants);
    for (size_t i = 0; i < minted.size(); ++i) {
      Wallet& owner = (i % 2 == 0) ? alice : bob;
      for (chain::TokenId t : minted[i]) (void)owner.Claim(t);
    }
    core::ProgressiveSelector selector;
    for (chain::TokenId t : alice.SpendableTokens()) {
      if (node.ledger().size() >= 2) break;
      (void)alice.Spend(&node, t, {2.0, 3}, selector,
                        {bob.NewOutputKey()}, "spend");
      node.MineBlock();
    }
  }

  NodeConfig Config(FaultInjector* injector) {
    NodeConfig config;
    config.lambda = 64;
    config.faults = injector;
    return config;
  }
};

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(FaultInjectorTest, SchedulesAreDeterministicPerSeed) {
  const std::string bytes = "header\nalpha,1\nbeta,2\ngamma,3\n";
  FaultInjector a(7), b(7), c(8);
  EXPECT_EQ(a.CorruptBytes(bytes, 4), b.CorruptBytes(bytes, 4));
  EXPECT_EQ(a.TruncateBytes(bytes), b.TruncateBytes(bytes));
  EXPECT_EQ(a.DuplicateLine(bytes), b.DuplicateLine(bytes));
  EXPECT_EQ(a.SwapLines(bytes), b.SwapLines(bytes));
  EXPECT_EQ(a.ScrambleOrder(6, 2), b.ScrambleOrder(6, 2));
  // A different seed produces a different schedule somewhere.
  EXPECT_NE(a.CorruptBytes(bytes, 4), c.CorruptBytes(bytes, 4));
}

TEST(FaultInjectorTest, CorruptBytesPreservesHeaderAndChangesBody) {
  FaultInjector injector(1);
  const std::string bytes = "header-line\nbody,1\nbody,2\n";
  std::string mutated = injector.CorruptBytes(bytes, 3);
  EXPECT_NE(mutated, bytes);
  EXPECT_EQ(mutated.substr(0, 12), bytes.substr(0, 12));  // "header-line\n"
  EXPECT_EQ(mutated.size(), bytes.size());
}

TEST(FaultInjectorTest, VerdictFilterOnlyFlipsAccepts) {
  FaultInjector injector(1);
  injector.FlipNextVerdicts(2);
  // A failing verdict passes through unflipped and unconsumed.
  auto rejected = injector.FilterVerdict(
      common::Status::VerificationFailed("already bad"));
  EXPECT_TRUE(rejected.IsVerificationFailed());
  EXPECT_EQ(injector.verdicts_flipped(), 0u);
  // Accepts are flipped while armed, then pass through again.
  EXPECT_FALSE(injector.FilterVerdict(common::Status::OK()).ok());
  EXPECT_FALSE(injector.FilterVerdict(common::Status::OK()).ok());
  EXPECT_TRUE(injector.FilterVerdict(common::Status::OK()).ok());
  EXPECT_EQ(injector.verdicts_flipped(), 2u);
}

TEST(TransportFaultTest, ScheduleIsDeterministicPerSeed) {
  FaultInjector a(11), b(11), c(12);
  a.ArmTransportFaults(8);
  b.ArmTransportFaults(8);
  c.ArmTransportFaults(8);
  std::vector<FaultInjector::TransportFault> seq_a, seq_b, seq_c;
  for (int i = 0; i < 8; ++i) {
    seq_a.push_back(a.NextTransportFault().fault);
    seq_b.push_back(b.NextTransportFault().fault);
    seq_c.push_back(c.NextTransportFault().fault);
  }
  EXPECT_EQ(seq_a, seq_b);
  EXPECT_NE(seq_a, seq_c);  // a different seed reorders the family draws
  EXPECT_EQ(a.transport_faults_injected(), 8u);
}

TEST(TransportFaultTest, ArmedCountIsExactThenDisarms) {
  FaultInjector injector(3);
  injector.ArmTransportFaults(2);
  EXPECT_NE(injector.NextTransportFault().fault,
            FaultInjector::TransportFault::kNone);
  EXPECT_NE(injector.NextTransportFault().fault,
            FaultInjector::TransportFault::kNone);
  // Disarmed: every further draw is a no-fault plan.
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(injector.NextTransportFault().fault,
              FaultInjector::TransportFault::kNone);
  }
  EXPECT_EQ(injector.transport_faults_injected(), 2u);
}

TEST(TransportFaultTest, SingleFamilyRestrictionAndDelayParameters) {
  FaultInjector injector(5);
  injector.ArmTransportFaults(
      4, {FaultInjector::TransportFault::kDelayResponse},
      /*delay_millis=*/7);
  for (int i = 0; i < 4; ++i) {
    auto plan = injector.NextTransportFault();
    EXPECT_EQ(plan.fault, FaultInjector::TransportFault::kDelayResponse);
    EXPECT_EQ(plan.delay_millis, 7u);
  }
}

TEST(TransportFaultTest, RateScheduleFiresApproximatelyAtRate) {
  FaultInjector injector(9);
  injector.ArmTransportFaultRate(0.25);
  int fired = 0;
  for (int i = 0; i < 4000; ++i) {
    if (injector.NextTransportFault().fault !=
        FaultInjector::TransportFault::kNone) {
      ++fired;
    }
  }
  // Deterministic per seed; generous band around 1000.
  EXPECT_GT(fired, 800);
  EXPECT_LT(fired, 1200);
}

TEST(TransportFaultTest, CorruptFrameChangesExactlyOneByte) {
  FaultInjector injector(21);
  std::string frame("\x08\x00\x00\x00payload!", 12);
  std::string mutated = injector.CorruptFrame(frame);
  ASSERT_EQ(mutated.size(), frame.size());
  int diffs = 0;
  for (size_t i = 0; i < frame.size(); ++i) {
    if (frame[i] != mutated[i]) ++diffs;
  }
  EXPECT_EQ(diffs, 1);
}

TEST(TransportFaultTest, TruncateFrameKeepsStrictPrefix) {
  FaultInjector injector(22);
  std::string frame(64, 'x');
  for (int i = 0; i < 32; ++i) {
    std::string cut = injector.TruncateFrame(frame);
    EXPECT_GE(cut.size(), 1u);
    EXPECT_LT(cut.size(), frame.size());
    EXPECT_EQ(frame.compare(0, cut.size(), cut), 0);
  }
  // Sub-2-byte frames cannot be strictly truncated; passed through.
  EXPECT_EQ(injector.TruncateFrame("z"), "z");
}

// Snapshot fuzz corpus: under every byte-level fault family and many
// seeds, restore either fails with a typed error or reproduces the exact
// original state. It never aborts and never misparses.
TEST(SnapshotFaultTest, CorruptionCorpusNeverMisparses) {
  LiveState live;
  const std::string snapshot = SnapshotToString(live.node);
  size_t errors = 0, identical = 0;
  for (uint64_t seed = 0; seed < 25; ++seed) {
    FaultInjector injector(seed);
    const std::string mutations[] = {
        injector.CorruptBytes(snapshot, 1 + seed % 5),
        injector.TruncateBytes(snapshot),
        injector.DuplicateLine(snapshot),
        injector.SwapLines(snapshot),
    };
    for (const std::string& mutated : mutations) {
      auto restored = NodeFromSnapshot(mutated, {});
      if (!restored.ok()) {
        ++errors;
        continue;
      }
      // A surviving mutation must have been semantically inert (e.g. a
      // flipped comment byte): the restored state serializes identically.
      EXPECT_EQ(SnapshotToString(**restored), snapshot);
      ++identical;
    }
  }
  // The corpus must actually exercise the rejection paths.
  EXPECT_GT(errors, 50u) << "identical=" << identical;
}

TEST(SnapshotFaultTest, HandCraftedCorpusIsRejected) {
  LiveState live;
  const std::string snapshot = SnapshotToString(live.node);

  // Wrong version header.
  std::string v1 = snapshot;
  v1.replace(0, v1.find('\n'), "tokenmagic-snapshot v1");
  EXPECT_FALSE(NodeFromSnapshot(v1, {}).ok());

  // Garbage scalar field in the first block record.
  std::string garbage = snapshot;
  size_t pos = garbage.find("block,");
  ASSERT_NE(pos, std::string::npos);
  garbage.replace(pos, 6, "block,x");
  EXPECT_FALSE(NodeFromSnapshot(garbage, {}).ok());

  // Duplicated image record (double-registers a key image).
  size_t image_pos = snapshot.find("image,");
  ASSERT_NE(image_pos, std::string::npos);
  size_t image_end = snapshot.find('\n', image_pos);
  std::string dup = snapshot;
  dup.insert(image_pos,
             snapshot.substr(image_pos, image_end - image_pos + 1));
  EXPECT_FALSE(NodeFromSnapshot(dup, {}).ok());

  // Truncated mid-record and truncated before the trailer.
  EXPECT_FALSE(NodeFromSnapshot(snapshot.substr(0, image_pos + 3), {}).ok());
  EXPECT_FALSE(
      NodeFromSnapshot(snapshot.substr(0, snapshot.rfind("end,")), {}).ok());

  // Record count tampering.
  std::string miscounted = snapshot;
  size_t end_pos = miscounted.rfind("end,");
  miscounted.replace(end_pos, std::string::npos, "end,9999\n");
  EXPECT_FALSE(NodeFromSnapshot(miscounted, {}).ok());

  // Rings that pass every checksum (the rs section's sum is recomputed)
  // but break the rules Verifier enforces live: a member that was never
  // minted, first or later in the ring, and members of two batches. With
  // lambda 20 the genesis block (20 tokens) is batch 0 and the first
  // mined output (token 20) opens batch 1.
  NodeConfig two_batches;
  two_batches.lambda = 20;
  std::string in_batch = test_support::WithRsMembers(snapshot, 1, "0;1");
  ASSERT_FALSE(in_batch.empty());
  ASSERT_TRUE(NodeFromSnapshot(in_batch, two_batches).ok());  // control
  for (const char* members : {"99999", "0;99999"}) {
    auto unminted = NodeFromSnapshot(
        test_support::WithRsMembers(snapshot, 1, members), {});
    EXPECT_TRUE(unminted.status().IsIoError())
        << members << ": " << unminted.status().ToString();
  }
  auto spanning = NodeFromSnapshot(
      test_support::WithRsMembers(snapshot, 1, "0;20"), two_batches);
  EXPECT_TRUE(spanning.status().IsIoError()) << spanning.status().ToString();
}

// Crash consistency: a write that dies mid-stream must leave the previous
// snapshot readable and intact.
TEST(SnapshotFaultTest, MidWriteCrashPreservesLastGoodSnapshot) {
  LiveState live;
  const std::string path = TempPath("tm_fault_midwrite.snapshot");
  SaveOptions plain;
  plain.retry.max_attempts = 1;
  ASSERT_TRUE(SaveSnapshot(live.node, path, plain).ok());
  const size_t rings_before = live.node.ledger().size();

  // Advance the node, then crash the save of the new state.
  core::ProgressiveSelector selector;
  auto spendable = live.bob.SpendableTokens();
  ASSERT_FALSE(spendable.empty());
  ASSERT_TRUE(live.bob
                  .Spend(&live.node, spendable[0], {2.0, 3}, selector,
                         {live.alice.NewOutputKey()}, "doomed save")
                  .ok());
  live.node.MineBlock();

  FaultInjector injector(3);
  injector.FailNextWrites(1, 0.4);
  SaveOptions faulty;
  faulty.retry.max_attempts = 1;  // no retry: the crash is final
  faulty.faults = &injector;
  auto status = SaveSnapshot(live.node, path, faulty);
  EXPECT_TRUE(status.IsIoError()) << status.ToString();

  // The file at `path` still holds the previous, fully valid state.
  auto restored = LoadSnapshot(path, {});
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->ledger().size(), rings_before);
  // And the partial temp file is itself rejected, not misparsed.
  auto partial = LoadSnapshot(path + ".tmp", {});
  EXPECT_FALSE(partial.ok());

  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST(SnapshotFaultTest, RetryRecoversFromTransientFaults) {
  LiveState live;
  const std::string path = TempPath("tm_fault_retry.snapshot");
  FaultInjector injector(5);
  injector.FailNextWrites(1);
  injector.FailNextRenames(1);
  SaveOptions options;
  options.retry.max_attempts = 3;  // 1 write crash + 1 rename failure
  options.faults = &injector;
  // (The default sleeper is a no-op; backoff determinism is covered in
  // common/retry_test.cc.)
  auto status = SaveSnapshot(live.node, path, options);
  ASSERT_TRUE(status.ok()) << status.ToString();
  auto restored = LoadSnapshot(path, {});
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ((*restored)->ledger().size(), live.node.ledger().size());
  std::remove(path.c_str());
}

TEST(SnapshotFaultTest, RenameFaultWithoutRetryLeavesTargetAbsent) {
  LiveState live;
  const std::string path = TempPath("tm_fault_rename.snapshot");
  std::remove(path.c_str());
  FaultInjector injector(6);
  injector.FailNextRenames(1);
  SaveOptions options;
  options.retry.max_attempts = 1;
  options.faults = &injector;
  EXPECT_TRUE(SaveSnapshot(live.node, path, options).IsIoError());
  // The commit point never happened: no (possibly partial) target file.
  EXPECT_FALSE(LoadSnapshot(path, {}).ok());
  std::remove((path + ".tmp").c_str());
}

// Verdict flips: an armed accept->reject flip at mine time is recorded in
// MinedBlock::rejected and leaves the node fully consistent.
TEST(NodeFaultTest, MineTimeVerdictFlipIsAuditedAndHarmless) {
  LiveState live(/*wire_faults=*/true);
  core::ProgressiveSelector selector;
  auto spendable = live.bob.SpendableTokens();
  ASSERT_FALSE(spendable.empty());
  ASSERT_TRUE(live.bob
                  .Spend(&live.node, spendable[0], {2.0, 3}, selector,
                         {live.alice.NewOutputKey()}, "flipped")
                  .ok());
  const size_t rings_before = live.node.ledger().size();
  const size_t images_before = live.node.spent_images().size();

  live.faults.FlipNextVerdicts(1);
  MinedBlock mined = live.node.MineBlock();
  EXPECT_EQ(mined.transactions, 0u);
  ASSERT_EQ(mined.rejected.size(), 1u);
  EXPECT_EQ(mined.rejected[0].index, 0u);
  EXPECT_FALSE(mined.rejected[0].status.ok());
  EXPECT_NE(mined.rejected[0].status.message().find("fault injection"),
            std::string::npos);
  // Nothing was committed for the rejected transaction.
  EXPECT_EQ(live.node.ledger().size(), rings_before);
  EXPECT_EQ(live.node.spent_images().size(), images_before);
  EXPECT_EQ(live.node.mempool_size(), 0u);

  // The node keeps working once the fault schedule is exhausted.
  auto again = live.bob.SpendableTokens();
  ASSERT_FALSE(again.empty());
  ASSERT_TRUE(live.bob
                  .Spend(&live.node, again[0], {2.0, 3}, selector,
                         {live.alice.NewOutputKey()}, "after fault")
                  .ok());
  EXPECT_EQ(live.node.MineBlock().transactions, 1u);
}

TEST(NodeFaultTest, SubmitTimeVerdictFlipRejectsBeforePooling) {
  LiveState live(/*wire_faults=*/true);
  core::ProgressiveSelector selector;
  auto spendable = live.bob.SpendableTokens();
  ASSERT_FALSE(spendable.empty());
  live.faults.FlipNextVerdicts(1);
  auto status = live.bob.Spend(&live.node, spendable[0], {2.0, 3}, selector,
                               {live.alice.NewOutputKey()}, "flipped");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(live.node.mempool_size(), 0u);
}

// Mixed accept/reject audit: with several pooled transactions and one
// armed flip, MinedBlock::rejected pinpoints exactly the flipped one.
TEST(NodeFaultTest, RejectedIndexPinpointsTheFlippedTransaction) {
  LiveState live(/*wire_faults=*/true);
  core::ProgressiveSelector selector;
  auto spendable = live.bob.SpendableTokens();
  ASSERT_GE(spendable.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(live.bob
                    .Spend(&live.node, spendable[i], {2.0, 3}, selector,
                           {live.alice.NewOutputKey()}, "batch")
                    .ok());
  }
  live.faults.FlipNextVerdicts(1);  // hits the first mine-time re-verify
  MinedBlock mined = live.node.MineBlock();
  ASSERT_EQ(mined.rejected.size(), 1u);
  EXPECT_EQ(mined.rejected[0].index, 0u);
  EXPECT_EQ(mined.transactions, 1u);
}

// Duplicate and reordered submissions: every duplicate is rejected at the
// mempool door and the mined block commits each transaction at most once.
TEST(NodeFaultTest, ScrambledDuplicateSubmissionsStayConsistent) {
  LiveState live;
  core::ProgressiveSelector selector;
  auto spendable = live.bob.SpendableTokens();
  ASSERT_GE(spendable.size(), 3u);

  std::vector<SignedTransaction> txs;
  std::vector<std::vector<crypto::Point>> keys;
  for (size_t i = 0; i < 3; ++i) {
    keys.push_back({live.alice.NewOutputKey()});
    auto built = live.bob.BuildSpend(spendable[i], {2.0, 3}, selector,
                                     keys.back(), "scramble");
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    txs.push_back(std::move(built).value());
  }

  FaultInjector injector(11);
  std::vector<size_t> order = injector.ScrambleOrder(txs.size(), 3);
  EXPECT_EQ(order.size(), txs.size() + 3);

  size_t accepted = 0, rejected = 0;
  std::vector<bool> seen(txs.size(), false);
  for (size_t i : order) {
    auto status = live.node.SubmitTransaction(txs[i], keys[i]);
    if (status.ok()) {
      EXPECT_FALSE(seen[i]) << "duplicate submission accepted";
      seen[i] = true;
      ++accepted;
    } else {
      ++rejected;
    }
  }
  EXPECT_EQ(accepted, txs.size());
  EXPECT_EQ(rejected, 3u);
  EXPECT_EQ(live.node.mempool_size(), txs.size());

  const size_t images_before = live.node.spent_images().size();
  MinedBlock mined = live.node.MineBlock();
  // Every pooled transaction either mined or was audited as rejected.
  EXPECT_EQ(mined.transactions + mined.rejected.size(), txs.size());
  // Key images registered exactly once per mined transaction.
  EXPECT_EQ(live.node.spent_images().size(),
            images_before + mined.transactions);
}

}  // namespace
}  // namespace tokenmagic::node
