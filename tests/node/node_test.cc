#include "node/node.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "analysis/chain_reaction.h"
#include "analysis/diversity.h"
#include "core/progressive.h"
#include "crypto/field.h"
#include "node/wallet.h"

namespace tokenmagic::node {
namespace {

/// A two-wallet network fixture: alice and bob each receive a genesis
/// grant of `tokens_each` tokens across several transactions so the HT
/// structure is diverse enough for selection.
struct Network {
  Node node;
  Wallet alice;
  Wallet bob;

  explicit Network(size_t tokens_each = 12, size_t lambda = 64)
      : node(MakeConfig(lambda)),
        alice("alice", &node, 111),
        bob("bob", &node, 222) {
    std::vector<std::vector<crypto::Point>> grants;
    // Interleave 1-token grants: every token gets its own HT.
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

TEST(NodeTest, GenesisMintsAndRegistersKeys) {
  Network net(4);
  EXPECT_EQ(net.node.blockchain().token_count(), 8u);
  EXPECT_EQ(net.node.keys().size(), 8u);
  EXPECT_EQ(net.alice.balance(), 4u);
  EXPECT_EQ(net.bob.balance(), 4u);
}

TEST(NodeTest, WalletClaimRejectsForeignTokens) {
  Network net(2);
  // Token 0 belongs to alice; bob cannot claim it.
  EXPECT_TRUE(net.bob.Claim(0).IsNotFound());
}

TEST(NodeTest, SpendSubmitMineLifecycle) {
  Network net(12);
  core::ProgressiveSelector selector;
  chain::TokenId token = net.alice.SpendableTokens()[0];
  auto receiver_key = net.bob.NewOutputKey();
  ASSERT_TRUE(net.alice
                  .Spend(&net.node, token, {2.0, 3}, selector,
                         {receiver_key}, "pay bob")
                  .ok());
  EXPECT_EQ(net.node.mempool_size(), 1u);

  MinedBlock block = net.node.MineBlock();
  EXPECT_EQ(block.transactions, 1u);
  ASSERT_EQ(block.outputs.size(), 1u);
  ASSERT_EQ(block.outputs[0].size(), 1u);
  EXPECT_EQ(net.node.mempool_size(), 0u);
  ASSERT_EQ(net.node.ledger().size(), 1u);
  // The mined ring holds the spent token and satisfies the (strict-mode)
  // requirement it declares.
  const chain::RsView& ring = net.node.ledger().view(0);
  EXPECT_TRUE(ring.Contains(token));
  EXPECT_TRUE(analysis::SatisfiesRecursiveDiversity(
      ring.members, net.node.ht_index(), {2.0, 3}));

  // Bob claims the freshly minted token and can see it in his balance.
  EXPECT_TRUE(net.bob.Claim(block.outputs[0][0]).ok());
  EXPECT_EQ(net.bob.balance(), 13u);
}

// A block re-seals the snapshots of the batches it touched and no other:
// an untouched batch keeps serving the very same snapshot object.
TEST(NodeTest, MineBlockKeepsUntouchedBatchSnapshot) {
  Network net(12, /*lambda=*/4);  // genesis seals batch 0 (24 tokens)
  core::ProgressiveSelector selector;
  // Block 1 mints four outputs: batch 1, sealed.
  ASSERT_TRUE(net.alice
                  .Spend(&net.node, net.alice.SpendableTokens()[0], {2.0, 3},
                         selector,
                         {net.bob.NewOutputKey(), net.bob.NewOutputKey(),
                          net.bob.NewOutputKey(), net.bob.NewOutputKey()},
                         "open batch 1")
                  .ok());
  net.node.MineBlock();
  ASSERT_EQ(net.node.batches().batch_count(), 2u);
  auto batch0 = net.node.AnalysisSnapshotShared(0);
  auto batch1 = net.node.AnalysisSnapshotShared(1);

  // Block 2 rings a batch-0 token and mints into a new batch 2.
  ASSERT_TRUE(net.alice
                  .Spend(&net.node, net.alice.SpendableTokens()[0], {2.0, 3},
                         selector, {net.bob.NewOutputKey()}, "touch batch 0")
                  .ok());
  MinedBlock block = net.node.MineBlock();
  ASSERT_EQ(block.transactions, 1u);
  ASSERT_EQ(net.node.batches().batch_count(), 3u);
  EXPECT_EQ(net.node.AnalysisSnapshotShared(1).get(), batch1.get());
  auto touched = net.node.AnalysisSnapshotShared(0);
  EXPECT_NE(touched.get(), batch0.get());
  EXPECT_EQ(touched->history.size(), batch0->history.size() + 1);
}

TEST(NodeTest, DoubleSpendRejectedAtSubmit) {
  Network net(12);
  core::ProgressiveSelector selector;
  chain::TokenId token = net.alice.SpendableTokens()[0];
  auto tx1 = net.alice.BuildSpend(token, {2.0, 3}, selector,
                                  {net.bob.NewOutputKey()}, "first");
  ASSERT_TRUE(tx1.ok());
  auto tx2 = net.alice.BuildSpend(token, {2.0, 3}, selector,
                                  {net.bob.NewOutputKey()}, "second");
  ASSERT_TRUE(tx2.ok());
  // Both have the same key image (same token).
  ASSERT_TRUE(net.node
                  .SubmitTransaction(std::move(tx1).value(),
                                     {net.bob.NewOutputKey()})
                  .ok());
  auto verdict = net.node.SubmitTransaction(std::move(tx2).value(),
                                            {net.bob.NewOutputKey()});
  EXPECT_TRUE(verdict.IsVerificationFailed());
}

TEST(NodeTest, DoubleSpendRejectedAcrossBlocks) {
  Network net(12);
  core::ProgressiveSelector selector;
  chain::TokenId token = net.alice.SpendableTokens()[0];
  auto tx1 = net.alice.BuildSpend(token, {2.0, 3}, selector,
                                  {net.bob.NewOutputKey()}, "first");
  ASSERT_TRUE(tx1.ok());
  auto tx2 = net.alice.BuildSpend(token, {2.0, 3}, selector,
                                  {net.bob.NewOutputKey()}, "second");
  ASSERT_TRUE(tx2.ok());
  ASSERT_TRUE(net.node
                  .SubmitTransaction(std::move(tx1).value(),
                                     {net.bob.NewOutputKey()})
                  .ok());
  net.node.MineBlock();
  auto verdict = net.node.SubmitTransaction(std::move(tx2).value(),
                                            {net.bob.NewOutputKey()});
  EXPECT_TRUE(verdict.IsVerificationFailed());
}

TEST(NodeTest, TamperedSignatureRejected) {
  Network net(12);
  core::ProgressiveSelector selector;
  chain::TokenId token = net.alice.SpendableTokens()[0];
  auto tx = net.alice.BuildSpend(token, {2.0, 3}, selector,
                                 {net.bob.NewOutputKey()}, "pay");
  ASSERT_TRUE(tx.ok());
  SignedTransaction bad = std::move(tx).value();
  bad.memo = "pay MORE";  // breaks the signing-message binding
  auto verdict =
      net.node.SubmitTransaction(std::move(bad), {net.bob.NewOutputKey()});
  EXPECT_TRUE(verdict.IsVerificationFailed());
}

// Verify-once-at-admission: a forged signature is refused by
// SubmitTransaction, so it never sits in the pool that MineBlock
// re-checks with the state checks alone.
TEST(NodeTest, ForgedSignatureNeverReachesTheMempool) {
  Network net(12);
  core::ProgressiveSelector selector;
  chain::TokenId token = net.alice.SpendableTokens()[0];
  auto tx = net.alice.BuildSpend(token, {2.0, 3}, selector,
                                 {net.bob.NewOutputKey()}, "pay");
  ASSERT_TRUE(tx.ok());
  SignedTransaction forged = std::move(tx).value();
  forged.inputs[0].signature.responses[0] =
      crypto::ScalarAdd(forged.inputs[0].signature.responses[0],
                        crypto::U256::One());
  // The forgery passes every state check: only the LSAG can refuse it.
  ASSERT_TRUE(net.node.MakeVerifier().VerifyState(forged).ok());
  auto verdict =
      net.node.SubmitTransaction(std::move(forged), {net.bob.NewOutputKey()});
  EXPECT_TRUE(verdict.IsVerificationFailed());
  EXPECT_NE(verdict.message().find("LSAG"), std::string::npos)
      << verdict.ToString();
  EXPECT_EQ(net.node.mempool_size(), 0u);
  MinedBlock block = net.node.MineBlock();
  EXPECT_EQ(block.transactions, 0u);
  EXPECT_TRUE(block.rejected.empty());
  EXPECT_EQ(net.node.ledger().size(), 0u);
}

// Returns one fixed ring whatever the input: lets a test build two
// transactions whose rings partially overlap.
class FixedRingSelector : public core::MixinSelector {
 public:
  explicit FixedRingSelector(std::vector<chain::TokenId> ring)
      : ring_(std::move(ring)) {
    std::sort(ring_.begin(), ring_.end());
  }
  common::Result<core::SelectionResult> Select(
      const core::SelectionInput& /*input*/,
      common::Rng* /*rng*/) const override {
    core::SelectionResult result;
    result.members = ring_;
    return result;
  }
  std::string_view name() const override { return "FIXED"; }

 private:
  std::vector<chain::TokenId> ring_;
};

// Two spends built against the same snapshot, each valid on its own,
// whose rings partially overlap: both are admitted, and the second is
// refused at mine time by the first practical configuration, at pool
// index 1. MineBlock's state-only re-check must still see the conflict.
TEST(NodeTest, ConflictingSameSnapshotSpendsRejectedAtMineTime) {
  Network net(12);
  auto a = net.alice.SpendableTokens();
  auto b = net.bob.SpendableTokens();
  // Every token has its own HT: five-token rings meet (2, 3) at ell + 1.
  FixedRingSelector first({a[0], b[0], a[1], b[1], a[2]});
  FixedRingSelector second({b[0], a[1], b[2], a[3], b[3]});
  auto tx1 = net.alice.BuildSpend(a[0], {2.0, 3}, first,
                                  {net.bob.NewOutputKey()}, "first");
  auto tx2 = net.bob.BuildSpend(b[2], {2.0, 3}, second,
                                {net.alice.NewOutputKey()}, "second");
  ASSERT_TRUE(tx1.ok()) << tx1.status().ToString();
  ASSERT_TRUE(tx2.ok()) << tx2.status().ToString();
  ASSERT_TRUE(net.node
                  .SubmitTransaction(std::move(tx1).value(),
                                     {net.bob.NewOutputKey()})
                  .ok());
  ASSERT_TRUE(net.node
                  .SubmitTransaction(std::move(tx2).value(),
                                     {net.alice.NewOutputKey()})
                  .ok());
  ASSERT_EQ(net.node.mempool_size(), 2u);

  MinedBlock block = net.node.MineBlock();
  EXPECT_EQ(block.transactions, 1u);
  ASSERT_EQ(block.rejected.size(), 1u);
  EXPECT_EQ(block.rejected[0].index, 1u);
  EXPECT_TRUE(block.rejected[0].status.IsVerificationFailed());
  EXPECT_NE(block.rejected[0].status.message().find(
                "first practical configuration"),
            std::string::npos)
      << block.rejected[0].status.ToString();
  EXPECT_EQ(net.node.ledger().size(), 1u);
  EXPECT_EQ(net.node.mempool_size(), 0u);
}

TEST(NodeTest, ForeignTokenCannotBeSpent) {
  Network net(12);
  core::ProgressiveSelector selector;
  // Bob tries to spend alice's token.
  chain::TokenId alices = net.alice.SpendableTokens()[0];
  auto attempt = net.bob.BuildSpend(alices, {2.0, 3}, selector,
                                    {net.bob.NewOutputKey()}, "steal");
  EXPECT_TRUE(attempt.status().IsNotFound());
}

TEST(NodeTest, VerifierEnforcesDeclaredDiversity) {
  Network net(12);
  core::ProgressiveSelector selector;
  chain::TokenId token = net.alice.SpendableTokens()[0];
  auto tx = net.alice.BuildSpend(token, {2.0, 3}, selector,
                                 {net.bob.NewOutputKey()}, "pay");
  ASSERT_TRUE(tx.ok());
  // Inflate the declared requirement beyond what the ring satisfies: the
  // node must reject even though the LSAG itself still verifies.
  SignedTransaction bad = std::move(tx).value();
  bad.inputs[0].requirement = {0.0001, 50};
  auto verdict =
      net.node.SubmitTransaction(std::move(bad), {net.bob.NewOutputKey()});
  EXPECT_TRUE(verdict.IsVerificationFailed());
}

TEST(NodeTest, ConfigurationViolationRejected) {
  Network net(12);
  core::ProgressiveSelector selector;
  // First spend creates an RS on the ledger.
  chain::TokenId t1 = net.alice.SpendableTokens()[0];
  ASSERT_TRUE(net.alice
                  .Spend(&net.node, t1, {2.0, 3}, selector,
                         {net.bob.NewOutputKey()}, "a")
                  .ok());
  net.node.MineBlock();
  const auto& first_rs = net.node.ledger().view(0);

  // Hand-craft a second transaction whose ring partially overlaps the
  // existing RS (takes some but not all of its members plus extras).
  chain::TokenId t2 = net.bob.SpendableTokens()[0];
  auto tx = net.bob.BuildSpend(t2, {2.0, 3}, selector,
                               {net.alice.NewOutputKey()}, "b");
  ASSERT_TRUE(tx.ok());
  SignedTransaction bad = std::move(tx).value();
  // Force a partial overlap: {one member of the existing RS} ∪ {t2}.
  // Either the configuration check or the (now unbound) LSAG rejects it;
  // both are VerificationFailed.
  std::vector<chain::TokenId> overlap_ring = {first_rs.members[0], t2};
  std::sort(overlap_ring.begin(), overlap_ring.end());
  bad.inputs[0].ring = overlap_ring;
  auto verdict =
      net.node.SubmitTransaction(std::move(bad), {net.alice.NewOutputKey()});
  EXPECT_TRUE(verdict.IsVerificationFailed());
}

TEST(NodeTest, MempoolRejectsDuplicateKeyImages) {
  Network net(12);
  core::ProgressiveSelector selector;
  chain::TokenId token = net.alice.SpendableTokens()[0];
  auto tx = net.alice.BuildSpend(token, {2.0, 3}, selector,
                                 {net.bob.NewOutputKey()}, "pay");
  ASSERT_TRUE(tx.ok());
  SignedTransaction duplicate = tx.value();
  ASSERT_TRUE(net.node
                  .SubmitTransaction(std::move(tx).value(),
                                     {net.bob.NewOutputKey()})
                  .ok());
  auto verdict = net.node.SubmitTransaction(std::move(duplicate),
                                            {net.bob.NewOutputKey()});
  EXPECT_TRUE(verdict.IsVerificationFailed());
}

TEST(NodeTest, OutputKeyCountMustMatch) {
  Network net(12);
  core::ProgressiveSelector selector;
  chain::TokenId token = net.alice.SpendableTokens()[0];
  auto tx = net.alice.BuildSpend(token, {2.0, 3}, selector,
                                 {net.bob.NewOutputKey()}, "pay");
  ASSERT_TRUE(tx.ok());
  auto verdict = net.node.SubmitTransaction(
      std::move(tx).value(),
      {net.bob.NewOutputKey(), net.bob.NewOutputKey()});
  EXPECT_TRUE(verdict.IsInvalidArgument());
}

TEST(NodeTest, MultiInputTransactionVerifiesAndMines) {
  Network net(14);
  core::ProgressiveSelector selector;
  auto spendable = net.alice.SpendableTokens();
  ASSERT_GE(spendable.size(), 2u);
  std::vector<chain::TokenId> inputs = {spendable[0], spendable[1]};
  auto tx = net.alice.BuildSpendMulti(inputs, {2.0, 3}, selector,
                                      {net.bob.NewOutputKey()}, "multi");
  ASSERT_TRUE(tx.ok());
  EXPECT_EQ(tx->inputs.size(), 2u);
  // Sibling rings must respect the first configuration between each
  // other: superset or disjoint.
  const auto& a = tx->inputs[0].ring;
  const auto& b = tx->inputs[1].ring;
  std::vector<chain::TokenId> intersection;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(intersection));
  bool disjoint = intersection.empty();
  bool nested = std::includes(a.begin(), a.end(), b.begin(), b.end()) ||
                std::includes(b.begin(), b.end(), a.begin(), a.end());
  EXPECT_TRUE(disjoint || nested);

  ASSERT_TRUE(net.node
                  .SubmitTransaction(std::move(tx).value(),
                                     {net.bob.NewOutputKey()})
                  .ok());
  auto mined = net.node.MineBlock();
  EXPECT_EQ(mined.transactions, 1u);
  EXPECT_EQ(net.node.ledger().size(), 2u);  // one RS per input
}

TEST(NodeTest, MultiInputRejectsDuplicatesAndUnknowns) {
  Network net(12);
  core::ProgressiveSelector selector;
  auto spendable = net.alice.SpendableTokens();
  auto dup = net.alice.BuildSpendMulti({spendable[0], spendable[0]},
                                       {2.0, 3}, selector,
                                       {net.bob.NewOutputKey()}, "dup");
  EXPECT_TRUE(dup.status().IsInvalidArgument());
  auto none = net.alice.BuildSpendMulti({}, {2.0, 3}, selector,
                                        {net.bob.NewOutputKey()}, "none");
  EXPECT_TRUE(none.status().IsInvalidArgument());
}

TEST(NodeTest, ManySpendsRemainUnlinkable) {
  Network net(16, 64);
  core::ProgressiveSelector selector;
  // Alternate spenders over several blocks.
  for (int round = 0; round < 3; ++round) {
    Wallet& spender = (round % 2 == 0) ? net.alice : net.bob;
    Wallet& receiver = (round % 2 == 0) ? net.bob : net.alice;
    auto spendable = spender.SpendableTokens();
    ASSERT_FALSE(spendable.empty());
    ASSERT_TRUE(spender
                    .Spend(&net.node, spendable[round], {2.0, 3}, selector,
                           {receiver.NewOutputKey()}, "round")
                    .ok());
    net.node.MineBlock();
  }
  EXPECT_EQ(net.node.ledger().size(), 3u);
  // The adversary's exact analysis of the mined history eliminates
  // nothing and reveals nothing.
  auto result = analysis::ChainReactionAnalyzer::Analyze(
      analysis::AnalysisContext::Build(net.node.ledger().Views()));
  EXPECT_TRUE(result.NoTokenEliminated());
  EXPECT_TRUE(result.revealed_spends.empty());
}

// The instance of a token is its batch's universe over the batch's
// current snapshot, which the instance co-owns.
TEST(NodeTest, InstanceForBuildsBatchLocalUniverse) {
  Network net(8, /*lambda=*/16);  // genesis seals batch 0 (16 tokens)
  core::ProgressiveSelector selector;
  std::vector<crypto::Point> outputs;
  for (int i = 0; i < 16; ++i) outputs.push_back(net.bob.NewOutputKey());
  ASSERT_TRUE(net.alice
                  .Spend(&net.node, net.alice.SpendableTokens()[0], {2.0, 3},
                         selector, outputs, "open batch 1")
                  .ok());
  MinedBlock block = net.node.MineBlock();
  ASSERT_EQ(block.transactions, 1u);
  ASSERT_EQ(net.node.batches().batch_count(), 2u);

  auto instance = net.node.InstanceFor(0, {2.0, 2});
  ASSERT_TRUE(instance.ok());
  EXPECT_EQ(instance->target, 0u);
  EXPECT_EQ(instance->universe.size(), 16u);
  EXPECT_EQ(instance->requirement, (chain::DiversityRequirement{2.0, 2}));
  auto snapshot = net.node.AnalysisSnapshotShared(0);
  EXPECT_EQ(instance->owner.get(), snapshot.get());
  EXPECT_EQ(instance->context, &snapshot->context);
  EXPECT_EQ(instance->history.size(), 1u);

  // The freshly minted tokens live in the second batch.
  chain::TokenId minted = block.outputs[0][3];
  auto other = net.node.InstanceFor(minted, {2.0, 2});
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(other->universe.size(), 16u);
  EXPECT_EQ(other->universe.front(), block.outputs[0].front());
  EXPECT_TRUE(other->history.empty());
}

TEST(NodeTest, InstanceForUnknownTokenFails) {
  Network net(4);
  EXPECT_TRUE(net.node.InstanceFor(999, {1.0, 1}).status().IsNotFound());
}

}  // namespace
}  // namespace tokenmagic::node
