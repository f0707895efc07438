// Quickstart: start a node, select diversity-aware mixins in a wallet,
// sign the spend with a linkable ring signature, mine it, and watch the
// double-spend guard fire.
//
//   $ ./quickstart
#include <cstdio>
#include <vector>

#include "core/progressive.h"
#include "crypto/lsag.h"
#include "node/node.h"
#include "node/wallet.h"

using namespace tokenmagic;

int main() {
  // 1. A node and two wallets. lambda = 24 puts the genesis block's 24
  //    tokens in one batch.
  node::NodeConfig config;
  config.lambda = 24;
  node::Node node(config);
  node::Wallet alice("alice", &node, 7);
  node::Wallet bob("bob", &node, 8);

  // 2. Genesis: 24 single-output transactions, alternately to alice and
  //    bob. Every token gets its own one-time key (Monero-style).
  std::vector<std::vector<crypto::Point>> grants;
  for (int i = 0; i < 24; ++i) {
    grants.push_back({(i % 2 == 0 ? alice : bob).NewOutputKey()});
  }
  auto minted = node.Genesis(grants);
  for (size_t i = 0; i < minted.size(); ++i) {
    if (!(i % 2 == 0 ? alice : bob).Claim(minted[i][0]).ok()) return 1;
  }
  std::printf("chain: %zu block, %zu tokens\n",
              node.blockchain().block_count(),
              node.blockchain().token_count());

  // 3. Alice pays bob with token t under a recursive (2, 3)-diversity
  //    requirement: her wallet selects the ring, signs it with LSAG and
  //    submits it; the node verifies and pools it, then mines it.
  const chain::TokenId token = alice.SpendableTokens()[2];
  core::ProgressiveSelector selector;
  // A second spend of the same token, built before the first goes out
  // (the wallet refuses to build it afterwards).
  auto replay = alice.BuildSpend(token, {2.0, 3}, selector,
                                 {bob.NewOutputKey()}, "pay 1 XTM to carol");
  if (!replay.ok()) {
    std::printf("building the replay failed: %s\n",
                replay.status().ToString().c_str());
    return 1;
  }
  common::Status spent = alice.Spend(&node, token, {2.0, 3}, selector,
                                     {bob.NewOutputKey()}, "pay 1 XTM to bob");
  if (!spent.ok()) {
    std::printf("spend failed: %s\n", spent.ToString().c_str());
    return 1;
  }
  node::MinedBlock block = node.MineBlock();
  if (block.transactions != 1 || node.ledger().size() != 1) {
    std::printf("mining failed: %zu transactions\n", block.transactions);
    return 1;
  }
  const chain::RsView& ring = node.ledger().view(0);
  std::printf("mined RS #%llu spending t%llu with %zu members:",
              static_cast<unsigned long long>(ring.id),
              static_cast<unsigned long long>(token), ring.members.size());
  for (auto t : ring.members) {
    std::printf(" t%llu", static_cast<unsigned long long>(t));
  }
  std::printf("\n");

  // 4. The replay's LSAG is valid on its own, but its key image is the
  //    one the mined spend registered, so the node rejects it at submit.
  const bool replay_signature_ok = crypto::Lsag::Verify(
      replay->inputs[0].signature, replay->SigningMessage(0));
  common::Status verdict =
      node.SubmitTransaction(std::move(replay).value(), {bob.NewOutputKey()});
  std::printf("double-spend attempt: LSAG verify=%s, node says %s\n",
              replay_signature_ok ? "OK" : "FAIL",
              verdict.ToString().c_str());
  return (replay_signature_ok && verdict.IsVerificationFailed()) ? 0 : 1;
}
