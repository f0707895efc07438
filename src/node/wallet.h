// A user wallet: owns per-token one-time keys, runs DA-MS mixin
// selection against the node's public state, and produces signed
// transactions (Steps 1 and 2 of the RS scheme, executed client-side).
//
// Threading. A single Wallet object is not thread-safe, but distinct
// wallets may build and submit spends concurrently with each other and
// with the node's snapshot readers: selection holds the per-batch
// analysis snapshot through Node::AnalysisSnapshotShared (and pins it
// via SelectionInput::owner), so a concurrent chain mutation replacing
// the batch's cached snapshot cannot free the history mid-selection.
// The batch, HT, and key directories are still borrowed from the
// node's single-threaded reference surface, so Genesis/MineBlock must
// be externally serialized with spend *building*; SubmitTransaction is
// internally locked and safe to race.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/selector.h"
#include "crypto/keys.h"
#include "node/node.h"
#include "node/types.h"

namespace tokenmagic::node {

class Wallet {
 public:
  /// `node` is the wallet's view of the network; it must outlive the
  /// wallet. `seed` derives the wallet's deterministic rng stream.
  Wallet(std::string name, const Node* node, uint64_t seed);

  const std::string& name() const { return name_; }

  /// Mints a fresh one-time key for a future output (to be handed to the
  /// payer / genesis).
  crypto::Point NewOutputKey();

  /// Records that `token` on-chain belongs to this wallet (its key must
  /// be one returned by NewOutputKey).
  [[nodiscard]] common::Status Claim(chain::TokenId token);

  /// Tokens owned and not yet spent by this wallet.
  std::vector<chain::TokenId> SpendableTokens() const;
  size_t balance() const { return SpendableTokens().size(); }

  /// Builds a fully signed transaction spending `token` with mixins
  /// chosen by `selector` under `requirement`, minting `output_count`
  /// outputs with the supplied keys.
  [[nodiscard]] common::Result<SignedTransaction> BuildSpend(
      chain::TokenId token, chain::DiversityRequirement requirement,
      const core::MixinSelector& selector,
      const std::vector<crypto::Point>& output_keys, std::string memo);

  /// Multi-input variant (the paper's Figure 1: a transaction may carry
  /// several input RSs). Each token gets its own independently selected
  /// ring and LSAG. Rings of tokens from the same batch are selected
  /// sequentially against a history that already includes the earlier
  /// rings of this very transaction, so the first practical
  /// configuration holds between them.
  [[nodiscard]] common::Result<SignedTransaction> BuildSpendMulti(
      const std::vector<chain::TokenId>& tokens,
      chain::DiversityRequirement requirement,
      const core::MixinSelector& selector,
      const std::vector<crypto::Point>& output_keys, std::string memo);

  /// Convenience: build + submit to the node in one call.
  [[nodiscard]] common::Status Spend(Node* node, chain::TokenId token,
                       chain::DiversityRequirement requirement,
                       const core::MixinSelector& selector,
                       std::vector<crypto::Point> output_keys,
                       std::string memo);

 private:
  std::string name_;
  const Node* node_;
  common::Rng rng_;
  /// Keys minted but not yet bound to a token, addressed by encoding.
  std::unordered_map<std::string, crypto::Keypair> unclaimed_;
  /// Owned tokens -> their keypairs.
  std::unordered_map<chain::TokenId, crypto::Keypair> owned_;
  /// Tokens this wallet has already spent (locally tracked).
  std::unordered_map<chain::TokenId, bool> spent_;
};

}  // namespace tokenmagic::node
