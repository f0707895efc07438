// Step-3 verification (Section 2.1): what miners check before blocking a
// ring-signature transaction.
//
// A transaction is accepted only if every input:
//   1. references existing tokens of a single batch;
//   2. carries a structurally valid LSAG whose ring keys match the
//      chain's output keys for the referenced tokens, bound to the
//      transaction message;
//   3. has a fresh key image (double-spend guard);
//   4. respects the first practical configuration against the batch's RS
//      history (superset-of-or-disjoint-with every existing RS);
//   5. meets its own declared recursive (c, ℓ)-diversity — at (c, ℓ+1)
//      when the node enforces the second practical configuration.
//
// Check 2 is the signature check: it reads only the transaction and the
// append-only KeyDirectory (a token's key never changes once
// registered), so its verdict cannot change after admission. The others
// are state checks: structure, 1, 3, 4 and 5 depend on the chain and the
// ledger, which later blocks extend. Verify runs the state checks first,
// so a rejected transaction never pays for curve math; MineBlock re-runs
// only VerifyState, because every pooled transaction already passed the
// full Verify at SubmitTransaction.
#pragma once

#include <unordered_map>

#include "chain/ht_index.h"
#include "chain/blockchain.h"
#include "chain/ledger.h"
#include "common/status.h"
#include "core/batch.h"
#include "crypto/lsag.h"
#include "node/types.h"

namespace tokenmagic::node {

/// Chain-side registry of each token's one-time output key.
class KeyDirectory {
 public:
  void Register(chain::TokenId token, const crypto::Point& key);
  bool Contains(chain::TokenId token) const;
  const crypto::Point& KeyOf(chain::TokenId token) const;
  size_t size() const { return keys_.size(); }

 private:
  std::unordered_map<chain::TokenId, crypto::Point> keys_;
};

/// Node-side verification policy.
struct VerifierPolicy {
  /// Enforce the first practical configuration (superset-or-disjoint).
  bool enforce_configuration = true;
  /// Enforce the second practical configuration: rings must satisfy
  /// their declared requirement at ℓ+1.
  bool enforce_strict_dtrs = true;
  /// Minimum ring size accepted (Monero-style floor; 1 disables).
  size_t min_ring_size = 2;
};

class Verifier {
 public:
  /// All referenced state must outlive the verifier.
  Verifier(const chain::Blockchain* bc, const chain::Ledger* ledger,
           const core::BatchIndex* batches, const chain::HtIndex* index,
           const KeyDirectory* keys,
           const crypto::KeyImageRegistry* spent_images,
           VerifierPolicy policy = {});

  /// Full Step-3 check of one transaction: VerifyState, then every
  /// input's key binding and LSAG. OK means the transaction may be mined;
  /// the specific failed check is reported otherwise.
  [[nodiscard]] common::Status Verify(const SignedTransaction& tx) const;

  /// The state checks alone (structure, batch, key image, first practical
  /// configuration, declared diversity): no curve math. Sound on its own
  /// only for a transaction that already passed Verify.
  [[nodiscard]] common::Status VerifyState(const SignedTransaction& tx) const;

  /// Checks one input in isolation, state then signature (exposed for
  /// tests/tools).
  [[nodiscard]] common::Status VerifyInput(const SignedTransaction& tx,
                             size_t input_index) const;

 private:
  [[nodiscard]] common::Status CheckInputState(const SignedTransaction& tx,
                                               size_t input_index) const;
  [[nodiscard]] common::Status CheckInputSignature(
      const SignedTransaction& tx, size_t input_index) const;

  const chain::Blockchain* bc_;
  const chain::Ledger* ledger_;
  const core::BatchIndex* batches_;
  const chain::HtIndex* index_;
  const KeyDirectory* keys_;
  const crypto::KeyImageRegistry* spent_images_;
  VerifierPolicy policy_;
};

}  // namespace tokenmagic::node
