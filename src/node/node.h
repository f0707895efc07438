// A full node: owns the chain state, verifies incoming transactions
// (Step 3), pools them, and mines blocks that mint the outputs and
// append the ring signatures to the public ledger.
//
// Threading model. The node is a single-writer, multi-reader object:
//  * Mutating entry points (Genesis, SubmitTransaction, MineBlock) take
//    `state_mu_` exclusively and may run concurrently with any number of
//    snapshot readers.
//  * `AnalysisSnapshotShared` is the concurrent read path: it returns a
//    shared_ptr to an immutable, self-contained snapshot (history span +
//    AnalysisContext co-owning their epoch core), so a reader keeps its
//    snapshot alive across a concurrent RebuildIndices and never observes
//    a torn one.
//  * The reference-returning accessors (blockchain(), ledger(), ...) are
//    the single-threaded convenience surface: the references they return
//    are stable only while no writer runs.
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "chain/ht_index.h"
#include "chain/blockchain.h"
#include "common/annotations.h"
#include "common/mutex.h"
#include "common/status.h"
#include "chain/ledger.h"
#include "core/batch.h"
#include "core/batch_snapshots.h"
#include "crypto/lsag.h"
#include "node/types.h"
#include "node/verifier.h"

namespace tokenmagic::node {

class FaultInjector;

struct NodeConfig {
  size_t lambda = 64;  ///< batch threshold (Section 4)
  VerifierPolicy verifier;
  /// Optional fault injector (tests only; node/fault_injection.h). When
  /// set, verifier verdicts pass through FilterVerdict at submit and
  /// mine time. Not owned; must outlive the node.
  FaultInjector* faults = nullptr;
};

/// Outcome of mining one block.
struct MinedBlock {
  chain::BlockHeight height = 0;
  size_t transactions = 0;
  /// Fresh tokens minted, in order, per transaction.
  std::vector<std::vector<chain::TokenId>> outputs;
  /// Transactions that passed submit-time checks but failed mine-time
  /// re-verification (state moved underneath them), with the position in
  /// this block's mining order and the exact failed check. Rejections
  /// are audit data, not errors: mining the rest of the block proceeds.
  struct RejectedTx {
    size_t index = 0;
    common::Status status;
  };
  std::vector<RejectedTx> rejected;
};

class Node {
 public:
  explicit Node(NodeConfig config = {});

  /// Seeds the chain with a genesis block of `grants` transactions, the
  /// i-th minting grants[i].size() tokens with the given output keys.
  /// Returns the minted token ids per grant.
  // tm-invalidates(BatchSnapshots::snapshots_): appends a block.
  std::vector<std::vector<chain::TokenId>> Genesis(
      const std::vector<std::vector<crypto::Point>>& grants)
      TM_EXCLUDES(state_mu_);

  /// Verifies and pools a transaction. Rejected transactions are not
  /// pooled and the failed check is returned.
  [[nodiscard]] common::Status SubmitTransaction(SignedTransaction tx,
                                   std::vector<crypto::Point> output_keys)
      TM_EXCLUDES(state_mu_);

  size_t mempool_size() const TM_EXCLUDES(state_mu_);

  /// Mines every pooled transaction into one block: re-runs the
  /// verifier's state checks (state may have changed; the signatures were
  /// checked at submission), registers key images, appends rings to the
  /// ledger, and mints outputs with their announced keys.
  // tm-invalidates(BatchSnapshots::snapshots_): appends a block.
  MinedBlock MineBlock() TM_EXCLUDES(state_mu_);

  // Read-only chain state (single-threaded surface; see file comment).
  const chain::Blockchain& blockchain() const { return bc_; }
  const chain::Ledger& ledger() const { return ledger_; }
  const chain::HtIndex& ht_index() const { return ht_index_; }
  const core::BatchIndex& batches() const { return *batches_; }
  const KeyDirectory& keys() const { return keys_; }
  const crypto::KeyImageRegistry& spent_images() const {
    return spent_images_;
  }

  /// Hex encodings of every spent key image, in registration order
  /// (snapshot serialization; the registry itself is opaque).
  const std::vector<std::string>& SpentImageHexList() const {
    return spent_image_hex_;
  }

  /// A fresh verifier bound to the current state.
  Verifier MakeVerifier() const;

  /// Per-batch analysis snapshot of the current chain state: the batch's
  /// ledger views plus their AnalysisContext (core/batch_snapshots.h).
  using BatchAnalysisSnapshot = core::BatchSnapshot;

  /// The snapshot of batch `batch_index`, sealed by the block that last
  /// touched the batch and shared until the next such block — so every
  /// wallet selection and analysis probe of one block shares exactly one
  /// AnalysisContext per batch. Concurrent-reader safe: the returned
  /// pointer keeps the snapshot alive across a concurrent
  /// Genesis/MineBlock (which replaces the *cached* snapshot, not
  /// outstanding ones). Callers must re-fetch after a mutation to observe
  /// it.
  std::shared_ptr<const BatchAnalysisSnapshot> AnalysisSnapshotShared(
      size_t batch_index) const TM_EXCLUDES(state_mu_);

 private:
  /// Full rebuild of every derived index and per-batch epoch chain from
  /// the raw chain state, replacing every cached analysis snapshot
  /// (outstanding shared_ptrs stay valid). This is the O(history)
  /// fallback for paths with no incremental delta: construction, Genesis,
  /// snapshot restore, and any future reorg. Block-append paths
  /// (MineBlock) use AppendIndices instead.
  void RebuildIndices() TM_REQUIRES(state_mu_);

  /// O(delta) index maintenance after mining one block: extends the
  /// HtIndex and BatchIndex over the new blocks and syncs the per-batch
  /// snapshots, which re-seal only the batches the block touched —
  /// untouched batches keep serving their (still-current) snapshot.
  void AppendIndices() TM_REQUIRES(state_mu_);

  /// Snapshot restore rebuilds private state directly (node/snapshot.h).
  friend common::Result<std::unique_ptr<Node>> NodeFromSnapshot(
      const std::string& snapshot, NodeConfig config);

  NodeConfig config_;
  chain::Blockchain bc_;
  chain::Ledger ledger_;
  chain::HtIndex ht_index_;
  std::unique_ptr<core::BatchIndex> batches_;
  KeyDirectory keys_;
  crypto::KeyImageRegistry spent_images_;
  std::vector<std::string> spent_image_hex_;

  struct PendingTx {
    SignedTransaction tx;
    std::vector<crypto::Point> output_keys;
  };

  /// Writer lock for every chain mutation; shared by snapshot readers so
  /// they never observe the snapshots between RebuildIndices' Reset and
  /// Sync. Ordered before the snapshot service's own lock.
  mutable common::SharedMutex state_mu_;  // tm-lock-rank(20)
  std::deque<PendingTx> mempool_ TM_GUARDED_BY(state_mu_);
  chain::Timestamp clock_ TM_GUARDED_BY(state_mu_) = 0;

  /// The per-batch epoch chains and sealed snapshots, synced by
  /// RebuildIndices/AppendIndices under the writer lock.
  core::BatchSnapshots snapshots_ TM_GUARDED_BY(state_mu_);
};

}  // namespace tokenmagic::node
