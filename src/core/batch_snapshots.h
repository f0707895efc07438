// The per-batch analysis state of the framework (Section 4).
//
// Every token's mixin universe and related RS set are bounded by its
// λ-batch, so the only analysis state a chain needs is, per batch, an
// epoch chain over the batch's tokens and ledger views plus a sealed
// snapshot of it. BatchSnapshots owns exactly that for node::Node, the
// one producer of rings (mined blocks):
//  * one analysis::EpochChain per batch, created for every batch and
//    extended as the BatchIndex grows;
//  * the cursor of the ledger prefix already routed into the chains;
//  * the per-batch cache of sealed {history, context} snapshots, replaced
//    only for the batches an update touched.
//
// Threading: single writer, any number of concurrent readers. Calls to
// Sync must be externally serialized (the owner's writer contract); Get
// may run concurrently with Sync and with itself. Readers never touch
// the chains: Sync seals every touched batch before it publishes the
// fresh snapshot under `snapshots_mu_`, and a sealed snapshot reads only
// storage that later appends never write.
#pragma once

#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "analysis/context.h"
#include "analysis/epoch_chain.h"
#include "chain/ht_index.h"
#include "chain/ledger.h"
#include "chain/types.h"
#include "common/annotations.h"
#include "common/mutex.h"
#include "core/batch.h"

namespace tokenmagic::core {

/// One batch's sealed analysis snapshot: its ledger views plus their
/// interned AnalysisContext. Immutable and self-contained: both members
/// read the batch's epoch core, which `context` co-owns, so a snapshot
/// outlives any later Sync (later epochs only ever append past its
/// sealed prefix). One snapshot is shared by every selection target,
/// ladder stage and analysis probe of the batch until an update touches
/// the batch.
struct BatchSnapshot {
  // tm-borrows(context): the batch's RS views live in the epoch core the
  // context keeps alive (as does every span derived from them).
  std::span<const chain::RsView> history;
  // tm-owns: shared keep-alive of the epoch core behind `history` and
  // every span derived from this snapshot.
  analysis::AnalysisContext context;
};

class BatchSnapshots {
 public:
  /// Brings the chains up to date with `ledger` and `batches`: creates a
  /// chain for every new batch, routes ledger views [routed, size) to
  /// their batch together with each batch's new tokens, seals one epoch
  /// per touched batch, and replaces exactly the touched batches' cached
  /// snapshots (a new batch counts as touched). O(delta + batches).
  /// `ht_index` must cover every token of `batches`.
  // tm-invalidates(BatchSnapshots::snapshots_): touched batches only;
  // outstanding shared_ptrs keep the superseded snapshots alive.
  void Sync(const chain::Ledger& ledger, const BatchIndex& batches,
            const chain::HtIndex& ht_index) TM_EXCLUDES(snapshots_mu_);

  /// The current snapshot of batch `batch` (TM_CHECKed to exist as of the
  /// last Sync). The pointer keeps the snapshot alive across later
  /// updates; callers re-fetch to observe them.
  std::shared_ptr<const BatchSnapshot> Get(size_t batch) const
      TM_EXCLUDES(snapshots_mu_);

 private:
  /// One epoch chain per batch, in batch order (writer only). A deque so
  /// growing it never moves a chain.
  // tm-owns: the per-batch epoch chains (owner id: chains_).
  std::deque<analysis::EpochChain> chains_;
  /// Ledger prefix already routed into the chains (writer only).
  size_t ledger_routed_ = 0;

  /// Guards only the snapshot slots: Sync swaps touched slots in, Get
  /// copies one out.
  mutable common::Mutex snapshots_mu_;  // tm-lock-rank(30)
  /// The sealed snapshot of every batch, indexed by batch.
  // tm-owns: the per-batch snapshot cache (owner id: snapshots_).
  std::vector<std::shared_ptr<const BatchSnapshot>> snapshots_
      TM_GUARDED_BY(snapshots_mu_);
};

}  // namespace tokenmagic::core
