#include "node/node.h"

#include "common/macros.h"
#include "common/strings.h"
#include "node/fault_injection.h"

namespace tokenmagic::node {

Node::Node(NodeConfig config) : config_(config) {
  // The node is not shared during construction; the lock only satisfies
  // RebuildIndices' contract.
  common::WriterMutexLock lock(&state_mu_);
  RebuildIndices();
}

void Node::RebuildIndices() {
  ht_index_ = chain::HtIndex::FromBlockchain(bc_);
  batches_ = std::make_unique<core::BatchIndex>(bc_, config_.lambda);
  snapshots_.Reset();
  snapshots_.Sync(ledger_, *batches_, ht_index_);
}

void Node::AppendIndices() {
  // O(delta) twin of RebuildIndices for the block-append path: extend the
  // indices over the new blocks instead of rebuilding them. Token ids are
  // dense mint-order, so the HtIndex's size is exactly the next unindexed
  // token.
  for (chain::TokenId t = static_cast<chain::TokenId>(ht_index_.size());
       t < bc_.token_count(); ++t) {
    ht_index_.Set(t, bc_.HistoricalTransactionOf(t));
  }
  batches_->AppendBlocks(bc_);
  snapshots_.Sync(ledger_, *batches_, ht_index_);
}

std::shared_ptr<const Node::BatchAnalysisSnapshot> Node::AnalysisSnapshotShared(
    size_t batch_index) const {
  // Writers hold state_mu_ exclusively across Reset + Sync, so a reader
  // never sees the snapshots half rebuilt.
  common::ReaderMutexLock state_lock(&state_mu_);
  return snapshots_.Get(batch_index);
}

common::Result<core::SelectionInput> Node::InstanceFor(
    chain::TokenId target, chain::DiversityRequirement requirement) const {
  if (!bc_.HasToken(target)) {
    return common::Status::NotFound("unknown token");
  }
  core::SelectionInput input;
  input.target = target;
  input.universe = batches_->MixinUniverse(target);
  input.requirement = requirement;
  input.index = &ht_index_;
  std::shared_ptr<const BatchAnalysisSnapshot> snapshot =
      AnalysisSnapshotShared(batches_->BatchOfToken(target).index);
  input.history = snapshot->history;
  input.context = &snapshot->context;
  input.owner = std::move(snapshot);
  return input;
}

size_t Node::mempool_size() const {
  common::ReaderMutexLock lock(&state_mu_);
  return mempool_.size();
}

std::vector<std::vector<chain::TokenId>> Node::Genesis(
    const std::vector<std::vector<crypto::Point>>& grants) {
  common::WriterMutexLock lock(&state_mu_);
  TM_CHECK(bc_.block_count() == 0);
  std::vector<std::vector<chain::TokenId>> minted;
  bc_.BeginBlock(clock_++);
  for (const auto& grant : grants) {
    TM_CHECK(!grant.empty());
    chain::TxId tx = bc_.AddTransaction(static_cast<uint32_t>(grant.size()));
    const auto& outputs = bc_.transaction(tx).outputs;
    for (size_t i = 0; i < outputs.size(); ++i) {
      keys_.Register(outputs[i], grant[i]);
    }
    minted.push_back(outputs);
  }
  bc_.EndBlock();
  RebuildIndices();
  return minted;
}

Verifier Node::MakeVerifier() const {
  return Verifier(&bc_, &ledger_, batches_.get(), &ht_index_, &keys_,
                  &spent_images_, config_.verifier);
}

common::Status Node::SubmitTransaction(SignedTransaction tx,
                                       std::vector<crypto::Point> keys) {
  if (keys.size() != tx.output_count) {
    return common::Status::InvalidArgument(
        "output key count does not match output_count");
  }
  common::WriterMutexLock lock(&state_mu_);
  common::Status verdict = MakeVerifier().Verify(tx);
  if (config_.faults != nullptr) {
    verdict = config_.faults->FilterVerdict(std::move(verdict));
  }
  TM_RETURN_NOT_OK(verdict);
  // Also reject key images already sitting in the mempool.
  for (const PendingTx& pending : mempool_) {
    for (const TxInput& mine : pending.tx.inputs) {
      for (const TxInput& theirs : tx.inputs) {
        if (mine.signature.key_image == theirs.signature.key_image) {
          return common::Status::VerificationFailed(
              "key image already pending in the mempool");
        }
      }
    }
  }
  mempool_.push_back(PendingTx{std::move(tx), std::move(keys)});
  return common::Status::OK();
}

MinedBlock Node::MineBlock() {
  common::WriterMutexLock lock(&state_mu_);
  MinedBlock mined;
  bc_.BeginBlock(clock_++);
  size_t accepted = 0;
  size_t index = 0;
  std::deque<PendingTx> pool;
  pool.swap(mempool_);
  for (; !pool.empty(); ++index) {
    PendingTx pending = std::move(pool.front());
    pool.pop_front();
    // Re-verify against the evolving state (an earlier transaction in
    // this very block may have consumed a key image or broken the
    // configuration). Only the state checks: the signature checks cannot
    // change their verdict after SubmitTransaction, the pool's only way
    // in, ran the full Verify (and a restored node starts with an empty
    // pool). Rejections are recorded, never silently dropped: a wallet
    // that saw its submission accepted needs to learn why the spend
    // nonetheless missed the block.
    common::Status verdict = MakeVerifier().VerifyState(pending.tx);
    if (config_.faults != nullptr) {
      verdict = config_.faults->FilterVerdict(std::move(verdict));
    }
    if (!verdict.ok()) {
      mined.rejected.push_back(
          MinedBlock::RejectedTx{index, std::move(verdict)});
      continue;
    }

    for (const TxInput& input : pending.tx.inputs) {
      TM_CHECK(spent_images_.Register(input.signature.key_image).ok());
      auto image_enc = input.signature.key_image.Encode();
      spent_image_hex_.push_back(
          common::HexEncode(image_enc.data(), image_enc.size()));
      auto rs = ledger_.Append(input.ring, input.requirement);
      TM_CHECK(rs.ok());
    }
    chain::TxId tx_id =
        bc_.AddTransaction(pending.tx.output_count);
    const auto& outputs = bc_.transaction(tx_id).outputs;
    for (size_t i = 0; i < outputs.size(); ++i) {
      keys_.Register(outputs[i], pending.output_keys[i]);
    }
    mined.outputs.push_back(outputs);
    ++accepted;
  }
  bc_.EndBlock();
  mined.height = bc_.block_count() - 1;
  mined.transactions = accepted;
  AppendIndices();
  return mined;
}

}  // namespace tokenmagic::node
