#include "core/batch_snapshots.h"

#include <utility>

#include "common/macros.h"

namespace tokenmagic::core {

void BatchSnapshots::Sync(const chain::Ledger& ledger,
                          const BatchIndex& batches,
                          const chain::HtIndex& ht_index) {
  const size_t known = chains_.size();
  while (chains_.size() < batches.batch_count()) chains_.emplace_back();
  // Group the unrouted ledger tail by batch. Batches are disjoint and RSs
  // never span batches, so membership of the first token decides.
  std::vector<std::vector<chain::RsView>> views(chains_.size());
  for (size_t i = ledger_routed_; i < ledger.size(); ++i) {
    const chain::RsView& view = ledger.view(static_cast<chain::RsId>(i));
    if (view.members.empty()) continue;
    views[batches.BatchOfToken(view.members.front()).index].push_back(view);
  }
  ledger_routed_ = ledger.size();
  // Seal one epoch per batch that gained tokens or views, and one over
  // every new batch (even a token-less one, so Get always has a
  // snapshot). Appending a batch's new tokens together with its new views
  // keeps the chain's dense-id preconditions: every member of a routed
  // view is already in batch.tokens by the time the view exists.
  std::vector<std::pair<size_t, std::shared_ptr<const BatchSnapshot>>> sealed;
  for (size_t b = 0; b < chains_.size(); ++b) {
    analysis::EpochChain& chain = chains_[b];
    const std::vector<chain::TokenId>& tokens = batches.batch(b).tokens;
    std::span<const chain::TokenId> new_tokens(
        tokens.data() + chain.token_count(),
        tokens.size() - chain.token_count());
    if (b < known && new_tokens.empty() && views[b].empty()) continue;
    chain.Append(views[b], &ht_index, new_tokens);
    auto snapshot = std::make_shared<BatchSnapshot>();
    snapshot->history = chain.History();
    snapshot->context = chain.View();
    sealed.emplace_back(b, std::move(snapshot));
  }
  common::MutexLock lock(&snapshots_mu_);
  snapshots_.resize(chains_.size());
  for (auto& [b, snapshot] : sealed) snapshots_[b] = std::move(snapshot);
}

std::shared_ptr<const BatchSnapshot> BatchSnapshots::Get(size_t batch) const {
  common::MutexLock lock(&snapshots_mu_);
  TM_CHECK(batch < snapshots_.size());
  return snapshots_[batch];
}

}  // namespace tokenmagic::core
