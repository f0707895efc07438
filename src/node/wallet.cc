#include "node/wallet.h"

#include <algorithm>

#include "analysis/epoch_chain.h"
#include "common/macros.h"
#include "common/strings.h"

namespace tokenmagic::node {

namespace {

std::string KeyId(const crypto::Point& p) {
  auto enc = p.Encode();
  return std::string(reinterpret_cast<const char*>(enc.data()), enc.size());
}

}  // namespace

Wallet::Wallet(std::string name, const Node* node, uint64_t seed)
    : name_(std::move(name)), node_(node), rng_(seed) {
  TM_CHECK(node_ != nullptr);
}

crypto::Point Wallet::NewOutputKey() {
  crypto::Keypair kp = crypto::Keypair::Generate(&rng_);
  crypto::Point pub = kp.pub;
  unclaimed_.emplace(KeyId(pub), std::move(kp));
  return pub;
}

common::Status Wallet::Claim(chain::TokenId token) {
  if (!node_->keys().Contains(token)) {
    return common::Status::NotFound("token has no registered key");
  }
  auto it = unclaimed_.find(KeyId(node_->keys().KeyOf(token)));
  if (it == unclaimed_.end()) {
    return common::Status::NotFound(
        "token's output key was not minted by this wallet");
  }
  owned_.emplace(token, it->second);
  unclaimed_.erase(it);
  return common::Status::OK();
}

std::vector<chain::TokenId> Wallet::SpendableTokens() const {
  std::vector<chain::TokenId> out;
  for (const auto& [token, kp] : owned_) {
    if (spent_.count(token) == 0) out.push_back(token);
  }
  std::sort(out.begin(), out.end());
  return out;
}

common::Result<SignedTransaction> Wallet::BuildSpend(
    chain::TokenId token, chain::DiversityRequirement requirement,
    const core::MixinSelector& selector,
    const std::vector<crypto::Point>& output_keys, std::string memo) {
  return BuildSpendMulti({token}, requirement, selector, output_keys,
                         std::move(memo));
}

common::Result<SignedTransaction> Wallet::BuildSpendMulti(
    const std::vector<chain::TokenId>& tokens,
    chain::DiversityRequirement requirement,
    const core::MixinSelector& selector,
    const std::vector<crypto::Point>& output_keys, std::string memo) {
  using common::Status;
  if (tokens.empty()) {
    return Status::InvalidArgument("transaction must spend >= 1 token");
  }
  for (chain::TokenId token : tokens) {
    if (owned_.count(token) == 0) {
      return Status::NotFound("wallet does not own this token");
    }
    if (spent_.count(token) > 0) {
      return Status::AlreadyExists("wallet already spent this token");
    }
  }
  for (size_t i = 0; i < tokens.size(); ++i) {
    for (size_t j = i + 1; j < tokens.size(); ++j) {
      if (tokens[i] == tokens[j]) {
        return Status::InvalidArgument("duplicate input token");
      }
    }
  }

  SignedTransaction tx;
  tx.output_count = static_cast<uint32_t>(output_keys.size());
  tx.memo = std::move(memo);

  // Per-batch extra history: rings already built for earlier inputs of
  // this transaction, so sibling rings obey the first practical
  // configuration among themselves.
  std::unordered_map<size_t, std::vector<chain::RsView>> extra_history;
  chain::RsId synthetic_id = chain::kInvalidRs - 1000;

  for (chain::TokenId token : tokens) {
    // Step 1: mixin selection over the batch-local public state.
    core::SelectionInput input;
    input.target = token;
    input.universe = node_->batches().MixinUniverse(token);
    input.requirement = requirement;
    input.index = &node_->ht_index();
    const core::Batch& batch = node_->batches().BatchOfToken(token);
    // Hold the snapshot via the shared_ptr surface: wallets are part of
    // the node's concurrent-reader contract, and a Spend racing a
    // Genesis/MineBlock writer must keep its snapshot alive after the
    // writer replaces the cached one.
    std::shared_ptr<const Node::BatchAnalysisSnapshot> snapshot =
        node_->AnalysisSnapshotShared(batch.index);
    const std::vector<chain::RsView>& siblings = extra_history[batch.index];
    // Single-input spends (the common case) borrow the node's shared
    // per-batch snapshot and context. With sibling rings from earlier
    // inputs of this transaction the history differs from the snapshot,
    // so a local chain interns the combined history over the batch
    // universe: batch tokens ascend, and the synthetic sibling ids ascend
    // past every ledger id. Its view keeps the chain's core (and so the
    // combined history) alive.
    analysis::AnalysisContext combined;
    if (siblings.empty()) {
      input.history = snapshot->history;
      input.context = &snapshot->context;
      input.owner = snapshot;
    } else {
      analysis::EpochChain epochs;
      epochs.Append(snapshot->history, &node_->ht_index(), input.universe);
      epochs.Append(siblings, nullptr, {});
      combined = epochs.View();
      input.history = epochs.History();
      input.context = &combined;
    }
    TM_ASSIGN_OR_RETURN(core::SelectionResult selection,
                        selector.Select(input, &rng_));

    chain::RsView sibling;
    sibling.id = synthetic_id++;
    sibling.members = selection.members;
    sibling.proposed_at =
        input.history.empty() ? 0 : input.history.back().proposed_at + 1;
    sibling.requirement = requirement;
    extra_history[batch.index].push_back(std::move(sibling));

    TxInput tx_input;
    tx_input.ring = std::move(selection.members);
    tx_input.requirement = requirement;
    tx.inputs.push_back(std::move(tx_input));
  }

  // Step 2: one LSAG per input over the rings' output keys.
  for (size_t input_index = 0; input_index < tokens.size(); ++input_index) {
    TxInput& tx_input = tx.inputs[input_index];
    std::vector<crypto::Point> ring_keys;
    size_t signer_index = 0;
    for (size_t i = 0; i < tx_input.ring.size(); ++i) {
      chain::TokenId member = tx_input.ring[i];
      if (!node_->keys().Contains(member)) {
        return Status::NotFound("ring member has no registered key");
      }
      ring_keys.push_back(node_->keys().KeyOf(member));
      if (member == tokens[input_index]) signer_index = i;
    }
    TM_ASSIGN_OR_RETURN(
        tx_input.signature,
        crypto::Lsag::Sign(ring_keys, signer_index,
                           owned_.at(tokens[input_index]),
                           tx.SigningMessage(input_index), &rng_));
  }
  return tx;
}

common::Status Wallet::Spend(Node* node, chain::TokenId token,
                             chain::DiversityRequirement requirement,
                             const core::MixinSelector& selector,
                             std::vector<crypto::Point> output_keys,
                             std::string memo) {
  TM_ASSIGN_OR_RETURN(
      SignedTransaction tx,
      BuildSpend(token, requirement, selector, output_keys, std::move(memo)));
  TM_RETURN_NOT_OK(
      node->SubmitTransaction(std::move(tx), std::move(output_keys)));
  spent_[token] = true;
  return common::Status::OK();
}

}  // namespace tokenmagic::node
