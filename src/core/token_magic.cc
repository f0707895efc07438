#include "core/token_magic.h"

#include <algorithm>

#include "analysis/chain_reaction.h"
#include "common/macros.h"
#include "common/strings.h"

namespace tokenmagic::core {

TokenMagic::TokenMagic(const chain::Blockchain* bc, TokenMagicConfig config)
    : bc_(bc),
      config_(config),
      batch_index_(*bc, config.lambda),
      ht_index_(chain::HtIndex::FromBlockchain(*bc)) {
  TM_CHECK(bc != nullptr);
  snapshots_.Sync(ledger_, batch_index_, ht_index_);
}

common::Result<SelectionInput> TokenMagic::InstanceFor(
    chain::TokenId target, chain::DiversityRequirement req) const {
  if (!bc_->HasToken(target)) {
    return common::Status::NotFound("unknown token");
  }
  if (ledger_.IsSpent(target)) {
    return common::Status::AlreadyExists("token already spent");
  }
  std::shared_ptr<const BatchSnapshot> snapshot =
      snapshots_.Get(batch_index_.BatchOfToken(target).index);
  SelectionInput input;
  input.target = target;
  input.universe = batch_index_.MixinUniverse(target);
  input.history = snapshot->history;
  input.context = &snapshot->context;
  input.requirement = req;
  input.index = &ht_index_;
  input.policy = config_.policy;
  // The instance co-owns the snapshot: the next proposal in this batch
  // replaces the cached one, and without this the cache would be the last
  // owner — history/context would dangle under a caller still selecting.
  input.owner = std::move(snapshot);
  return input;
}

bool TokenMagic::LiquidityAllows(
    chain::TokenId target,
    const std::vector<chain::TokenId>& members) const {
  std::shared_ptr<const BatchSnapshot> snapshot =
      snapshots_.Get(batch_index_.BatchOfToken(target).index);
  chain::RsView prospective;
  prospective.id = chain::kInvalidRs - 1;
  prospective.members = members;
  std::sort(prospective.members.begin(), prospective.members.end());

  size_t rs_count = snapshot->history.size() + 1;  // i, with the prospective
  // The prospective RS is not part of the sealed snapshot; the overlay
  // cascade runs it as one extra dense RS over the snapshot's context
  // without re-interning the history.
  size_t inferable = analysis::ChainReactionAnalyzer::CountInferableSpent(
      snapshot->context, prospective);  // μ_i
  size_t universe = batch_index_.BatchOfToken(target).tokens.size();  // |T|
  // Require i − μ_i ≥ η · (|T| − i).
  double lhs = static_cast<double>(rs_count) - static_cast<double>(inferable);
  double rhs = config_.eta * (static_cast<double>(universe) -
                              static_cast<double>(rs_count));
  return lhs >= rhs;
}

common::Result<GeneratedRs> TokenMagic::GenerateRs(
    chain::TokenId target, chain::DiversityRequirement req,
    const MixinSelector& selector, common::Rng* rng) {
  using common::Status;
  TM_ASSIGN_OR_RETURN(SelectionInput input, InstanceFor(target, req));

  // Algorithm 1, lines 2-6: build the candidate set for the target.
  std::vector<std::vector<chain::TokenId>> candidates;
  if (config_.full_randomization) {
    for (chain::TokenId seed_token : input.universe) {
      if (ledger_.IsSpent(seed_token)) continue;
      SelectionInput seeded = input;
      seeded.target = seed_token;
      auto selected = selector.Select(seeded, rng);
      if (!selected.ok()) continue;
      const auto& members = selected.value().members;
      if (std::binary_search(members.begin(), members.end(), target)) {
        candidates.push_back(members);
      }
    }
  }
  if (candidates.empty()) {
    // Fast path (or fallback): select directly for the target.
    TM_ASSIGN_OR_RETURN(SelectionResult selected,
                        selector.Select(input, rng));
    candidates.push_back(std::move(selected.members));
  }

  // Line 7: uniform draw among the target's candidates.
  const std::vector<chain::TokenId>& members =
      candidates[rng->NextBounded(candidates.size())];

  if (!LiquidityAllows(target, members)) {
    return Status::Unsatisfiable(common::StrFormat(
        "liquidity rule violated (eta=%g): proposing this RS would leave "
        "future spenders without eligible rings",
        config_.eta));
  }

  TM_ASSIGN_OR_RETURN(chain::RsId id,
                      ledger_.Propose(members, target, req));
  snapshots_.Sync(ledger_, batch_index_, ht_index_);
  GeneratedRs out;
  out.id = id;
  out.members = ledger_.view(id).members;
  out.candidate_count = candidates.size();
  return out;
}

}  // namespace tokenmagic::core
