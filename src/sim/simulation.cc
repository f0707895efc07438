#include "sim/simulation.h"

#include <span>
#include <unordered_set>

#include "analysis/chain_reaction.h"
#include "analysis/context.h"
#include "analysis/epoch_chain.h"
#include "analysis/homogeneity.h"
#include "common/macros.h"
#include "common/strings.h"

namespace tokenmagic::sim {

SimulationResult RunSimulation(const SimulationConfig& config,
                               const core::MixinSelector& selector) {
  TM_CHECK(config.num_wallets >= 2);
  TM_CHECK(config.cluster_size >= 1);

  node::NodeConfig node_config;
  node_config.lambda = config.lambda;
  node_config.verifier = config.verifier;
  node::Node the_node(node_config);

  std::vector<std::unique_ptr<node::Wallet>> wallets;
  for (size_t w = 0; w < config.num_wallets; ++w) {
    wallets.push_back(std::make_unique<node::Wallet>(
        common::StrFormat("wallet-%zu", w), &the_node,
        config.seed * 1000 + w));
  }

  // Genesis: per wallet, tokens_per_wallet tokens in clusters of
  // cluster_size (each cluster = one HT).
  std::vector<std::vector<crypto::Point>> grants;
  std::vector<size_t> grant_owner;
  for (size_t w = 0; w < config.num_wallets; ++w) {
    size_t remaining = config.tokens_per_wallet;
    while (remaining > 0) {
      size_t take = std::min(config.cluster_size, remaining);
      std::vector<crypto::Point> grant;
      for (size_t i = 0; i < take; ++i) {
        grant.push_back(wallets[w]->NewOutputKey());
      }
      grants.push_back(std::move(grant));
      grant_owner.push_back(w);
      remaining -= take;
    }
  }
  auto minted = the_node.Genesis(grants);
  for (size_t g = 0; g < minted.size(); ++g) {
    for (chain::TokenId t : minted[g]) {
      TM_CHECK(wallets[grant_owner[g]]->Claim(t).ok());
    }
  }

  common::Rng round_rng(config.seed);
  SimulationResult result;
  // The adversary's round-persistent view of the public state: one epoch
  // appended per round (new tokens + new rings) instead of re-interning
  // the whole ledger every round.
  analysis::EpochChain adversary_chain;
  chain::TokenId tokens_routed = 0;
  size_t views_routed = 0;
  for (size_t round = 0; round < config.rounds; ++round) {
    RoundReport report;
    report.round = round;

    for (size_t w = 0; w < config.num_wallets; ++w) {
      node::Wallet& spender = *wallets[w];
      auto spendable = spender.SpendableTokens();
      if (spendable.empty()) continue;
      ++report.attempted;
      chain::TokenId token =
          spendable[round_rng.NextBounded(spendable.size())];
      size_t receiver = (w + 1 + round_rng.NextBounded(
                                    config.num_wallets - 1)) %
                        config.num_wallets;
      (void)spender.Spend(&the_node, token, config.requirement, selector,
                          {wallets[receiver]->NewOutputKey()},
                          common::StrFormat("round %zu", round));
    }

    // `accepted` counts what actually mined: a transaction that passed
    // submission can still be dropped when an earlier transaction in the
    // same block changed the configuration state.
    size_t ledger_before = the_node.ledger().size();
    auto mined = the_node.MineBlock();
    report.accepted = the_node.ledger().size() - ledger_before;
    report.rejected_at_mine = mined.rejected.size();
    for (const auto& outputs : mined.outputs) {
      for (chain::TokenId t : outputs) {
        for (auto& wallet : wallets) {
          if (wallet->Claim(t).ok()) break;
        }
      }
    }

    // Adversary pass over the public state: this round's delta (freshly
    // minted tokens, freshly committed rings) seals one epoch, and every
    // probe shares the O(1) sealed view. Tokens are dense mint-order ids,
    // so the unrouted tail is exactly [tokens_routed, token_count).
    auto views = the_node.ledger().Views();
    std::vector<chain::TokenId> new_tokens;
    for (chain::TokenId t = tokens_routed;
         t < the_node.blockchain().token_count(); ++t) {
      new_tokens.push_back(t);
    }
    std::span<const chain::RsView> new_views(views.data() + views_routed,
                                             views.size() - views_routed);
    adversary_chain.Append(new_views, &the_node.ht_index(), new_tokens);
    tokens_routed =
        static_cast<chain::TokenId>(the_node.blockchain().token_count());
    views_routed = views.size();
    analysis::AnalysisContext context = adversary_chain.View();
    auto analysis = analysis::ChainReactionAnalyzer::Analyze(context);
    report.rings_on_ledger = views.size();
    report.stats = analysis::SummarizeAnonymity(analysis);
    for (const auto& view : views) {
      std::unordered_set<chain::TokenId> eliminated(
          analysis.eliminated[view.id].begin(),
          analysis.eliminated[view.id].end());
      auto probe =
          analysis::ProbeHomogeneity(view.members, eliminated, context);
      if (probe.ht_determined) ++report.homogeneity_leaks;
    }
    result.rounds.push_back(std::move(report));
  }
  return result;
}

}  // namespace tokenmagic::sim
