// Full-network simulation: several wallets transact through a verifying
// node over multiple blocks, then an external adversary replays the
// public state (ledger + chain only — no wallet secrets) and attempts
// chain-reaction analysis. Demonstrates the complete system the paper
// targets: Step 1 (DA-MS selection) + Step 2 (LSAG) client-side, Step 3
// (verification, both practical configurations) node-side.
#include <cstdio>
#include <vector>

#include "analysis/anonymity.h"
#include "analysis/chain_reaction.h"
#include "core/progressive.h"
#include "node/node.h"
#include "node/wallet.h"

using namespace tokenmagic;

int main() {
  node::NodeConfig config;
  config.lambda = 64;
  node::Node the_node(config);

  // Three wallets, each granted 8 tokens in its own one-token HTs.
  node::Wallet alice("alice", &the_node, 1);
  node::Wallet bob("bob", &the_node, 2);
  node::Wallet carol("carol", &the_node, 3);
  std::vector<node::Wallet*> wallets = {&alice, &bob, &carol};

  std::vector<std::vector<crypto::Point>> grants;
  for (int i = 0; i < 8; ++i) {
    for (node::Wallet* w : wallets) grants.push_back({w->NewOutputKey()});
  }
  auto minted = the_node.Genesis(grants);
  for (size_t g = 0; g < minted.size(); ++g) {
    node::Wallet* owner = wallets[g % wallets.size()];
    for (chain::TokenId t : minted[g]) (void)owner->Claim(t);
  }
  std::printf("genesis: %zu tokens across %zu wallets\n",
              the_node.blockchain().token_count(), wallets.size());

  // Four blocks of economic activity.
  core::ProgressiveSelector selector;
  size_t submitted = 0, rejected = 0;
  for (int block = 0; block < 4; ++block) {
    for (size_t w = 0; w < wallets.size(); ++w) {
      node::Wallet* spender = wallets[w];
      node::Wallet* receiver = wallets[(w + 1) % wallets.size()];
      auto spendable = spender->SpendableTokens();
      if (spendable.empty()) continue;
      auto st = spender->Spend(&the_node, spendable.front(), {2.0, 3},
                               selector, {receiver->NewOutputKey()},
                               "block activity");
      st.ok() ? ++submitted : ++rejected;
    }
    auto mined = the_node.MineBlock();
    std::printf("block %llu: mined %zu txs (mempool drained)\n",
                static_cast<unsigned long long>(mined.height),
                mined.transactions);
    // Receivers claim their fresh outputs.
    for (const auto& outputs : mined.outputs) {
      for (chain::TokenId t : outputs) {
        for (node::Wallet* w : wallets) {
          if (w->Claim(t).ok()) break;
        }
      }
    }
  }
  std::printf("activity: %zu accepted, %zu rejected\n", submitted, rejected);

  // The adversary sees only public state.
  auto views = the_node.ledger().Views();
  auto result = analysis::ChainReactionAnalyzer::Analyze(
      analysis::AnalysisContext::Build(views));
  auto stats = analysis::SummarizeAnonymity(result);
  std::printf("\nadversary report over %zu rings:\n", views.size());
  std::printf("  fully deanonymized rings: %zu\n", stats.fully_revealed);
  std::printf("  rings with eliminated members: %zu\n",
              stats.with_eliminations);
  std::printf("  mean anonymity set: %.2f tokens (min %.0f)\n",
              stats.mean_anonymity_set, stats.min_anonymity_set);
  std::printf("  mean entropy: %.2f bits\n", stats.mean_entropy_bits);
  return stats.fully_revealed == 0 ? 0 : 1;
}
