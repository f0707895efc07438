// E-voting scenario (paper Section 1 / Section 7's "Blockvotes" use
// case): each registered voter holds a ballot token; casting a vote
// spends the ballot inside a ring signature so the tally is public but
// the voter-to-ballot link is hidden. Votes are cast through Algorithm 1
// (core/algorithm1.h), so a ballot's ring was also a candidate ring of
// every other ballot in it. Latency matters at the polling station (the
// paper's argument for TM_P over TM_G), so this example also compares
// both selectors' latency and ring sizes over the precinct.
#include <cstdio>
#include <memory>
#include <vector>

#include "analysis/chain_reaction.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/algorithm1.h"
#include "core/game_theoretic.h"
#include "core/progressive.h"
#include "node/node.h"
#include "node/wallet.h"

using namespace tokenmagic;

int main() {
  // Registration: 4 registrar transactions issue 12 ballots each, one per
  // voter wallet.
  node::NodeConfig config;
  config.lambda = 48;
  node::Node node(config);
  std::vector<std::unique_ptr<node::Wallet>> voters;
  std::vector<std::vector<crypto::Point>> grants(4);
  for (size_t v = 0; v < 48; ++v) {
    voters.push_back(std::make_unique<node::Wallet>("voter", &node, 100 + v));
    grants[v / 12].push_back(voters[v]->NewOutputKey());
  }
  auto minted = node.Genesis(grants);
  std::vector<chain::TokenId> ballots;
  for (size_t v = 0; v < 48; ++v) {
    ballots.push_back(minted[v / 12][v % 12]);
    if (!voters[v]->Claim(ballots[v]).ok()) return 1;
  }
  node::Wallet tally("tally", &node, 99);
  std::printf("precinct: %zu ballots from %zu registrars\n",
              node.blockchain().token_count(),
              node.blockchain().transaction_count());

  // Election day: voters cast in arrival order; requirement (2, 3): each
  // vote's anonymity set must span 3+ registrars and never be dominated
  // by one. A block is mined after every vote: rings selected on one
  // snapshot can conflict once both are mined.
  common::Rng rng(2026);
  core::ProgressiveSelector progressive;
  core::GameTheoreticSelector game;
  core::Algorithm1Selector algorithm1(progressive, /*eta=*/0.0);
  std::vector<size_t> order;
  for (size_t v = 0; v < voters.size(); ++v) order.push_back(v);
  rng.Shuffle(&order);

  common::StopWatch watch;
  double cast_ms = 0.0;
  size_t votes = 0;
  size_t ring_tokens = 0;
  for (size_t i = 0; i < 10; ++i) {
    size_t v = order[i];
    watch.Restart();
    common::Status cast =
        voters[v]->Spend(&node, ballots[v], {2.0, 3}, algorithm1,
                         {tally.NewOutputKey()}, "vote");
    cast_ms += watch.ElapsedMillis();
    if (!cast.ok() || node.MineBlock().transactions != 1) continue;
    ++votes;
    ring_tokens += node.ledger().view(node.ledger().size() - 1).size();
  }
  if (votes == 0) {
    std::printf("no vote was cast\n");
    return 1;
  }
  std::printf("Algorithm 1 over TM_P: %zu votes cast, mean ring %.1f "
              "ballots, mean latency %.3f ms/vote (select, sign, submit)\n",
              votes,
              static_cast<double>(ring_tokens) / static_cast<double>(votes),
              cast_ms / static_cast<double>(votes));

  // Offline audit: the game-theoretic selector would shave ring sizes at
  // higher latency. Both bare selectors run on the same node instances of
  // the next ten ballots, without committing anything.
  struct Audit {
    double ms = 0.0;
    size_t ring_tokens = 0;
    size_t runs = 0;
  } audits[2];
  const core::MixinSelector* selectors[2] = {&progressive, &game};
  const char* names[2] = {"TM_P", "TM_G"};
  for (size_t i = 10; i < 20; ++i) {
    auto instance = node.InstanceFor(ballots[order[i]], {2.0, 3});
    if (!instance.ok()) continue;
    for (int s = 0; s < 2; ++s) {
      watch.Restart();
      auto result = selectors[s]->Select(*instance, &rng);
      audits[s].ms += watch.ElapsedMillis();
      if (!result.ok()) continue;
      ++audits[s].runs;
      audits[s].ring_tokens += result->members.size();
    }
  }
  for (int s = 0; s < 2; ++s) {
    if (audits[s].runs == 0) {
      std::printf("%s (offline audit): no ring found\n", names[s]);
      return 1;
    }
    std::printf("%s (offline audit): mean ring %.1f ballots, "
                "mean latency %.3f ms/vote\n",
                names[s],
                static_cast<double>(audits[s].ring_tokens) /
                    static_cast<double>(audits[s].runs),
                audits[s].ms / static_cast<double>(audits[s].runs));
  }

  // Coercion resistance check: the public tally reveals no voter.
  auto analysis = analysis::ChainReactionAnalyzer::Analyze(
      analysis::AnalysisContext::Build(node.ledger().Views()));
  std::printf("adversarial audit: %zu votes, %zu deanonymized, "
              "eliminations=%s\n",
              node.ledger().size(), analysis.revealed_spends.size(),
              analysis.NoTokenEliminated() ? "none" : "SOME");
  return analysis.revealed_spends.empty() ? 0 : 1;
}
