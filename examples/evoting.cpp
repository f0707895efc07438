// E-voting scenario (paper Section 1 / Section 7's "Blockvotes" use
// case): each registered voter holds a ballot token; casting a vote
// spends the ballot inside a ring signature so the tally is public but
// the voter-to-ballot link is hidden. Latency matters at the polling
// station (the paper's argument for TM_P over TM_G), so this example
// compares both selectors' latency and ring sizes over a precinct.
#include <cstdio>
#include <vector>

#include "analysis/chain_reaction.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/game_theoretic.h"
#include "core/progressive.h"
#include "core/token_magic.h"

using namespace tokenmagic;

int main() {
  // Registration: 4 registrar transactions issue 12 ballots each.
  chain::Blockchain bc;
  bc.AddBlock(0, {12, 12, 12, 12});
  core::TokenMagicConfig config;
  config.lambda = 48;
  core::TokenMagic tm(&bc, config);
  std::printf("precinct: %zu ballots from %zu registrars\n",
              bc.token_count(), bc.transaction_count());

  // Election day: voters cast in arrival order; requirement (2, 3):
  // each vote's anonymity set must span 3+ registrars and never be
  // dominated by one.
  common::Rng rng(2026);
  core::ProgressiveSelector progressive;
  core::GameTheoreticSelector game;

  common::StopWatch watch;
  double progressive_ms = 0.0;
  size_t progressive_votes = 0;
  size_t progressive_ring_tokens = 0;
  std::vector<chain::TokenId> order;
  for (chain::TokenId t = 0; t < bc.token_count(); ++t) order.push_back(t);
  rng.Shuffle(&order);

  for (size_t v = 0; v < 10; ++v) {
    watch.Restart();
    auto generated = tm.GenerateRs(order[v], {2.0, 3}, progressive, &rng);
    progressive_ms += watch.ElapsedMillis();
    if (generated.ok()) {
      ++progressive_votes;
      progressive_ring_tokens += generated->members.size();
    }
  }
  std::printf("TM_P: %zu votes cast, mean ring %.1f ballots, "
              "mean latency %.3f ms/vote\n",
              progressive_votes,
              static_cast<double>(progressive_ring_tokens) /
                  static_cast<double>(progressive_votes),
              progressive_ms / static_cast<double>(progressive_votes));

  // Offline audit: the game-theoretic selector would shave ring sizes at
  // higher latency — measure on fresh instances without committing.
  double game_ms = 0.0;
  size_t game_ring_tokens = 0;
  size_t game_runs = 0;
  for (size_t v = 10; v < 20; ++v) {
    auto instance = tm.InstanceFor(order[v], {2.0, 3});
    if (!instance.ok()) continue;
    watch.Restart();
    auto result = game.Select(*instance, &rng);
    game_ms += watch.ElapsedMillis();
    if (result.ok()) {
      ++game_runs;
      game_ring_tokens += result->members.size();
    }
  }
  if (game_runs > 0) {
    std::printf("TM_G (offline audit): mean ring %.1f ballots, "
                "mean latency %.3f ms/vote\n",
                static_cast<double>(game_ring_tokens) /
                    static_cast<double>(game_runs),
                game_ms / static_cast<double>(game_runs));
  }

  // Coercion resistance check: the public tally reveals no voter.
  auto analysis = analysis::ChainReactionAnalyzer::Analyze(
      analysis::AnalysisContext::Build(tm.ledger().Views()));
  std::printf("adversarial audit: %zu votes, %zu deanonymized, "
              "eliminations=%s\n",
              tm.ledger().size(), analysis.revealed_spends.size(),
              analysis.NoTokenEliminated() ? "none" : "SOME");
  return analysis.revealed_spends.empty() ? 0 : 1;
}
