// Cryptocurrency wallet scenario: transaction fees are proportional to
// the ring size (the paper's core economic motivation), so a wallet
// wants the smallest ring that still resists chain-reaction analysis
// and the homogeneity attack. This example spends a series of tokens on
// the Monero-like trace and compares the fee bill across the four
// selection policies.
#include <cstdio>
#include <vector>

#include "analysis/context.h"
#include "common/rng.h"
#include "core/baselines.h"
#include "core/game_theoretic.h"
#include "core/progressive.h"
#include "data/monero_like.h"

using namespace tokenmagic;

namespace {

constexpr double kFeePerMember = 0.00031;  // XTM per ring member

struct Bill {
  size_t spends = 0;
  size_t total_members = 0;
  double fee() const { return kFeePerMember * total_members; }
};

Bill RunWallet(const data::Dataset& ds,
               const analysis::AnalysisContext& context,
               const core::MixinSelector& selector,
               chain::DiversityRequirement req, uint64_t seed) {
  common::Rng rng(seed);
  core::SelectionInput input;
  input.universe = ds.universe;
  input.history = ds.history;
  input.requirement = req;
  input.index = &ds.index;
  input.context = &context;

  Bill bill;
  auto unspent = ds.UnspentTokens();
  for (int spend = 0; spend < 20; ++spend) {
    input.target = unspent[rng.NextBounded(unspent.size())];
    auto result = selector.Select(input, &rng);
    if (!result.ok()) continue;
    ++bill.spends;
    bill.total_members += result->members.size();
  }
  return bill;
}

}  // namespace

int main() {
  data::Dataset ds = data::MakeMoneroLikeTrace();
  // One interning of the trace, shared by every policy and spend.
  const analysis::AnalysisContext context =
      analysis::AnalysisContext::Build(ds.history, &ds.index, ds.universe);
  chain::DiversityRequirement req{0.6, 20};
  std::printf("wallet: 20 spends on the Monero-like trace, "
              "requirement %s, fee %.5f XTM/member\n\n",
              req.ToString().c_str(), kFeePerMember);

  core::ProgressiveSelector progressive;
  core::GameTheoreticSelector game;
  core::SmallestSelector smallest;
  core::RandomSelector random;
  struct Row {
    const char* name;
    const core::MixinSelector* selector;
  } rows[] = {{"TM_G", &game},
              {"TM_P", &progressive},
              {"TM_S", &smallest},
              {"TM_R", &random}};

  std::printf("%-6s %8s %12s %12s\n", "policy", "spends", "avg ring",
              "fee (XTM)");
  double best_fee = -1.0;
  double worst_fee = -1.0;
  bool every_policy_spent = true;
  for (const Row& row : rows) {
    Bill bill = RunWallet(ds, context, *row.selector, req, 20260705);
    if (bill.spends == 0) every_policy_spent = false;
    double avg = bill.spends > 0 ? static_cast<double>(bill.total_members) /
                                       static_cast<double>(bill.spends)
                                 : 0.0;
    std::printf("%-6s %8zu %12.1f %12.4f\n", row.name, bill.spends, avg,
                bill.fee());
    if (best_fee < 0 || bill.fee() < best_fee) best_fee = bill.fee();
    if (bill.fee() > worst_fee) worst_fee = bill.fee();
  }
  // A policy that spent nothing has no bill to compare.
  if (!every_policy_spent) {
    std::printf("\nsome policy completed no spend\n");
    return 1;
  }
  std::printf("\nfee saved by the best policy vs the worst: %.1f%%\n",
              100.0 * (worst_fee - best_fee) / worst_fee);
  return 0;
}
