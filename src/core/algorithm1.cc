#include "core/algorithm1.h"

#include <algorithm>

#include "analysis/chain_reaction.h"
#include "common/macros.h"
#include "common/strings.h"

namespace tokenmagic::core {

bool LiquidityAllows(const SelectionInput& input,
                     const std::vector<chain::TokenId>& members, double eta) {
  TM_CHECK(input.context != nullptr);
  // The prospective RS is not part of the sealed snapshot; the overlay
  // cascade runs it as one extra dense RS over the snapshot's context
  // without re-interning the history.
  chain::RsView prospective;
  prospective.id = chain::kInvalidRs - 1;
  prospective.members = members;
  std::sort(prospective.members.begin(), prospective.members.end());
  const double rings = static_cast<double>(input.history.size() + 1);  // i
  const double inferable =
      static_cast<double>(analysis::ChainReactionAnalyzer::CountInferableSpent(
          *input.context, prospective));  // μ_i
  const double universe = static_cast<double>(input.universe.size());  // |T|
  return rings - inferable >= eta * (universe - rings);
}

common::Result<SelectionResult> Algorithm1Selector::Select(
    const SelectionInput& input, common::Rng* rng) const {
  TM_RETURN_NOT_OK(RequireContext(input));
  if (DeadlineExpired(input)) {
    return common::Status::Timeout("Algorithm 1: deadline expired");
  }
  // Lines 3-6: R_s for every token s of the universe; the rings that
  // contain the target are its candidates.
  std::vector<SelectionResult> candidates;
  SelectionInput seeded = input;
  for (chain::TokenId seed : input.universe) {
    seeded.target = seed;
    auto ring = inner_.Select(seeded, rng);
    if (!ring.ok()) {
      if (!ring.status().IsUnsatisfiable()) return ring.status();
      continue;
    }
    if (std::binary_search(ring->members.begin(), ring->members.end(),
                           input.target)) {
      candidates.push_back(std::move(ring).value());
    }
  }
  if (candidates.empty()) {
    TM_ASSIGN_OR_RETURN(SelectionResult own, inner_.Select(input, rng));
    candidates.push_back(std::move(own));
  }

  // Line 7: a uniform draw among the target's candidates.
  SelectionResult drawn =
      std::move(candidates[rng->NextBounded(candidates.size())]);
  if (!LiquidityAllows(input, drawn.members, eta_)) {
    return common::Status::Unsatisfiable(common::StrFormat(
        "liquidity rule violated (eta=%g): this ring would leave later "
        "spenders of the batch without eligible rings",
        eta_));
  }
  return drawn;
}

}  // namespace tokenmagic::core
