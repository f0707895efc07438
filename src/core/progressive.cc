#include "core/progressive.h"

#include <algorithm>
#include <limits>

#include "analysis/diversity.h"
#include "common/macros.h"
#include "core/module_greedy.h"

namespace tokenmagic::core {

common::Result<SelectionResult> ProgressiveSelector::Select(
    const SelectionInput& input, common::Rng* rng) const {
  (void)rng;  // the Progressive Algorithm is deterministic
  if (DeadlineExpired(input)) {
    return common::Status::Timeout("Progressive deadline already expired");
  }
  TM_ASSIGN_OR_RETURN(ModuleSelectionState state, InitModuleState(input));
  const chain::HtIndex& index = *input.index;
  chain::DiversityRequirement effective =
      EffectiveRequirement(input.requirement, input.policy);

  SelectionResult result;

  // Phase 1: reach ℓ distinct HTs (lines 2-4 of Algorithm 4).
  TM_ASSIGN_OR_RETURN(
      size_t phase1_steps,
      GreedyCoverHts(&state, effective.ell, input.deadline));
  result.iterations += phase1_steps;

  // Phase 2: close the diversity gap (lines 5-7).
  auto eligible = [&]() {
    return CheckCandidate(*state.mu, state.chosen, input.history, index,
                          input.requirement, input.policy)
        .eligible;
  };
  std::vector<int64_t> scratch;
  while (!eligible()) {
    TickDeadline(input);
    if (DeadlineExpired(input)) {
      return common::Status::Timeout("Progressive budget exhausted");
    }
    // δ and every δ_i come from the chosen HT counts plus the
    // candidate's (HT, count) pairs; no ring is materialized.
    ChosenFrequencies chosen = ChosenFrequenciesOf(state);
    double delta = analysis::DiversitySlack(chosen.sorted, effective);
    double best_beta = -std::numeric_limits<double>::infinity();
    size_t best_module = static_cast<size_t>(-1);
    for (size_t candidate : state.remaining) {
      double delta_i =
          SlackWith(chosen, state.HtsOf(candidate), effective, &scratch);
      double beta = (delta - delta_i) /
                    static_cast<double>(state.mu->ModuleSize(candidate));
      if (beta > best_beta) {
        best_beta = beta;
        best_module = candidate;
      }
    }
    if (best_module == static_cast<size_t>(-1)) {
      return common::Status::Unsatisfiable(
          "no module assembly satisfies the diversity constraint");
    }
    ChooseModule(&state, best_module);
    ++result.iterations;
  }

  result.members = MaterializeCandidate(*state.mu, state.chosen);
  result.chosen_modules = state.chosen;
  return result;
}

}  // namespace tokenmagic::core
