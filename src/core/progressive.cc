#include "core/progressive.h"

#include <optional>

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
  chain::DiversityRequirement effective =
      EffectiveRequirement(input.requirement);

  SelectionResult result;
  // One set of fresh counts for both phases, built by the first step
  // that needs it.
  std::optional<FreshHtCounts> fresh;

  // Phase 1: reach ℓ distinct HTs (lines 2-4 of Algorithm 4).
  TM_ASSIGN_OR_RETURN(
      size_t phase1_steps,
      GreedyCoverHts(&state, &fresh, effective.ell, input.deadline));
  result.iterations += phase1_steps;

  // Phase 2: close the diversity gap (lines 5-7). δ and every δ_i come
  // from the chosen HT counts plus the candidate's (HT, count) pairs; no
  // ring is materialized, and δ < 0 is the eligibility verdict itself.
  SlackScratch scratch;
  while (true) {
    ChosenFrequencies chosen = ChosenFrequenciesOf(state);
    double delta = analysis::DiversitySlack(chosen.sorted, effective);
    if (delta < 0.0) break;
    TickDeadline(input);
    if (DeadlineExpired(input)) {
      return common::Status::Timeout("Progressive budget exhausted");
    }
    if (!fresh.has_value()) fresh.emplace(state);
    GreedyPick pick =
        PickSlackModule(state, &*fresh, chosen, delta, effective, &scratch);
    if (pick.module == GreedyPick::kNoModule) {
      return common::Status::Unsatisfiable(
          "no module assembly satisfies the diversity constraint");
    }
    fresh->Choose(&state, pick.module);
    ++result.iterations;
  }

  result.members = MaterializeCandidate(*state.mu, state.chosen);
  result.chosen_modules = state.chosen;
  return result;
}

}  // namespace tokenmagic::core
