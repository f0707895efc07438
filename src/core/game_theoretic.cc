#include "core/game_theoretic.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "common/macros.h"
#include "core/module_greedy.h"
#include "core/progressive.h"

namespace tokenmagic::core {

common::Result<SelectionResult> GameTheoreticSelector::Select(
    const SelectionInput& input, common::Rng* rng) const {
  (void)rng;  // best-response dynamics are deterministic
  if (DeadlineExpired(input)) {
    return common::Status::Timeout("Game deadline already expired");
  }
  TM_ASSIGN_OR_RETURN(ModuleSelectionState state, InitModuleState(input));
  chain::DiversityRequirement effective =
      EffectiveRequirement(input.requirement);

  SelectionResult result;

  // Initialization (lines 2-4): the same HT-covering greedy as Algorithm 4.
  std::optional<FreshHtCounts> fresh;
  TM_ASSIGN_OR_RETURN(
      size_t init_steps,
      GreedyCoverHts(&state, &fresh, effective.ell, input.deadline));
  result.iterations += init_steps;

  // Cost of a strategy profile for any player: |r̃_τ| / |A| when eligible,
  // ∞ otherwise. Encoded as (eligible?, size): every infeasible profile
  // compares equal (cost ∞), matching the paper's tie handling in
  // Example 3 where c(φ) = c(φ̄) = ∞ resolves to φ.
  auto profile_cost = [&](bool eligible,
                          size_t token_size) -> std::pair<int, size_t> {
    return {eligible ? 0 : 1, eligible ? token_size : 0};
  };

  // Best-response dynamics (lines 5-11). Each pass lets every player
  // reconsider; the potential function Φ = cost strictly decreases on
  // every strategy change, so this terminates. A hard cap guards against
  // pathological inputs.
  const size_t player_count = state.mu->module_count();
  const size_t max_passes = 2 * player_count + 8;
  auto run_dynamics = [&]() -> common::Status {
  // The verdict of the current profile, carried from flip to flip: a
  // kept flip's profile is the one just checked, a reverted flip's the
  // one before it.
  bool eligible_now = ChosenEligible(state, input);
  bool changed = true;
  size_t passes = 0;
  while (changed && passes < max_passes) {
    changed = false;
    ++passes;
    for (size_t player = 0; player < player_count; ++player) {
      if (player == state.target_module) continue;  // a_τ is pinned to φ
      // Budget check while the profile is consistent (no flip in flight).
      TickDeadline(input);
      if (DeadlineExpired(input)) {
        return common::Status::Timeout("best-response budget exhausted");
      }
      bool currently_chosen =
          std::find(state.chosen.begin(), state.chosen.end(), player) !=
          state.chosen.end();

      // Cost with the current strategy.
      auto cost_now = profile_cost(eligible_now, state.token_size);

      // Cost with the flipped strategy.
      if (currently_chosen) {
        UnchooseModule(&state, player);
      } else {
        ChooseModule(&state, player);
      }
      bool eligible_flipped = ChosenEligible(state, input);
      auto cost_flipped = profile_cost(eligible_flipped, state.token_size);

      // Paper line 7-9: default to φ; switch only when the alternative is
      // strictly cheaper. Ties therefore resolve toward the *selected*
      // strategy φ.
      bool prefer_flipped;
      if (cost_flipped < cost_now) {
        prefer_flipped = true;
      } else if (cost_now < cost_flipped) {
        prefer_flipped = false;
      } else {
        // Equal costs: strategy φ (selected) wins the tie.
        prefer_flipped = !currently_chosen;
      }

      if (prefer_flipped) {
        changed = true;  // keep the flip
        eligible_now = eligible_flipped;
        ++result.iterations;
      } else {
        // Revert the flip.
        if (currently_chosen) {
          ChooseModule(&state, player);
        } else {
          UnchooseModule(&state, player);
        }
      }
    }
  }
  return common::Status::OK();
  };  // run_dynamics

  TM_RETURN_NOT_OK(run_dynamics());

  if (!ChosenEligible(state, input)) {
    // Recursive diversity is not monotone in ring growth, so from an
    // infeasible start the tie-to-φ accretion can converge on an
    // infeasible plateau (e.g. the whole-universe profile violates
    // diversity while a subset satisfies it). Restart the dynamics from
    // a feasible profile: the Progressive solution. Best-response moves
    // from a feasible profile preserve feasibility (∞ never beats a
    // finite cost), so the restarted game converges to a feasible Nash
    // equilibrium no larger than the Progressive ring — PoS ≤ 1 is
    // preserved.
    ProgressiveSelector progressive;
    auto seed = progressive.Select(input, rng);
    if (!seed.ok()) {
      if (seed.status().IsTimeout()) return seed.status();
      return common::Status::Unsatisfiable(
          "no module assembly satisfies the diversity constraint");
    }
    // Reset the profile to the Progressive module set, chosen in
    // ascending module order (both selectors read the seal's one module
    // index, so its module indices are ours).
    std::vector<size_t> to_drop = state.chosen;
    for (size_t module_index : to_drop) {
      if (module_index != state.target_module) {
        UnchooseModule(&state, module_index);
      }
    }
    std::vector<size_t> want = seed->chosen_modules;
    std::sort(want.begin(), want.end());
    for (size_t module_index : want) {
      if (module_index != state.target_module) {
        ChooseModule(&state, module_index);
      }
    }
    TM_RETURN_NOT_OK(run_dynamics());
    if (!ChosenEligible(state, input)) {
      return common::Status::Unsatisfiable(
          "no module assembly satisfies the diversity constraint");
    }
  }

  result.members = MaterializeCandidate(*state.mu, state.chosen);
  result.chosen_modules = state.chosen;
  return result;
}

}  // namespace tokenmagic::core
