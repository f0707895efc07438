#include "core/module_greedy.h"

#include <algorithm>
#include <limits>

#include "common/macros.h"
#include "common/strings.h"

namespace tokenmagic::core {

common::Result<ModuleSelectionState> InitModuleState(
    const SelectionInput& input) {
  using common::Status;
  if (input.index == nullptr) {
    return Status::InvalidArgument("SelectionInput.index must be set");
  }
  TM_RETURN_NOT_OK(RequireContext(input));
  if (std::find(input.universe.begin(), input.universe.end(), input.target) ==
      input.universe.end()) {
    return Status::InvalidArgument("target token not in the mixin universe");
  }

  TM_ASSIGN_OR_RETURN(
      ModuleUniverse mu,
      ModuleUniverse::Build(input.universe, input.history, *input.context));

  ModuleSelectionState state{std::move(mu), 0, {}, {}, {}, 0};
  state.target_module = state.mu.ModuleOfToken(input.target);

  state.remaining.reserve(state.mu.module_count());
  for (size_t i = 0; i < state.mu.module_count(); ++i) {
    if (i != state.target_module) state.remaining.push_back(i);
  }
  // Seed with the target's module (x_τ / a_τ in the paper).
  const Module& target_module = state.mu.module(state.target_module);
  state.chosen.push_back(state.target_module);
  state.token_size += target_module.size();
  for (chain::TokenId t : target_module.tokens) {
    // TryHtOf: validate-and-fetch in one hash lookup, so a universe token
    // the index does not know is an InvalidArgument, not a crash.
    std::optional<chain::TxId> ht = input.index->TryHtOf(t);
    if (!ht.has_value()) {
      return Status::InvalidArgument(common::StrFormat(
          "universe token %llu has no HT in the index",
          static_cast<unsigned long long>(t)));
    }
    state.covered_hts.insert(*ht);
  }
  return state;
}

std::unordered_set<chain::TxId> ModuleHts(const Module& module,
                                          const chain::HtIndex& index) {
  std::unordered_set<chain::TxId> out;
  for (chain::TokenId t : module.tokens) out.insert(index.HtOf(t));
  return out;
}

void ChooseModule(ModuleSelectionState* state, const chain::HtIndex& index,
                  size_t module_index) {
  auto it = std::find(state->remaining.begin(), state->remaining.end(),
                      module_index);
  TM_CHECK(it != state->remaining.end());
  state->remaining.erase(it);
  state->chosen.push_back(module_index);
  const Module& module = state->mu.module(module_index);
  state->token_size += module.size();
  for (chain::TokenId t : module.tokens) {
    state->covered_hts.insert(index.HtOf(t));
  }
}

void UnchooseModule(ModuleSelectionState* state,
                    const chain::HtIndex& index, size_t module_index) {
  TM_CHECK(module_index != state->target_module);
  auto it = std::find(state->chosen.begin(), state->chosen.end(),
                      module_index);
  TM_CHECK(it != state->chosen.end());
  state->chosen.erase(it);
  state->remaining.push_back(module_index);
  const Module& module = state->mu.module(module_index);
  state->token_size -= module.size();
  // Recompute covered HTs (a removed module may share HTs with others).
  state->covered_hts.clear();
  for (size_t chosen_index : state->chosen) {
    for (chain::TokenId t : state->mu.module(chosen_index).tokens) {
      state->covered_hts.insert(index.HtOf(t));
    }
  }
}

common::Result<size_t> GreedyCoverHts(ModuleSelectionState* state,
                                      const chain::HtIndex& index,
                                      int ell,
                                      common::Deadline* deadline) {
  size_t steps = 0;
  while (state->covered_hts.size() < static_cast<size_t>(ell)) {
    if (deadline != nullptr) {
      deadline->Tick();
      if (deadline->Expired()) {
        return common::Status::Timeout("HT-cover greedy budget exhausted");
      }
    }
    size_t deficit = static_cast<size_t>(ell) - state->covered_hts.size();
    double best_alpha = std::numeric_limits<double>::infinity();
    size_t best_module = static_cast<size_t>(-1);
    for (size_t candidate : state->remaining) {
      const Module& module = state->mu.module(candidate);
      std::unordered_set<chain::TxId> fresh_hts;
      for (chain::TokenId t : module.tokens) {
        chain::TxId ht = index.HtOf(t);
        if (state->covered_hts.count(ht) == 0) fresh_hts.insert(ht);
      }
      size_t new_hts = fresh_hts.size();
      if (new_hts == 0) continue;  // α would be infinite
      double alpha = static_cast<double>(module.size()) /
                     static_cast<double>(std::min(deficit, new_hts));
      if (alpha < best_alpha) {
        best_alpha = alpha;
        best_module = candidate;
      }
    }
    if (best_module == static_cast<size_t>(-1)) {
      return common::Status::Unsatisfiable(common::StrFormat(
          "universe covers fewer than %d distinct HTs", ell));
    }
    ChooseModule(state, index, best_module);
    ++steps;
  }
  return steps;
}

}  // namespace tokenmagic::core
