#include "core/module_greedy.h"

#include <algorithm>
#include <limits>
#include <memory>

#include "analysis/diversity.h"
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
  const analysis::AnalysisContext& context = *input.context;
  TM_RETURN_NOT_OK(
      CheckSnapshotShape(input.universe, input.history, context));
  // The universe is the token column, so the target is in it iff interned.
  analysis::AnalysisContext::Local target = context.LocalOfToken(input.target);
  if (target == analysis::AnalysisContext::kNoLocal) {
    return Status::InvalidArgument("target token not in the mixin universe");
  }

  // The input's context keeps the seal's memo slot, and so the index,
  // alive for the whole selection.
  std::shared_ptr<const common::Result<ModuleUniverse>> index =
      ModuleIndexOf(context);
  if (!index->ok()) return index->status();
  TM_RETURN_NOT_OK((*index)->HtStatus());

  ModuleSelectionState state;
  state.mu = &index->value();
  state.context = &context;
  state.target_module = state.mu->ModuleOfLocal(target);
  state.ht_count.assign(context.ht_count(), 0);

  // Seed with the target's module (x_τ / a_τ in the paper).
  state.remaining.reserve(state.mu->module_count());
  for (size_t i = 0; i < state.mu->module_count(); ++i) {
    state.remaining.push_back(i);
  }
  ChooseModule(&state, state.target_module);
  return state;
}

void ChooseModule(ModuleSelectionState* state, size_t module_index) {
  auto it = std::find(state->remaining.begin(), state->remaining.end(),
                      module_index);
  TM_CHECK(it != state->remaining.end());
  state->remaining.erase(it);
  state->chosen.push_back(module_index);
  state->token_size += state->mu->ModuleSize(module_index);
  for (HtTokens pair : state->HtsOf(module_index)) {
    if (state->ht_count[pair.ht] == 0) ++state->covered_ht_count;
    state->ht_count[pair.ht] += pair.tokens;
  }
}

void UnchooseModule(ModuleSelectionState* state, size_t module_index) {
  TM_CHECK(module_index != state->target_module);
  auto it = std::find(state->chosen.begin(), state->chosen.end(),
                      module_index);
  TM_CHECK(it != state->chosen.end());
  state->chosen.erase(it);
  state->remaining.push_back(module_index);
  state->token_size -= state->mu->ModuleSize(module_index);
  // An HT another chosen module shares keeps a non-zero count.
  for (HtTokens pair : state->HtsOf(module_index)) {
    state->ht_count[pair.ht] -= pair.tokens;
    if (state->ht_count[pair.ht] == 0) --state->covered_ht_count;
  }
}

size_t FreshHtCount(const ModuleSelectionState& state, size_t module_index) {
  size_t fresh = 0;
  for (HtTokens pair : state.HtsOf(module_index)) {
    if (state.ht_count[pair.ht] == 0) ++fresh;
  }
  return fresh;
}

common::Result<size_t> GreedyCoverHts(ModuleSelectionState* state, int ell,
                                      common::Deadline* deadline) {
  size_t steps = 0;
  while (state->covered_ht_count < static_cast<size_t>(ell)) {
    if (deadline != nullptr) {
      deadline->Tick();
      if (deadline->Expired()) {
        return common::Status::Timeout("HT-cover greedy budget exhausted");
      }
    }
    size_t deficit = static_cast<size_t>(ell) - state->covered_ht_count;
    double best_alpha = std::numeric_limits<double>::infinity();
    size_t best_module = static_cast<size_t>(-1);
    for (size_t candidate : state->remaining) {
      size_t new_hts = FreshHtCount(*state, candidate);
      if (new_hts == 0) continue;  // α would be infinite
      double alpha =
          static_cast<double>(state->mu->ModuleSize(candidate)) /
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
    ChooseModule(state, best_module);
    ++steps;
  }
  return steps;
}

ChosenFrequencies ChosenFrequenciesOf(const ModuleSelectionState& state) {
  ChosenFrequencies out;
  out.slot.assign(state.ht_count.size(), ChosenFrequencies::kNoSlot);
  std::vector<uint32_t> covered;
  covered.reserve(state.covered_ht_count);
  for (uint32_t ht = 0; ht < state.ht_count.size(); ++ht) {
    if (state.ht_count[ht] != 0) covered.push_back(ht);
  }
  // Which of two equal counts takes which slot does not matter: bumping
  // either yields the same multiset.
  std::sort(covered.begin(), covered.end(), [&](uint32_t a, uint32_t b) {
    return state.ht_count[a] > state.ht_count[b];
  });
  out.sorted.reserve(covered.size());
  for (uint32_t ht : covered) {
    out.slot[ht] = static_cast<uint32_t>(out.sorted.size());
    out.sorted.push_back(state.ht_count[ht]);
  }
  return out;
}

double SlackWith(const ChosenFrequencies& chosen,
                 std::span<const HtTokens> candidate,
                 const chain::DiversityRequirement& req,
                 std::vector<int64_t>* scratch) {
  scratch->assign(chosen.sorted.begin(), chosen.sorted.end());
  for (HtTokens pair : candidate) {
    uint32_t slot = chosen.slot[pair.ht];
    if (slot == ChosenFrequencies::kNoSlot) {
      scratch->push_back(pair.tokens);
    } else {
      (*scratch)[slot] += pair.tokens;
    }
  }
  // Only the bumped and appended entries are out of place, so an
  // insertion pass restores descending order in O(θ + displacement).
  std::vector<int64_t>& q = *scratch;
  for (size_t i = 1; i < q.size(); ++i) {
    int64_t value = q[i];
    size_t j = i;
    for (; j > 0 && q[j - 1] < value; --j) q[j] = q[j - 1];
    q[j] = value;
  }
  return analysis::DiversitySlack(q, req);
}

}  // namespace tokenmagic::core
