#include "core/baselines.h"

#include <algorithm>
#include <functional>

#include "common/macros.h"
#include "core/module_greedy.h"

namespace tokenmagic::core {

namespace {

/// Shared add-until-eligible loop: `pick` chooses the next module index
/// position within state->remaining.
common::Result<SelectionResult> AddUntilEligible(
    const SelectionInput& input, ModuleSelectionState* state,
    const std::function<size_t(const ModuleSelectionState&)>& pick) {
  SelectionResult result;
  if (DeadlineExpired(input)) {
    return common::Status::Timeout("selection deadline already expired");
  }
  while (!ChosenEligible(*state, input)) {
    TickDeadline(input);
    if (DeadlineExpired(input)) {
      return common::Status::Timeout("module-add budget exhausted");
    }
    if (state->remaining.empty()) {
      return common::Status::Unsatisfiable(
          "no module assembly satisfies the diversity constraint");
    }
    size_t position = pick(*state);
    TM_CHECK(position < state->remaining.size());
    ChooseModule(state, state->remaining[position]);
    ++result.iterations;
  }
  result.members = MaterializeCandidate(*state->mu, state->chosen);
  result.chosen_modules = state->chosen;
  return result;
}

}  // namespace

common::Result<SelectionResult> SmallestSelector::Select(
    const SelectionInput& input, common::Rng* rng) const {
  (void)rng;
  TM_ASSIGN_OR_RETURN(ModuleSelectionState state, InitModuleState(input));
  return AddUntilEligible(
      input, &state, [](const ModuleSelectionState& s) -> size_t {
        size_t best_pos = 0;
        size_t best_size = std::numeric_limits<size_t>::max();
        for (size_t pos = 0; pos < s.remaining.size(); ++pos) {
          size_t size = s.mu->ModuleSize(s.remaining[pos]);
          if (size < best_size) {
            best_size = size;
            best_pos = pos;
          }
        }
        return best_pos;
      });
}

common::Result<SelectionResult> RandomSelector::Select(
    const SelectionInput& input, common::Rng* rng) const {
  TM_CHECK(rng != nullptr);
  TM_ASSIGN_OR_RETURN(ModuleSelectionState state, InitModuleState(input));
  return AddUntilEligible(input, &state,
                          [rng](const ModuleSelectionState& s) -> size_t {
                            return rng->NextBounded(s.remaining.size());
                          });
}

common::Result<SelectionResult> MoneroSelector::Select(
    const SelectionInput& input, common::Rng* rng) const {
  TM_CHECK(rng != nullptr);
  using common::Status;
  if (DeadlineExpired(input)) {
    return Status::Timeout("selection deadline already expired");
  }
  TM_RETURN_NOT_OK(RequireContext(input));
  if (std::find(input.universe.begin(), input.universe.end(), input.target) ==
      input.universe.end()) {
    return Status::InvalidArgument("target token not in the mixin universe");
  }
  if (input.universe.size() < ring_size_) {
    return Status::Unsatisfiable("universe smaller than the ring size");
  }

  // Candidate pool without the target, split into a "recent" half (by
  // token id, a proxy for creation time) and the remainder.
  std::vector<chain::TokenId> pool(input.universe.begin(),
                                   input.universe.end());
  std::sort(pool.begin(), pool.end());
  pool.erase(std::remove(pool.begin(), pool.end(), input.target), pool.end());

  const size_t mixins_needed = ring_size_ - 1;
  const size_t recent_quota = mixins_needed / 2;
  const size_t recent_window = std::max(pool.size() / 4, recent_quota);

  std::vector<chain::TokenId> recent(
      pool.end() - static_cast<ptrdiff_t>(
                       std::min(recent_window, pool.size())),
      pool.end());

  SelectionResult result;
  std::vector<chain::TokenId> members = {input.target};
  auto sample_from = [&](const std::vector<chain::TokenId>& source,
                         size_t count) {
    std::vector<size_t> picks = rng->SampleIndices(source.size(), count);
    for (size_t i : picks) members.push_back(source[i]);
  };
  sample_from(recent, std::min(recent_quota, recent.size()));
  // Fill the rest from the whole pool, skipping duplicates.
  while (members.size() < ring_size_) {
    TickDeadline(input);
    if (DeadlineExpired(input)) {
      return Status::Timeout("ring-fill budget exhausted");
    }
    chain::TokenId t = pool[rng->NextBounded(pool.size())];
    if (std::find(members.begin(), members.end(), t) == members.end()) {
      members.push_back(t);
    }
    ++result.iterations;
  }

  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());
  result.members = std::move(members);
  return result;
}

}  // namespace tokenmagic::core
