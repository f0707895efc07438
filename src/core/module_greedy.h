// Shared machinery for the module-based selectors (Progressive, Game-
// theoretic, Smallest, Random): building the module decomposition for an
// instance and the phase-1 greedy that reaches ℓ distinct HTs.
//
// The state resolves every universe token's HT once, into dense HT ids
// over the universe's distinct HTs, and keeps integer per-HT token counts
// of the chosen modules. Choosing or unchoosing a module, a candidate's
// fresh-HT count and a candidate's diversity slack then cost O(distinct
// HTs of the module) or O(covered HTs), with no hashing.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "chain/types.h"
#include "common/status.h"
#include "core/modules.h"
#include "core/selector.h"

namespace tokenmagic::core {

/// One module's tokens of one HT: (dense HT id, token count).
struct HtTokens {
  uint32_t ht = 0;
  uint32_t tokens = 0;
};

/// Working state of a module-based selection.
struct ModuleSelectionState {
  ModuleUniverse mu;
  /// Module containing the target token (always chosen).
  size_t target_module = 0;
  /// Chosen module indices (includes target_module).
  std::vector<size_t> chosen;
  /// Remaining selectable module indices.
  std::vector<size_t> remaining;
  /// Current candidate size in tokens.
  size_t token_size = 0;
  /// External HT of each dense HT id (first appearance in module order).
  std::vector<chain::TxId> ht_ids;
  /// Module m's HT multiset is module_hts[module_ht_offsets[m] ..
  /// module_ht_offsets[m + 1]), ascending by dense HT id.
  std::vector<uint32_t> module_ht_offsets;
  std::vector<HtTokens> module_hts;
  /// Tokens of each dense HT among the chosen modules.
  std::vector<uint32_t> ht_count;
  /// Dense HTs with a non-zero ht_count.
  size_t covered_ht_count = 0;

  /// The (dense HT, token count) pairs of module `module_index`.
  std::span<const HtTokens> HtsOf(size_t module_index) const {
    return {module_hts.data() + module_ht_offsets[module_index],
            module_ht_offsets[module_index + 1] -
                module_ht_offsets[module_index]};
  }
};

/// Builds the initial state from an instance (validates the universe /
/// history, resolves every universe token's HT, and locates the target's
/// module). A universe token the index does not know is InvalidArgument.
[[nodiscard]] common::Result<ModuleSelectionState> InitModuleState(
    const SelectionInput& input);

/// Adds module `module_index` to the state (moves it out of `remaining`).
void ChooseModule(ModuleSelectionState* state, size_t module_index);

/// Removes module `module_index` from `chosen` (back into `remaining`).
void UnchooseModule(ModuleSelectionState* state, size_t module_index);

/// Distinct HTs of module `module_index` that no chosen module covers.
size_t FreshHtCount(const ModuleSelectionState& state, size_t module_index);

/// Phase 1 of Algorithms 4 and 5: greedily add the module minimizing
///   α_i = |x_i| / min(ℓ - |H|, |H_i \ H|)
/// until at least `ell` distinct HTs are covered. Returns the number of
/// greedy steps, Unsatisfiable when the universe cannot reach ℓ HTs, or
/// Timeout when `deadline` (optional) expires.
[[nodiscard]] common::Result<size_t> GreedyCoverHts(
    ModuleSelectionState* state, int ell,
    common::Deadline* deadline = nullptr);

/// The chosen ring's HT frequency vector, taken once per phase-2 step of
/// Algorithm 4, from which the slack of the ring plus any one candidate
/// follows without touching the other modules.
struct ChosenFrequencies {
  /// Token counts of the covered HTs, sorted descending (q_1 >= ...).
  std::vector<int64_t> sorted;
  /// Position in `sorted` of each dense HT; kNoSlot when uncovered.
  std::vector<uint32_t> slot;
  static constexpr uint32_t kNoSlot = 0xFFFFFFFFu;
};

/// The frequency vector of the chosen modules of `state`.
ChosenFrequencies ChosenFrequenciesOf(const ModuleSelectionState& state);

/// δ_i: the diversity slack of the chosen ring plus a candidate module
/// with HT pairs `candidate`. Feeds DiversitySlack the same descending
/// integer vector the materialized ring would give, so the double is
/// bit-identical. `scratch` is reused across calls.
double SlackWith(const ChosenFrequencies& chosen,
                 std::span<const HtTokens> candidate,
                 const chain::DiversityRequirement& req,
                 std::vector<int64_t>* scratch);

}  // namespace tokenmagic::core
