// Shared machinery for the module-based selectors (Progressive, Game-
// theoretic, Smallest, Random): the per-selection state over the seal's
// shared module index and the phase-1 greedy that reaches ℓ distinct HTs.
//
// The modules and every module's (HT, token count) pairs live in the
// seal's module index (core/modules.h, ModuleIndexOf), built once per
// sealed snapshot; HT ids are the context's own HT locals. A selection
// validates its input against the snapshot in O(|T|) and then keeps only
// its own choice: the chosen and remaining modules and integer per-HT
// token counts of the chosen ones. Choosing or unchoosing a module, a
// candidate's fresh-HT count and a candidate's diversity slack then cost
// O(distinct HTs of the module) or O(covered HTs), with no hashing.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "analysis/context.h"
#include "chain/types.h"
#include "common/status.h"
#include "core/modules.h"
#include "core/selector.h"

namespace tokenmagic::core {

/// Working state of a module-based selection.
struct ModuleSelectionState {
  /// The seal's module index, owned by the memo slot of the input's
  /// context (every stage and relaxation step of a selection reads it).
  const ModuleUniverse* mu = nullptr;
  // tm-borrows(caller): the input's snapshot context, which outlives the
  // selection and names the external HT of each HT local.
  const analysis::AnalysisContext* context = nullptr;
  /// Module containing the target token (always chosen).
  size_t target_module = 0;
  /// Chosen module indices (includes target_module).
  std::vector<size_t> chosen;
  /// Remaining selectable module indices.
  std::vector<size_t> remaining;
  /// Current candidate size in tokens.
  size_t token_size = 0;
  /// Tokens of each context HT local among the chosen modules.
  std::vector<uint32_t> ht_count;
  /// HTs with a non-zero ht_count.
  size_t covered_ht_count = 0;

  /// The (HT local, token count) pairs of module `module_index`.
  std::span<const HtTokens> HtsOf(size_t module_index) const {
    return mu->HtsOf(module_index);
  }

  /// External HT of HT local `ht`.
  chain::TxId ht_id(uint32_t ht) const { return context->ht_id(ht); }
};

/// Builds the initial state from an instance: checks that the universe
/// and history are exactly the context's token column and RSs
/// (CheckSnapshotShape), fetches the seal's module index (building it on
/// the seal's first selection) and seeds the target's module. A shape
/// mismatch, a history outside the first practical configuration and a
/// universe token without an HT are InvalidArgument.
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
  /// Position in `sorted` of each HT local; kNoSlot when uncovered.
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
