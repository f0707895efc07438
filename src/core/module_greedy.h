// Shared machinery for the module-based selectors (Progressive, Game-
// theoretic, Smallest, Random): the per-selection state over the seal's
// shared module index, the phase-1 greedy that reaches ℓ distinct HTs,
// the phase-2 pick of Algorithm 4, and the eligibility verdict taken from
// the chosen HT counts.
//
// The modules and every module's (HT, token count) pairs live in the
// seal's module index (core/modules.h, ModuleIndexOf), built once per
// sealed snapshot; HT ids are the context's own HT locals. A selection
// validates its input against the snapshot in O(|T|) and then keeps only
// its own choice: the chosen and remaining modules, integer per-HT token
// counts of the chosen ones and the list of HTs they cover. Choosing a
// module costs O(distinct HTs of the module) and unchoosing one
// O(distinct HTs × covered HTs), with no hashing. A ring's eligibility is
// the diversity slack of those counts at (c, ℓ+1) (ChosenEligible),
// O(covered HTs), with no ring built.
//
// Phase 1 keeps every module's fresh-HT count current (FreshHtCounts),
// so its α scan reads one integer per candidate, and stops at the first
// candidate with α == 1, the least α any module can have. Phase 2
// derives a candidate's diversity slack from the two integers it depends
// on, q_1 and the tail sum, by merging the candidate's k bumped or new
// entries with the shorter end of the chosen frequency vector:
// O(k² + min(ℓ - 1, θ - ℓ + 1)) for a module of k distinct HTs, with no
// copy of the vector. When the slack arithmetic is exact
// (analysis::SlackIsExact) every β is at most c, and the scan stops at
// the first candidate with β == c. Either stop returns the module the
// full strict-comparison scan returns.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "chain/types.h"
#include "common/status.h"
#include "core/eligibility.h"
#include "core/modules.h"
#include "core/selector.h"

namespace tokenmagic::core {

/// Working state of a module-based selection.
struct ModuleSelectionState {
  /// The seal's module index, owned by the memo slot of the input's
  /// context (every stage and relaxation step of a selection reads it).
  const ModuleUniverse* mu = nullptr;
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
  /// The HT locals with a non-zero ht_count, in no particular order.
  std::vector<uint32_t> covered_hts;

  /// The (HT local, token count) pairs of module `module_index`.
  std::span<const HtTokens> HtsOf(size_t module_index) const {
    return mu->HtsOf(module_index);
  }
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

/// The fresh-HT count of every module (its distinct HTs that no chosen
/// module covers) against one state, kept current while modules are
/// chosen through Choose: covering an HT decrements the count of each
/// module that holds it (ModuleUniverse::ModulesOfHt).
class FreshHtCounts {
 public:
  /// The counts against the state's chosen modules, in O(modules +
  /// modules of the covered HTs).
  explicit FreshHtCounts(const ModuleSelectionState& state);

  size_t count(size_t module_index) const { return fresh_[module_index]; }

  /// ChooseModule(state, module_index), with the counts following.
  void Choose(ModuleSelectionState* state, size_t module_index);

 private:
  std::vector<uint32_t> fresh_;
};

/// True when the chosen modules of `state` form an eligible ring for
/// `input`: the diversity slack of the chosen HT counts at
/// EffectiveRequirement(input.requirement) is negative. O(covered HTs),
/// with no ring built.
bool ChosenEligible(const ModuleSelectionState& state,
                    const SelectionInput& input);

/// One greedy step's pick: a module of `remaining`, or kNoModule when no
/// candidate qualifies. `at_bound` is true when the scan stopped early, at
/// a candidate whose score reached the best any candidate can have.
struct GreedyPick {
  static constexpr size_t kNoModule = static_cast<size_t>(-1);
  size_t module = kNoModule;
  bool at_bound = false;
};

/// One step of phase 1: the remaining module minimizing
///   α_i = |x_i| / min(deficit, |H_i \ H|)
/// (the first on ties), skipping modules with no fresh HT. A module has at
/// least one token per distinct HT, so α_i >= 1, and the scan stops at the
/// first candidate with α_i == 1.
GreedyPick PickCoverModule(const ModuleSelectionState& state,
                           const FreshHtCounts& fresh, size_t deficit);

/// Phase 1 of Algorithms 4 and 5: greedily add the PickCoverModule module
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
  /// Sum of `sorted`: the chosen ring's token count.
  int64_t total = 0;
  static constexpr uint32_t kNoSlot = 0xFFFFFFFFu;
};

/// The frequency vector of the chosen modules of `state`.
ChosenFrequencies ChosenFrequenciesOf(const ModuleSelectionState& state);

/// Buffers SlackWith reuses across calls.
struct SlackScratch {
  /// The candidate's bumped and new entries, descending.
  std::vector<int64_t> values;
  /// Per slot of `sorted`: `stamp` when the current candidate bumps it.
  std::vector<uint32_t> marks;
  uint32_t stamp = 0;
};

/// δ_i: the diversity slack of the chosen ring plus a candidate module
/// with HT pairs `candidate`. The candidate's entries (bumped covered HTs
/// and new ones) are merged with the unbumped entries of `chosen.sorted`,
/// walking from whichever end is shorter, the ℓ - 1 largest or the rest,
/// to get q_1 and the tail sum. Those are the integers the materialized
/// ring's vector gives, so DiversitySlack(q_1, tail, req) returns the same
/// double bit for bit.
double SlackWith(const ChosenFrequencies& chosen,
                 std::span<const HtTokens> candidate,
                 const chain::DiversityRequirement& req,
                 SlackScratch* scratch);

/// One step of phase 2 of Algorithm 4: the remaining module maximizing
///   β_i = (δ - δ_i) / |x_i|
/// (the first on ties), where `delta` is DiversitySlack of `chosen` at
/// `req` and δ_i comes from SlackWith. Adding x_i raises q_1 or keeps it
/// and adds at most |x_i| to the tail, so δ_i >= δ - c|x_i| and β_i <= c.
/// When analysis::SlackIsExact(c, token count of the universe) holds the
/// computed β_i keep that bound, and the scan stops at the first candidate
/// with β_i == c; otherwise every candidate is scanned.
GreedyPick PickSlackModule(const ModuleSelectionState& state,
                           const ChosenFrequencies& chosen, double delta,
                           const chain::DiversityRequirement& req,
                           SlackScratch* scratch);

}  // namespace tokenmagic::core
