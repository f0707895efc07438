// From-scratch references for the incremental module-greedy kernel
// (core/module_greedy.h), kept in tests/ only as oracles for the
// randomized equivalence suite.
//
// The selectors keep integer per-HT token counts of the chosen modules and
// derive each candidate's fresh-HT count, diversity slack and eligibility
// from them. The oracles below re-derive the same quantities the direct
// way on every call: materialize the ring, push every token through
// HtIndex::HtOf, and count in fresh hash containers. SlackWith keeps the
// kernel's former copy-and-sort δ_i as a second reference on the same
// ChosenFrequencies, and the Pick* functions keep the greedy steps'
// former full scans, which visit every remaining module however early
// the best one comes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "chain/ht_index.h"
#include "chain/types.h"
#include "core/module_greedy.h"
#include "core/modules.h"

namespace tokenmagic::oracle {

/// The selection rule built the long way: materialize the chosen modules'
/// ring (core::MaterializeCandidate) and test recursive diversity at
/// core::EffectiveRequirement(req), i.e. (c, ℓ+1), through the HtIndex.
/// The reference for core::ChosenEligible.
bool CheckCandidate(const core::ModuleUniverse& mu,
                    const std::vector<size_t>& chosen,
                    const chain::HtIndex& index,
                    const chain::DiversityRequirement& req);

/// Diversity slack of the chosen modules' token multiset:
/// HtFrequencies(members, index) then DiversitySlack.
double SlackOf(const core::ModuleUniverse& mu,
               const std::vector<size_t>& chosen,
               const chain::HtIndex& index,
               const chain::DiversityRequirement& req);

/// δ_i the way the kernel computed it before its (q_1, tail) walk: copy
/// the chosen frequency vector, bump or append the candidate's entries and
/// restore descending order with an insertion pass, then DiversitySlack.
double SlackWith(const core::ChosenFrequencies& chosen,
                 std::span<const core::HtTokens> candidate,
                 const chain::DiversityRequirement& req);

/// Distinct HTs of module `candidate` that no chosen module covers, from a
/// fresh covered-HT set and a fresh candidate-HT set.
size_t FreshHtCount(const core::ModuleUniverse& mu,
                    const std::vector<size_t>& chosen, size_t candidate,
                    const chain::HtIndex& index);

/// Tokens of module `candidate` on HTs that no chosen module covers.
size_t FreshTokenCount(const core::ModuleUniverse& mu,
                       const std::vector<size_t>& chosen, size_t candidate,
                       const chain::HtIndex& index);

/// Phase 1's full α scan: the remaining module with the least
/// |x_i| / min(deficit, fresh_i) (first on ties, fresh_i > 0), or
/// core::GreedyPick::kNoModule.
size_t PickCoverModule(const core::ModuleSelectionState& state,
                       const core::FreshHtCounts& fresh, size_t deficit);

/// Phase 2's full β scan: the remaining module with the largest
/// (delta - δ_i) / |x_i| (first on ties), δ_i from the copy-and-sort
/// SlackWith above, or core::GreedyPick::kNoModule.
size_t PickSlackModule(const core::ModuleSelectionState& state,
                       const core::ChosenFrequencies& chosen, double delta,
                       const chain::DiversityRequirement& req);

/// Tokens of each external HT among the chosen modules.
std::map<chain::TxId, int64_t> HtCounts(const core::ModuleUniverse& mu,
                                        const std::vector<size_t>& chosen,
                                        const chain::HtIndex& index);

}  // namespace tokenmagic::oracle
