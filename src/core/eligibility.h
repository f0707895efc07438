// Eligibility of a candidate ring signature under the DA-MS constraints
// (Definition 5) in their practical-configuration form (Section 6.1).
//
// Selection runs one rule: the candidate ring must satisfy (c, ℓ+1), the
// second practical configuration ("strict DTRS" form). Under the first
// practical configuration (rings are unions of whole modules) that one
// test suffices: by Theorem 6.4 every ψ-set DTRS of the ring is then
// (c, ℓ)-diverse whatever its subset count, and every covered history RS
// that meets its own (c_r, ℓ_r+1) keeps its DTRSs diverse under the new
// super RS. So neither the explicit DTRS test nor the immutability
// re-check is run; tests/integration/properties_test.cc checks both
// after selection. The module selectors decide the rule from the chosen
// HT counts (ChosenEligible in core/module_greedy.h), with no ring built.
#pragma once

#include <vector>

#include "chain/types.h"
#include "core/modules.h"

namespace tokenmagic::core {

/// The requirement the RS-level diversity test applies: (c, ℓ+1).
chain::DiversityRequirement EffectiveRequirement(
    const chain::DiversityRequirement& requirement);

/// Union of the chosen modules' tokens, sorted ascending.
std::vector<chain::TokenId> MaterializeCandidate(
    const ModuleUniverse& mu, const std::vector<size_t>& chosen_modules);

}  // namespace tokenmagic::core
