// Eligibility of a candidate ring signature under the DA-MS constraints
// (Definition 5) in their practical-configuration form (Section 6.1).
//
// With both practical configurations active:
//  * the RS-level diversity check runs at (c, ℓ+1) ("strict DTRS" mode,
//    second practical configuration) so every DTRS satisfies (c, ℓ) by
//    Theorem 6.4, and
//  * the DTRS structure is the Theorem 6.1 ψ-set form, checkable in
//    polynomial time.
// The checker can also run the explicit Theorem-6.1 DTRS test and the
// immutability re-check of covered RSs, which is how the theorems are
// validated in the property tests.
#pragma once

#include <span>
#include <vector>

#include "analysis/diversity.h"
#include "chain/ht_index.h"
#include "chain/types.h"
#include "core/modules.h"

namespace tokenmagic::core {

/// Tunable checking policy.
struct EligibilityPolicy {
  /// Second practical configuration: test the RS itself at (c, ℓ+1).
  bool strict_dtrs = true;
  /// Explicitly test every Theorem-6.1 DTRS of the candidate at (c, ℓ).
  /// Redundant when strict_dtrs holds (Theorem 6.4) but kept for the
  /// non-strict mode and for validation.
  bool check_dtrs_explicitly = false;
  /// Re-check covered history RSs' DTRS diversity with the candidate as
  /// their new super RS (immutability constraint).
  bool check_immutability = false;
};

/// Verdict with the first violated constraint (for diagnostics).
struct EligibilityVerdict {
  bool eligible = false;
  enum class Violation {
    kNone,
    kDiversity,      ///< RS-level recursive diversity fails
    kDtrsDiversity,  ///< some ψ-set DTRS fails the requirement
    kImmutability,   ///< a covered RS's requirement would break
  } violation = Violation::kNone;
};

/// Checks a candidate assembled from `chosen_modules` of `mu`.
/// `history` is the same RS list `mu` was built from, ids strictly
/// ascending (for immutability).
EligibilityVerdict CheckCandidate(
    const ModuleUniverse& mu, const std::vector<size_t>& chosen_modules,
    std::span<const chain::RsView> history, const chain::HtIndex& index,
    const chain::DiversityRequirement& requirement,
    const EligibilityPolicy& policy);

/// The requirement actually applied to the RS-level diversity test:
/// (c, ℓ+1) under strict_dtrs, (c, ℓ) otherwise.
chain::DiversityRequirement EffectiveRequirement(
    const chain::DiversityRequirement& requirement,
    const EligibilityPolicy& policy);

/// Union of the chosen modules' tokens, sorted ascending.
std::vector<chain::TokenId> MaterializeCandidate(
    const ModuleUniverse& mu, const std::vector<size_t>& chosen_modules);

/// v_τ of the candidate once proposed: 1 (itself) plus the history RSs
/// contained in the chosen super-RS modules.
size_t CandidateSubsetCount(const ModuleUniverse& mu,
                            const std::vector<size_t>& chosen_modules);

}  // namespace tokenmagic::core
