#include "core/eligibility.h"

#include <algorithm>

#include "analysis/dtrs.h"
#include "common/macros.h"

namespace tokenmagic::core {

chain::DiversityRequirement EffectiveRequirement(
    const chain::DiversityRequirement& requirement,
    const EligibilityPolicy& policy) {
  chain::DiversityRequirement effective = requirement;
  if (policy.strict_dtrs) effective.ell += 1;
  return effective;
}

std::vector<chain::TokenId> MaterializeCandidate(
    const ModuleUniverse& mu, const std::vector<size_t>& chosen_modules) {
  std::vector<chain::TokenId> out;
  for (size_t index : chosen_modules) {
    Module module = mu.module(index);
    out.insert(out.end(), module.tokens.begin(), module.tokens.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

size_t CandidateSubsetCount(const ModuleUniverse& mu,
                            const std::vector<size_t>& chosen_modules) {
  size_t count = 1;  // the candidate itself
  for (size_t index : chosen_modules) {
    count += mu.SubsetRsOf(index).size();
  }
  return count;
}

EligibilityVerdict CheckCandidate(
    const ModuleUniverse& mu, const std::vector<size_t>& chosen_modules,
    std::span<const chain::RsView> history, const chain::HtIndex& index,
    const chain::DiversityRequirement& requirement,
    const EligibilityPolicy& policy) {
  EligibilityVerdict verdict;

  std::vector<chain::TokenId> members =
      MaterializeCandidate(mu, chosen_modules);
  chain::DiversityRequirement effective =
      EffectiveRequirement(requirement, policy);

  if (!analysis::SatisfiesRecursiveDiversity(members, index, effective)) {
    verdict.violation = EligibilityVerdict::Violation::kDiversity;
    return verdict;
  }

  size_t v_candidate = CandidateSubsetCount(mu, chosen_modules);

  if (policy.check_dtrs_explicitly) {
    if (!analysis::PracticalDtrsDiversityHolds(members, v_candidate, index,
                                               requirement)) {
      verdict.violation = EligibilityVerdict::Violation::kDtrsDiversity;
      return verdict;
    }
  }

  if (policy.check_immutability) {
    // Every history RS inside a chosen super module gets the candidate as
    // its new super RS, whose subset count is v_candidate. History ids are
    // strictly ascending (the snapshot precondition), so a binary search
    // finds each covered RS.
    for (size_t module_index : chosen_modules) {
      for (chain::RsId rs : mu.SubsetRsOf(module_index)) {
        auto it = std::lower_bound(
            history.begin(), history.end(), rs,
            [](const chain::RsView& view, chain::RsId id) {
              return view.id < id;
            });
        TM_CHECK(it != history.end() && it->id == rs);
        const chain::RsView& covered = *it;
        if (!analysis::PracticalDtrsDiversityHolds(
                covered.members, v_candidate, index, covered.requirement)) {
          verdict.violation = EligibilityVerdict::Violation::kImmutability;
          return verdict;
        }
      }
    }
  }

  verdict.eligible = true;
  return verdict;
}

}  // namespace tokenmagic::core
