#include "core/eligibility.h"

#include <algorithm>

namespace tokenmagic::core {

chain::DiversityRequirement EffectiveRequirement(
    const chain::DiversityRequirement& requirement) {
  chain::DiversityRequirement effective = requirement;
  effective.ell += 1;
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

}  // namespace tokenmagic::core
