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
    std::span<const chain::TokenId> tokens = mu.ModuleTokens(index);
    out.insert(out.end(), tokens.begin(), tokens.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace tokenmagic::core
