#include "oracle/module_greedy_oracle.h"

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "analysis/diversity.h"

namespace tokenmagic::oracle {

namespace {

/// The chosen modules' tokens, concatenated (modules are disjoint).
std::vector<chain::TokenId> Members(const core::ModuleUniverse& mu,
                                    const std::vector<size_t>& chosen) {
  std::vector<chain::TokenId> members;
  for (size_t i : chosen) {
    std::span<const chain::TokenId> tokens = mu.ModuleTokens(i);
    members.insert(members.end(), tokens.begin(), tokens.end());
  }
  return members;
}

}  // namespace

bool CheckCandidate(const core::ModuleUniverse& mu,
                    const std::vector<size_t>& chosen,
                    const chain::HtIndex& index,
                    const chain::DiversityRequirement& req) {
  return analysis::SatisfiesRecursiveDiversity(
      core::MaterializeCandidate(mu, chosen), index,
      core::EffectiveRequirement(req));
}

double SlackOf(const core::ModuleUniverse& mu,
               const std::vector<size_t>& chosen,
               const chain::HtIndex& index,
               const chain::DiversityRequirement& req) {
  return analysis::DiversitySlack(
      analysis::HtFrequencies(Members(mu, chosen), index), req);
}

double SlackWith(const core::ChosenFrequencies& chosen,
                 std::span<const core::HtTokens> candidate,
                 const chain::DiversityRequirement& req) {
  std::vector<int64_t> q(chosen.sorted.begin(), chosen.sorted.end());
  for (core::HtTokens pair : candidate) {
    uint32_t slot = chosen.slot[pair.ht];
    if (slot == core::ChosenFrequencies::kNoSlot) {
      q.push_back(pair.tokens);
    } else {
      q[slot] += pair.tokens;
    }
  }
  // Only the bumped and appended entries are out of place, so an
  // insertion pass restores descending order in O(θ + displacement).
  for (size_t i = 1; i < q.size(); ++i) {
    int64_t value = q[i];
    size_t j = i;
    for (; j > 0 && q[j - 1] < value; --j) q[j] = q[j - 1];
    q[j] = value;
  }
  return analysis::DiversitySlack(q, req);
}

size_t FreshHtCount(const core::ModuleUniverse& mu,
                    const std::vector<size_t>& chosen, size_t candidate,
                    const chain::HtIndex& index) {
  std::unordered_set<chain::TxId> covered;
  for (chain::TokenId t : Members(mu, chosen)) covered.insert(index.HtOf(t));
  std::unordered_set<chain::TxId> fresh;
  for (chain::TokenId t : mu.ModuleTokens(candidate)) {
    chain::TxId ht = index.HtOf(t);
    if (covered.count(ht) == 0) fresh.insert(ht);
  }
  return fresh.size();
}

size_t PickCoverModule(const core::ModuleSelectionState& state,
                       const core::FreshHtCounts& fresh, size_t deficit) {
  double best_alpha = std::numeric_limits<double>::infinity();
  size_t best = core::GreedyPick::kNoModule;
  for (size_t candidate : state.remaining) {
    size_t new_hts = fresh.count(candidate);
    if (new_hts == 0) continue;
    double alpha = static_cast<double>(state.mu->ModuleSize(candidate)) /
                   static_cast<double>(std::min(deficit, new_hts));
    if (alpha < best_alpha) {
      best_alpha = alpha;
      best = candidate;
    }
  }
  return best;
}

size_t PickSlackModule(const core::ModuleSelectionState& state,
                       const core::ChosenFrequencies& chosen, double delta,
                       const chain::DiversityRequirement& req) {
  double best_beta = -std::numeric_limits<double>::infinity();
  size_t best = core::GreedyPick::kNoModule;
  for (size_t candidate : state.remaining) {
    double delta_i = SlackWith(chosen, state.HtsOf(candidate), req);
    double beta = (delta - delta_i) /
                  static_cast<double>(state.mu->ModuleSize(candidate));
    if (beta > best_beta) {
      best_beta = beta;
      best = candidate;
    }
  }
  return best;
}

std::map<chain::TxId, int64_t> HtCounts(const core::ModuleUniverse& mu,
                                        const std::vector<size_t>& chosen,
                                        const chain::HtIndex& index) {
  std::map<chain::TxId, int64_t> counts;
  for (chain::TokenId t : Members(mu, chosen)) ++counts[index.HtOf(t)];
  return counts;
}

}  // namespace tokenmagic::oracle
