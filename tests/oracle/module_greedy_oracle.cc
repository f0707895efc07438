#include "oracle/module_greedy_oracle.h"

#include <unordered_set>

#include "analysis/diversity.h"

namespace tokenmagic::oracle {

namespace {

/// The chosen modules' tokens, concatenated (modules are disjoint).
std::vector<chain::TokenId> Members(const core::ModuleUniverse& mu,
                                    const std::vector<size_t>& chosen) {
  std::vector<chain::TokenId> members;
  for (size_t i : chosen) {
    std::span<const chain::TokenId> tokens = mu.module(i).tokens;
    members.insert(members.end(), tokens.begin(), tokens.end());
  }
  return members;
}

}  // namespace

double SlackOf(const core::ModuleUniverse& mu,
               const std::vector<size_t>& chosen,
               const chain::HtIndex& index,
               const chain::DiversityRequirement& req) {
  return analysis::DiversitySlack(
      analysis::HtFrequencies(Members(mu, chosen), index), req);
}

size_t FreshHtCount(const core::ModuleUniverse& mu,
                    const std::vector<size_t>& chosen, size_t candidate,
                    const chain::HtIndex& index) {
  std::unordered_set<chain::TxId> covered;
  for (chain::TokenId t : Members(mu, chosen)) covered.insert(index.HtOf(t));
  std::unordered_set<chain::TxId> fresh;
  for (chain::TokenId t : mu.module(candidate).tokens) {
    chain::TxId ht = index.HtOf(t);
    if (covered.count(ht) == 0) fresh.insert(ht);
  }
  return fresh.size();
}

std::map<chain::TxId, int64_t> HtCounts(const core::ModuleUniverse& mu,
                                        const std::vector<size_t>& chosen,
                                        const chain::HtIndex& index) {
  std::map<chain::TxId, int64_t> counts;
  for (chain::TokenId t : Members(mu, chosen)) ++counts[index.HtOf(t)];
  return counts;
}

}  // namespace tokenmagic::oracle
