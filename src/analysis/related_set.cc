#include "analysis/related_set.h"

#include <deque>
#include <utility>

namespace tokenmagic::analysis {

std::vector<chain::RsId> RelatedSetResult::Ids() const {
  std::vector<chain::RsId> out;
  out.reserve(related.size());
  for (const RelatedRs& r : related) out.push_back(r.id);
  return out;
}

std::vector<chain::RsId> RelatedSetResult::IdsAtLevel(size_t level) const {
  std::vector<chain::RsId> out;
  for (const RelatedRs& r : related) {
    if (r.level == level) out.push_back(r.id);
  }
  return out;
}

RelatedSetResult ComputeRelatedSet(
    std::span<const chain::TokenId> target_tokens,
    const AnalysisContext& context) {
  // Per token the RS list is ascending (== history order) and Members(rs)
  // iterates in ascending token order, so the emission order is a pure
  // function of the history.
  using Local = AnalysisContext::Local;
  RelatedSetResult result;
  std::vector<bool> visited(context.rs_count(), false);
  std::deque<std::pair<Local, size_t>> frontier;  // (rs local, level)

  auto enqueue_for_token = [&](Local token, size_t level) {
    for (Local rs : context.RsOfToken(token)) {
      if (!visited[rs]) {
        visited[rs] = true;
        frontier.emplace_back(rs, level);
      }
    }
  };

  for (chain::TokenId t : target_tokens) {
    Local local = context.LocalOfToken(t);
    if (local != AnalysisContext::kNoLocal) enqueue_for_token(local, 0);
  }
  while (!frontier.empty()) {
    auto [rs, level] = frontier.front();
    frontier.pop_front();
    result.related.push_back(RelatedRs{context.rs_id(rs), level});
    for (Local t : context.Members(rs)) enqueue_for_token(t, level + 1);
  }
  return result;
}

}  // namespace tokenmagic::analysis
