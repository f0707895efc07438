#include "analysis/context.h"

#include <algorithm>
#include <vector>

#include "analysis/epoch_chain.h"

namespace tokenmagic::analysis {

AnalysisContext AnalysisContext::Build(
    std::span<const chain::RsView> history, const chain::HtIndex* index,
    std::span<const chain::TokenId> universe) {
  // One epoch's token column: every token seen in the universe or the
  // history, sorted and unique, so Local == rank.
  std::vector<chain::TokenId> tokens(universe.begin(), universe.end());
  for (const chain::RsView& view : history) {
    tokens.insert(tokens.end(), view.members.begin(), view.members.end());
  }
  std::sort(tokens.begin(), tokens.end());
  tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());

  EpochChain chain;
  chain.Append(history, index, tokens);
  return chain.View();
}

std::shared_ptr<const void> SealMemo::GetOrBuild(
    Builder build, const AnalysisContext& view) const {
  std::call_once(once_, [&] {
    value_ = build(view);
    // tm-publishes(seal_memo_value)
    built_.store(true, std::memory_order_release);
  });
  return value_;
}

bool SealMemo::built() const {
  // tm-consumes(seal_memo_value)
  return built_.load(std::memory_order_acquire);
}

AnalysisContext::Local AnalysisContext::LocalOfToken(
    chain::TokenId id) const {
  // Local == rank in the sorted token column.
  const chain::TokenId* end = token_ids_ + token_count_;
  const chain::TokenId* it = std::lower_bound(token_ids_, end, id);
  if (it == end || *it != id) return kNoLocal;
  return static_cast<Local>(it - token_ids_);
}

AnalysisContext::Local AnalysisContext::LocalOfRs(chain::RsId id) const {
  // The epoch chain enforces ascending RS ids, so the RS column doubles
  // as its own index.
  const chain::RsId* end = rs_ids_ + rs_count_;
  const chain::RsId* it = std::lower_bound(rs_ids_, end, id);
  if (it == end || *it != id) return kNoLocal;
  return static_cast<Local>(it - rs_ids_);
}

std::span<const AnalysisContext::Local> AnalysisContext::RsOfToken(
    Local token) const {
  // tm-consumes(rs_tail_slot)
  const Local* buf = rs_tails_[token].load(std::memory_order_acquire);
  if (buf == nullptr) return {};
  // The buffer holds this token's RS locals ascending, kNoLocal-filled
  // past the written prefix (with >= 1 trailing sentinel maintained by the
  // writer). Everything < rs_count_ was appended before this view sealed;
  // slots at or past the prefix can concurrently flip kNoLocal -> rs with
  // rs >= rs_count_, and both values stop the scan, so a relaxed atomic
  // read per candidate slot suffices (the returned span then covers only
  // pre-seal slots, which are plain immutable data).
  const Local limit = static_cast<Local>(rs_count_);
  size_t len = 0;
  // tm-atomic(benign boundary-slot race; see the scan contract above)
  while (std::atomic_ref<Local>(const_cast<Local&>(buf[len]))
             .load(std::memory_order_relaxed) < limit) {
    ++len;
  }
  return {buf, len};
}

bool AnalysisContext::RsContains(Local rs, Local token) const {
  std::span<const Local> list = RsOfToken(token);
  return std::binary_search(list.begin(), list.end(), rs);
}

chain::RsView AnalysisContext::ViewOf(Local rs) const {
  chain::RsView view;
  view.id = rs_ids_[rs];
  view.proposed_at = proposed_at_[rs];
  view.requirement = requirement_[rs];
  std::span<const Local> members = Members(rs);
  view.members.reserve(members.size());
  for (Local t : members) view.members.push_back(token_ids_[t]);
  return view;
}

}  // namespace tokenmagic::analysis
