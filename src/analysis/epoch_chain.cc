#include "analysis/epoch_chain.h"

#include <algorithm>
#include <cstring>

#include "common/macros.h"

namespace tokenmagic::analysis {

namespace internal {

void RsTailTable::EnsureTokens(size_t count) {
  if (count > token_cap_) {
    size_t cap = token_cap_ < 8 ? 16 : token_cap_ * 2;
    while (cap < count) cap *= 2;
    // Value-initialized atomics (nullptr), then the surviving pointers.
    auto fresh = std::make_unique<std::atomic<const Local*>[]>(cap);
    for (size_t i = 0; i < len_.size(); ++i) {
      // Readers keep using the old generation, whose slots the release
      // store in Push already ordered — this copy is writer-only.
      // tm-atomic(writer-only generation copy)
      fresh[i].store(slots_[i].load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    }
    slots_ = fresh.get();
    token_cap_ = cap;
    table_gens_.push_back(std::move(fresh));
  }
  len_.resize(count, 0);
  cap_.resize(count, 0);
  current_.resize(count);
}

void RsTailTable::Push(Local token, Local rs) {
  uint32_t len = len_[token];
  if (len + 1 >= cap_[token]) {
    // Keep >= 1 trailing kNoLocal sentinel after this write so sealed
    // readers' scans always terminate inside the buffer.
    uint32_t cap = cap_[token] == 0 ? 4 : cap_[token] * 2;
    auto fresh = std::make_unique<Local[]>(cap);
    std::memset(fresh.get(), 0xFF, cap * sizeof(Local));
    for (uint32_t i = 0; i < len; ++i) fresh[i] = current_[token][i];
    // Publish before first use; release pairs with readers' acquire load
    // so they see the sentinel fill and the copied prefix.
    // tm-publishes(rs_tail_slot)
    slots_[token].store(fresh.get(), std::memory_order_release);
    if (current_[token] != nullptr) {
      retired_.push_back(std::move(current_[token]));
    }
    current_[token] = std::move(fresh);
    cap_[token] = cap;
  }
  // A sealed reader may be scanning this very slot (it sees kNoLocal or
  // `rs`, both >= its sealed RS count, so either value stops its scan);
  // cross with an atomic to keep the race benign and TSan-clean.
  // tm-atomic(benign boundary-slot race; both observable values stop the scan)
  std::atomic_ref<Local>(current_[token][len])
      .store(rs, std::memory_order_relaxed);
  len_[token] = len + 1;
}

}  // namespace internal

EpochChain::EpochChain()
    : core_(std::make_shared<EpochCore>()),
      memo_(std::make_shared<SealMemo>()) {
  core_->member_offsets.Append(0);
}

void EpochChain::Append(std::span<const chain::RsView> views,
                        const chain::HtIndex* index,
                        std::span<const chain::TokenId> new_tokens) {
  EpochCore& core = *core_;

  // Token column extension: ascending, strictly past every interned token,
  // so Local == rank stays true without re-sorting.
  chain::TokenId last_token =
      core.token_ids.size() == 0
          ? 0
          : core.token_ids.data()[core.token_ids.size() - 1] + 1;
  for (chain::TokenId t : new_tokens) {
    TM_CHECK(core.token_ids.size() == 0 || t >= last_token);
    last_token = t + 1;
    core.token_ids.Append(t);
    // HT column tail: first-appearance interning over the ascending token
    // column.
    Local ht = AnalysisContext::kNoLocal;
    if (index != nullptr) {
      if (auto tx = index->TryHtOf(t); tx.has_value()) {
        auto [it, inserted] = ht_local_.emplace(
            *tx, static_cast<Local>(core.ht_ids.size()));
        if (inserted) core.ht_ids.Append(*tx);
        ht = it->second;
      }
    }
    core.token_ht.Append(ht);
  }
  TM_CHECK(core.token_ids.size() < AnalysisContext::kNoLocal);
  core.tails.EnsureTokens(core.token_ids.size());

  // RS column extension in append order (== ledger order on every
  // producer path, so ids ascend and LocalOfRs can binary-search).
  for (const chain::RsView& view : views) {
    TM_CHECK(core.rs_ids.size() == 0 ||
             view.id > core.rs_ids.data()[core.rs_ids.size() - 1]);
    Local r = static_cast<Local>(core.rs_ids.size());
    TM_CHECK(r < AnalysisContext::kNoLocal);
    core.rs_ids.Append(view.id);
    core.proposed_at.Append(view.proposed_at);
    core.requirement.Append(view.requirement);
    core.history.Append(view);
    for (chain::TokenId t : view.members) {
      const chain::TokenId* begin = core.token_ids.data();
      const chain::TokenId* end = begin + core.token_ids.size();
      const chain::TokenId* it = std::lower_bound(begin, end, t);
      TM_CHECK(it != end && *it == t);
      Local local = static_cast<Local>(it - begin);
      core.member_tokens.Append(local);
      core.tails.Push(local, r);
    }
    core.member_offsets.Append(
        static_cast<uint32_t>(core.member_tokens.size()));
  }

  // A new seal: views from here on share a fresh, unbuilt memo slot.
  memo_ = std::make_shared<SealMemo>();

  EpochMeta meta;
  meta.token_end = core.token_ids.size();
  meta.rs_end = core.rs_ids.size();
  meta.edge_end = core.member_tokens.size();
  meta.ht_end = core.ht_ids.size();
  epochs_.push_back(meta);
}

AnalysisContext EpochChain::View() const {
  const EpochCore& core = *core_;
  AnalysisContext ctx;
  ctx.token_ids_ = core.token_ids.data();
  ctx.rs_ids_ = core.rs_ids.data();
  ctx.proposed_at_ = core.proposed_at.data();
  ctx.requirement_ = core.requirement.data();
  ctx.history_ = core.history.data();
  ctx.member_offsets_ = core.member_offsets.data();
  ctx.member_tokens_ = core.member_tokens.data();
  ctx.rs_tails_ = core.tails.slots();
  ctx.token_ht_ = core.token_ht.data();
  ctx.ht_ids_ = core.ht_ids.data();
  ctx.token_count_ = core.token_ids.size();
  ctx.rs_count_ = core.rs_ids.size();
  ctx.ht_count_ = core.ht_ids.size();
  ctx.storage_ = core_;
  ctx.memo_ = memo_;
  return ctx;
}

std::span<const chain::RsView> EpochChain::History() const {
  return {core_->history.data(), core_->history.size()};
}

size_t EpochChain::rs_count() const { return core_->rs_ids.size(); }

size_t EpochChain::token_count() const { return core_->token_ids.size(); }

}  // namespace tokenmagic::analysis
