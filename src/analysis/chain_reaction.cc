#include "analysis/chain_reaction.h"

#include <algorithm>

#include "analysis/matching.h"
#include "common/macros.h"

namespace tokenmagic::analysis {

bool AnalysisResult::NoTokenEliminated() const {
  for (const auto& [rs, tokens] : eliminated) {
    if (!tokens.empty()) return false;
  }
  return true;
}

namespace {

/// The context's history with side information applied, interned once:
/// a revealed RS keeps only its revealed token, and that token leaves
/// every other RS. TM_CHECKs that each revealed pair names a member of a
/// known RS and that no RS is revealed with two different tokens.
AnalysisContext ApplyForced(const AnalysisContext& context,
                            const SideInformation& si) {
  using Local = AnalysisContext::Local;
  std::vector<Local> pinned(context.rs_count(), AnalysisContext::kNoLocal);
  std::vector<bool> taken(context.token_count(), false);
  for (const chain::TokenRsPair& pair : si.revealed) {
    Local r = context.LocalOfRs(pair.rs);
    TM_CHECK(r != AnalysisContext::kNoLocal);
    Local t = context.LocalOfToken(pair.token);
    std::span<const Local> members = context.Members(r);
    TM_CHECK(std::binary_search(members.begin(), members.end(), t));
    TM_CHECK(pinned[r] == AnalysisContext::kNoLocal || pinned[r] == t);
    pinned[r] = t;
    taken[t] = true;
  }
  std::vector<chain::RsView> forced(context.rs_count());
  for (Local r = 0; r < context.rs_count(); ++r) {
    forced[r].id = context.rs_id(r);
    for (Local t : context.Members(r)) {
      bool kept = pinned[r] == AnalysisContext::kNoLocal ? !taken[t]
                                                          : pinned[r] == t;
      if (kept) forced[r].members.push_back(context.token_id(t));
    }
  }
  return AnalysisContext::Build(forced);
}

}  // namespace

AnalysisResult ChainReactionAnalyzer::Analyze(
    const AnalysisContext& context, const SideInformation& side_info) {
  AnalysisResult result;
  if (context.rs_count() == 0) return result;

  // The matching runs on the caller's context, or on one forced context
  // when side information shrinks the member lists. Both share RS locals.
  const AnalysisContext forced = side_info.revealed.empty()
                                     ? AnalysisContext()
                                     : ApplyForced(context, side_info);
  const AnalysisContext& matched =
      side_info.revealed.empty() ? context : forced;

  for (AnalysisContext::Local r = 0; r < context.rs_count(); ++r) {
    std::vector<chain::TokenId> possible;
    std::vector<chain::TokenId> eliminated;
    // Judge against the *original* member list so that tokens removed by
    // side information count as eliminated.
    for (AnalysisContext::Local t : context.Members(r)) {
      chain::TokenId token = context.token_id(t);
      AnalysisContext::Local local = matched.LocalOfToken(token);
      if (local != AnalysisContext::kNoLocal &&
          HopcroftKarp::IsPossibleSpend(matched, r, local)) {
        possible.push_back(token);
      } else {
        eliminated.push_back(token);
      }
    }
    chain::RsId rs_id = context.rs_id(r);
    if (possible.size() == 1) {
      result.revealed_spends.emplace(rs_id, possible.front());
    }
    result.eliminated.emplace(rs_id, std::move(eliminated));
    result.possible_spends.emplace(rs_id, std::move(possible));
  }

  // Spent-token closure (Theorem 4.1): the cascade over the same
  // context, then every revealed spend.
  AnalysisResult cascade = Cascade(context, side_info);
  result.spent_tokens = std::move(cascade.spent_tokens);
  for (const auto& [rs, token] : result.revealed_spends) {
    result.spent_tokens.insert(token);
  }
  return result;
}

namespace {

/// Dense cascade state over an AnalysisContext: the fixpoint of rule 1
/// (zero-mixin / singleton), rule 2 (per-token neighbor sets) and rule 3
/// (per connected component) over flat columns. The equivalence suite
/// pins it against a span-based reference fixpoint kept in tests/.
///
///  * rules 2 and 3 read only the immutable history incidence, so their
///    tight families are computed once instead of every iteration;
///  * a tight owner set is never materialized — it is either ns(u) (the
///    RSs containing anchor token u, membership = one binary search in the
///    CSR) or a union-find component (membership = root comparison);
///  * rule 1's shrinking member lists become a removed-bit per CSR slot.
class DenseCascade {
 public:
  using Local = AnalysisContext::Local;
  static constexpr Local kNone = AnalysisContext::kNoLocal;

  explicit DenseCascade(const AnalysisContext& ctx)
      : DenseCascade(ctx, {}, chain::kInvalidRs, false) {}

  /// Overlay form: the cascade runs over the context's history plus one
  /// prospective RS with the given sorted member locals, as if that RS had
  /// been interned as the last history entry.
  DenseCascade(const AnalysisContext& ctx, std::vector<Local> overlay,
               chain::RsId overlay_id)
      : DenseCascade(ctx, std::move(overlay), overlay_id, true) {}

 private:
  DenseCascade(const AnalysisContext& ctx, std::vector<Local> overlay,
               chain::RsId overlay_id, bool has_overlay)
      : ctx_(ctx),
        overlay_(std::move(overlay)),
        overlay_id_(overlay_id),
        has_overlay_(has_overlay),
        base_m_(static_cast<Local>(ctx.rs_count())),
        m_(base_m_ + (has_overlay ? 1 : 0)),
        n_(static_cast<Local>(ctx.token_count())),
        pinned_(m_),
        alive_(m_),
        rev_count_(n_, 0),
        rev_rs_(n_, kNone),
        spent_(n_, false),
        owner_kind_(n_, kOwnerNone),
        owner_key_(n_, kNone),
        owner_size_(n_, 0),
        stamp_(n_, 0),
        comp_of_(m_, 0) {
    if (has_overlay_) {
      // Per-token RS lists extended with the overlay local: the overlay is
      // the largest local, so appending preserves the ascending order the
      // binary searches rely on.
      ext_rs_.resize(overlay_.size());
      for (size_t k = 0; k < overlay_.size(); ++k) {
        std::span<const Local> base = ctx.RsOfToken(overlay_[k]);
        ext_rs_[k].assign(base.begin(), base.end());
        ext_rs_[k].push_back(base_m_);
      }
    }
    slot_offsets_.reserve(m_ + 1);
    slot_offsets_.push_back(0);
    for (Local i = 0; i < m_; ++i) {
      alive_[i] = static_cast<uint32_t>(MembersOf(i).size());
      slot_offsets_.push_back(slot_offsets_.back() + alive_[i]);
    }
    removed_.assign(slot_offsets_.back(), false);
  }

 public:
  AnalysisResult Run(const SideInformation& side_info) {
    SeedSideInfo(side_info);
    bool changed = Rule1Pass();
    changed = StaticTightFamilies() || changed;
    while (changed) changed = Rule1Pass();
    return Emit();
  }

 private:
  /// Member tokens of RS `i`, the overlay included as the last RS.
  std::span<const Local> MembersOf(Local i) const {
    return i < base_m_ ? ctx_.Members(i) : std::span<const Local>(overlay_);
  }

  /// RSs containing token `u`, the overlay included.
  std::span<const Local> RsOf(Local u) const {
    if (has_overlay_) {
      auto it = std::lower_bound(overlay_.begin(), overlay_.end(), u);
      if (it != overlay_.end() && *it == u) {
        return ext_rs_[static_cast<size_t>(it - overlay_.begin())];
      }
    }
    return ctx_.RsOfToken(u);
  }

  /// True when RS `i` contains token `u` (overlay-aware RsContains).
  bool Contains(Local i, Local u) const {
    std::span<const Local> list = RsOf(u);
    return std::binary_search(list.begin(), list.end(), i);
  }

  chain::RsId RsIdOf(Local i) const {
    return i < base_m_ ? ctx_.rs_id(i) : overlay_id_;
  }

  Local LocalOfRs(chain::RsId id) const {
    if (has_overlay_ && id == overlay_id_) return base_m_;
    return ctx_.LocalOfRs(id);
  }
  static constexpr uint8_t kOwnerNone = 0;
  /// Owner set is ns(owner_key_) — the RSs containing that anchor token.
  static constexpr uint8_t kOwnerNeighbor = 1;
  /// Owner set is the union-find component rooted at owner_key_.
  static constexpr uint8_t kOwnerComponent = 2;

  void SeedSideInfo(const SideInformation& side_info) {
    for (const chain::TokenRsPair& pair : side_info.revealed) {
      Local rs = LocalOfRs(pair.rs);
      if (rs == kNone) continue;  // unknown RS: pair carries no information
      Local token = ctx_.LocalOfToken(pair.token);
      if (!pinned_[rs].has_value()) {
        pinned_[rs] = pair.token;
        AddReveal(rs, token);
      }
      MarkSpent(token, pair.token);
    }
  }

  /// Records that `rs` revealed token local `token` (kNone when the token
  /// is not interned, i.e. side info about a token outside the history).
  void AddReveal(Local rs, Local token) {
    if (token == kNone) return;
    if (rev_count_[token] < 2) ++rev_count_[token];
    if (rev_rs_[token] == kNone) rev_rs_[token] = rs;
  }

  void MarkSpent(Local token, chain::TokenId external) {
    if (token != kNone) {
      spent_[token] = true;
    } else {
      extra_spent_.push_back(external);
    }
  }

  /// True when some RS other than `rs` revealed `token` as its spend.
  bool RevealedElsewhere(Local token, Local rs) const {
    return rev_count_[token] >= 2 ||
           (rev_count_[token] == 1 && rev_rs_[token] != rs);
  }

  /// True when `token` has a tight owner set that excludes `rs`.
  bool OwnedElsewhere(Local token, Local rs) const {
    switch (owner_kind_[token]) {
      case kOwnerNeighbor:
        return !Contains(rs, owner_key_[token]);
      case kOwnerComponent:
        return comp_of_[rs] != owner_key_[token];
      default:
        return false;
    }
  }

  /// Rule 1 (zero-mixin / singleton): after deleting tokens known to be
  /// spent elsewhere, an RS with a single remaining member spends it.
  bool Rule1Pass() {
    bool changed = false;
    for (Local i = 0; i < m_; ++i) {
      if (pinned_[i].has_value()) continue;
      std::span<const Local> members = MembersOf(i);
      for (uint32_t k = 0; k < members.size(); ++k) {
        uint32_t slot = slot_offsets_[i] + k;
        if (removed_[slot]) continue;
        Local t = members[k];
        if (RevealedElsewhere(t, i) || OwnedElsewhere(t, i)) {
          removed_[slot] = true;
          --alive_[i];
        }
      }
      if (alive_[i] == 1) {
        for (uint32_t k = 0; k < members.size(); ++k) {
          if (removed_[slot_offsets_[i] + k]) continue;
          Local t = members[k];
          pinned_[i] = ctx_.token_id(t);
          AddReveal(i, t);
          spent_[t] = true;
          break;
        }
        changed = true;
      }
    }
    return changed;
  }

  /// Offers a tight owner candidate for `token`; the smallest set wins
  /// (the tightest owner set gives the sharpest elimination).
  bool OfferOwner(Local token, uint8_t kind, Local key, uint32_t size) {
    if (owner_kind_[token] != kOwnerNone && owner_size_[token] <= size) {
      return false;
    }
    owner_kind_[token] = kind;
    owner_key_[token] = key;
    owner_size_[token] = size;
    return true;
  }

  /// Rules 2 and 3 read only the immutable incidence, so one evaluation
  /// fixes every tight family a per-iteration re-evaluation would find.
  bool StaticTightFamilies() {
    bool changed = false;
    std::vector<Local> union_tokens;

    auto mark_family = [&](std::span<const Local> rs_list, uint8_t kind,
                           Local key) {
      ++mark_;
      union_tokens.clear();
      for (Local i : rs_list) {
        for (Local t : MembersOf(i)) {
          if (stamp_[t] != mark_) {
            stamp_[t] = mark_;
            union_tokens.push_back(t);
          }
        }
      }
      if (union_tokens.size() != rs_list.size()) return;
      for (Local t : union_tokens) {
        if (!spent_[t]) {
          spent_[t] = true;
          changed = true;
        }
        if (OfferOwner(t, kind, key, static_cast<uint32_t>(rs_list.size()))) {
          changed = true;
        }
      }
    };

    // Rule 2 (per-token neighbor sets): ns(u) tight when its member union
    // has exactly |ns(u)| tokens.
    for (Local u = 0; u < n_; ++u) {
      std::span<const Local> rs_list = RsOf(u);
      if (!rs_list.empty()) mark_family(rs_list, kOwnerNeighbor, u);
    }

    // Rule 3 (per connected component of the token-sharing graph).
    std::vector<Local> parent(m_);
    for (Local i = 0; i < m_; ++i) parent[i] = i;
    auto find = [&](Local x) {
      while (parent[x] != x) {
        parent[x] = parent[parent[x]];
        x = parent[x];
      }
      return x;
    };
    for (Local u = 0; u < n_; ++u) {
      std::span<const Local> rs_list = RsOf(u);
      for (size_t i = 1; i < rs_list.size(); ++i) {
        parent[find(rs_list[i])] = find(rs_list[0]);
      }
    }
    std::vector<std::vector<Local>> components(m_);
    for (Local i = 0; i < m_; ++i) {
      comp_of_[i] = find(i);
      components[comp_of_[i]].push_back(i);
    }
    for (Local root = 0; root < m_; ++root) {
      if (!components[root].empty()) {
        mark_family(components[root], kOwnerComponent, root);
      }
    }
    return changed;
  }

  AnalysisResult Emit() const {
    AnalysisResult result;
    for (Local t = 0; t < n_; ++t) {
      if (spent_[t]) result.spent_tokens.insert(ctx_.token_id(t));
    }
    result.spent_tokens.insert(extra_spent_.begin(), extra_spent_.end());
    for (Local i = 0; i < m_; ++i) {
      if (!pinned_[i].has_value()) continue;
      result.revealed_spends.emplace(RsIdOf(i), *pinned_[i]);
      result.possible_spends[RsIdOf(i)] = {*pinned_[i]};
    }
    return result;
  }

  // tm-borrows(caller): the engine lives only for one Cascade() call;
  // the context outlives it by construction.
  const AnalysisContext& ctx_;
  // The prospective RS: sorted member locals, dense local base_m_.
  const std::vector<Local> overlay_;
  const chain::RsId overlay_id_;
  const bool has_overlay_;
  std::vector<std::vector<Local>> ext_rs_;  // per overlay member
  const Local base_m_;
  const Local m_;
  const Local n_;
  std::vector<std::optional<chain::TokenId>> pinned_;
  std::vector<uint32_t> alive_;
  std::vector<uint32_t> slot_offsets_;  // CSR member-slot base per RS
  std::vector<bool> removed_;           // per member slot
  std::vector<uint8_t> rev_count_;      // reveals per token, saturated at 2
  std::vector<Local> rev_rs_;           // first revealer per token
  std::vector<bool> spent_;
  std::vector<chain::TokenId> extra_spent_;  // side-info tokens not interned
  std::vector<uint8_t> owner_kind_;
  std::vector<Local> owner_key_;
  std::vector<uint32_t> owner_size_;
  std::vector<uint32_t> stamp_;
  uint32_t mark_ = 0;
  std::vector<Local> comp_of_;
};

}  // namespace

AnalysisResult ChainReactionAnalyzer::Cascade(
    const AnalysisContext& context, const SideInformation& side_info) {
  DenseCascade cascade(context);
  return cascade.Run(side_info);
}

size_t ChainReactionAnalyzer::CountInferableSpent(
    const AnalysisContext& context) {
  return Cascade(context).spent_tokens.size();
}

size_t ChainReactionAnalyzer::CountInferableSpent(
    const AnalysisContext& context, const chain::RsView& overlay) {
  std::vector<AnalysisContext::Local> members;
  members.reserve(overlay.members.size());
  for (chain::TokenId t : overlay.members) {
    AnalysisContext::Local local = context.LocalOfToken(t);
    TM_CHECK(local != AnalysisContext::kNoLocal);
    members.push_back(local);
  }
  std::sort(members.begin(), members.end());
  DenseCascade cascade(context, std::move(members), overlay.id);
  return cascade.Run({}).spent_tokens.size();
}

}  // namespace tokenmagic::analysis
