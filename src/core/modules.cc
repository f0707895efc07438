#include "core/modules.h"

#include <algorithm>

#include "analysis/context.h"
#include "common/macros.h"
#include "common/strings.h"

namespace tokenmagic::core {

namespace {

using Local = analysis::AnalysisContext::Local;

/// True when sorted span `a` is a subset of sorted span `b`.
bool SortedSubset(std::span<const Local> a, std::span<const Local> b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

/// True when sorted spans `a` and `b` share no element.
bool SortedDisjoint(std::span<const Local> a, std::span<const Local> b) {
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      return false;
    }
  }
  return true;
}

/// The first-practical-configuration violation of the context's history:
/// the first partially overlapping pair in history order. Only called once
/// a violation is known to exist, so the pairwise scan is off the common
/// path.
common::Status PartialOverlap(const analysis::AnalysisContext& context) {
  const Local m = static_cast<Local>(context.rs_count());
  for (Local i = 0; i < m; ++i) {
    for (Local j = i + 1; j < m; ++j) {
      std::span<const Local> a = context.Members(i);
      std::span<const Local> b = context.Members(j);
      if (!SortedDisjoint(a, b) && !SortedSubset(a, b) &&
          !SortedSubset(b, a)) {
        return common::Status::InvalidArgument(common::StrFormat(
            "history violates the first practical configuration: rs %llu "
            "and rs %llu partially overlap",
            static_cast<unsigned long long>(context.rs_id(i)),
            static_cast<unsigned long long>(context.rs_id(j))));
      }
    }
  }
  return common::Status::OK();
}

common::Status HistoryMatches(std::span<const chain::RsView> history,
                              const analysis::AnalysisContext& context) {
  if (history.size() == context.rs_count()) return common::Status::OK();
  return common::Status::InvalidArgument(common::StrFormat(
      "history has %zu RSs but the snapshot context interned %zu",
      history.size(), context.rs_count()));
}

/// True when `universe` lists the context's token column, in order.
bool IsTokenColumn(std::span<const chain::TokenId> universe,
                   const analysis::AnalysisContext& context) {
  std::span<const chain::TokenId> tokens = context.Tokens();
  return std::equal(universe.begin(), universe.end(), tokens.begin(),
                    tokens.end());
}

/// Marks the universe's token locals in `in_universe` (one entry per
/// context token) and returns the number of distinct universe tokens. A
/// universe token the context never interned is InvalidArgument.
common::Result<size_t> MarkUniverse(std::span<const chain::TokenId> universe,
                                    const analysis::AnalysisContext& context,
                                    std::vector<char>* in_universe) {
  if (IsTokenColumn(universe, context)) {
    in_universe->assign(context.token_count(), 1);
    return context.token_count();
  }
  in_universe->assign(context.token_count(), 0);
  size_t distinct = 0;
  for (chain::TokenId t : universe) {
    Local local = context.LocalOfToken(t);
    if (local == analysis::AnalysisContext::kNoLocal) {
      return common::Status::InvalidArgument(common::StrFormat(
          "universe token %llu is not interned in the snapshot context",
          static_cast<unsigned long long>(t)));
    }
    if ((*in_universe)[local] == 0) {
      (*in_universe)[local] = 1;
      ++distinct;
    }
  }
  return distinct;
}

/// InvalidArgument naming the first RS, in history order, with a member
/// outside the universe.
common::Status HistoryInUniverse(const analysis::AnalysisContext& context,
                                 const std::vector<char>& in_universe) {
  for (Local rs = 0; rs < static_cast<Local>(context.rs_count()); ++rs) {
    for (Local t : context.Members(rs)) {
      if (in_universe[t] == 0) {
        return common::Status::InvalidArgument(common::StrFormat(
            "rs %llu contains token %llu outside the universe",
            static_cast<unsigned long long>(context.rs_id(rs)),
            static_cast<unsigned long long>(context.token_id(t))));
      }
    }
  }
  return common::Status::OK();
}

/// The memo builder: the module index over the seal's whole token column.
std::shared_ptr<const void> BuildModuleIndex(
    const analysis::AnalysisContext& view) {
  return std::make_shared<const common::Result<ModuleUniverse>>(
      ModuleUniverse::Build(view.Tokens(), view.History(), view));
}

}  // namespace

common::Result<ModuleUniverse> ModuleUniverse::Build(
    std::span<const chain::TokenId> universe,
    std::span<const chain::RsView> history,
    const analysis::AnalysisContext& context) {
  constexpr Local kNoLocal = analysis::AnalysisContext::kNoLocal;
  TM_RETURN_NOT_OK(HistoryMatches(history, context));
  const Local rs_count = static_cast<Local>(context.rs_count());
  const Local token_count = static_cast<Local>(context.token_count());

  ModuleUniverse mu;
  mu.storage_ = context.storage();
  mu.history_ = context.History().data();
  mu.token_ids_ = context.Tokens().data();
  mu.context_tokens_ = token_count;

  // Universe membership as a dense bitmap over token locals. A history
  // token outside the universe is interned but unmarked, so only a
  // universe smaller than the token column can leave one out.
  std::vector<char> in_universe;
  TM_ASSIGN_OR_RETURN(mu.token_count_,
                      MarkUniverse(universe, context, &in_universe));
  if (mu.token_count_ < token_count) {
    TM_RETURN_NOT_OK(HistoryInUniverse(context, in_universe));
  }

  // First practical configuration (every pair superset or disjoint) via
  // the inverted index: a partial overlap needs a shared token, and among
  // the RSs sharing one token laminarity means a subset chain, so checking
  // size-adjacent pairs per token is exact. Near-linear in the incidence
  // instead of O(|history|²); only a violation pays the pairwise scan that
  // names the first offending pair.
  {
    std::vector<Local> chain_rs;
    for (Local t = 0; t < token_count; ++t) {
      std::span<const Local> rs_list = context.RsOfToken(t);
      if (rs_list.size() < 2) continue;
      chain_rs.assign(rs_list.begin(), rs_list.end());
      std::stable_sort(chain_rs.begin(), chain_rs.end(),
                       [&](Local a, Local b) {
                         return context.Members(a).size() <
                                context.Members(b).size();
                       });
      for (size_t k = 0; k + 1 < chain_rs.size(); ++k) {
        if (!SortedSubset(context.Members(chain_rs[k]),
                          context.Members(chain_rs[k + 1]))) {
          return PartialOverlap(context);
        }
      }
    }
  }

  // Super RSs (Definition 7): scan from the latest proposal backwards; an
  // RS none of whose tokens is already covered by a later RS is maximal.
  // A partially covered RS cannot occur: the configuration check above
  // makes it a subset of the covering (later) RS.
  std::vector<Local> order(rs_count);
  for (Local i = 0; i < rs_count; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](Local a, Local b) {
    return context.proposed_at(a) > context.proposed_at(b);
  });

  std::vector<char> covered(token_count, 0);
  for (Local rs : order) {
    std::span<const Local> members = context.Members(rs);
    bool any_covered = false;
    for (Local t : members) {
      if (covered[t] != 0) {
        any_covered = true;
        break;
      }
    }
    if (!any_covered) {
      mu.super_rs_.push_back(rs);
      for (Local t : members) covered[t] = 1;
    }
  }
  // Super-RS modules are emitted in proposal order for determinism.
  std::sort(mu.super_rs_.begin(), mu.super_rs_.end());
  const size_t supers = mu.super_rs_.size();

  // Super modules keep their super's index, so module_of_local_ doubles as
  // the super-of-token column while the subset lists are built.
  mu.module_of_local_.assign(token_count, kNoLocal);
  mu.super_size_.reserve(supers);
  for (size_t s = 0; s < supers; ++s) {
    std::span<const Local> members = context.Members(mu.super_rs_[s]);
    mu.super_size_.push_back(static_cast<uint32_t>(members.size()));
    for (Local t : members) {
      mu.module_of_local_[t] = static_cast<uint32_t>(s);
    }
  }

  // Subset lists, in history order, as one CSR: supers partition the
  // covered tokens, so a non-empty RS can only be a subset of the super
  // covering its first member, and one inclusion test settles it. An
  // empty RS is a subset of every super.
  constexpr Local kEverySuper = kNoLocal - 1;
  std::vector<Local> subset_of(rs_count, kNoLocal);
  mu.subset_offsets_.assign(supers + 1, 0);
  size_t empty_rs = 0;
  for (Local rs = 0; rs < rs_count; ++rs) {
    std::span<const Local> members = context.Members(rs);
    if (members.empty()) {
      subset_of[rs] = kEverySuper;
      ++empty_rs;
      continue;
    }
    uint32_t s = mu.module_of_local_[members.front()];
    if (s == kNoLocal) continue;  // token uncovered: subset of no super
    if (SortedSubset(members, context.Members(mu.super_rs_[s]))) {
      subset_of[rs] = s;
      ++mu.subset_offsets_[s + 1];
    }
  }
  for (size_t s = 0; s < supers; ++s) {
    mu.subset_offsets_[s + 1] += mu.subset_offsets_[s] +
                                 static_cast<uint32_t>(empty_rs);
  }
  mu.subset_ids_.resize(mu.subset_offsets_[supers]);
  {
    std::vector<uint32_t> cursor(mu.subset_offsets_.begin(),
                                 mu.subset_offsets_.end() - 1);
    for (Local rs = 0; rs < rs_count; ++rs) {
      if (subset_of[rs] == kEverySuper) {
        for (uint32_t& at : cursor) mu.subset_ids_[at++] = context.rs_id(rs);
      } else if (subset_of[rs] != kNoLocal) {
        mu.subset_ids_[cursor[subset_of[rs]]++] = context.rs_id(rs);
      }
    }
  }

  // Fresh tokens (Definition 8): universe tokens covered by no super, in
  // one scan over the token locals (rank order == ascending TokenId).
  for (Local t = 0; t < token_count; ++t) {
    if (in_universe[t] == 0 || covered[t] != 0) continue;
    mu.module_of_local_[t] = static_cast<uint32_t>(supers + mu.fresh_.size());
    mu.fresh_.push_back(t);
  }

  // HT pairs from the context's HT column: per super, its members' HT
  // locals counted by run; per fresh token, one pair.
  auto note_unknown = [&](Local t) {
    if (mu.unknown_ht_token_ == chain::kInvalidToken) {
      mu.unknown_ht_token_ = context.token_id(t);
    }
  };
  mu.ht_offsets_.reserve(supers + 1);
  mu.ht_offsets_.push_back(0);
  std::vector<Local> hts;
  for (size_t s = 0; s < supers; ++s) {
    hts.clear();
    for (Local t : context.Members(mu.super_rs_[s])) {
      Local ht = context.HtLocalOf(t);
      if (ht == kNoLocal) {
        note_unknown(t);
      } else {
        hts.push_back(ht);
      }
    }
    std::sort(hts.begin(), hts.end());
    for (size_t i = 0; i < hts.size();) {
      size_t j = i;
      while (j < hts.size() && hts[j] == hts[i]) ++j;
      mu.hts_.push_back({hts[i], static_cast<uint32_t>(j - i)});
      i = j;
    }
    mu.ht_offsets_.push_back(static_cast<uint32_t>(mu.hts_.size()));
  }
  for (Local t : mu.fresh_) {
    Local ht = context.HtLocalOf(t);
    if (ht == kNoLocal) note_unknown(t);
    mu.hts_.push_back({ht, 1});
  }
  mu.hts_.shrink_to_fit();
  return mu;
}

Module ModuleUniverse::module(size_t index) const {
  TM_CHECK(index < module_count());
  Module module;
  module.index = index;
  if (index < super_rs_.size()) {
    const chain::RsView& view = history_[super_rs_[index]];
    module.super_rs = view.id;
    module.tokens = view.members;
    module.subset_count = subset_offsets_[index + 1] - subset_offsets_[index];
  } else {
    module.is_fresh = true;
    module.tokens = {token_ids_ + fresh_[index - super_rs_.size()], 1};
  }
  return module;
}

size_t ModuleUniverse::ModuleOfToken(chain::TokenId token) const {
  const chain::TokenId* end = token_ids_ + context_tokens_;
  const chain::TokenId* it = std::lower_bound(token_ids_, end, token);
  TM_CHECK(it != end && *it == token);
  return ModuleOfLocal(static_cast<Local>(it - token_ids_));
}

size_t ModuleUniverse::ModuleOfLocal(Local token) const {
  TM_CHECK(token < module_of_local_.size());
  uint32_t module = module_of_local_[token];
  TM_CHECK(module != analysis::AnalysisContext::kNoLocal);
  return module;
}

std::vector<size_t> ModuleUniverse::FreshModuleIndices() const {
  std::vector<size_t> out;
  for (size_t i = super_rs_.size(); i < module_count(); ++i) out.push_back(i);
  return out;
}

std::vector<size_t> ModuleUniverse::SuperRsModuleIndices() const {
  std::vector<size_t> out;
  for (size_t i = 0; i < super_rs_.size(); ++i) out.push_back(i);
  return out;
}

std::span<const chain::RsId> ModuleUniverse::SubsetRsOf(
    size_t module_index) const {
  TM_CHECK(module_index < module_count());
  if (module_index >= super_rs_.size()) return {};
  return {subset_ids_.data() + subset_offsets_[module_index],
          subset_offsets_[module_index + 1] - subset_offsets_[module_index]};
}

std::span<const HtTokens> ModuleUniverse::HtsOf(size_t module_index) const {
  const size_t supers = super_rs_.size();
  if (module_index < supers) {
    return {hts_.data() + ht_offsets_[module_index],
            ht_offsets_[module_index + 1] - ht_offsets_[module_index]};
  }
  return {hts_.data() + ht_offsets_[supers] + (module_index - supers), 1};
}

common::Status ModuleUniverse::HtStatus() const {
  if (unknown_ht_token_ == chain::kInvalidToken) return common::Status::OK();
  return common::Status::InvalidArgument(common::StrFormat(
      "universe token %llu has no HT in the index",
      static_cast<unsigned long long>(unknown_ht_token_)));
}

common::Status CheckSnapshotShape(std::span<const chain::TokenId> universe,
                                  std::span<const chain::RsView> history,
                                  const analysis::AnalysisContext& context) {
  TM_RETURN_NOT_OK(HistoryMatches(history, context));
  if (IsTokenColumn(universe, context)) return common::Status::OK();
  std::vector<char> in_universe;
  TM_ASSIGN_OR_RETURN(size_t distinct,
                      MarkUniverse(universe, context, &in_universe));
  if (distinct == context.token_count()) return common::Status::OK();
  TM_RETURN_NOT_OK(HistoryInUniverse(context, in_universe));
  auto missing = std::find(in_universe.begin(), in_universe.end(), 0);
  return common::Status::InvalidArgument(common::StrFormat(
      "snapshot context token %llu is not in the universe",
      static_cast<unsigned long long>(context.token_id(
          static_cast<Local>(missing - in_universe.begin())))));
}

std::shared_ptr<const common::Result<ModuleUniverse>> ModuleIndexOf(
    const analysis::AnalysisContext& context) {
  const analysis::SealMemo* memo = context.memo();
  TM_CHECK(memo != nullptr);
  return std::static_pointer_cast<const common::Result<ModuleUniverse>>(
      memo->GetOrBuild(&BuildModuleIndex, context));
}

bool ModuleIndexBuilt(const analysis::AnalysisContext& context) {
  return context.memo() != nullptr && context.memo()->built();
}

}  // namespace tokenmagic::core
