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

}  // namespace

common::Result<ModuleUniverse> ModuleUniverse::Build(
    std::span<const chain::TokenId> universe,
    std::span<const chain::RsView> history,
    const analysis::AnalysisContext& context) {
  using common::Status;
  constexpr Local kNoLocal = analysis::AnalysisContext::kNoLocal;
  TM_CHECK(context.rs_count() == history.size());

  ModuleUniverse mu;
  mu.context_ = context;

  // Universe membership as a dense bitmap over token locals. Every
  // universe token must be interned (the Build precondition), while a
  // history token outside the universe is interned but unmarked.
  std::vector<char> in_universe(context.token_count(), 0);
  size_t distinct_universe = 0;
  for (chain::TokenId t : universe) {
    Local local = context.LocalOfToken(t);
    TM_CHECK(local != kNoLocal);
    if (in_universe[local] == 0) {
      in_universe[local] = 1;
      ++distinct_universe;
    }
  }
  mu.token_count_ = distinct_universe;

  for (size_t i = 0; i < history.size(); ++i) {
    for (Local t : context.Members(static_cast<Local>(i))) {
      if (in_universe[t] == 0) {
        return Status::InvalidArgument(common::StrFormat(
            "rs %llu contains token %llu outside the universe",
            static_cast<unsigned long long>(history[i].id),
            static_cast<unsigned long long>(context.token_id(t))));
      }
    }
  }

  // First practical configuration (every pair superset or disjoint) via
  // the inverted index: a partial overlap needs a shared token, and among
  // the RSs sharing one token laminarity means a subset chain, so checking
  // size-adjacent pairs per token is exact. Near-linear in the incidence
  // instead of O(|history|²); only a violation pays the pairwise scan that
  // names the first offending pair.
  {
    std::vector<Local> chain_rs;
    for (Local t = 0; t < static_cast<Local>(context.token_count()); ++t) {
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
  std::vector<size_t> order(history.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return history[a].proposed_at > history[b].proposed_at;
  });

  std::vector<char> covered(context.token_count(), 0);
  std::vector<size_t> super_indices;  // indices into history
  for (size_t idx : order) {
    std::span<const Local> members =
        context.Members(static_cast<Local>(idx));
    bool any_covered = false;
    for (Local t : members) {
      if (covered[t] != 0) {
        any_covered = true;
        break;
      }
    }
    if (!any_covered) {
      super_indices.push_back(idx);
      for (Local t : members) covered[t] = 1;
    }
  }
  // Super-RS modules are emitted in proposal order for determinism.
  std::sort(super_indices.begin(), super_indices.end());

  // Subset lists, in history order: supers partition the covered tokens,
  // so a non-empty RS can only be a subset of the super covering its
  // first member, and one inclusion test settles it. An empty RS is a
  // subset of every super.
  std::vector<uint32_t> super_of_token(context.token_count(), kNoLocal);
  for (size_t s = 0; s < super_indices.size(); ++s) {
    for (Local t : context.Members(static_cast<Local>(super_indices[s]))) {
      super_of_token[t] = static_cast<uint32_t>(s);
    }
  }
  std::vector<std::vector<chain::RsId>> subsets(super_indices.size());
  for (size_t i = 0; i < history.size(); ++i) {
    std::span<const Local> members = context.Members(static_cast<Local>(i));
    if (members.empty()) {
      for (std::vector<chain::RsId>& list : subsets) {
        list.push_back(history[i].id);
      }
      continue;
    }
    uint32_t s = super_of_token[members.front()];
    if (s == kNoLocal) continue;  // token uncovered: subset of no super
    if (SortedSubset(members,
                     context.Members(static_cast<Local>(super_indices[s])))) {
      subsets[s].push_back(history[i].id);
    }
  }

  // Super modules keep their super's index, so super_of_token doubles as
  // the module-of-local column for covered tokens.
  for (size_t s = 0; s < super_indices.size(); ++s) {
    const chain::RsView& view = history[super_indices[s]];
    Module module;
    module.index = mu.modules_.size();
    module.is_fresh = false;
    module.super_rs = view.id;
    module.tokens = view.members;
    module.subset_count = subsets[s].size();
    mu.modules_.push_back(std::move(module));
    mu.subset_rs_.push_back(std::move(subsets[s]));
  }

  // Fresh tokens (Definition 8): universe tokens covered by no super, in
  // one scan over the token locals (rank order == ascending TokenId).
  for (Local t = 0; t < static_cast<Local>(context.token_count()); ++t) {
    if (in_universe[t] == 0 || covered[t] != 0) continue;
    Module module;
    module.index = mu.modules_.size();
    module.is_fresh = true;
    module.tokens = {context.token_id(t)};
    module.subset_count = 0;
    super_of_token[t] = static_cast<uint32_t>(module.index);
    mu.modules_.push_back(std::move(module));
    mu.subset_rs_.emplace_back();
  }
  mu.module_of_local_ = std::move(super_of_token);

  return mu;
}

const Module& ModuleUniverse::module(size_t index) const {
  TM_CHECK(index < modules_.size());
  return modules_[index];
}

size_t ModuleUniverse::ModuleOfToken(chain::TokenId token) const {
  Local local = context_.LocalOfToken(token);
  TM_CHECK(local != analysis::AnalysisContext::kNoLocal);
  uint32_t module = module_of_local_[local];
  TM_CHECK(module != analysis::AnalysisContext::kNoLocal);
  return module;
}

std::vector<size_t> ModuleUniverse::FreshModuleIndices() const {
  std::vector<size_t> out;
  for (const Module& m : modules_) {
    if (m.is_fresh) out.push_back(m.index);
  }
  return out;
}

std::vector<size_t> ModuleUniverse::SuperRsModuleIndices() const {
  std::vector<size_t> out;
  for (const Module& m : modules_) {
    if (!m.is_fresh) out.push_back(m.index);
  }
  return out;
}

const std::vector<chain::RsId>& ModuleUniverse::SubsetRsOf(
    size_t module_index) const {
  TM_CHECK(module_index < subset_rs_.size());
  return subset_rs_[module_index];
}

}  // namespace tokenmagic::core
