#include "oracle/analysis_oracle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/strings.h"

namespace tokenmagic::oracle {

namespace {

/// True when sorted vector `a` is a subset of sorted vector `b`.
bool SortedSubset(const std::vector<chain::TokenId>& a,
                  const std::vector<chain::TokenId>& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

/// True when sorted vectors `a` and `b` share no element.
bool SortedDisjoint(const std::vector<chain::TokenId>& a,
                    const std::vector<chain::TokenId>& b) {
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

}  // namespace

analysis::RelatedSetResult ComputeRelatedSet(
    std::span<const chain::TokenId> target_tokens,
    std::span<const chain::RsView> history) {
  // Token -> indices of history RSs containing it.
  std::unordered_map<chain::TokenId, std::vector<size_t>> token_to_rs;
  for (size_t i = 0; i < history.size(); ++i) {
    for (chain::TokenId t : history[i].members) {
      token_to_rs[t].push_back(i);
    }
  }

  analysis::RelatedSetResult result;
  std::unordered_set<size_t> visited;
  std::deque<std::pair<size_t, size_t>> frontier;  // (history index, level)

  auto enqueue_for_tokens = [&](std::span<const chain::TokenId> tokens,
                                size_t level) {
    for (chain::TokenId t : tokens) {
      auto it = token_to_rs.find(t);
      if (it == token_to_rs.end()) continue;
      for (size_t idx : it->second) {
        if (visited.insert(idx).second) {
          frontier.emplace_back(idx, level);
        }
      }
    }
  };

  enqueue_for_tokens(target_tokens, 0);
  while (!frontier.empty()) {
    auto [idx, level] = frontier.front();
    frontier.pop_front();
    result.related.push_back(analysis::RelatedRs{history[idx].id, level});
    enqueue_for_tokens(history[idx].members, level + 1);
  }
  return result;
}

analysis::AnalysisResult Cascade(std::span<const chain::RsView> history,
                                 const analysis::SideInformation& side_info) {
  analysis::AnalysisResult result;
  // Working copies of member sets with known-spent tokens removed.
  std::vector<std::vector<chain::TokenId>> members;
  members.reserve(history.size());
  for (const chain::RsView& view : history) members.push_back(view.members);

  std::unordered_set<chain::TokenId>& spent = result.spent_tokens;
  std::unordered_map<chain::RsId, chain::TokenId>& revealed =
      result.revealed_spends;

  // Seed with side information.
  std::unordered_map<size_t, chain::TokenId> pinned;
  for (const chain::TokenRsPair& pair : side_info.revealed) {
    for (size_t i = 0; i < history.size(); ++i) {
      if (history[i].id == pair.rs) {
        pinned.emplace(i, pair.token);
        spent.insert(pair.token);
        revealed.emplace(pair.rs, pair.token);
      }
    }
  }

  // Token -> RS-index set of a *tight* sub-family (|tokens| == |RSs|)
  // that provably consumes it. RSs outside the owner set can never spend
  // such a token.
  std::unordered_map<chain::TokenId, std::unordered_set<size_t>>
      tight_owner;

  bool changed = true;
  while (changed) {
    changed = false;

    // Rule 1 (zero-mixin / singleton): after deleting tokens known to be
    // spent *elsewhere*, an RS with a single remaining member spends it.
    for (size_t i = 0; i < history.size(); ++i) {
      auto it = pinned.find(i);
      if (it != pinned.end()) {
        // Already resolved; its spend removes that token from others below.
        continue;
      }
      std::vector<chain::TokenId>& mem = members[i];
      std::erase_if(mem, [&](chain::TokenId t) {
        // A token revealed as spent in a *different* RS cannot be this
        // RS's spend. (A token only provably "spent somewhere" cannot be
        // removed: this RS might be where it is spent.)
        for (const auto& [rs_id, tok] : revealed) {
          if (tok == t && rs_id != history[i].id) return true;
        }
        // A token consumed inside a tight sub-family that excludes this
        // RS cannot be this RS's spend either.
        auto owner = tight_owner.find(t);
        if (owner != tight_owner.end() && owner->second.count(i) == 0) {
          return true;
        }
        return false;
      });
      if (mem.size() == 1) {
        pinned.emplace(i, mem.front());
        revealed.emplace(history[i].id, mem.front());
        spent.insert(mem.front());
        changed = true;
      }
    }

    // Rule 2 (Theorem 4.1 via neighbor sets): for each token, the set of
    // RSs containing it; if the union of their members has exactly as many
    // tokens as there are RSs, all those tokens are spent.
    std::unordered_map<chain::TokenId, std::vector<size_t>> neighbor;
    for (size_t i = 0; i < history.size(); ++i) {
      for (chain::TokenId t : history[i].members) {
        neighbor[t].push_back(i);
      }
    }
    for (const auto& [token, rs_list] : neighbor) {
      std::unordered_set<chain::TokenId> union_tokens;
      for (size_t i : rs_list) {
        union_tokens.insert(history[i].members.begin(),
                            history[i].members.end());
      }
      if (union_tokens.size() == rs_list.size()) {
        std::unordered_set<size_t> owners(rs_list.begin(), rs_list.end());
        for (chain::TokenId t : union_tokens) {
          if (spent.insert(t).second) changed = true;
          auto [it, inserted] = tight_owner.emplace(t, owners);
          if (!inserted && it->second.size() > owners.size()) {
            // Keep the tightest (smallest) owner set for sharper
            // elimination.
            it->second = owners;
            changed = true;
          }
          if (inserted) changed = true;
        }
      }
    }

    // Rule 3 (Theorem 4.1 per connected component): group RSs that
    // transitively share tokens; a component covering exactly as many
    // tokens as it has RSs spends all of them. This catches closures the
    // per-token rule misses (e.g. the 3-cycle {1,2},{2,3},{1,3}).
    {
      std::vector<size_t> parent(history.size());
      for (size_t i = 0; i < parent.size(); ++i) parent[i] = i;
      std::function<size_t(size_t)> find = [&](size_t x) {
        while (parent[x] != x) {
          parent[x] = parent[parent[x]];
          x = parent[x];
        }
        return x;
      };
      for (const auto& [token, rs_list] : neighbor) {
        for (size_t i = 1; i < rs_list.size(); ++i) {
          parent[find(rs_list[i])] = find(rs_list[0]);
        }
      }
      std::unordered_map<size_t, std::vector<size_t>> components;
      for (size_t i = 0; i < history.size(); ++i) {
        components[find(i)].push_back(i);
      }
      for (const auto& [root, rs_indices] : components) {
        std::unordered_set<chain::TokenId> union_tokens;
        for (size_t i : rs_indices) {
          union_tokens.insert(history[i].members.begin(),
                              history[i].members.end());
        }
        if (union_tokens.size() == rs_indices.size()) {
          std::unordered_set<size_t> owners(rs_indices.begin(),
                                            rs_indices.end());
          for (chain::TokenId t : union_tokens) {
            if (spent.insert(t).second) changed = true;
            auto [it, inserted] = tight_owner.emplace(t, owners);
            if (!inserted && it->second.size() > owners.size()) {
              it->second = owners;
              changed = true;
            }
            if (inserted) changed = true;
          }
        }
      }
    }
  }

  for (const auto& [index, token] : pinned) {
    result.possible_spends[history[index].id] = {token};
  }
  return result;
}

size_t CountInferableSpent(std::span<const chain::RsView> history) {
  analysis::AnalysisResult result = Cascade(history);
  return result.spent_tokens.size();
}

common::Result<ModuleDecomposition> BuildModules(
    std::span<const chain::TokenId> universe,
    std::span<const chain::RsView> history) {
  using common::Status;
  ModuleDecomposition mu;
  std::unordered_map<chain::TokenId, size_t> token_to_module;

  std::unordered_set<chain::TokenId> universe_set(universe.begin(),
                                                  universe.end());
  mu.token_count = universe_set.size();

  // Validate that history tokens live in the universe and the first
  // practical configuration holds pairwise (superset or disjoint).
  for (const chain::RsView& view : history) {
    for (chain::TokenId t : view.members) {
      if (universe_set.count(t) == 0) {
        return Status::InvalidArgument(common::StrFormat(
            "rs %llu contains token %llu outside the universe",
            static_cast<unsigned long long>(view.id),
            static_cast<unsigned long long>(t)));
      }
    }
  }
  for (size_t i = 0; i < history.size(); ++i) {
    for (size_t j = i + 1; j < history.size(); ++j) {
      const auto& a = history[i].members;
      const auto& b = history[j].members;
      if (!SortedDisjoint(a, b) && !SortedSubset(a, b) &&
          !SortedSubset(b, a)) {
        return Status::InvalidArgument(common::StrFormat(
            "history violates the first practical configuration: rs %llu "
            "and rs %llu partially overlap",
            static_cast<unsigned long long>(history[i].id),
            static_cast<unsigned long long>(history[j].id)));
      }
    }
  }

  // Super RSs (Definition 7): scan from the latest proposal backwards; an
  // RS none of whose tokens is already covered by a later RS is maximal.
  std::vector<size_t> order(history.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return history[a].proposed_at > history[b].proposed_at;
  });

  std::unordered_set<chain::TokenId> covered;
  std::vector<size_t> super_indices;  // indices into history
  for (size_t idx : order) {
    const auto& members = history[idx].members;
    bool any_covered = false;
    for (chain::TokenId t : members) {
      if (covered.count(t) > 0) {
        any_covered = true;
        break;
      }
    }
    if (!any_covered) {
      super_indices.push_back(idx);
      covered.insert(members.begin(), members.end());
    }
    // A partially-covered RS is impossible here: the configuration check
    // above guarantees it is a subset of the covering (later) RS.
  }

  // Emit super-RS modules (in original proposal order for determinism).
  std::sort(super_indices.begin(), super_indices.end());
  for (size_t idx : super_indices) {
    const chain::RsView& view = history[idx];
    OracleModule module;
    module.index = mu.modules.size();
    module.is_fresh = false;
    module.super_rs = view.id;
    module.tokens = view.members;
    for (chain::TokenId t : module.tokens) {
      token_to_module.emplace(t, module.index);
    }
    mu.modules.push_back(std::move(module));
  }

  // Fresh tokens (Definition 8): universe tokens in no RS.
  std::vector<chain::TokenId> fresh;
  for (chain::TokenId t : universe) {
    if (covered.count(t) == 0 && token_to_module.count(t) == 0) {
      fresh.push_back(t);
    }
  }
  std::sort(fresh.begin(), fresh.end());
  fresh.erase(std::unique(fresh.begin(), fresh.end()), fresh.end());
  for (chain::TokenId t : fresh) {
    OracleModule module;
    module.index = mu.modules.size();
    module.is_fresh = true;
    module.tokens = {t};
    token_to_module.emplace(t, module.index);
    mu.modules.push_back(std::move(module));
  }

  return mu;
}

void ExpectInterned(const analysis::AnalysisContext& got,
                    std::span<const chain::RsView> history,
                    const chain::HtIndex* index,
                    std::span<const chain::TokenId> universe) {
  using Local = analysis::AnalysisContext::Local;
  constexpr Local kNoLocal = analysis::AnalysisContext::kNoLocal;

  // Token column: sorted unique union of the universe and every member.
  std::vector<chain::TokenId> tokens(universe.begin(), universe.end());
  for (const chain::RsView& view : history) {
    tokens.insert(tokens.end(), view.members.begin(), view.members.end());
  }
  std::sort(tokens.begin(), tokens.end());
  tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
  auto rank = [&](chain::TokenId t) {
    return static_cast<Local>(
        std::lower_bound(tokens.begin(), tokens.end(), t) - tokens.begin());
  };

  // HT column: first appearance over the sorted token column.
  std::vector<chain::TxId> ht_ids;
  std::vector<Local> token_ht(tokens.size(), kNoLocal);
  if (index != nullptr) {
    std::unordered_map<chain::TxId, Local> ht_local;
    for (size_t i = 0; i < tokens.size(); ++i) {
      auto ht = index->TryHtOf(tokens[i]);
      if (!ht.has_value()) continue;
      auto [it, inserted] =
          ht_local.emplace(*ht, static_cast<Local>(ht_ids.size()));
      if (inserted) ht_ids.push_back(*ht);
      token_ht[i] = it->second;
    }
  }

  // Inverted index: per token, the RSs holding it in history order.
  std::vector<std::vector<Local>> token_rs(tokens.size());
  for (size_t r = 0; r < history.size(); ++r) {
    for (chain::TokenId t : history[r].members) {
      token_rs[rank(t)].push_back(static_cast<Local>(r));
    }
  }

  ASSERT_EQ(got.token_count(), tokens.size());
  ASSERT_EQ(got.rs_count(), history.size());
  ASSERT_EQ(got.ht_count(), ht_ids.size());
  for (Local t = 0; t < tokens.size(); ++t) {
    ASSERT_EQ(got.token_id(t), tokens[t]);
    ASSERT_EQ(got.LocalOfToken(tokens[t]), t);
    ASSERT_EQ(got.HtLocalOf(t), token_ht[t]);
    ASSERT_EQ(got.HtOf(t), token_ht[t] == kNoLocal ? chain::kInvalidTx
                                                   : ht_ids[token_ht[t]]);
    std::span<const Local> rs_list = got.RsOfToken(t);
    ASSERT_EQ(std::vector<Local>(rs_list.begin(), rs_list.end()),
              token_rs[t]);
    for (Local r : token_rs[t]) ASSERT_TRUE(got.RsContains(r, t));
  }
  for (Local h = 0; h < ht_ids.size(); ++h) {
    ASSERT_EQ(got.ht_id(h), ht_ids[h]);
  }
  for (Local r = 0; r < history.size(); ++r) {
    const chain::RsView& view = history[r];
    ASSERT_EQ(got.rs_id(r), view.id);
    ASSERT_EQ(got.LocalOfRs(view.id), r);
    ASSERT_EQ(got.proposed_at(r), view.proposed_at);
    ASSERT_EQ(got.requirement(r).c, view.requirement.c);
    ASSERT_EQ(got.requirement(r).ell, view.requirement.ell);
    std::vector<Local> members;
    for (chain::TokenId t : view.members) members.push_back(rank(t));
    std::span<const Local> got_members = got.Members(r);
    ASSERT_EQ(std::vector<Local>(got_members.begin(), got_members.end()),
              members);
    chain::RsView reconstructed = got.ViewOf(r);
    ASSERT_EQ(reconstructed.id, view.id);
    ASSERT_EQ(reconstructed.members, view.members);
  }
  // Misses answer kNoLocal.
  const chain::TokenId absent_token =
      tokens.empty() ? 0 : tokens.back() + 1;
  ASSERT_EQ(got.LocalOfToken(absent_token), kNoLocal);
  const chain::RsId absent_rs = history.empty() ? 0 : history.back().id + 1;
  ASSERT_EQ(got.LocalOfRs(absent_rs), kNoLocal);
}

int CompareSlackBitwise(int64_t q1, double c, int64_t tail) {
  if (tail == 0 || c == 0.0) return q1 > 0 ? 1 : 0;
  if (q1 == 0) return -1;
  int exp = 0;
  double frac = std::frexp(c, &exp);
  int64_t m = static_cast<int64_t>(std::ldexp(frac, 53));
  int e = exp - 53;
  while ((m & 1) == 0 && e < 0) {
    m >>= 1;
    ++e;
  }
  unsigned __int128 lhs = static_cast<unsigned __int128>(q1);
  unsigned __int128 rhs =
      static_cast<unsigned __int128>(m) * static_cast<unsigned __int128>(tail);
  if (e > 0) {
    if (e >= 128 || (rhs >> (128 - e)) != 0) return -1;
    rhs <<= e;
  } else if (e < 0) {
    int shift = -e;
    if (shift >= 128 || (lhs >> (128 - shift)) != 0) return 1;
    lhs <<= shift;
  }
  return lhs < rhs ? -1 : lhs > rhs ? 1 : 0;
}

}  // namespace tokenmagic::oracle
