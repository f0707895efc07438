#include "analysis/dtrs.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>

#include "analysis/matching.h"
#include "common/macros.h"
#include "common/deadline.h"

namespace tokenmagic::analysis {

std::vector<chain::TokenId> Dtrs::Tokens() const {
  std::vector<chain::TokenId> out;
  out.reserve(pairs.size());
  for (const chain::TokenRsPair& p : pairs) out.push_back(p.token);
  return out;
}

namespace {

/// A candidate pair set in dense (rs_index -> token_index) form, kept as a
/// sorted vector of (rs, token) for set-inclusion tests.
using DensePairSet = std::vector<std::pair<size_t, size_t>>;

bool IsSubsetOfAssignment(const DensePairSet& d, const SdrAssignment& u) {
  for (const auto& [rs, token] : d) {
    if (u[rs] != token) return false;
  }
  return true;
}

bool IsSubsetOf(const DensePairSet& a, const DensePairSet& b) {
  // Both sorted; standard inclusion scan.
  size_t j = 0;
  for (const auto& pair : a) {
    while (j < b.size() && b[j] < pair) ++j;
    if (j == b.size() || b[j] != pair) return false;
    ++j;
  }
  return true;
}

}  // namespace

common::Result<DtrsFinder> DtrsFinder::ForContext(
    const AnalysisContext& context, const chain::HtIndex& index,
    const Options& options) {
  std::vector<SdrAssignment> all;
  SdrEnumerator::Options enum_options;
  enum_options.max_results = options.max_combinations;
  enum_options.budget_seconds = options.budget_seconds;
  common::Status st = SdrEnumerator::Enumerate(
      context, enum_options, [&all](const SdrAssignment& u) {
        all.push_back(u);
        return true;
      });
  if (st.IsTimeout()) return st;
  if (st.code() == common::StatusCode::kResourceExhausted) return st;
  TM_CHECK(st.ok());
  return DtrsFinder(context, index, options, std::move(all));
}

common::Result<std::vector<Dtrs>> DtrsFinder::FindAll(
    const AnalysisContext& context, chain::RsId target,
    const chain::HtIndex& index, const Options& options) {
  TM_ASSIGN_OR_RETURN(DtrsFinder finder, ForContext(context, index, options));
  return finder.Find(target);
}

common::Result<std::vector<Dtrs>> DtrsFinder::Find(chain::RsId target) const {
  const AnalysisContext& context = *context_;
  const std::vector<SdrAssignment>& combos = combos_;
  common::Deadline deadline(options_.budget_seconds);
  const AnalysisContext::Local k = context.LocalOfRs(target);
  TM_CHECK(k != AnalysisContext::kNoLocal);
  const size_t m = context.rs_count();
  if (combos.empty()) return std::vector<Dtrs>{};

  // HT of the target's hypothetical spend in each combination.
  std::vector<chain::TxId> target_ht(combos.size());
  for (size_t j = 0; j < combos.size(); ++j) {
    target_ht[j] = index_->HtOf(context.token_id(combos[j][k]));
  }

  const size_t max_size = options_.max_dtrs_size == 0
                              ? (m > 0 ? m - 1 : 0)
                              : options_.max_dtrs_size;

  // Validated DTRSs found so far, grouped for minimality pruning.
  std::vector<std::pair<DensePairSet, chain::TxId>> accepted;
  std::set<DensePairSet> seen;

  // Candidate generation (Algorithm 3 lines 2-7): subsets of u \ {p*}.
  // Validation (lines 8-15): a candidate is "true" iff every combination
  // containing it yields the same target HT. We iterate subsets in
  // ascending size so minimality pruning is a subset check against
  // already-accepted (smaller) DTRSs.
  std::vector<size_t> other_rs;
  other_rs.reserve(m - 1);
  for (size_t r = 0; r < m; ++r) {
    if (r != k) other_rs.push_back(r);
  }

  for (size_t size = 1; size <= max_size && size <= other_rs.size(); ++size) {
    // Enumerate RS-index subsets of `other_rs` of cardinality `size`; the
    // token of each chosen RS is taken from each combination u.
    std::vector<size_t> choice(size);
    std::function<common::Status(size_t, size_t)> recurse =
        [&](size_t depth, size_t start) -> common::Status {
      if (deadline.Expired()) {
        return common::Status::Timeout("DTRS search budget exhausted");
      }
      if (depth == size) {
        // For every combination u, the induced candidate pair set.
        for (size_t j = 0; j < combos.size(); ++j) {
          DensePairSet candidate;
          candidate.reserve(size);
          for (size_t rs : choice) {
            candidate.emplace_back(rs, combos[j][rs]);
          }
          std::sort(candidate.begin(), candidate.end());
          if (!seen.insert(candidate).second) continue;

          // Skip candidates that contain an accepted (strictly smaller)
          // DTRS: they are non-minimal supersets by construction.
          bool dominated = false;
          for (const auto& [small, ht] : accepted) {
            if (small.size() < candidate.size() &&
                IsSubsetOf(small, candidate)) {
              dominated = true;
              break;
            }
          }
          if (dominated) continue;

          chain::TxId determined = target_ht[j];
          bool valid = true;
          for (size_t q = 0; q < combos.size(); ++q) {
            if (!IsSubsetOfAssignment(candidate, combos[q])) continue;
            if (target_ht[q] != determined) {
              valid = false;
              break;
            }
          }
          if (valid) accepted.emplace_back(candidate, determined);
        }
        return common::Status::OK();
      }
      for (size_t i = start; i < other_rs.size(); ++i) {
        choice[depth] = other_rs[i];
        TM_RETURN_NOT_OK(recurse(depth + 1, i + 1));
      }
      return common::Status::OK();
    };
    TM_RETURN_NOT_OK(recurse(0, 0));
  }

  // Final minimality sweep (accepted is ordered by generation size but a
  // same-size candidate could still dominate nothing; only cross-size
  // pruning matters and most was done inline).
  std::vector<Dtrs> out;
  for (size_t i = 0; i < accepted.size(); ++i) {
    bool minimal = true;
    for (size_t j = 0; j < accepted.size(); ++j) {
      if (i == j) continue;
      if (accepted[j].first.size() < accepted[i].first.size() &&
          IsSubsetOf(accepted[j].first, accepted[i].first)) {
        minimal = false;
        break;
      }
    }
    if (!minimal) continue;
    Dtrs d;
    d.determined_ht = accepted[i].second;
    for (const auto& [rs, token] : accepted[i].first) {
      d.pairs.push_back(
          chain::TokenRsPair{context.token_id(token), context.rs_id(rs)});
    }
    std::sort(d.pairs.begin(), d.pairs.end(),
              [](const chain::TokenRsPair& a, const chain::TokenRsPair& b) {
                return std::tie(a.rs, a.token) < std::tie(b.rs, b.token);
              });
    out.push_back(std::move(d));
  }
  return out;
}

bool PracticalDtrsDiversityHolds(std::span<const chain::TokenId> members,
                                 size_t v_super, const chain::HtIndex& index,
                                 const chain::DiversityRequirement& req) {
  // Group members by HT.
  std::unordered_map<chain::TxId, std::vector<chain::TokenId>> by_ht;
  for (chain::TokenId t : members) by_ht[index.HtOf(t)].push_back(t);

  for (const auto& [ht, same_ht_tokens] : by_ht) {
    // Theorem 6.1: a DTRS pinning the spend-HT to `ht` exists iff
    // v_super >= |r_i| - |T̃_{i,j}| + 1.
    if (v_super + same_ht_tokens.size() < members.size() + 1) continue;
    // ψ_{i,j} = members \ T̃_{i,j} must satisfy the requirement.
    std::vector<chain::TokenId> psi;
    psi.reserve(members.size() - same_ht_tokens.size());
    for (chain::TokenId t : members) {
      if (index.HtOf(t) != ht) psi.push_back(t);
    }
    if (psi.empty()) {
      // Degenerate: every member shares one HT — the homogeneity case;
      // treat as a violation (an empty DTRS cannot be diverse).
      return false;
    }
    if (!SatisfiesRecursiveDiversity(psi, index, req)) return false;
  }
  return true;
}

size_t SideInfoThreshold(std::span<const chain::TokenId> members,
                         const chain::HtIndex& index) {
  std::vector<int64_t> freq = HtFrequencies(members, index);
  if (freq.empty()) return 0;
  int64_t q_max = freq.front();
  return members.size() - static_cast<size_t>(q_max);
}

}  // namespace tokenmagic::analysis
