// Definite token-RS pair sets (DTRS, Definition 2).
//
// A DTRS of a ring signature r_k is a minimal set of token-RS pairs which,
// if revealed to the adversary, determines the historical transaction of
// r_k's spent token. Two computation paths are provided:
//
//  * Exact (Algorithm 3, GetDTRSs): enumerate all token-RS combinations of
//    a context's history, generate candidate pair sets, validate each
//    candidate against every combination, and prune non-minimal sets.
//    Exponential; guarded by result/time caps. Used by the exact BFS
//    selector and as the ground truth in tests.
//
//  * Practical (Theorem 6.1): under the first practical configuration
//    (every RS is a union of super RSs and fresh tokens), the token set of
//    the DTRS that pins r_i's spend-HT to h_j is ψ_{i,j} = r_i \ T̃_{i,j},
//    and it exists iff v_{i*} >= |r_i| - |T̃_{i,j}| + 1 where v_{i*} is the
//    subset count of r_i's super RS. This reduces the DTRS-diversity check
//    to a linear scan over the HTs of r_i.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "analysis/context.h"
#include "analysis/diversity.h"
#include "chain/ht_index.h"
#include "chain/types.h"
#include "common/status.h"

namespace tokenmagic::analysis {

/// One definite token-RS pair set.
struct Dtrs {
  std::vector<chain::TokenRsPair> pairs;  ///< sorted by (rs, token)
  chain::TxId determined_ht = chain::kInvalidTx;

  /// The tokens of the pairs (for diversity checks).
  std::vector<chain::TokenId> Tokens() const;
};

class DtrsFinder {
 public:
  struct Options {
    /// Cap on the number of SDRs materialized (0 = unlimited).
    uint64_t max_combinations = 200000;
    /// Wall-clock budget for the enumeration and for each Find
    /// (0 = unlimited).
    // tm-lint: allow(float, wall-clock budget, not DTRS counting math)
    double budget_seconds = 0.0;
  };

  /// Enumerates the token-RS combinations of `context` once (one
  /// SdrEnumerator pass); Find then runs Algorithm 3's candidate
  /// generation and validation over them for any RS of the context, with
  /// HTs read from `index`. Both must outlive the finder. Fails with
  /// Timeout/ResourceExhausted when the enumeration's caps trip.
  [[nodiscard]] static common::Result<DtrsFinder> ForContext(
      const AnalysisContext& context, const chain::HtIndex& index,
      const Options& options);

  /// Exact enumeration of all minimal DTRSs of RS `target` (an id present
  /// in the context's history). Fails with Timeout when the budget trips.
  [[nodiscard]] common::Result<std::vector<Dtrs>> Find(
      chain::RsId target) const;

  /// ForContext then Find, for one RS.
  [[nodiscard]] static common::Result<std::vector<Dtrs>> FindAll(
      const AnalysisContext& context, chain::RsId target,
      const chain::HtIndex& index, const Options& options);
  [[nodiscard]] static common::Result<std::vector<Dtrs>> FindAll(
      const AnalysisContext& context, chain::RsId target,
      const chain::HtIndex& index) {
    return FindAll(context, target, index, Options());
  }

 private:
  DtrsFinder(const AnalysisContext& context, const chain::HtIndex& index,
             const Options& options,
             std::vector<std::vector<AnalysisContext::Local>> combos)
      : context_(&context),
        index_(&index),
        options_(options),
        combos_(std::move(combos)) {}

  // tm-borrows(caller): ForContext's caller keeps the context alive for
  // as long as it uses the finder.
  const AnalysisContext* context_;
  // tm-borrows(caller): likewise the index.
  const chain::HtIndex* index_;
  Options options_;
  /// Every token-RS combination, as a token local per RS local.
  std::vector<std::vector<AnalysisContext::Local>> combos_;
};

/// Theorem 6.1 practical check: every DTRS of an RS with members `members`
/// and super-RS subset-count `v_super` satisfies `req`. Runs in
/// O(|members| · |HTs|).
bool PracticalDtrsDiversityHolds(std::span<const chain::TokenId> members,
                                 size_t v_super, const chain::HtIndex& index,
                                 const chain::DiversityRequirement& req);

/// Theorem 6.2 threshold: the minimum side-information cardinality needed
/// to confirm the spend-HT of an RS: |members| - q_M where q_M is the
/// highest HT frequency in the RS.
size_t SideInfoThreshold(std::span<const chain::TokenId> members,
                         const chain::HtIndex& index);

}  // namespace tokenmagic::analysis
