// Definite token-RS pair sets (DTRS, Definition 2).
//
// A DTRS of a ring signature r_k is a minimal set of token-RS pairs which,
// if revealed to the adversary, determines the historical transaction of
// r_k's spent token. Two computation paths are provided:
//
//  * Exact (Algorithm 3, GetDTRSs): enumerate all token-RS combinations of
//    the family, generate candidate pair sets, validate each candidate
//    against every combination, and prune non-minimal sets. Exponential;
//    guarded by result/time caps. Used by the exact BFS selector and as the
//    ground truth in tests.
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

#include "analysis/diversity.h"
#include "chain/ht_index.h"
#include "analysis/matching.h"
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
    /// Wall-clock budget for the whole computation (0 = unlimited).
    // tm-lint: allow(float, wall-clock budget, not DTRS counting math)
    double budget_seconds = 0.0;
    /// Cap on candidate-subset size (0 = up to family size - 1).
    size_t max_dtrs_size = 0;
  };

  /// Exact enumeration of all minimal DTRSs of RS `target` (an id present
  /// in `history`). Fails with Timeout/ResourceExhausted when caps trip.
  [[nodiscard]] static common::Result<std::vector<Dtrs>> FindAll(
      std::span<const chain::RsView> history, chain::RsId target,
      const chain::HtIndex& index, const Options& options);
  [[nodiscard]] static common::Result<std::vector<Dtrs>> FindAll(
      std::span<const chain::RsView> history, chain::RsId target,
      const chain::HtIndex& index) {
    return FindAll(history, target, index, Options());
  }

  /// True iff the HT of `target`'s spend is already determined with *no*
  /// side information (every token-RS combination gives the same HT) —
  /// the degenerate "empty DTRS" case of a homogeneity-style leak.
  [[nodiscard]] static common::Result<bool> HtAlreadyDetermined(
      std::span<const chain::RsView> history, chain::RsId target,
      const chain::HtIndex& index, const Options& options);
  [[nodiscard]] static common::Result<bool> HtAlreadyDetermined(
      std::span<const chain::RsView> history, chain::RsId target,
      const chain::HtIndex& index) {
    return HtAlreadyDetermined(history, target, index, Options());
  }
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
