// Related RS set computation (Definition 1).
//
// The related RS set of a target token set r_k at time π is the transitive
// closure, under token sharing, of the RSs proposed before π that intersect
// r_k. Level 0 contains the RSs sharing a token with r_k directly; level i
// contains RSs sharing a token with some level-(i-1) RS.
//
// The walk reads the snapshot's inverted index with a bitset frontier, so
// each query is O(|reached incidence|) over a context sealed once per
// block. The equivalence suite (tests/analysis/context_test.cc) pins its
// BFS order against a span-based reference kept in tests/.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "analysis/context.h"
#include "chain/types.h"

namespace tokenmagic::analysis {

/// One discovered RS with its BFS level.
struct RelatedRs {
  chain::RsId id;
  size_t level;
};

/// Result of a related-set query.
struct RelatedSetResult {
  /// Discovered RSs in BFS order.
  std::vector<RelatedRs> related;

  /// Ids only, in BFS order.
  std::vector<chain::RsId> Ids() const;
  /// Ids at a given level.
  std::vector<chain::RsId> IdsAtLevel(size_t level) const;
};

/// Computes the related RS set of `target_tokens` over the context's
/// history (all RSs proposed so far), in BFS order. Target tokens unknown
/// to the context are ignored (they can have no neighbor RSs in the
/// snapshot's history).
RelatedSetResult ComputeRelatedSet(
    std::span<const chain::TokenId> target_tokens,
    const AnalysisContext& context);

}  // namespace tokenmagic::analysis
