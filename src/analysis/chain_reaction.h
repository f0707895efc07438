// Chain-reaction analysis: the adversary's elimination engine.
//
// Two elimination mechanisms are implemented:
//
//  * The *cascade* (polynomial): Theorem 4.1's closure — whenever a set of
//    RSs collectively covers exactly as many tokens as there are RSs, every
//    covered token is spent. We run the per-token "neighbor set" rule from
//    Section 4 together with the classic zero-mixin cascade (an RS whose
//    members are all-but-one known-spent reveals its own spend) to a fixed
//    point, over an AnalysisContext's interned incidence.
//
//  * The *exact* analysis (matching-based, still polynomial per query):
//    token t is a possible spend of RS r iff some token-RS combination
//    assigns t to r (HopcroftKarp::IsPossibleSpend). A token of r that is
//    not a possible spend has been "eliminated" in the paper's sense; an RS
//    with a single possible spend is fully deanonymized.
//
// The adversary can also hold side information (revealed token-RS pairs,
// Definition 3), which both mechanisms take as forced assignments.
#pragma once

#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/context.h"
#include "chain/types.h"

namespace tokenmagic::analysis {

/// Adversary side information SI: revealed token-RS pairs.
struct SideInformation {
  std::vector<chain::TokenRsPair> revealed;
};

/// Result of a full analysis pass over an RS history.
struct AnalysisResult {
  /// Tokens known to be spent (in *some* RS, possibly unknown which).
  std::unordered_set<chain::TokenId> spent_tokens;
  /// Fully deanonymized RSs: rs -> its (unique possible) spent token.
  std::unordered_map<chain::RsId, chain::TokenId> revealed_spends;
  /// Eliminated pairs: token t provably NOT the spend of RS r, for t a
  /// member of r. Keyed by rs id.
  std::unordered_map<chain::RsId, std::vector<chain::TokenId>> eliminated;
  /// Per-RS possible-spend sets (the anonymity set after analysis).
  std::unordered_map<chain::RsId, std::vector<chain::TokenId>>
      possible_spends;

  /// True when every member of every RS remains a possible spend — the
  /// paper's non-eliminated constraint.
  bool NoTokenEliminated() const;
};

class ChainReactionAnalyzer {
 public:
  /// Exact matching-based analysis of the context's history under
  /// `side_info`. Every member token of every RS is tested for
  /// possible-spend-ness by matching over the context itself (side
  /// information adds one forced context with the revealed pairs pinned);
  /// the spent-token closure comes from Cascade over the same context, so
  /// the caller interns the history once.
  static AnalysisResult Analyze(const AnalysisContext& context,
                                const SideInformation& side_info = {});

  /// Polynomial cascade only (Theorem 4.1 neighbor-set rule + zero-mixin
  /// propagation) over the context's history, on its CSR incidence with
  /// dense frontiers. Sound but not complete: it finds a subset of what
  /// Analyze finds. Returns the set of provably spent tokens and any RSs
  /// whose spend it pinned down.
  static AnalysisResult Cascade(const AnalysisContext& context,
                                const SideInformation& side_info = {});

  /// Number of tokens the cascade can prove spent — the μ_i quantity of
  /// the liquidity rule (Section 4, core::LiquidityAllows).
  static size_t CountInferableSpent(const AnalysisContext& context);

  /// μ_i with one prospective `overlay` RS appended to the context's
  /// history — the probe core::LiquidityAllows runs. Equivalent to interning an
  /// extended history from scratch (the equivalence suite asserts it) but
  /// O(cascade) instead of O(history) per probe: the overlay rides on the
  /// snapshot's CSR incidence as one extra dense RS. Every overlay member
  /// must be interned in `context` (prospective rings draw from the batch
  /// universe, which batch snapshots intern).
  static size_t CountInferableSpent(const AnalysisContext& context,
                                    const chain::RsView& overlay);
};

}  // namespace tokenmagic::analysis
