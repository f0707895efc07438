// Span-based reference implementations of the adversary analysis, kept in
// tests/ only as oracles for the randomized equivalence suites.
//
// Production interns a history once (an AnalysisContext sealed off an
// EpochChain) and reads it through the context entry points. The oracles
// below re-derive every structure from the raw RsView spans on each call,
// in the most direct form of the paper's definitions — hash-map inverted
// indexes, per-iteration fixpoints, pairwise configuration scans, and
// sort-based interning — so a disagreement points at the interned path.
// Hand-written unit tests call the production path, not these.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "analysis/chain_reaction.h"
#include "analysis/context.h"
#include "analysis/related_set.h"
#include "chain/ht_index.h"
#include "chain/types.h"
#include "common/status.h"

namespace tokenmagic::oracle {

/// Definition 1: the related RS set of `target_tokens` in BFS order, over
/// a token -> RS index rebuilt per call.
analysis::RelatedSetResult ComputeRelatedSet(
    std::span<const chain::TokenId> target_tokens,
    std::span<const chain::RsView> history);

/// Theorem 4.1 cascade: rules 1-3 re-evaluated every iteration over
/// per-iteration hash maps until nothing changes.
analysis::AnalysisResult Cascade(
    std::span<const chain::RsView> history,
    const analysis::SideInformation& side_info = {});

/// μ_i: the number of tokens Cascade proves spent.
size_t CountInferableSpent(std::span<const chain::RsView> history);

/// Sign of q1 - c * tail (q1, tail >= 0, c finite and >= 0) in the exact
/// integer form of analysis::DiversitySlack, with the trailing zero bits
/// of c's mantissa shed one loop turn at a time.
int CompareSlackBitwise(int64_t q1, double c, int64_t tail);

/// One module of the reference decomposition, owning its tokens.
struct OracleModule {
  size_t index = 0;
  bool is_fresh = false;
  chain::RsId super_rs = chain::kInvalidRs;
  std::vector<chain::TokenId> tokens;
  size_t subset_count = 0;
};

/// Section 6.1 module decomposition, as plain data.
struct ModuleDecomposition {
  std::vector<OracleModule> modules;
  std::vector<std::vector<chain::RsId>> subset_rs;  // per module
  size_t token_count = 0;
};

/// The decomposition via a pairwise first-practical-configuration scan and
/// a per-super scan of the whole history for subset lists.
common::Result<ModuleDecomposition> BuildModules(
    std::span<const chain::TokenId> universe,
    std::span<const chain::RsView> history);

/// Asserts (gtest) that every accessor of `got` matches a sort-based
/// interning of `history` plus `universe`: tokens sorted and unique, RSs
/// in history order, HTs in first-appearance order over the token column,
/// and the token -> RS lists in ascending RS order.
void ExpectInterned(const analysis::AnalysisContext& got,
                    std::span<const chain::RsView> history,
                    const chain::HtIndex* index,
                    std::span<const chain::TokenId> universe);

}  // namespace tokenmagic::oracle
