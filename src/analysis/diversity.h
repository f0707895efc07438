// Recursive (c, ℓ)-diversity of token sets (Definition 4).
//
// The sensitive attribute of a token is its historical transaction (HT).
// For a token set whose HT frequencies, sorted descending, are
// q_1 >= q_2 >= ... >= q_θ, the set satisfies recursive (c, ℓ)-diversity iff
//   q_1 < c * (q_ℓ + q_{ℓ+1} + ... + q_θ).
// When θ < ℓ the tail sum is empty (zero) and the requirement fails.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "analysis/context.h"
#include "chain/ht_index.h"
#include "chain/types.h"

namespace tokenmagic::analysis {

/// Descending HT frequency vector (q_1 >= ... >= q_θ) of a token set.
std::vector<int64_t> HtFrequencies(std::span<const chain::TokenId> tokens,
                                   const chain::HtIndex& index);

/// Context-based frequencies: identical vector, using the snapshot's flat
/// token -> HT column (every token must be interned with a known HT).
std::vector<int64_t> HtFrequencies(std::span<const chain::TokenId> tokens,
                                   const AnalysisContext& context);

/// Number of distinct HTs among `tokens`.
size_t DistinctHtCount(std::span<const chain::TokenId> tokens,
                       const chain::HtIndex& index);

/// Core predicate on a sorted-descending frequency vector.
/// Empty input never satisfies any requirement.
bool SatisfiesRecursiveDiversity(const std::vector<int64_t>& frequencies,
                                 const chain::DiversityRequirement& req);

/// Convenience: predicate on a token set.
bool SatisfiesRecursiveDiversity(std::span<const chain::TokenId> tokens,
                                 const chain::HtIndex& index,
                                 const chain::DiversityRequirement& req);

/// Context-based convenience predicate.
bool SatisfiesRecursiveDiversity(std::span<const chain::TokenId> tokens,
                                 const AnalysisContext& context,
                                 const chain::DiversityRequirement& req);

/// Slack δ = q_1 - c * (q_ℓ + ... + q_θ): negative iff the requirement is
/// met; used as the greedy potential in the Progressive Algorithm (§6.2).
/// The sign always matches the exact integer feasibility verdict even when
/// the double magnitude rounds.
// tm-lint: allow(float, greedy potential; sign exact, magnitude may round)
double DiversitySlack(const std::vector<int64_t>& frequencies,
                      const chain::DiversityRequirement& req);

/// The same slack from its two integers: q_1 and the tail sum
/// q_ℓ + ... + q_θ (zero when θ < ℓ). The vector forms of DiversitySlack
/// and SatisfiesRecursiveDiversity call this one, so a caller that
/// derives (q_1, tail) without the vector gets the same double bit for
/// bit.
// tm-lint: allow(float, greedy potential; sign exact, magnitude may round)
double DiversitySlack(int64_t q1, int64_t tail,
                      const chain::DiversityRequirement& req);

/// True when the slack arithmetic at `c` is exact for token sets of at
/// most `max_tokens` tokens: c == m * 2^e with odd m, and m * T * 2^e
/// (e > 0) and T * 2^-e (e < 0) stay below 2^52 for T = max_tokens. Then
/// q_1 - c * tail and c * |x| are exact doubles for any q_1, tail and |x|
/// up to T, so DiversitySlack neither rounds nor nudges, and rounding a
/// bound such as δ - δ_i <= c * |x| keeps it. False for any c whose
/// mantissa is long (0.6) and for c <= 0.
// tm-lint: allow(float, exactness test of the slack arithmetic)
bool SlackIsExact(double c, int64_t max_tokens);

}  // namespace tokenmagic::analysis
