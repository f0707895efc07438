// Bipartite token-RS matching machinery.
//
// A *token-RS combination* (Definition 6) of a family of RSs is a system of
// distinct representatives (SDR): each RS is assigned a distinct member
// token as its hypothetical spend. These objects drive both the exact
// analyses (DTRS enumeration, Algorithm 2's non-eliminated check — #P in
// general, Theorem 3.1) and the polynomial "is token t a possible spend of
// RS r" test via maximum bipartite matching.
//
// The family is the history of an AnalysisContext: RSs and tokens are its
// dense locals (Members(r) ascending), so the matching reads the same
// interned columns as every other analysis. A caller holding only views
// interns them once with AnalysisContext::Build.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "analysis/context.h"
#include "common/status.h"

namespace tokenmagic::analysis {

/// One complete assignment: assignment[r] = token local spent by RS local r.
using SdrAssignment = std::vector<AnalysisContext::Local>;

/// Enumerates token-RS combinations (SDRs saturating every RS).
class SdrEnumerator {
 public:
  struct Options {
    /// Stop after this many SDRs (0 = unlimited).
    uint64_t max_results = 0;
    /// Wall-clock budget; expiry aborts with Status::Timeout.
    // tm-lint: allow(float, wall-clock budget, not exact enumeration math)
    double budget_seconds = 0.0;
  };

  /// Invokes `visitor` for every SDR of the context's history; the visitor
  /// may return false to stop early. Returns OK, Timeout, or
  /// ResourceExhausted (max_results hit).
  [[nodiscard]] static common::Status Enumerate(
      const AnalysisContext& context, const Options& options,
      const std::function<bool(const SdrAssignment&)>& visitor);

  /// Counts all SDRs (subject to the same caps).
  [[nodiscard]] static common::Result<uint64_t> Count(
      const AnalysisContext& context, const Options& options);
  [[nodiscard]] static common::Result<uint64_t> Count(
      const AnalysisContext& context) {
    return Count(context, Options());
  }
};

/// Maximum bipartite matching (RSs -> tokens) via Hopcroft–Karp.
class HopcroftKarp {
 public:
  using Local = AnalysisContext::Local;

  /// Size of a maximum matching of the context's history with RS
  /// `skip_rs` removed (pass rs_count() to keep all) and token
  /// `banned_token` unusable (pass token_count() to ban none).
  static size_t MaxMatching(const AnalysisContext& context, size_t skip_rs,
                            size_t banned_token);

  /// True when every RS can simultaneously be assigned a distinct token.
  static bool HasCompleteSdr(const AnalysisContext& context);

  /// True when some SDR assigns token `t` to RS `r`.
  /// (Polynomial: force r->t, ban t elsewhere, test the rest matches.)
  static bool IsPossibleSpend(const AnalysisContext& context, Local r,
                              Local t);

  /// All member tokens of RS `r` that are possible spends of it.
  static std::vector<Local> PossibleSpends(const AnalysisContext& context,
                                           Local r);
};

/// Counts SDRs with a token-bitmask dynamic program, O(2^n · n) for n =
/// token_count() <= 24. Independent of the backtracking enumerator, so the
/// two validate each other in tests and ablations.
uint64_t CountSdrsDp(const AnalysisContext& context);

}  // namespace tokenmagic::analysis
