// Algorithm 1 of the TokenMagic framework (Section 4) as a selector
// decorator.
//
// A ring returned for the target alone is a function of (target,
// snapshot, requirement), which an observer can replay. Algorithm 1
// instead runs the inner selector for every token s of the batch universe
// T, keeps the rings R_s that contain the target (lines 3-6), and draws
// one of them uniformly (line 7). Every member of the returned ring then
// had that very ring among its own candidates. Before the ring is
// returned, the liquidity rule i − μ_i ≥ η·(|T| − i) must hold with it
// appended, so later spenders of the batch still find eligible rings.
//
// A node has no ground truth, so every token of T is a seed, spent or
// not. Algorithm 1 is a composition over any MixinSelector rather than a
// flag on one selector: callers choose it by wrapping, and the per-token
// runs share the instance's snapshot (`owner`) and budget (`deadline`).
#pragma once

#include <string_view>
#include <vector>

#include "core/selector.h"

namespace tokenmagic::core {

/// The liquidity rule (Section 4): with the prospective ring `members`
/// appended to `input.history`, does i − μ_i ≥ η·(|T| − i) hold? Here i
/// counts the rings, μ_i the tokens the chain-reaction cascade proves
/// spent, and |T| the universe. `input.context` must be set and must
/// intern every member.
bool LiquidityAllows(const SelectionInput& input,
                     const std::vector<chain::TokenId>& members, double eta);

class Algorithm1Selector final : public MixinSelector {
 public:
  /// `inner` must outlive the decorator.
  Algorithm1Selector(const MixinSelector& inner, double eta)
      : inner_(inner), eta_(eta) {}

  /// InvalidArgument without a context and Timeout on an expired deadline,
  /// both before any inner run. An inner error other than Unsatisfiable
  /// is returned as is. When no R_s contains the target, `inner`'s result
  /// for the target is the one candidate. A ring that breaks the liquidity
  /// rule is Unsatisfiable.
  [[nodiscard]] common::Result<SelectionResult> Select(
      const SelectionInput& input, common::Rng* rng) const override;

  /// The inner selector's name: Algorithm 1 changes which of its rings is
  /// returned, not how rings are built.
  std::string_view name() const override { return inner_.name(); }

 private:
  const MixinSelector& inner_;
  double eta_;
};

}  // namespace tokenmagic::core
