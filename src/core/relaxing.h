// Requirement relaxation (Section 4): "if users think the returned RS is
// not desirable or the framework cannot return an eligible RS, they can
// relax the diversity requirement by increasing c or decreasing ℓ."
//
// RelaxingSelector wraps any inner selector and, on Unsatisfiable, walks
// one fixed relaxation schedule (alternately scaling c up by 1.5 and
// stepping ℓ down by 1, to the floors c = 16 and ℓ = 1, at most 64 steps)
// until the instance becomes feasible or the floor is reached. The
// requirement actually used is reported so the caller can decide whether
// the weakened anonymity is acceptable.
#pragma once

#include <vector>

#include "core/selector.h"

namespace tokenmagic::core {

/// A selection result annotated with the requirement that produced it.
struct RelaxedSelection {
  SelectionResult result;
  chain::DiversityRequirement used_requirement;
  int relaxation_steps = 0;  ///< 0 = the original requirement held
};

class RelaxingSelector {
 public:
  explicit RelaxingSelector(const MixinSelector* inner) : inner_(inner) {}

  /// Tries the original requirement first, then the schedule. Returns
  /// Unsatisfiable only when even the fully relaxed instance fails.
  [[nodiscard]] common::Result<RelaxedSelection> Select(const SelectionInput& input,
                                          common::Rng* rng) const;

  /// The requirements the schedule would try, in order (including the
  /// original as the first entry). Exposed for tests and UIs.
  static std::vector<chain::DiversityRequirement> Schedule(
      const chain::DiversityRequirement& original);

 private:
  const MixinSelector* inner_;
};

}  // namespace tokenmagic::core
