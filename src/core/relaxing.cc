#include "core/relaxing.h"

#include <algorithm>

#include "common/macros.h"

namespace tokenmagic::core {

namespace {

/// Multiplier applied to c at each c-relaxation step.
constexpr double kCGrowth = 1.5;
/// Subtracted from ℓ at each ℓ-relaxation step.
constexpr int kEllStep = 1;
/// Floors: relaxation never crosses these.
constexpr double kCMax = 16.0;
constexpr int kEllMin = 1;
/// Cap on total relaxation steps.
constexpr int kMaxSteps = 64;

/// Advances `current` one step of the schedule: alternate the two knobs,
/// c first, falling back to whichever still has room, so every step
/// changes the requirement. False, leaving `current`, at both floors.
bool NextRequirement(chain::DiversityRequirement* current,
                     bool* relax_c_next) {
  bool c_exhausted = current->c >= kCMax;
  bool ell_exhausted = current->ell <= kEllMin;
  if (c_exhausted && ell_exhausted) return false;
  bool relax_c = !c_exhausted && (*relax_c_next || ell_exhausted);
  if (relax_c) {
    current->c = std::min(current->c * kCGrowth, kCMax);
  } else {
    current->ell = std::max(current->ell - kEllStep, kEllMin);
  }
  *relax_c_next = !*relax_c_next;
  return true;
}

}  // namespace

std::vector<chain::DiversityRequirement> RelaxingSelector::Schedule(
    const chain::DiversityRequirement& original) {
  std::vector<chain::DiversityRequirement> out = {original};
  chain::DiversityRequirement current = original;
  bool relax_c_next = true;
  for (int step = 0; step < kMaxSteps; ++step) {
    if (!NextRequirement(&current, &relax_c_next)) break;
    out.push_back(current);
  }
  return out;
}

common::Result<RelaxedSelection> RelaxingSelector::Select(
    const SelectionInput& input, common::Rng* rng) const {
  TM_CHECK(inner_ != nullptr);
  // The Schedule entries, generated one at a time: most selections end at
  // the original requirement.
  chain::DiversityRequirement requirement = input.requirement;
  bool relax_c_next = true;
  common::Status last = common::Status::Unsatisfiable("empty schedule");
  for (int step = 0; step <= kMaxSteps; ++step) {
    if (step > 0 && !NextRequirement(&requirement, &relax_c_next)) break;
    if (DeadlineExpired(input)) {
      return common::Status::Timeout(
          "relaxation schedule abandoned: deadline expired");
    }
    SelectionInput attempt = input;
    attempt.requirement = requirement;
    auto result = inner_->Select(attempt, rng);
    if (result.ok()) {
      RelaxedSelection out;
      out.result = std::move(result).value();
      out.used_requirement = requirement;
      out.relaxation_steps = step;
      return out;
    }
    if (!result.status().IsUnsatisfiable()) {
      return result.status();  // real error: do not mask it
    }
    last = result.status();
  }
  return last;
}

}  // namespace tokenmagic::core
