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

}  // namespace

std::vector<chain::DiversityRequirement> RelaxingSelector::Schedule(
    const chain::DiversityRequirement& original) {
  std::vector<chain::DiversityRequirement> out = {original};
  chain::DiversityRequirement current = original;
  bool relax_c_next = true;
  for (int step = 0; step < kMaxSteps; ++step) {
    bool c_exhausted = current.c >= kCMax;
    bool ell_exhausted = current.ell <= kEllMin;
    if (c_exhausted && ell_exhausted) break;
    // Alternate the two knobs, falling back to whichever still has room.
    bool relax_c = relax_c_next ? !c_exhausted : c_exhausted;
    if (relax_c) {
      current.c = std::min(current.c * kCGrowth, kCMax);
    } else {
      current.ell = std::max(current.ell - kEllStep, kEllMin);
    }
    relax_c_next = !relax_c_next;
    out.push_back(current);
  }
  return out;
}

common::Result<RelaxedSelection> RelaxingSelector::Select(
    const SelectionInput& input, common::Rng* rng) const {
  TM_CHECK(inner_ != nullptr);
  common::Status last = common::Status::Unsatisfiable("empty schedule");
  std::vector<chain::DiversityRequirement> schedule =
      Schedule(input.requirement);
  for (size_t step = 0; step < schedule.size(); ++step) {
    if (DeadlineExpired(input)) {
      return common::Status::Timeout(
          "relaxation schedule abandoned: deadline expired");
    }
    SelectionInput attempt = input;
    attempt.requirement = schedule[step];
    auto result = inner_->Select(attempt, rng);
    if (result.ok()) {
      RelaxedSelection out;
      out.result = std::move(result).value();
      out.used_requirement = schedule[step];
      out.relaxation_steps = static_cast<int>(step);
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
