#include "core/resilient.h"

#include <algorithm>
#include <utility>

#include "analysis/diversity.h"
#include "common/macros.h"
#include "common/strings.h"
#include "core/baselines.h"
#include "core/bfs.h"
#include "core/modules.h"
#include "core/progressive.h"

namespace tokenmagic::core {

namespace {

/// Every stage but the last is granted this share of the wall budget
/// still remaining; the last stage gets everything left.
constexpr double kStageBudgetShare = 0.5;

/// The winning ring must hold up under the requirement the report claims
/// for it: contain the target and satisfy recursive (c, ℓ)-diversity.
/// Degradation may weaken the requirement, never the validity.
bool RingIsValid(const SelectionResult& result, const SelectionInput& input,
                 const chain::DiversityRequirement& satisfied) {
  if (!std::binary_search(result.members.begin(), result.members.end(),
                          input.target)) {
    return false;
  }
  return analysis::SatisfiesRecursiveDiversity(result.members, *input.index,
                                               satisfied);
}

}  // namespace

std::string DegradationReport::ToString() const {
  std::string out = common::StrFormat(
      "stage=%s index=%zu degraded=%d req=(%g,%d) spent=%.3fs iters=%llu",
      stage.empty() ? "<none>" : stage.c_str(), stage_index,
      degraded ? 1 : 0, satisfied_requirement.c, satisfied_requirement.ell,
      total_seconds, static_cast<unsigned long long>(total_iterations));
  for (const StageAttempt& a : attempts) {
    out += common::StrFormat(
        " [%s:%s %.3fs it=%llu rx=%d]", a.stage.c_str(),
        common::StatusCodeToString(a.outcome), a.seconds_spent,
        static_cast<unsigned long long>(a.iterations), a.relaxation_steps);
  }
  return out;
}

ResilientSelector::ResilientSelector(ResilientOptions options)
    : options_(std::move(options)) {
  // Exact first: BFS with a universe cap so a mis-sized instance fails
  // fast with InvalidArgument instead of an exponential spin; the stage
  // deadline bounds it in time either way.
  BfsSelector::Options bfs_options;
  bfs_options.max_universe = 24;
  owned_.push_back(std::make_unique<BfsSelector>(bfs_options));
  owned_.push_back(std::make_unique<ProgressiveSelector>());
  owned_.push_back(std::make_unique<SmallestSelector>());
  for (const auto& selector : owned_) ladder_.push_back(selector.get());
}

ResilientSelector::ResilientSelector(
    std::vector<const MixinSelector*> ladder, ResilientOptions options)
    : ladder_(std::move(ladder)), options_(std::move(options)) {
  TM_CHECK(!ladder_.empty());
}

common::Result<ResilientSelection> ResilientSelector::SelectWithReport(
    const SelectionInput& input, common::Rng* rng) const {
  using common::Status;
  if (input.index == nullptr) {
    return Status::InvalidArgument("SelectionInput.index must be set");
  }
  TM_RETURN_NOT_OK(RequireContext(input));
  // A universe or history that disagrees with the snapshot is a caller
  // error whatever the ladder holds, not a stage to fall past.
  TM_RETURN_NOT_OK(
      CheckSnapshotShape(input.universe, input.history, *input.context));

  const common::Clock* clock = options_.clock;
  if (clock == nullptr && input.deadline != nullptr) {
    clock = input.deadline->clock();
  }
  common::Deadline overall(options_.total_budget_seconds,
                           options_.total_iteration_budget, clock,
                           input.deadline);

  DegradationReport report;
  bool saw_timeout = false;
  for (size_t stage_index = 0; stage_index < ladder_.size(); ++stage_index) {
    if (overall.Expired()) {
      saw_timeout = true;
      break;
    }
    const MixinSelector* stage_selector = ladder_[stage_index];
    const bool last_stage = stage_index + 1 == ladder_.size();

    // Per-stage wall budget: a share of what is left, everything for
    // the last stage. 0 stays "unlimited" when the overall budget is.
    // Stages have no iteration cap of their own; the overall one binds.
    double stage_budget = 0.0;
    if (overall.budget_seconds() > 0.0) {
      double remaining = std::max(overall.RemainingSeconds(), 0.0);
      stage_budget = last_stage ? remaining : remaining * kStageBudgetShare;
    }
    common::Deadline stage_deadline = overall.Stage(stage_budget, 0);

    SelectionInput attempt = input;
    attempt.deadline = &stage_deadline;

    StageAttempt record;
    record.stage = std::string(stage_selector->name());

    SelectionResult selected;
    chain::DiversityRequirement satisfied = input.requirement;
    Status status = Status::OK();
    if (options_.allow_relaxation) {
      RelaxingSelector relaxing(stage_selector, options_.relaxation);
      auto result = relaxing.Select(attempt, rng);
      if (result.ok()) {
        satisfied = result->used_requirement;
        record.relaxation_steps = result->relaxation_steps;
        selected = std::move(result->result);
      } else {
        status = result.status();
      }
    } else {
      auto result = stage_selector->Select(attempt, rng);
      if (result.ok()) {
        selected = std::move(result).value();
      } else {
        status = result.status();
      }
    }
    record.seconds_spent = stage_deadline.ElapsedSeconds();
    record.iterations = stage_deadline.iterations_used();

    if (status.ok() && !RingIsValid(selected, input, satisfied)) {
      // A stage returned a ring that fails its own claimed requirement.
      // Refuse it — committing a silently weaker ring is the one failure
      // mode this selector exists to prevent — and keep descending.
      status = Status::Internal(common::StrFormat(
          "stage %s produced a ring violating its reported requirement",
          record.stage.c_str()));
    }

    if (status.ok()) {
      record.outcome = common::StatusCode::kOk;
      report.attempts.push_back(record);
      report.stage = record.stage;
      report.stage_index = stage_index;
      report.degraded = stage_index > 0 || record.relaxation_steps > 0;
      report.satisfied_requirement = satisfied;
      report.total_seconds = overall.ElapsedSeconds();
      report.total_iterations = overall.iterations_used();
      ResilientSelection out;
      out.result = std::move(selected);
      out.report = std::move(report);
      return out;
    }

    record.outcome = status.code();
    record.detail = status.message();
    report.attempts.push_back(std::move(record));
    switch (status.code()) {
      case common::StatusCode::kTimeout:
        saw_timeout = true;
        continue;  // next stage inherits the remaining budget
      case common::StatusCode::kUnsatisfiable:
      case common::StatusCode::kResourceExhausted:
      case common::StatusCode::kInternal:
        continue;
      case common::StatusCode::kInvalidArgument:
        // The exact stage may reject instances (universe cap) that the
        // approximations handle; only a ladder-wide InvalidArgument is a
        // caller error, reported below if every stage agrees.
        continue;
      default:
        return status;  // unexpected error: never mask it
    }
  }

  std::string summary;
  for (const StageAttempt& a : report.attempts) {
    if (!summary.empty()) summary += "; ";
    summary += common::StrFormat("%s: %s", a.stage.c_str(),
                                 common::StatusCodeToString(a.outcome));
  }
  if (saw_timeout) {
    return Status::Timeout("resilient selection budget exhausted (" +
                           summary + ")");
  }
  bool all_invalid =
      !report.attempts.empty() &&
      std::all_of(report.attempts.begin(), report.attempts.end(),
                  [](const StageAttempt& a) {
                    return a.outcome ==
                           common::StatusCode::kInvalidArgument;
                  });
  if (all_invalid) {
    return Status::InvalidArgument("every fallback stage rejected the "
                                   "instance (" +
                                   summary + ")");
  }
  return Status::Unsatisfiable("no fallback stage found an eligible ring (" +
                               summary + ")");
}

common::Result<SelectionResult> ResilientSelector::Select(
    const SelectionInput& input, common::Rng* rng) const {
  TM_ASSIGN_OR_RETURN(ResilientSelection selection,
                      SelectWithReport(input, rng));
  return std::move(selection.result);
}

}  // namespace tokenmagic::core
