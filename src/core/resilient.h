// Deadline-aware resilient DA-MS selection.
//
// DA-MS is NP-hard (Theorem 5.1) and the exact BFS selector is
// exponential, so a production pipeline can never let one pathological
// batch hang ring generation. ResilientSelector chains an ordered
// fallback ladder — by default exact BFS, then the Progressive
// approximation, then the smallest-eligible greedy — under one overall
// deadline, carving a per-stage budget out of whatever remains. A stage
// that times out or reports Unsatisfiable hands the instance (and the
// unspent budget) to the next stage; within a stage, Unsatisfiable
// triggers retry-with-relaxation along the Section-4 schedule
// (core/relaxing.h).
//
// The selector never degrades silently: every Select is accompanied by a
// structured DegradationReport naming the stage that produced the ring,
// the budgets each stage spent, and the requirement the returned ring
// actually satisfies. A degraded ring must still pass the eligibility
// checks for its reported requirement — candidates that fail the final
// re-validation are rejected and the ladder continues — so callers can
// always trust (members, satisfied_requirement) pairs; what degrades is
// the requirement and the optimality, never the validity.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/relaxing.h"
#include "core/selector.h"

namespace tokenmagic::core {

/// One ladder stage's outcome, for the degradation report.
struct StageAttempt {
  std::string stage;                  ///< inner selector name ("TM_B", ...)
  common::StatusCode outcome = common::StatusCode::kOk;
  std::string detail;                 ///< status message on failure
  double seconds_spent = 0.0;         ///< wall budget this stage consumed
  uint64_t iterations = 0;            ///< iteration budget consumed
  int relaxation_steps = 0;           ///< relaxation depth reached (ok only)
};

/// Structured account of how a resilient selection was produced.
struct DegradationReport {
  /// Every stage tried, in ladder order, including the winning one.
  std::vector<StageAttempt> attempts;
  /// Name of the stage that produced the ring ("" when all failed).
  std::string stage;
  size_t stage_index = 0;
  /// True when a fallback stage (index > 0) or a relaxed requirement was
  /// needed — the caller should log/alert on degraded selections.
  bool degraded = false;
  /// The requirement the returned ring actually satisfies (equals the
  /// requested requirement when relaxation_steps == 0).
  chain::DiversityRequirement satisfied_requirement;
  double total_seconds = 0.0;
  uint64_t total_iterations = 0;

  /// One-line human-readable summary for logs.
  std::string ToString() const;
};

/// A selection plus the report describing how it degraded (or did not).
struct ResilientSelection {
  SelectionResult result;
  DegradationReport report;
};

struct ResilientOptions {
  /// Overall wall budget across all stages (0 = rely on the instance
  /// deadline / unlimited).
  double total_budget_seconds = 0.0;
  /// Overall iteration budget across all stages (0 = unlimited).
  uint64_t total_iteration_budget = 0;
  /// Retry Unsatisfiable stages with the Section-4 relaxation schedule.
  bool allow_relaxation = true;
  RelaxationPolicy relaxation;
  /// Clock injected into the overall deadline (tests use ManualClock).
  const common::Clock* clock = nullptr;
};

class ResilientSelector : public MixinSelector {
 public:
  /// Default ladder: exact BFS (universe-capped) -> Progressive ->
  /// Smallest-eligible.
  explicit ResilientSelector(ResilientOptions options = {});

  /// Custom ladder in fallback order; the pointed-to selectors must
  /// outlive this selector.
  ResilientSelector(std::vector<const MixinSelector*> ladder,
                    ResilientOptions options = {});

  /// Runs the ladder and reports how the result was obtained. Returns
  /// Timeout when every stage ran out of budget, Unsatisfiable when every
  /// stage (after relaxation) proved/failed the instance, and propagates
  /// any input-level error (InvalidArgument, ...) immediately.
  [[nodiscard]] common::Result<ResilientSelection> SelectWithReport(
      const SelectionInput& input, common::Rng* rng) const;

  /// MixinSelector interface: SelectWithReport minus the report.
  [[nodiscard]] common::Result<SelectionResult> Select(
      const SelectionInput& input, common::Rng* rng) const override;

  std::string_view name() const override { return "TM_X"; }

 private:
  std::vector<std::unique_ptr<MixinSelector>> owned_;
  std::vector<const MixinSelector*> ladder_;
  ResilientOptions options_;
};

}  // namespace tokenmagic::core
