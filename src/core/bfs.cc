#include "core/bfs.h"

#include <algorithm>

#include "analysis/context.h"
#include "analysis/diversity.h"
#include "analysis/dtrs.h"
#include "analysis/matching.h"
#include "analysis/related_set.h"
#include "common/macros.h"
#include "common/deadline.h"
#include "common/strings.h"
#include "core/modules.h"

namespace tokenmagic::core {

namespace {

using analysis::AnalysisContext;
using analysis::HopcroftKarp;

/// Interns the candidate's related RS set plus the candidate itself (given
/// id = max existing id + 1) as one context, its RSs in ascending id order.
AnalysisContext FamilyContext(const SelectionInput& input,
                              const std::vector<chain::TokenId>& members) {
  // The related-set walk reuses the snapshot's inverted index, and each
  // related id resolves to its history position by local.
  analysis::RelatedSetResult related =
      analysis::ComputeRelatedSet(members, *input.context);
  std::vector<chain::RsView> views;
  chain::RsId max_id = 0;
  for (const chain::RsView& view : input.history) {
    max_id = std::max(max_id, view.id);
  }
  for (chain::RsId id : related.Ids()) {
    AnalysisContext::Local rs = input.context->LocalOfRs(id);
    TM_CHECK(rs != AnalysisContext::kNoLocal);
    views.push_back(input.history[rs]);
  }
  std::ranges::sort(views, {}, &chain::RsView::id);
  chain::RsView candidate;
  candidate.id = max_id + 1;
  candidate.members = members;
  candidate.requirement = input.requirement;
  views.push_back(std::move(candidate));
  // tm-lint: allow(context-build, a TM_B candidate family, not the history)
  return AnalysisContext::Build(views);
}

/// Non-eliminated check (Algorithm 2 lines 9-16): every member of every RS
/// in the family must be a possible spend in some token-RS combination.
bool NonEliminated(const AnalysisContext& family) {
  for (AnalysisContext::Local r = 0; r < family.rs_count(); ++r) {
    for (AnalysisContext::Local t : family.Members(r)) {
      if (!HopcroftKarp::IsPossibleSpend(family, r, t)) return false;
    }
  }
  return true;
}

/// DTRS-diversity check (Algorithm 2 lines 17-22): every exact DTRS of
/// every RS in the family satisfies that RS's requirement. The family's
/// token-RS combinations are enumerated once and shared by every RS.
common::Result<bool> AllDtrsDiverse(
    const AnalysisContext& family, const chain::HtIndex& index,
    const analysis::DtrsFinder::Options& dtrs_options) {
  TM_ASSIGN_OR_RETURN(
      analysis::DtrsFinder finder,
      analysis::DtrsFinder::ForContext(family, index, dtrs_options));
  for (AnalysisContext::Local r = 0; r < family.rs_count(); ++r) {
    TM_ASSIGN_OR_RETURN(std::vector<analysis::Dtrs> dtrss,
                        finder.Find(family.rs_id(r)));
    for (const analysis::Dtrs& d : dtrss) {
      if (!analysis::SatisfiesRecursiveDiversity(d.Tokens(), index,
                                                 family.requirement(r))) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

common::Result<SelectionResult> BfsSelector::Select(
    const SelectionInput& input, common::Rng* rng) const {
  (void)rng;
  using common::Status;
  if (input.index == nullptr) {
    return Status::InvalidArgument("SelectionInput.index must be set");
  }
  TM_RETURN_NOT_OK(RequireContext(input));
  TM_RETURN_NOT_OK(
      CheckSnapshotShape(input.universe, input.history, *input.context));
  if (options_.max_universe != 0 &&
      input.universe.size() > options_.max_universe) {
    return Status::InvalidArgument(common::StrFormat(
        "universe size %zu exceeds the BFS cap %zu", input.universe.size(),
        options_.max_universe));
  }
  if (DeadlineExpired(input)) {
    return Status::Timeout("BFS deadline already expired");
  }
  common::Deadline deadline(options_.budget_seconds, 0,
                            input.deadline != nullptr
                                ? input.deadline->clock()
                                : nullptr,
                            input.deadline);

  // σ = T \ t_τ (line 1), in a deterministic order.
  std::vector<chain::TokenId> sigma;
  bool target_present = false;
  for (chain::TokenId t : input.universe) {
    if (t == input.target) {
      target_present = true;
    } else {
      sigma.push_back(t);
    }
  }
  if (!target_present) {
    return Status::InvalidArgument("target token not in the mixin universe");
  }
  std::sort(sigma.begin(), sigma.end());

  analysis::DtrsFinder::Options dtrs_options;
  dtrs_options.max_combinations = options_.max_combinations;
  dtrs_options.budget_seconds = options_.budget_seconds;

  SelectionResult result;

  // Candidate sizes in ascending order (line 2): at least ℓ-1 mixins are
  // needed to reach ℓ distinct HTs.
  size_t min_mixins =
      input.requirement.ell >= 1
          ? static_cast<size_t>(input.requirement.ell) - 1
          : 0;
  for (size_t i = min_mixins; i <= sigma.size(); ++i) {
    // Enumerate all i-subsets of sigma (line 3) lexicographically.
    std::vector<size_t> choice(i);
    for (size_t j = 0; j < i; ++j) choice[j] = j;
    bool more = i <= sigma.size();
    if (i == 0) more = true;
    while (more) {
      deadline.Tick();  // consumes the caller's iteration budget too
      if (deadline.Expired()) {
        return Status::Timeout("BFS budget exhausted");
      }
      ++result.iterations;

      std::vector<chain::TokenId> members = {input.target};
      for (size_t j : choice) members.push_back(sigma[j]);
      std::sort(members.begin(), members.end());

      // Constraint (a): the candidate's own diversity (lines 6-8).
      if (analysis::SatisfiesRecursiveDiversity(members, *input.index,
                                                input.requirement)) {
        const AnalysisContext family = FamilyContext(input, members);

        // Constraint (b): non-eliminated (lines 9-16).
        if (NonEliminated(family)) {
          // Constraint (c): exact DTRS diversity (lines 17-22).
          TM_ASSIGN_OR_RETURN(
              bool diverse, AllDtrsDiverse(family, *input.index, dtrs_options));
          if (diverse) {
            result.members = std::move(members);
            return result;
          }
        }
      }

      // Next combination.
      if (i == 0) break;
      size_t k = i;
      while (k > 0) {
        --k;
        if (choice[k] != k + sigma.size() - i) {
          ++choice[k];
          for (size_t j = k + 1; j < i; ++j) choice[j] = choice[j - 1] + 1;
          break;
        }
        if (k == 0) {
          more = false;
        }
      }
    }
  }
  return Status::Unsatisfiable("no RS satisfies all DA-MS constraints");
}

}  // namespace tokenmagic::core
