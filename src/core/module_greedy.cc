#include "core/module_greedy.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>

#include "analysis/diversity.h"
#include "common/macros.h"
#include "common/strings.h"

namespace tokenmagic::core {

common::Result<ModuleSelectionState> InitModuleState(
    const SelectionInput& input) {
  using common::Status;
  if (input.index == nullptr) {
    return Status::InvalidArgument("SelectionInput.index must be set");
  }
  TM_RETURN_NOT_OK(RequireContext(input));
  const analysis::AnalysisContext& context = *input.context;
  TM_RETURN_NOT_OK(
      CheckSnapshotShape(input.universe, input.history, context));
  // The universe is the token column, so the target is in it iff interned.
  analysis::AnalysisContext::Local target = context.LocalOfToken(input.target);
  if (target == analysis::AnalysisContext::kNoLocal) {
    return Status::InvalidArgument("target token not in the mixin universe");
  }

  // The input's context keeps the seal's memo slot, and so the index,
  // alive for the whole selection.
  std::shared_ptr<const common::Result<ModuleUniverse>> index =
      ModuleIndexOf(context);
  if (!index->ok()) return index->status();
  TM_RETURN_NOT_OK((*index)->HtStatus());

  ModuleSelectionState state;
  state.mu = &index->value();
  state.target_module = state.mu->ModuleOfLocal(target);
  state.ht_count.assign(context.ht_count(), 0);

  // Seed with the target's module (x_τ / a_τ in the paper).
  state.remaining.reserve(state.mu->module_count());
  for (size_t i = 0; i < state.mu->module_count(); ++i) {
    state.remaining.push_back(i);
  }
  ChooseModule(&state, state.target_module);
  return state;
}

void ChooseModule(ModuleSelectionState* state, size_t module_index) {
  auto it = std::find(state->remaining.begin(), state->remaining.end(),
                      module_index);
  TM_CHECK(it != state->remaining.end());
  state->remaining.erase(it);
  state->chosen.push_back(module_index);
  state->token_size += state->mu->ModuleSize(module_index);
  for (HtTokens pair : state->HtsOf(module_index)) {
    if (state->ht_count[pair.ht] == 0) state->covered_hts.push_back(pair.ht);
    state->ht_count[pair.ht] += pair.tokens;
  }
}

void UnchooseModule(ModuleSelectionState* state, size_t module_index) {
  TM_CHECK(module_index != state->target_module);
  auto it = std::find(state->chosen.begin(), state->chosen.end(),
                      module_index);
  TM_CHECK(it != state->chosen.end());
  state->chosen.erase(it);
  state->remaining.push_back(module_index);
  state->token_size -= state->mu->ModuleSize(module_index);
  // An HT another chosen module shares keeps a non-zero count.
  std::vector<uint32_t>& covered = state->covered_hts;
  for (HtTokens pair : state->HtsOf(module_index)) {
    state->ht_count[pair.ht] -= pair.tokens;
    if (state->ht_count[pair.ht] != 0) continue;
    auto slot = std::find(covered.begin(), covered.end(), pair.ht);
    TM_CHECK(slot != covered.end());
    *slot = covered.back();
    covered.pop_back();
  }
}

FreshHtCounts::FreshHtCounts(const ModuleSelectionState& state) {
  const ModuleUniverse& mu = *state.mu;
  // A fresh-token module has one HT and one token.
  fresh_.assign(mu.module_count(), {1, 1, 0});
  for (size_t m = 0; m < mu.super_count(); ++m) {
    fresh_[m] = {static_cast<uint32_t>(mu.HtsOf(m).size()),
                 static_cast<uint32_t>(mu.ModuleSize(m)), 0};
  }
  for (uint32_t ht : state.covered_hts) {
    for (HtModule pair : mu.ModulesOfHt(ht)) {
      --fresh_[pair.module].hts;
      fresh_[pair.module].tokens -= pair.tokens;
    }
  }
}

void FreshHtCounts::Choose(ModuleSelectionState* state,
                           size_t module_index) {
  for (HtTokens covered : state->HtsOf(module_index)) {
    if (state->ht_count[covered.ht] != 0) continue;  // already covered
    for (HtModule pair : state->mu->ModulesOfHt(covered.ht)) {
      --fresh_[pair.module].hts;
      fresh_[pair.module].tokens -= pair.tokens;
    }
  }
  ChooseModule(state, module_index);
}

void FreshHtCounts::MarkTail(const ModuleSelectionState& state,
                             const ChosenFrequencies& chosen, size_t head,
                             bool clear) {
  for (uint32_t ht : state.covered_hts) {
    if (chosen.slot[ht] < head) continue;
    for (HtModule pair : state.mu->ModulesOfHt(ht)) {
      uint32_t& tail = fresh_[pair.module].tail;
      tail = clear ? 0 : tail + pair.tokens;
    }
  }
}

bool ChosenEligible(const ModuleSelectionState& state,
                    const SelectionInput& input) {
  chain::DiversityRequirement effective =
      EffectiveRequirement(input.requirement);
  TM_CHECK(effective.ell >= 1);
  std::vector<int64_t> counts;
  counts.reserve(state.covered_hts.size());
  int64_t q1 = 0, total = 0;
  for (uint32_t ht : state.covered_hts) {
    int64_t count = state.ht_count[ht];
    counts.push_back(count);
    q1 = std::max(q1, count);
    total += count;
  }
  // The tail is everything outside the ℓ - 1 largest counts (empty when
  // θ <= ℓ - 1): the integers the ring's sorted frequency vector gives.
  const size_t head = static_cast<size_t>(effective.ell) - 1;
  int64_t tail = 0;
  if (counts.size() > head) {
    auto nth = counts.begin() + static_cast<ptrdiff_t>(head);
    std::nth_element(counts.begin(), nth, counts.end(),
                     std::greater<int64_t>());
    tail = total - std::accumulate(counts.begin(), nth, int64_t{0});
  }
  return analysis::DiversitySlack(q1, tail, effective) < 0.0;
}

GreedyPick PickCoverModule(const ModuleSelectionState& state,
                           const FreshHtCounts& fresh, size_t deficit) {
  GreedyPick pick;
  double best_alpha = std::numeric_limits<double>::infinity();
  for (size_t candidate : state.remaining) {
    size_t new_hts = fresh.count(candidate);
    if (new_hts == 0) continue;  // α would be infinite
    double alpha = static_cast<double>(state.mu->ModuleSize(candidate)) /
                   static_cast<double>(std::min(deficit, new_hts));
    TM_DCHECK(alpha >= 1.0);
    if (alpha < best_alpha) {
      best_alpha = alpha;
      pick.module = candidate;
      if (alpha == 1.0) {  // no later candidate can beat it strictly
        pick.at_bound = true;
        break;
      }
    }
  }
  return pick;
}

common::Result<size_t> GreedyCoverHts(ModuleSelectionState* state,
                                      std::optional<FreshHtCounts>* fresh,
                                      int ell, common::Deadline* deadline) {
  size_t steps = 0;
  const size_t target = static_cast<size_t>(ell);
  if (state->covered_hts.size() >= target) return steps;
  if (!fresh->has_value()) fresh->emplace(*state);
  while (state->covered_hts.size() < target) {
    if (deadline != nullptr) {
      deadline->Tick();
      if (deadline->Expired()) {
        return common::Status::Timeout("HT-cover greedy budget exhausted");
      }
    }
    GreedyPick pick = PickCoverModule(*state, **fresh,
                                      target - state->covered_hts.size());
    if (pick.module == GreedyPick::kNoModule) {
      return common::Status::Unsatisfiable(common::StrFormat(
          "universe covers fewer than %d distinct HTs", ell));
    }
    (*fresh)->Choose(state, pick.module);
    ++steps;
  }
  return steps;
}

ChosenFrequencies ChosenFrequenciesOf(const ModuleSelectionState& state) {
  ChosenFrequencies out;
  out.slot.assign(state.ht_count.size(), ChosenFrequencies::kNoSlot);
  std::vector<uint32_t> covered = state.covered_hts;
  // Which of two equal counts takes which slot does not matter: bumping
  // either yields the same multiset.
  std::sort(covered.begin(), covered.end(), [&](uint32_t a, uint32_t b) {
    return state.ht_count[a] > state.ht_count[b];
  });
  out.sorted.reserve(covered.size());
  for (uint32_t ht : covered) {
    out.slot[ht] = static_cast<uint32_t>(out.sorted.size());
    out.sorted.push_back(state.ht_count[ht]);
    out.total += state.ht_count[ht];
  }
  return out;
}

namespace {

/// Sum of the `count` largest entries of the merged multiset: the entries
/// of `q` whose slot is not marked with `stamp`, plus `values` (both
/// descending). Needs count <= the multiset's size.
int64_t LargestSum(const std::vector<int64_t>& q, const uint32_t* mark,
                   uint32_t stamp, const std::vector<int64_t>& values,
                   size_t count) {
  int64_t sum = 0;
  size_t i = 0, v = 0;
  for (size_t taken = 0; taken < count; ++taken) {
    while (i < q.size() && mark[i] == stamp) ++i;
    if (v < values.size() && (i == q.size() || values[v] >= q[i])) {
      sum += values[v++];
    } else {
      sum += q[i++];
    }
  }
  return sum;
}

/// Sum of the `count` smallest entries of the same merged multiset.
int64_t SmallestSum(const std::vector<int64_t>& q, const uint32_t* mark,
                    uint32_t stamp, const std::vector<int64_t>& values,
                    size_t count) {
  int64_t sum = 0;
  size_t i = q.size(), v = values.size();
  for (size_t taken = 0; taken < count; ++taken) {
    while (i > 0 && mark[i - 1] == stamp) --i;
    if (v > 0 && (i == 0 || values[v - 1] <= q[i - 1])) {
      sum += values[--v];
    } else {
      sum += q[--i];
    }
  }
  return sum;
}

}  // namespace

double SlackWith(const ChosenFrequencies& chosen,
                 std::span<const HtTokens> candidate,
                 const chain::DiversityRequirement& req,
                 SlackScratch* scratch) {
  TM_CHECK(req.ell >= 1);
  const std::vector<int64_t>& q = chosen.sorted;
  // A fresh stamp marks this candidate's bumped slots; the marks of
  // earlier calls never equal it (all are cleared when it wraps).
  std::vector<uint32_t>& marks = scratch->marks;
  if (marks.size() < q.size()) marks.resize(q.size(), 0);
  if (++scratch->stamp == 0) {
    std::fill(marks.begin(), marks.end(), 0);
    scratch->stamp = 1;
  }
  const uint32_t stamp = scratch->stamp;

  // The candidate's entries, kept descending by insertion (k is small).
  std::vector<int64_t>& values = scratch->values;
  values.clear();
  int64_t total = chosen.total;
  size_t bumped = 0;
  for (HtTokens pair : candidate) {
    int64_t value = pair.tokens;
    uint32_t slot = chosen.slot[pair.ht];
    if (slot != ChosenFrequencies::kNoSlot) {
      value += q[slot];
      marks[slot] = stamp;
      ++bumped;
    }
    total += pair.tokens;
    values.push_back(value);
    size_t j = values.size() - 1;
    for (; j > 0 && values[j - 1] < value; --j) values[j] = values[j - 1];
    values[j] = value;
  }
  const size_t theta = q.size() + values.size() - bumped;
  if (theta == 0) return 0.0;

  // Every entry is one of the candidate's or an unbumped one, so q_1 is
  // the larger of the two heads, and the tail is everything outside the
  // ℓ - 1 largest, summed from whichever end is nearer.
  int64_t q1 = LargestSum(q, marks.data(), stamp, values, 1);
  const size_t head = static_cast<size_t>(req.ell) - 1;
  int64_t tail = 0;
  if (theta > head) {
    tail = head <= theta - head
               ? total - LargestSum(q, marks.data(), stamp, values, head)
               : SmallestSum(q, marks.data(), stamp, values, theta - head);
  }
  return analysis::DiversitySlack(q1, tail, req);
}

namespace {

/// β_i of one candidate: (delta - SlackWith) / |x_i|.
double BetaOf(const ModuleSelectionState& state,
              const ChosenFrequencies& chosen, double delta,
              const chain::DiversityRequirement& req, SlackScratch* scratch,
              size_t candidate) {
  double delta_i = SlackWith(chosen, state.HtsOf(candidate), req, scratch);
  return (delta - delta_i) /
         static_cast<double>(state.mu->ModuleSize(candidate));
}

}  // namespace

GreedyPick PickSlackModule(const ModuleSelectionState& state,
                           FreshHtCounts* fresh,
                           const ChosenFrequencies& chosen, double delta,
                           const chain::DiversityRequirement& req,
                           SlackScratch* scratch) {
  const ModuleUniverse& mu = *state.mu;
  const int64_t universe_tokens = static_cast<int64_t>(mu.token_count());
  const bool exact = analysis::SlackIsExact(req.c, universe_tokens);
  // The margins of the β bound (see the header): R, then δ's nudge.
  const bool bounded = req.c >= 0.0;
  const double base =
      (1.0 + req.c) * static_cast<double>(universe_tokens + 1) * 0x1p-48 +
      (delta == 0.5 ? 0.5 : 0.0);
  const size_t head = static_cast<size_t>(req.ell) - 1;
  bool tail_marked = false;

  GreedyPick pick;
  double best_beta = -std::numeric_limits<double>::infinity();
  for (size_t candidate : state.remaining) {
    if (bounded && pick.module != GreedyPick::kNoModule) {
      if (!tail_marked) {
        fresh->MarkTail(state, chosen, head, /*clear=*/false);
        tail_marked = true;
      }
      double scaled =
          req.c * static_cast<double>(fresh->tokens(candidate) +
                                      fresh->tail_tokens(candidate));
      // δ_i can take the -0.5 nudge only when x_i may close the gap.
      double margin = scaled + base > delta ? base + 0.5 : base;
      if ((scaled + margin) / static_cast<double>(mu.ModuleSize(candidate)) <
          best_beta) {
        TM_DCHECK(!(BetaOf(state, chosen, delta, req, scratch, candidate) >
                    best_beta));
        continue;
      }
    }
    double beta = BetaOf(state, chosen, delta, req, scratch, candidate);
    TM_DCHECK(!exact || beta <= req.c);
    if (beta > best_beta) {
      best_beta = beta;
      pick.module = candidate;
      if (exact && beta == req.c) {  // no later candidate can beat it
        pick.at_bound = true;
        break;
      }
    }
  }
  if (tail_marked) fresh->MarkTail(state, chosen, head, /*clear=*/true);
  return pick;
}

}  // namespace tokenmagic::core
