#include "analysis/matching.h"

#include <algorithm>
#include <bit>
#include <deque>
#include <numeric>

#include "common/deadline.h"
#include "common/macros.h"

namespace tokenmagic::analysis {

namespace {

/// Backtracking state for SDR enumeration: assigns RSs in ascending order
/// of remaining degree (static order by member count, a standard
/// fail-first heuristic).
class SdrBacktracker {
 public:
  using Local = AnalysisContext::Local;

  SdrBacktracker(const AnalysisContext& context,
                 const SdrEnumerator::Options& options,
                 const std::function<bool(const SdrAssignment&)>& visitor)
      : context_(context),
        options_(options),
        visitor_(visitor),
        deadline_(options.budget_seconds),
        assignment_(context.rs_count(), AnalysisContext::kNoLocal),
        token_used_(context.token_count(), false) {
    order_.resize(context.rs_count());
    std::iota(order_.begin(), order_.end(), Local{0});
    std::stable_sort(order_.begin(), order_.end(), [&](Local a, Local b) {
      return context.Members(a).size() < context.Members(b).size();
    });
  }

  common::Status Run() {
    status_ = common::Status::OK();
    Recurse(0);
    return status_;
  }

 private:
  /// Returns false to abort the whole search.
  bool Recurse(size_t depth) {
    if (deadline_.Expired()) {
      status_ = common::Status::Timeout("SDR enumeration budget exhausted");
      return false;
    }
    if (depth == order_.size()) {
      ++found_;
      if (!visitor_(assignment_)) return false;
      if (options_.max_results != 0 && found_ >= options_.max_results) {
        status_ = common::Status::ResourceExhausted(
            "SDR enumeration hit max_results");
        return false;
      }
      return true;
    }
    Local rs = order_[depth];
    for (Local t : context_.Members(rs)) {
      if (token_used_[t]) continue;
      token_used_[t] = true;
      assignment_[rs] = t;
      bool keep_going = Recurse(depth + 1);
      assignment_[rs] = AnalysisContext::kNoLocal;
      token_used_[t] = false;
      if (!keep_going) return false;
    }
    return true;
  }

  // tm-borrows(caller): the backtracker lives only for one Enumerate()
  // call; the context outlives it by construction.
  const AnalysisContext& context_;
  const SdrEnumerator::Options& options_;
  const std::function<bool(const SdrAssignment&)>& visitor_;
  common::Deadline deadline_;
  SdrAssignment assignment_;
  std::vector<char> token_used_;
  std::vector<Local> order_;
  uint64_t found_ = 0;
  common::Status status_;
};

}  // namespace

common::Status SdrEnumerator::Enumerate(
    const AnalysisContext& context, const Options& options,
    const std::function<bool(const SdrAssignment&)>& visitor) {
  SdrBacktracker backtracker(context, options, visitor);
  return backtracker.Run();
}

common::Result<uint64_t> SdrEnumerator::Count(const AnalysisContext& context,
                                              const Options& options) {
  uint64_t count = 0;
  common::Status st =
      Enumerate(context, options, [&count](const SdrAssignment&) {
        ++count;
        return true;
      });
  if (!st.ok() && !st.IsUnsatisfiable()) return st;
  return count;
}

size_t HopcroftKarp::MaxMatching(const AnalysisContext& context, size_t skip_rs,
                                 size_t banned_token) {
  const size_t m = context.rs_count();
  const size_t n = context.token_count();
  constexpr size_t kNil = static_cast<size_t>(-1);
  constexpr size_t kInf = static_cast<size_t>(-2);

  std::vector<size_t> match_rs(m, kNil);     // rs -> token
  std::vector<size_t> match_token(n, kNil);  // token -> rs
  std::vector<size_t> dist(m, 0);

  auto usable = [&](size_t rs) { return rs != skip_rs; };

  auto bfs = [&]() -> bool {
    std::deque<size_t> queue;
    for (size_t r = 0; r < m; ++r) {
      if (!usable(r)) {
        dist[r] = kInf;
        continue;
      }
      if (match_rs[r] == kNil) {
        dist[r] = 0;
        queue.push_back(r);
      } else {
        dist[r] = kInf;
      }
    }
    bool found_augmenting = false;
    while (!queue.empty()) {
      size_t r = queue.front();
      queue.pop_front();
      for (size_t t : context.Members(static_cast<Local>(r))) {
        if (t == banned_token) continue;
        size_t next = match_token[t];
        if (next == kNil) {
          found_augmenting = true;
        } else if (dist[next] == kInf) {
          dist[next] = dist[r] + 1;
          queue.push_back(next);
        }
      }
    }
    return found_augmenting;
  };

  std::function<bool(size_t)> dfs = [&](size_t r) -> bool {
    for (size_t t : context.Members(static_cast<Local>(r))) {
      if (t == banned_token) continue;
      size_t next = match_token[t];
      if (next == kNil || (dist[next] == dist[r] + 1 && dfs(next))) {
        match_rs[r] = t;
        match_token[t] = r;
        return true;
      }
    }
    dist[r] = kInf;
    return false;
  };

  size_t matching = 0;
  while (bfs()) {
    for (size_t r = 0; r < m; ++r) {
      if (usable(r) && match_rs[r] == kNil && dfs(r)) ++matching;
    }
  }
  return matching;
}

bool HopcroftKarp::HasCompleteSdr(const AnalysisContext& context) {
  if (context.rs_count() == 0) return true;
  return MaxMatching(context, context.rs_count(), context.token_count()) ==
         context.rs_count();
}

bool HopcroftKarp::IsPossibleSpend(const AnalysisContext& context, Local r,
                                   Local t) {
  std::span<const Local> members = context.Members(r);
  if (!std::binary_search(members.begin(), members.end(), t)) return false;
  // Force r -> t by removing r and banning t, then require the rest to
  // still have a complete matching.
  size_t rest = MaxMatching(context, r, t);
  return rest == context.rs_count() - 1;
}

std::vector<HopcroftKarp::Local> HopcroftKarp::PossibleSpends(
    const AnalysisContext& context, Local r) {
  std::vector<Local> out;
  for (Local t : context.Members(r)) {
    if (IsPossibleSpend(context, r, t)) out.push_back(t);
  }
  return out;
}

uint64_t CountSdrsDp(const AnalysisContext& context) {
  const size_t m = context.rs_count();
  const size_t n = context.token_count();
  if (m == 0) return 1;
  TM_CHECK(n <= 24);
  if (m > n) return 0;

  // Row bitmasks of member tokens.
  std::vector<uint32_t> row_mask(m, 0);
  for (AnalysisContext::Local r = 0; r < m; ++r) {
    for (AnalysisContext::Local t : context.Members(r)) {
      row_mask[r] |= (1u << t);
    }
  }

  // dp[mask] = number of ways to assign the first popcount(mask) RSs
  // injectively into exactly the tokens of `mask`.
  std::vector<uint64_t> dp(size_t{1} << n, 0);
  dp[0] = 1;
  for (uint32_t mask = 1; mask < (1u << n); ++mask) {
    size_t row = static_cast<size_t>(std::popcount(mask)) - 1;
    if (row >= m) continue;
    uint32_t usable = mask & row_mask[row];
    uint64_t total = 0;
    while (usable != 0) {
      uint32_t bit = usable & (~usable + 1);
      total += dp[mask ^ bit];
      usable ^= bit;
    }
    dp[mask] = total;
  }

  uint64_t count = 0;
  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    if (static_cast<size_t>(std::popcount(mask)) == m) count += dp[mask];
  }
  return count;
}

}  // namespace tokenmagic::analysis
