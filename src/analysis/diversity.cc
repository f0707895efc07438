#include "analysis/diversity.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <unordered_map>

#include "common/macros.h"

namespace tokenmagic::analysis {

namespace {

// c == m * 2^e exactly, with m the 53-bit integer mantissa (c finite,
// c > 0).
// tm-lint: allow(float, frexp/ldexp are exact: c == m * 2^e, integer m)
uint64_t DyadicMantissa(double c, int* e) {
  int exp = 0;
  // tm-lint: allow(float, frexp is exact)
  double frac = std::frexp(c, &exp);
  *e = exp - 53;
  return static_cast<uint64_t>(std::ldexp(frac, 53));
}

// Sign of (q1 - c*tail), computed exactly in integer arithmetic.
//
// The paper's recursive (c, l)-diversity predicate q_1 < c * tail must not
// inherit floating-point rounding: near the boundary a double evaluation can
// flip the verdict, and a wrong verdict silently corrupts every downstream
// DTRS count. Any finite double c is exactly the dyadic rational m * 2^e
// (53-bit integer m), so the comparison q1 ? c*tail becomes the integer
// comparison q1 * 2^-e ? m * tail, done in 128 bits with saturation.
// tm-lint: allow(float, c is decomposed into an exact dyadic rational below)
int CompareSlackExact(int64_t q1, double c, int64_t tail) {
  TM_CHECK(q1 >= 0 && tail >= 0);
  TM_CHECK(std::isfinite(c) && c >= 0.0);
  if (tail == 0 || c == 0.0) {
    return q1 > 0 ? 1 : 0;
  }
  if (q1 == 0) return -1;  // c*tail > 0 at this point
  int e = 0;
  uint64_t m = DyadicMantissa(c, &e);
  // Shed trailing zeros (up to e == 0) to shrink the shifts.
  int shed = e < 0 ? std::min(std::countr_zero(m), -e) : 0;
  m >>= shed;
  e += shed;
  unsigned __int128 lhs = static_cast<unsigned __int128>(q1);
  unsigned __int128 rhs =
      static_cast<unsigned __int128>(m) * static_cast<unsigned __int128>(tail);
  if (e > 0) {
    // rhs scales up by 2^e; on 128-bit overflow rhs certainly exceeds lhs
    // (lhs < 2^63 always). Shift widths stay in [1, 127].
    if (e >= 128 || (rhs >> (128 - e)) != 0) return -1;
    rhs <<= e;
  } else if (e < 0) {
    int shift = -e;
    // lhs scales up by 2^shift; on overflow lhs certainly exceeds rhs.
    if (shift >= 128 || (lhs >> (128 - shift)) != 0) return 1;
    lhs <<= shift;
  }
  if (lhs < rhs) return -1;
  if (lhs > rhs) return 1;
  return 0;
}

// Shared tail sum q_l + ... + q_theta of a sorted-descending frequency
// vector (zero when theta < l).
int64_t DiversityTail(const std::vector<int64_t>& frequencies, int ell) {
  int64_t tail = 0;
  for (size_t i = static_cast<size_t>(ell) - 1; i < frequencies.size(); ++i) {
    tail += frequencies[i];
  }
  return tail;
}

}  // namespace

std::vector<int64_t> HtFrequencies(std::span<const chain::TokenId> tokens,
                                   const chain::HtIndex& index) {
  std::unordered_map<chain::TxId, int64_t> counts;
  for (chain::TokenId t : tokens) ++counts[index.HtOf(t)];
  std::vector<int64_t> out;
  out.reserve(counts.size());
  for (const auto& [ht, freq] : counts) out.push_back(freq);
  std::sort(out.begin(), out.end(), std::greater<int64_t>());
  return out;
}

std::vector<int64_t> HtFrequencies(std::span<const chain::TokenId> tokens,
                                   const AnalysisContext& context) {
  using Local = AnalysisContext::Local;
  // Run-length count over the sorted (tiny) HT-local list; the result is
  // sorted descending, so it matches the hash-map path exactly.
  std::vector<Local> hts;
  hts.reserve(tokens.size());
  for (chain::TokenId t : tokens) {
    Local token = context.LocalOfToken(t);
    TM_CHECK(token != AnalysisContext::kNoLocal);
    Local ht = context.HtLocalOf(token);
    TM_CHECK(ht != AnalysisContext::kNoLocal);
    hts.push_back(ht);
  }
  std::sort(hts.begin(), hts.end());
  std::vector<int64_t> out;
  int64_t run = 0;
  Local prev = AnalysisContext::kNoLocal;
  for (Local ht : hts) {
    if (ht != prev) {
      if (run > 0) out.push_back(run);
      prev = ht;
      run = 0;
    }
    ++run;
  }
  if (run > 0) out.push_back(run);
  std::sort(out.begin(), out.end(), std::greater<int64_t>());
  return out;
}

size_t DistinctHtCount(std::span<const chain::TokenId> tokens,
                       const chain::HtIndex& index) {
  std::unordered_map<chain::TxId, int64_t> counts;
  for (chain::TokenId t : tokens) ++counts[index.HtOf(t)];
  return counts.size();
}

bool SatisfiesRecursiveDiversity(const std::vector<int64_t>& frequencies,
                                 const chain::DiversityRequirement& req) {
  if (frequencies.empty()) return false;
  TM_DCHECK(std::is_sorted(frequencies.begin(), frequencies.end(),
                           std::greater<int64_t>()));
  TM_CHECK(req.ell >= 1);
  return DiversitySlack(frequencies.front(),
                        DiversityTail(frequencies, req.ell), req) < 0.0;
}

bool SatisfiesRecursiveDiversity(std::span<const chain::TokenId> tokens,
                                 const chain::HtIndex& index,
                                 const chain::DiversityRequirement& req) {
  return SatisfiesRecursiveDiversity(HtFrequencies(tokens, index), req);
}

bool SatisfiesRecursiveDiversity(std::span<const chain::TokenId> tokens,
                                 const AnalysisContext& context,
                                 const chain::DiversityRequirement& req) {
  return SatisfiesRecursiveDiversity(HtFrequencies(tokens, context), req);
}

// tm-lint: allow(float, greedy potential; sign forced to the exact verdict)
double DiversitySlack(const std::vector<int64_t>& frequencies,
                      const chain::DiversityRequirement& req) {
  TM_CHECK(req.ell >= 1);
  if (frequencies.empty()) return 0.0;
  TM_DCHECK(std::is_sorted(frequencies.begin(), frequencies.end(),
                           std::greater<int64_t>()));
  return DiversitySlack(frequencies.front(),
                        DiversityTail(frequencies, req.ell), req);
}

// tm-lint: allow(float, exactness test of the slack arithmetic)
bool SlackIsExact(double c, int64_t max_tokens) {
  if (!std::isfinite(c) || c <= 0.0 || max_tokens < 0) return false;
  int e = 0;
  uint64_t m = DyadicMantissa(c, &e);
  int shed = std::countr_zero(m);  // m odd from here on
  m >>= shed;
  e += shed;
  // Bit widths bound the products without forming them: m * T * 2^e
  // (e > 0) and T * 2^-e (e < 0) stay below 2^kBits.
  constexpr int kBits = 52;
  int t_bits = std::bit_width(static_cast<uint64_t>(max_tokens));
  int m_bits = std::bit_width(m);
  return m_bits + t_bits + std::max(e, 0) <= kBits &&
         t_bits + std::max(-e, 0) <= kBits;
}

// tm-lint: allow(float, greedy potential; sign forced to the exact verdict)
double DiversitySlack(int64_t q1, int64_t tail,
                      const chain::DiversityRequirement& req) {
  int sign = CompareSlackExact(q1, req.c, tail);
  // tm-lint: allow(float, display/heuristic magnitude; sign corrected below)
  double approx =
      static_cast<double>(q1) - req.c * static_cast<double>(tail);
  // Rounding in `approx` must never contradict the exact feasibility
  // verdict: nudge it onto the correct side of zero when they disagree.
  if (sign < 0 && approx >= 0.0) return -0.5;
  if (sign > 0 && approx <= 0.0) return 0.5;
  if (sign == 0) return 0.0;
  return approx;
}

}  // namespace tokenmagic::analysis
