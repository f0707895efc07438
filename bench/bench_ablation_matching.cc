// Ablation B: cost of the exact analysis machinery (Section 5) versus
// instance size — SDR enumeration, the bitmask-DP counter, Hopcroft-Karp
// possible-spend queries, and the full chain-reaction analysis. This is
// the quantitative argument for the practical configurations: exact
// checks blow up exponentially while the matching-based tests stay
// polynomial.
#include <benchmark/benchmark.h>

#include <vector>

#include "analysis/chain_reaction.h"
#include "analysis/context.h"
#include "analysis/epoch_chain.h"
#include "analysis/matching.h"
#include "chain/types.h"

namespace tokenmagic::bench {
namespace {

using analysis::AnalysisContext;
using analysis::HopcroftKarp;
using analysis::SdrEnumerator;

/// m overlapping RSs of size k over m + k tokens (dense, worst-case-ish).
std::vector<chain::RsView> OverlappingFamily(size_t m, size_t k) {
  std::vector<chain::RsView> views;
  for (size_t r = 0; r < m; ++r) {
    chain::RsView view;
    view.id = static_cast<chain::RsId>(r);
    view.proposed_at = static_cast<chain::Timestamp>(r);
    for (size_t j = 0; j < k; ++j) {
      view.members.push_back(static_cast<chain::TokenId>(r + j));
    }
    views.push_back(std::move(view));
  }
  return views;
}

void BM_SdrEnumerate(benchmark::State& state) {
  auto views = OverlappingFamily(static_cast<size_t>(state.range(0)), 4);
  const AnalysisContext context = AnalysisContext::Build(views);
  uint64_t total = 0;
  for (auto _ : state) {
    auto count = SdrEnumerator::Count(context);
    total = count.ok() ? *count : 0;
    benchmark::DoNotOptimize(total);
  }
  state.counters["sdr_count"] = static_cast<double>(total);
}
BENCHMARK(BM_SdrEnumerate)->DenseRange(2, 14, 2)
    ->Unit(benchmark::kMicrosecond);

void BM_SdrCountDp(benchmark::State& state) {
  auto views = OverlappingFamily(static_cast<size_t>(state.range(0)), 4);
  const AnalysisContext context = AnalysisContext::Build(views);
  for (auto _ : state) {
    uint64_t count = analysis::CountSdrsDp(context);
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_SdrCountDp)->DenseRange(2, 14, 2)
    ->Unit(benchmark::kMicrosecond);

void BM_PossibleSpendsPolynomial(benchmark::State& state) {
  auto views = OverlappingFamily(static_cast<size_t>(state.range(0)), 4);
  const AnalysisContext context = AnalysisContext::Build(views);
  for (auto _ : state) {
    auto spends = HopcroftKarp::PossibleSpends(context, 0);
    benchmark::DoNotOptimize(spends.data());
  }
}
BENCHMARK(BM_PossibleSpendsPolynomial)->DenseRange(2, 14, 2)
    ->RangeMultiplier(2)->Unit(benchmark::kMicrosecond);

void BM_ChainReactionAnalyze(benchmark::State& state) {
  auto views = OverlappingFamily(static_cast<size_t>(state.range(0)), 4);
  const AnalysisContext context = AnalysisContext::Build(views);
  for (auto _ : state) {
    auto result = analysis::ChainReactionAnalyzer::Analyze(context);
    benchmark::DoNotOptimize(&result);
  }
}
BENCHMARK(BM_ChainReactionAnalyze)->DenseRange(2, 14, 4)
    ->Unit(benchmark::kMicrosecond);

void BM_ChainReactionCascade(benchmark::State& state) {
  auto views = OverlappingFamily(static_cast<size_t>(state.range(0)), 4);
  const AnalysisContext context = AnalysisContext::Build(views);
  for (auto _ : state) {
    auto result = analysis::ChainReactionAnalyzer::Cascade(context);
    benchmark::DoNotOptimize(&result);
  }
}
BENCHMARK(BM_ChainReactionCascade)->DenseRange(2, 14, 4)
    ->Unit(benchmark::kMicrosecond);

// Online liquidity checking: the workload feeds m RSs one by one and asks
// for the inferable-spent count each arrival would leave (the η-rule
// pattern). The batch row re-interns every prefix from scratch; the
// epoch-chain row is the production pattern of core::LiquidityAllows —
// probe the arrival as an overlay on the sealed view, then append it to
// the chain as one epoch.
void BM_LiquidityBatchRecompute(benchmark::State& state) {
  auto views = OverlappingFamily(static_cast<size_t>(state.range(0)), 4);
  for (auto _ : state) {
    size_t total = 0;
    std::vector<chain::RsView> prefix;
    for (const auto& view : views) {
      prefix.push_back(view);
      total += analysis::ChainReactionAnalyzer::CountInferableSpent(
          analysis::AnalysisContext::Build(prefix));
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_LiquidityBatchRecompute)->DenseRange(8, 40, 8)
    ->Unit(benchmark::kMicrosecond);

void BM_LiquidityEpochChain(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  auto views = OverlappingFamily(m, 4);
  std::vector<chain::TokenId> tokens;
  for (size_t t = 0; t < m + 3; ++t) {
    tokens.push_back(static_cast<chain::TokenId>(t));
  }
  for (auto _ : state) {
    size_t total = 0;
    analysis::EpochChain epochs;
    epochs.Append({}, nullptr, tokens);
    for (const auto& view : views) {
      total += analysis::ChainReactionAnalyzer::CountInferableSpent(
          epochs.View(), view);
      epochs.Append(std::span<const chain::RsView>(&view, 1), nullptr, {});
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_LiquidityEpochChain)->DenseRange(8, 40, 8)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace tokenmagic::bench

BENCHMARK_MAIN();
