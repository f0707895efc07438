// Figure 4: running time of generating the i-th RS with the exact BFS
// approach (TM_B) on a small-scale synthetic universe.
//
// The paper uses |T| = 20 tokens, recursive (5, 3)-diversity, and reports
// exponential growth (the 8th RS takes ~2 hours in their setup). We run
// the identical protocol at an offline-friendly scale: |T| defaults to 14
// tokens and i sweeps 1..TM_FIG4_MAX_I (default 5); each BFS call is
// bounded by a wall-clock budget. The exponential shape — each successive
// RS costing a multiple of the previous — is what this figure checks.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/epoch_chain.h"
#include "chain/ht_index.h"
#include "common/rng.h"
#include "core/bfs.h"

namespace tokenmagic::bench {
namespace {

struct SmallScale {
  std::vector<chain::TokenId> universe;
  chain::HtIndex index;

  explicit SmallScale(size_t num_tokens) {
    // Two tokens per HT, mirroring the real trace's dominant pattern.
    for (chain::TokenId t = 0; t < num_tokens; ++t) {
      universe.push_back(t);
      index.Set(t, static_cast<chain::TxId>(t / 2));
    }
  }
};

/// Reads a positive number from the environment (the TM_FIG4_* knobs).
double EnvOr(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  double parsed = std::atof(value);
  return parsed > 0 ? parsed : fallback;
}

size_t Fig4Tokens() {
  return static_cast<size_t>(EnvOr("TM_FIG4_TOKENS", 14));
}
int Fig4MaxI() { return static_cast<int>(EnvOr("TM_FIG4_MAX_I", 5)); }

/// Generates RSs 1..i-1 with BFS, then times the i-th generation.
void BM_Fig4_IthRs(benchmark::State& state) {
  const int target_i = static_cast<int>(state.range(0));
  SmallScale scale(Fig4Tokens());
  chain::DiversityRequirement requirement{5.0, 3};

  core::BfsSelector::Options options;
  options.budget_seconds = EnvOr("TM_FIG4_BUDGET_S", 20.0);
  core::BfsSelector bfs(options);
  common::Rng rng(4);

  // Build the history of the first i-1 RSs once (identical every time:
  // BFS is deterministic), appending each committed RS to an epoch chain
  // as a node does per block.
  analysis::EpochChain epochs;
  epochs.Append({}, &scale.index, scale.universe);
  analysis::AnalysisContext context = epochs.View();
  core::SelectionInput input;
  input.universe = scale.universe;
  input.history = epochs.History();
  input.context = &context;
  input.requirement = requirement;
  input.index = &scale.index;
  input.policy.strict_dtrs = false;

  // Build the first i-1 RSs. An individual token can be unsatisfiable
  // once earlier RSs constrain it (the Section-6 motivation for the
  // practical configurations); skip such tokens and keep going.
  size_t spent_cursor = 0;
  for (int i = 1; i < target_i; ++i) {
    bool committed = false;
    while (spent_cursor < scale.universe.size() - 1 && !committed) {
      input.target = scale.universe[spent_cursor++];
      auto result = bfs.Select(input, &rng);
      if (!result.ok()) continue;
      chain::RsView view;
      view.id = static_cast<chain::RsId>(i);
      view.members = result->members;
      view.proposed_at = static_cast<chain::Timestamp>(i);
      view.requirement = requirement;
      epochs.Append(std::span<const chain::RsView>(&view, 1), nullptr, {});
      context = epochs.View();
      input.history = epochs.History();
      committed = true;
    }
    if (!committed) {
      state.SkipWithError("universe exhausted before the target index");
      return;
    }
  }

  // Time the i-th generation attempt. Unsatisfiable still measures the
  // full exponential exploration, which is exactly Figure 4's subject.
  input.target = scale.universe[spent_cursor];
  bool timed_out = false;
  bool satisfiable = true;
  for (auto _ : state) {
    auto result = bfs.Select(input, &rng);
    if (result.status().IsTimeout()) timed_out = true;
    if (result.status().IsUnsatisfiable()) satisfiable = false;
    benchmark::DoNotOptimize(&result);
  }
  state.counters["timed_out"] = timed_out ? 1.0 : 0.0;
  state.counters["satisfiable"] = satisfiable ? 1.0 : 0.0;
}

void RegisterFig4() {
  for (int i = 1; i <= Fig4MaxI(); ++i) {
    std::string name = "BM_Fig4_TM_B/ith_rs:" + std::to_string(i);
    benchmark::RegisterBenchmark(name.c_str(), BM_Fig4_IthRs)
        ->Arg(i)
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
}

}  // namespace
}  // namespace tokenmagic::bench

int main(int argc, char** argv) {
  tokenmagic::bench::RegisterFig4();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  std::printf(
      "\nFigure 4 — TM_B cost grows exponentially with the RS index i\n"
      "(scale via TM_FIG4_TOKENS / TM_FIG4_MAX_I / TM_FIG4_BUDGET_S)\n");
  return 0;
}
