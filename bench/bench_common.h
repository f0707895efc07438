// Shared machinery for the per-figure benchmark binaries.
//
// Every binary reproduces one figure of Section 7: it sweeps the figure's
// x-axis parameter, runs the compared approaches (TM_P, TM_G, TM_S, TM_R)
// on sampled DA-MS instances, and reports the two series the paper plots —
// mean RS size (counter "rs_size") and mean selection time (the benchmark
// time itself). Instances are sampled deterministically so runs are
// reproducible; failures (unsatisfiable instances) are counted in the
// "unsat" counter rather than aborting.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "analysis/context.h"
#include "common/rng.h"
#include "core/baselines.h"
#include "core/game_theoretic.h"
#include "core/progressive.h"
#include "core/selector.h"
#include "data/dataset.h"
#include "data/monero_like.h"
#include "data/synthetic.h"

namespace tokenmagic::bench {

/// The four compared approaches of Section 7.1.
inline const core::MixinSelector& SelectorByName(const std::string& name) {
  static const core::ProgressiveSelector progressive;
  static const core::GameTheoreticSelector game;
  static const core::SmallestSelector smallest;
  static const core::RandomSelector random;
  if (name == "TM_P") return progressive;
  if (name == "TM_G") return game;
  if (name == "TM_S") return smallest;
  return random;
}

inline const char* kApproaches[] = {"TM_P", "TM_G", "TM_S", "TM_R"};

/// One benchmark loop body: per iteration, sample an unspent target token
/// and solve the DA-MS instance with `selector`.
inline void RunSelectionLoop(benchmark::State& state,
                             const data::Dataset& dataset,
                             const core::MixinSelector& selector,
                             chain::DiversityRequirement requirement) {
  common::Rng rng(0xbe5c ^ state.range(0));
  auto unspent = dataset.UnspentTokens();

  // One sealed snapshot (a one-epoch EpochChain view) per benchmark run,
  // shared by every iteration — the same sharing discipline the node
  // applies per block.
  analysis::AnalysisContext context = analysis::AnalysisContext::Build(
      dataset.history, &dataset.index, dataset.universe);

  core::SelectionInput input;
  input.universe = dataset.universe;
  input.history = dataset.history;
  input.requirement = requirement;
  input.index = &dataset.index;
  input.context = &context;

  double size_sum = 0.0;
  int64_t solved = 0;
  int64_t unsat = 0;
  for (auto _ : state) {
    input.target = unspent[rng.NextBounded(unspent.size())];
    auto result = selector.Select(input, &rng);
    if (result.ok()) {
      size_sum += static_cast<double>(result->members.size());
      ++solved;
      benchmark::DoNotOptimize(result->members.data());
    } else {
      ++unsat;
    }
  }
  state.counters["rs_size"] =
      solved > 0 ? size_sum / static_cast<double>(solved) : 0.0;
  state.counters["unsat"] = static_cast<double>(unsat);
}

/// Reads a positive double from the environment (benchmark budget knobs).
inline double EnvOr(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  double parsed = std::atof(value);
  return parsed > 0 ? parsed : fallback;
}

/// Per-registration min time: keeps the full suite's wall clock bounded
/// while still averaging tens of instances per point. Override with
/// TM_BENCH_MIN_TIME (seconds).
inline double BenchMinTime() { return EnvOr("TM_BENCH_MIN_TIME", 0.08); }

}  // namespace tokenmagic::bench
