// Ablation D: system-level privacy over time per selection policy.
//
// Runs the multi-user simulation for several rounds under each policy
// and reports the adversary's final haul: deanonymized rings,
// homogeneity leaks, and the mean anonymity set. Quantifies the paper's
// security claim (DA-MS selections survive chain-reaction analysis)
// beyond single instances. The Monero-style sampler runs with the node's
// configuration checks disabled — it models the status quo the paper
// argues against.
#include <benchmark/benchmark.h>

#include "core/baselines.h"
#include "core/game_theoretic.h"
#include "core/progressive.h"
#include "sim/simulation.h"

namespace tokenmagic::bench {
namespace {

sim::SimulationConfig AblationConfig(bool enforce) {
  sim::SimulationConfig config;
  config.num_wallets = 4;
  config.tokens_per_wallet = 8;
  config.cluster_size = 2;
  config.rounds = 4;
  config.requirement = {2.0, 3};
  config.seed = 20210620;
  config.verifier.enforce_configuration = enforce;
  config.verifier.enforce_strict_dtrs = enforce;
  return config;
}

void ReportFinal(benchmark::State& state, const sim::SimulationResult& r) {
  const sim::RoundReport& final_round = r.final_round();
  state.counters["rings"] =
      static_cast<double>(final_round.rings_on_ledger);
  state.counters["deanonymized"] =
      static_cast<double>(final_round.stats.fully_revealed);
  state.counters["homogeneity_leaks"] =
      static_cast<double>(final_round.homogeneity_leaks);
  state.counters["mean_anonymity"] = final_round.stats.mean_anonymity_set;
}

void BM_Privacy_TM_P(benchmark::State& state) {
  core::ProgressiveSelector selector;
  sim::SimulationResult result;
  for (auto _ : state) {
    result = sim::RunSimulation(AblationConfig(true), selector);
    benchmark::DoNotOptimize(&result);
  }
  ReportFinal(state, result);
}
BENCHMARK(BM_Privacy_TM_P)->Unit(benchmark::kMillisecond)
    ->Iterations(3);

void BM_Privacy_TM_G(benchmark::State& state) {
  core::GameTheoreticSelector selector;
  sim::SimulationResult result;
  for (auto _ : state) {
    result = sim::RunSimulation(AblationConfig(true), selector);
    benchmark::DoNotOptimize(&result);
  }
  ReportFinal(state, result);
}
BENCHMARK(BM_Privacy_TM_G)->Unit(benchmark::kMillisecond)
    ->Iterations(3);

void BM_Privacy_MoneroStyle(benchmark::State& state) {
  core::MoneroSelector selector(2);  // thrifty rings, no diversity checks
  sim::SimulationConfig config = AblationConfig(false);
  // A denser spending pattern: most of the universe turns over, giving
  // chain-reaction analysis material to cascade on.
  config.tokens_per_wallet = 6;
  config.rounds = 6;
  // Status-quo users declare no anonymity requirement at all.
  config.requirement = {1000.0, 1};
  sim::SimulationResult result;
  for (auto _ : state) {
    result = sim::RunSimulation(config, selector);
    benchmark::DoNotOptimize(&result);
  }
  ReportFinal(state, result);
}
BENCHMARK(BM_Privacy_MoneroStyle)->Unit(benchmark::kMillisecond)
    ->Iterations(3);

}  // namespace
}  // namespace tokenmagic::bench

BENCHMARK_MAIN();
