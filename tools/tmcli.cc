// tmcli — command-line front end for the TokenMagic library.
//
//   tmcli gen-synthetic --out DIR [--supers N] [--smin N] [--smax N]
//                       [--fresh N] [--sigma X] [--seed N]
//   tmcli gen-monero    --out DIR [--seed N]
//   tmcli stats         --data DIR
//   tmcli select        --data DIR --target ID [--c X] [--ell N]
//                       [--algo TM_P|TM_G|TM_S|TM_R|TM_B|TM_X]
//                       [--budget SECONDS] [--seed N]
//   tmcli attack        --data DIR
//   tmcli report        --data DIR            (per-ring anonymity table)
//   tmcli simulate      [--wallets N] ...     (multi-user network sim)
//
// Datasets are the two-file CSV layout of data/csv.h, so anything that
// can emit tokens.csv + rings.csv (e.g. a real chain extractor) plugs in.
#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "analysis/anonymity.h"
#include "analysis/chain_reaction.h"
#include "analysis/context.h"
#include "analysis/dtrs.h"
#include "analysis/diversity.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/baselines.h"
#include "core/bfs.h"
#include "core/game_theoretic.h"
#include "core/progressive.h"
#include "core/resilient.h"
#include "data/csv.h"
#include "data/monero_like.h"
#include "data/synthetic.h"
#include "sim/simulation.h"

namespace {

using namespace tokenmagic;

/// Minimal --flag value parser: flags are "--name value" pairs.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i + 1 < argc; i += 2) {
      if (common::StartsWith(argv[i], "--")) {
        values_[argv[i] + 2] = argv[i + 1];
      }
    }
  }

  std::string Get(const std::string& name, const std::string& fallback) const {
    auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }
  int64_t GetInt(const std::string& name, int64_t fallback) const {
    auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    int64_t out = fallback;
    common::ParseInt64(it->second, &out);
    return out;
  }
  double GetDouble(const std::string& name, double fallback) const {
    auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    double out = fallback;
    common::ParseDouble(it->second, &out);
    return out;
  }
  bool Has(const std::string& name) const { return values_.count(name) > 0; }

 private:
  std::map<std::string, std::string> values_;
};

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  tmcli gen-synthetic --out DIR [--supers N] [--smin N] [--smax N]\n"
      "                      [--fresh N] [--sigma X] [--seed N]\n"
      "  tmcli gen-monero    --out DIR [--seed N]\n"
      "  tmcli stats         --data DIR\n"
      "  tmcli select        --data DIR --target ID [--c X] [--ell N]\n"
      "                      [--algo TM_P|TM_G|TM_S|TM_R|TM_B|TM_X]\n"
      "                      [--budget SECONDS] [--seed N]\n"
      "  tmcli attack        --data DIR\n"
      "  tmcli report        --data DIR\n"
      "  tmcli simulate      [--wallets N] [--tokens N] [--rounds N]\n"
      "                      [--algo TM_P|TM_G] [--c X] [--ell N] [--seed N]\n");
  return 2;
}

int GenSynthetic(const Args& args) {
  if (!args.Has("out")) return Usage();
  data::SyntheticParams params;
  params.num_super_rs = static_cast<size_t>(args.GetInt("supers", 50));
  params.super_size_min = static_cast<size_t>(args.GetInt("smin", 10));
  params.super_size_max = static_cast<size_t>(args.GetInt("smax", 20));
  params.num_fresh = static_cast<size_t>(args.GetInt("fresh", 10));
  params.sigma = args.GetDouble("sigma", 12.0);
  params.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  data::Dataset ds = data::MakeSyntheticDataset(params);
  auto st = data::SaveDataset(ds, args.Get("out", ""));
  if (!st.ok()) {
    std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu tokens, %zu rings to %s\n", ds.universe.size(),
              ds.history.size(), args.Get("out", "").c_str());
  return 0;
}

int GenMonero(const Args& args) {
  if (!args.Has("out")) return Usage();
  data::MoneroLikeParams params;
  params.seed = static_cast<uint64_t>(args.GetInt("seed", 20210620));
  data::Dataset ds = data::MakeMoneroLikeTrace(params);
  auto st = data::SaveDataset(ds, args.Get("out", ""));
  if (!st.ok()) {
    std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu tokens, %zu rings to %s\n", ds.universe.size(),
              ds.history.size(), args.Get("out", "").c_str());
  return 0;
}

int Stats(const Args& args) {
  auto ds = data::LoadDataset(args.Get("data", ""));
  if (!ds.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 ds.status().ToString().c_str());
    return 1;
  }
  auto freq = analysis::HtFrequencies(ds->universe, ds->index);
  std::printf("tokens: %zu\nrings: %zu\nfresh tokens: %zu\n",
              ds->universe.size(), ds->history.size(), ds->fresh.size());
  std::printf("distinct HTs: %zu\npeak HT frequency (q_M): %lld\n",
              freq.size(), static_cast<long long>(freq.front()));
  common::Histogram ring_sizes;
  for (const auto& view : ds->history) {
    ring_sizes.Add(static_cast<int64_t>(view.members.size()));
  }
  if (ring_sizes.count() > 0) {
    std::printf("ring sizes: min %lld, mean %.1f, max %lld\n",
                static_cast<long long>(ring_sizes.Min()), ring_sizes.Mean(),
                static_cast<long long>(ring_sizes.Max()));
  }
  return 0;
}

int Select(const Args& args) {
  auto ds = data::LoadDataset(args.Get("data", ""));
  if (!ds.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 ds.status().ToString().c_str());
    return 1;
  }
  if (!args.Has("target")) return Usage();

  const analysis::AnalysisContext context =
      analysis::AnalysisContext::Build(ds->history, &ds->index, ds->universe);
  core::SelectionInput input;
  input.target = static_cast<chain::TokenId>(args.GetInt("target", 0));
  input.universe = ds->universe;
  input.history = ds->history;
  input.context = &context;
  input.requirement = {args.GetDouble("c", 0.6),
                       static_cast<int>(args.GetInt("ell", 30))};
  input.index = &ds->index;

  std::string algo = args.Get("algo", "TM_P");
  common::Rng rng(static_cast<uint64_t>(args.GetInt("seed", 1)));

  if (algo == "TM_X") {
    core::ResilientOptions options;
    options.total_budget_seconds = args.GetDouble("budget", 2.0);
    core::ResilientSelector resilient(options);
    common::StopWatch watch;
    auto selection = resilient.SelectWithReport(input, &rng);
    double elapsed_ms = watch.ElapsedMillis();
    if (!selection.ok()) {
      std::fprintf(stderr, "TM_X failed: %s\n",
                   selection.status().ToString().c_str());
      return 1;
    }
    std::printf("TM_X selected %zu members in %.3f ms:\n",
                selection->result.members.size(), elapsed_ms);
    for (chain::TokenId t : selection->result.members) {
      std::printf("%llu ", static_cast<unsigned long long>(t));
    }
    std::printf("\n%s\n", selection->report.ToString().c_str());
    return 0;
  }

  core::ProgressiveSelector progressive;
  core::GameTheoreticSelector game;
  core::SmallestSelector smallest;
  core::RandomSelector random;
  core::BfsSelector bfs;
  const core::MixinSelector* selector = &progressive;
  if (algo == "TM_G") selector = &game;
  else if (algo == "TM_S") selector = &smallest;
  else if (algo == "TM_R") selector = &random;
  else if (algo == "TM_B") selector = &bfs;
  else if (algo != "TM_P") return Usage();

  common::StopWatch watch;
  auto result = selector->Select(input, &rng);
  double elapsed_ms = watch.ElapsedMillis();
  if (!result.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", algo.c_str(),
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("%s selected %zu members in %.3f ms:\n", algo.c_str(),
              result->members.size(), elapsed_ms);
  for (chain::TokenId t : result->members) {
    std::printf("%llu ", static_cast<unsigned long long>(t));
  }
  std::printf("\n");
  return 0;
}

int Simulate(const Args& args) {
  sim::SimulationConfig config;
  config.num_wallets = static_cast<size_t>(args.GetInt("wallets", 4));
  config.tokens_per_wallet =
      static_cast<size_t>(args.GetInt("tokens", 8));
  config.cluster_size = static_cast<size_t>(args.GetInt("cluster", 2));
  config.rounds = static_cast<size_t>(args.GetInt("rounds", 4));
  config.requirement = {args.GetDouble("c", 2.0),
                        static_cast<int>(args.GetInt("ell", 3))};
  config.seed = static_cast<uint64_t>(args.GetInt("seed", 7));

  std::string algo = args.Get("algo", "TM_P");
  core::ProgressiveSelector progressive;
  core::GameTheoreticSelector game;
  const core::MixinSelector* selector = &progressive;
  if (algo == "TM_G") selector = &game;

  auto result = sim::RunSimulation(config, *selector);
  std::printf("round  rings  accepted  deanon  homog  mean_anon\n");
  for (const auto& round : result.rounds) {
    std::printf("%5zu  %5zu  %8zu  %6zu  %5zu  %9.2f\n", round.round,
                round.rings_on_ledger, round.accepted,
                round.stats.fully_revealed, round.homogeneity_leaks,
                round.stats.mean_anonymity_set);
  }
  return 0;
}

int Report(const Args& args) {
  auto ds = data::LoadDataset(args.Get("data", ""));
  if (!ds.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 ds.status().ToString().c_str());
    return 1;
  }
  auto result = analysis::ChainReactionAnalyzer::Analyze(
      analysis::AnalysisContext::Build(ds->history, &ds->index));
  std::printf("ring  size  possible  eliminated  hts  si_threshold\n");
  for (const auto& view : ds->history) {
    size_t possible = result.possible_spends.count(view.id)
                          ? result.possible_spends.at(view.id).size()
                          : 0;
    size_t eliminated = result.eliminated.count(view.id)
                            ? result.eliminated.at(view.id).size()
                            : 0;
    std::printf("%4llu  %4zu  %8zu  %10zu  %3zu  %12zu\n",
                static_cast<unsigned long long>(view.id),
                view.members.size(), possible, eliminated,
                analysis::DistinctHtCount(view.members, ds->index),
                analysis::SideInfoThreshold(view.members, ds->index));
  }
  return 0;
}

int Attack(const Args& args) {
  auto ds = data::LoadDataset(args.Get("data", ""));
  if (!ds.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 ds.status().ToString().c_str());
    return 1;
  }
  common::StopWatch watch;
  auto result = analysis::ChainReactionAnalyzer::Analyze(
      analysis::AnalysisContext::Build(ds->history, &ds->index));
  auto stats = analysis::SummarizeAnonymity(result);
  std::printf("chain-reaction analysis over %zu rings (%.1f ms):\n",
              ds->history.size(), watch.ElapsedMillis());
  std::printf("  fully deanonymized: %zu\n", stats.fully_revealed);
  std::printf("  rings with eliminations: %zu\n", stats.with_eliminations);
  std::printf("  provably spent tokens: %zu\n", result.spent_tokens.size());
  std::printf("  mean anonymity set: %.2f (min %.0f)\n",
              stats.mean_anonymity_set, stats.min_anonymity_set);
  std::printf("  mean entropy: %.2f bits\n", stats.mean_entropy_bits);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  Args args(argc, argv);
  std::string command = argv[1];
  if (command == "gen-synthetic") return GenSynthetic(args);
  if (command == "gen-monero") return GenMonero(args);
  if (command == "stats") return Stats(args);
  if (command == "select") return Select(args);
  if (command == "attack") return Attack(args);
  if (command == "report") return Report(args);
  if (command == "simulate") return Simulate(args);
  return Usage();
}
