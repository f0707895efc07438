// Section 7's figures as checked data: one deterministic driver for
// Figure 3 and Figures 5-10.
//
// Figure 3 is the outputs-per-transaction distribution of the Monero-like
// trace. Figures 5-10 each sweep one parameter over five points. At every
// point the driver generates the point's dataset, seals it once through
// analysis::EpochChain (the production read path), and runs the four
// compared approaches of Section 7.1 (TM_P, TM_G, TM_S, TM_R) on one fixed
// target set: the first kTargetsPerPoint tokens of a seeded shuffle of the
// dataset's unspent tokens. Every Select is timed on its own, so ring size
// and time are separate measurements, and every ring goes into a SHA-256
// digest, so a change to any ring shows.
//
// Writes BENCH_figures.json (override the path with TM_BENCH_JSON).
// tools/bench/check_bench_regression.py compares it exactly against the
// committed baseline and asserts the paper's shapes on it.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "analysis/epoch_chain.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/baselines.h"
#include "core/game_theoretic.h"
#include "core/progressive.h"
#include "crypto/sha256.h"
#include "data/monero_like.h"
#include "data/synthetic.h"

namespace tokenmagic::bench {
namespace {

using Clock = std::chrono::steady_clock;
using common::StrFormat;

constexpr size_t kTargetsPerPoint = 300;
/// Seeds the shuffle that picks every point's targets.
constexpr uint64_t kTargetSeed = 0xf16e5;
/// Seeds the selector rng of every (point, approach); only TM_R draws.
constexpr uint64_t kSelectSeed = 0xbe5c;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

data::Dataset RealTrace(double) { return data::MakeMoneroLikeTrace(); }

/// The synthetic figures keep Table 3's defaults (and seed 42) in every
/// parameter they do not sweep, and use (c, ℓ) = (0.6, 30): see
/// EXPERIMENTS.md, deviation 2.
chain::DiversityRequirement SyntheticRequirement(double) { return {0.6, 30}; }

/// One figure: a five-point sweep of `axis`. At sweep value x the point's
/// dataset is dataset(x) and its requirement requirement(x).
struct FigureSpec {
  const char* figure;
  const char* axis;
  std::array<double, 5> sweep;
  data::Dataset (*dataset)(double x);
  chain::DiversityRequirement (*requirement)(double x);
};

const FigureSpec kFigures[] = {
    {"fig5", "c", {0.2, 0.4, 0.6, 0.8, 1.0}, RealTrace,
     [](double c) { return chain::DiversityRequirement{c, 40}; }},
    {"fig6", "ell", {20, 30, 40, 50, 60}, RealTrace,
     [](double ell) {
       return chain::DiversityRequirement{0.6, static_cast<int>(ell)};
     }},
    {"fig7", "sigma", {8, 10, 12, 14, 16},
     [](double sigma) {
       data::SyntheticParams params;
       params.sigma = sigma;
       return data::MakeSyntheticDataset(params);
     },
     SyntheticRequirement},
    {"fig8", "super_rs", {10, 30, 50, 70, 90},
     [](double count) {
       data::SyntheticParams params;
       params.num_super_rs = static_cast<size_t>(count);
       return data::MakeSyntheticDataset(params);
     },
     SyntheticRequirement},
    // x is s⁺; the ranges are [1,10], [5,15], [10,20], [15,25], [20,30].
    {"fig9", "super_size_max", {10, 15, 20, 25, 30},
     [](double hi) {
       data::SyntheticParams params;
       params.super_size_max = static_cast<size_t>(hi);
       params.super_size_min = hi > 10 ? params.super_size_max - 10 : 1;
       return data::MakeSyntheticDataset(params);
     },
     SyntheticRequirement},
    {"fig10", "fresh", {0, 5, 10, 15, 20},
     [](double fresh) {
       data::SyntheticParams params;
       params.num_fresh = static_cast<size_t>(fresh);
       return data::MakeSyntheticDataset(params);
     },
     SyntheticRequirement},
};

/// Runs `selector` on every target with a fresh seeded rng and returns its
/// JSON member. Any failure other than Unsatisfiable is a bug, and aborts
/// the run.
std::string ApproachJson(const core::MixinSelector& selector,
                         core::SelectionInput input,
                         const std::vector<chain::TokenId>& targets) {
  const std::string name(selector.name());
  common::Rng rng(kSelectSeed);
  crypto::Sha256 digest;
  std::vector<double> micros;
  size_t solved = 0;
  size_t members = 0;
  for (chain::TokenId target : targets) {
    input.target = target;
    Clock::time_point start = Clock::now();
    auto selected = selector.Select(input, &rng);
    micros.push_back(MillisSince(start) * 1e3);
    std::string ring;
    if (selected.ok()) {
      ++solved;
      members += selected->members.size();
      for (chain::TokenId member : selected->members) {
        ring += StrFormat("%llu,", static_cast<unsigned long long>(member));
      }
    } else if (!selected.status().IsUnsatisfiable()) {
      std::fprintf(stderr, "%s on target %llu: %s\n", name.c_str(),
                   static_cast<unsigned long long>(target),
                   selected.status().ToString().c_str());
      std::exit(1);
    }
    digest.Update(ring + ";");
  }
  std::nth_element(micros.begin(), micros.begin() + micros.size() / 2,
                   micros.end());
  crypto::Sha256::Digest hash = digest.Finalize();
  return StrFormat(
      "\"%s\": {\"solved\": %zu, \"unsat\": %zu, "
      "\"ring_members_total\": %zu, \"mean_ring_size\": %.4f, "
      "\"time_p50_us\": %.2f, \"ring_digest\": \"%s\"}",
      name.c_str(), solved, targets.size() - solved, members,
      solved == 0 ? 0.0
                  : static_cast<double>(members) / static_cast<double>(solved),
      micros[micros.size() / 2],
      common::HexEncode(hash.data(), hash.size()).c_str());
}

/// Figure 3 as a JSON object: outputs per transaction -> transactions.
std::string Figure3Json() {
  Clock::time_point start = Clock::now();
  data::Dataset trace = data::MakeMoneroLikeTrace();
  double gen_ms = MillisSince(start);
  std::map<size_t, size_t> histogram;
  for (size_t tx = 0; tx < trace.blockchain.transaction_count(); ++tx) {
    ++histogram[trace.blockchain.transaction(tx).outputs.size()];
  }
  auto mode = std::max_element(
      histogram.begin(), histogram.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  std::string counts;
  for (auto [outputs, txs] : histogram) {
    counts += StrFormat("%s\"%zu\": %zu", counts.empty() ? "" : ", ",
                        outputs, txs);
  }
  return StrFormat(
      "{\"transactions\": %zu, \"tokens\": %zu, \"mode\": %zu, "
      "\"gen_ms\": %.3f, \"outputs\": {%s}}",
      trace.blockchain.transaction_count(), trace.universe.size(),
      mode->first, gen_ms, counts.c_str());
}

/// One figure's sweep as a JSON object.
std::string FigureJson(const FigureSpec& spec) {
  static const core::ProgressiveSelector progressive;
  static const core::GameTheoreticSelector game;
  static const core::SmallestSelector smallest;
  static const core::RandomSelector random;
  const core::MixinSelector* const approaches[] = {&progressive, &game,
                                                   &smallest, &random};

  std::string points;
  for (double x : spec.sweep) {
    Clock::time_point start = Clock::now();
    data::Dataset dataset = spec.dataset(x);
    double gen_ms = MillisSince(start);
    analysis::EpochChain chain;
    chain.Append(dataset.history, &dataset.index, dataset.universe);
    analysis::AnalysisContext view = chain.View();

    std::vector<chain::TokenId> targets = dataset.UnspentTokens();
    common::Rng shuffle(kTargetSeed);
    shuffle.Shuffle(&targets);
    targets.resize(std::min(targets.size(), kTargetsPerPoint));

    core::SelectionInput input;
    input.universe = dataset.universe;
    input.history = chain.History();
    input.requirement = spec.requirement(x);
    input.index = &dataset.index;
    input.context = &view;

    std::string results;
    for (const core::MixinSelector* selector : approaches) {
      results += StrFormat("%s\n          %s", results.empty() ? "" : ",",
                           ApproachJson(*selector, input, targets).c_str());
    }
    points += StrFormat(
        "%s\n      {\"x\": %g, \"c\": %g, \"ell\": %d, \"tokens\": %zu, "
        "\"targets\": %zu, \"gen_ms\": %.3f, \"approaches\": {%s}}",
        points.empty() ? "" : ",", x, input.requirement.c,
        input.requirement.ell, dataset.universe.size(), targets.size(),
        gen_ms, results.c_str());
  }
  return StrFormat("{\"axis\": \"%s\", \"points\": [%s\n    ]}", spec.axis,
                   points.c_str());
}

int Main() {
  Clock::time_point start = Clock::now();
  std::string figures = "\"fig3\": " + Figure3Json();
  for (const FigureSpec& spec : kFigures) {
    figures += StrFormat(",\n    \"%s\": %s", spec.figure,
                         FigureJson(spec).c_str());
    std::printf("%s done at %.1f s\n", spec.figure,
                MillisSince(start) / 1e3);
  }
  double wall_s = MillisSince(start) / 1e3;

  const char* path = std::getenv("TM_BENCH_JSON");
  if (path == nullptr) path = "BENCH_figures.json";
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  std::fprintf(out,
               "{\n  \"bench\": \"figures\",\n  \"targets_per_point\": %zu,\n"
               "  \"wall_s\": %.2f,\n  \"figures\": {\n    %s\n  }\n}\n",
               kTargetsPerPoint, wall_s, figures.c_str());
  std::fclose(out);
  std::printf("wrote %s (%.1f s)\n", path, wall_s);
  return 0;
}

}  // namespace
}  // namespace tokenmagic::bench

int main() { return tokenmagic::bench::Main(); }
