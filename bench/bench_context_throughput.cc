// Context throughput: per-query re-interning vs one shared AnalysisContext
// on the three hot read paths — related-set walks, the chain-reaction
// cascade, and one full batch-selection round — at 1k and 10k history
// RSs. The re-interning side runs AnalysisContext::Build inside every
// query (the cost a caller pays without a sealed snapshot); the context
// side seals once and shares the view, as the node does per block. Both
// run the same context code, so every phase also reports its absolute
// context_ms. Emits machine-readable BENCH_context.json (override the
// path with TM_BENCH_JSON). `--smoke` (or TM_SMOKE=1) keeps both scales
// and the full run's query mix but shrinks the counts so CI finishes in
// seconds.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/chain_reaction.h"
#include "analysis/context.h"
#include "analysis/related_set.h"
#include "common/rng.h"
#include "core/progressive.h"
#include "core/selector.h"
#include "data/dataset.h"
#include "data/synthetic.h"

namespace tokenmagic::bench {
namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct PhaseResult {
  const char* name;
  size_t queries;
  double reintern_ms;
  double context_ms;

  double Speedup() const {
    return context_ms > 0.0 ? reintern_ms / context_ms : 0.0;
  }
};

struct ScaleResult {
  size_t num_rs;
  size_t num_tokens;
  double context_build_ms;
  /// Share of the build charged to the context side (see BenchConfig).
  double build_share = 1.0;
  std::vector<PhaseResult> phases;

  double TotalReinternMs() const {
    double total = 0.0;
    for (const PhaseResult& p : phases) total += p.reintern_ms;
    return total;
  }
  double TotalContextMs() const {
    // The one-time snapshot build is charged to the context side: the
    // reported speedup is end-to-end, not per-query best case.
    double total = context_build_ms * build_share;
    for (const PhaseResult& p : phases) total += p.context_ms;
    return total;
  }
  double Speedup() const {
    double ctx = TotalContextMs();
    return ctx > 0.0 ? TotalReinternMs() / ctx : 0.0;
  }
};

struct BenchConfig {
  bool smoke = false;
  // Smoke runs divide every count by 4 and charge a quarter of the
  // one-time build, which the full run amortizes over 4x the queries:
  // the gate compares a smoke speedup against a full-run baseline, which
  // is only meaningful when both weigh the phases and the build alike.
  double build_share = 1.0;
  size_t related_queries = 64;
  size_t cascade_reps = 4;
  size_t selection_targets = 16;
};

ScaleResult RunScale(size_t num_rs, const BenchConfig& config) {
  data::SyntheticParams params;
  params.num_super_rs = num_rs;
  params.super_size_min = 5;
  params.super_size_max = 15;
  params.num_fresh = 64;
  params.sigma = 12.0;
  params.seed = 42;
  data::Dataset dataset = data::MakeSyntheticDataset(params);

  ScaleResult result;
  result.num_rs = dataset.history.size();
  result.num_tokens = dataset.universe.size();

  auto intern = [&dataset] {
    return analysis::AnalysisContext::Build(dataset.history, &dataset.index,
                                            dataset.universe);
  };
  auto start = std::chrono::steady_clock::now();
  const analysis::AnalysisContext context = intern();
  result.context_build_ms = MillisSince(start);
  result.build_share = config.build_share;

  // Runs `query` phase.queries times on each side — re-interning the
  // history inside the query, then reading the shared `context` — and
  // alternates the two sides query by query, so drift in machine load
  // hits both alike. The two checksums must agree.
  auto run_phase = [&](PhaseResult phase, auto&& query) {
    size_t checksum_reintern = 0;
    size_t checksum_context = 0;
    for (size_t q = 0; q < phase.queries; ++q) {
      auto query_start = std::chrono::steady_clock::now();
      checksum_reintern += query(q, intern());
      phase.reintern_ms += MillisSince(query_start);
      query_start = std::chrono::steady_clock::now();
      checksum_context += query(q, context);
      phase.context_ms += MillisSince(query_start);
    }
    if (checksum_reintern != checksum_context) {
      std::fprintf(stderr, "%s divergence at %zu RS\n", phase.name, num_rs);
      std::exit(1);
    }
    result.phases.push_back(phase);
  };

  // Phase 1: related-set walks seeded from history RS member sets, the
  // shape selection issues once per candidate.
  run_phase({"related_set", config.related_queries, 0.0, 0.0},
            [&](size_t q, const analysis::AnalysisContext& ctx) {
              const chain::RsView& seed =
                  dataset.history[(q * 97) % dataset.history.size()];
              return analysis::ComputeRelatedSet(seed.members, ctx)
                  .related.size();
            });

  // Phase 2: full-history chain-reaction cascade.
  run_phase({"cascade", config.cascade_reps, 0.0, 0.0},
            [](size_t, const analysis::AnalysisContext& ctx) {
              return analysis::ChainReactionAnalyzer::Cascade(ctx)
                  .spent_tokens.size();
            });

  // Phase 3: one batch-selection round — TM_P over a slate of fresh
  // targets, each selection reading the snapshot it is handed.
  const core::ProgressiveSelector selector;
  const std::vector<chain::TokenId> unspent = dataset.UnspentTokens();
  run_phase({"selection_round", config.selection_targets, 0.0, 0.0},
            [&](size_t q, const analysis::AnalysisContext& ctx) -> size_t {
              common::Rng rng(0xc0de);
              core::SelectionInput input;
              input.universe = dataset.universe;
              input.history = dataset.history;
              input.context = &ctx;
              input.requirement = {0.6, 30};
              input.index = &dataset.index;
              input.target = unspent[(q * 131) % unspent.size()];
              return selector.Select(input, &rng).ok() ? 1 : 0;
            });

  return result;
}

void WriteJson(const std::vector<ScaleResult>& scales, bool smoke,
               const char* path) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    std::exit(1);
  }
  std::fprintf(out, "{\n  \"bench\": \"context_throughput\",\n");
  std::fprintf(out, "  \"smoke\": %s,\n  \"scales\": [\n",
               smoke ? "true" : "false");
  for (size_t s = 0; s < scales.size(); ++s) {
    const ScaleResult& scale = scales[s];
    std::fprintf(out,
                 "    {\n      \"num_rs\": %zu,\n      \"num_tokens\": %zu,\n"
                 "      \"context_build_ms\": %.3f,\n      \"phases\": [\n",
                 scale.num_rs, scale.num_tokens, scale.context_build_ms);
    for (size_t p = 0; p < scale.phases.size(); ++p) {
      const PhaseResult& phase = scale.phases[p];
      std::fprintf(out,
                   "        {\"name\": \"%s\", \"queries\": %zu, "
                   "\"reintern_ms\": %.3f, \"context_ms\": %.3f, "
                   "\"speedup\": %.2f}%s\n",
                   phase.name, phase.queries, phase.reintern_ms,
                   phase.context_ms, phase.Speedup(),
                   p + 1 < scale.phases.size() ? "," : "");
    }
    std::fprintf(out,
                 "      ],\n      \"total_reintern_ms\": %.3f,\n"
                 "      \"total_context_ms\": %.3f,\n"
                 "      \"speedup\": %.2f\n    }%s\n",
                 scale.TotalReinternMs(), scale.TotalContextMs(),
                 scale.Speedup(), s + 1 < scales.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
}

int Main(int argc, char** argv) {
  BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) config.smoke = true;
  }
  const char* env_smoke = std::getenv("TM_SMOKE");
  if (env_smoke != nullptr && env_smoke[0] == '1') config.smoke = true;
  if (config.smoke) {
    config.build_share = 0.25;
    config.related_queries /= 4;
    config.cascade_reps /= 4;
    config.selection_targets /= 4;
  }

  std::vector<ScaleResult> scales;
  for (size_t num_rs : {size_t{1000}, size_t{10000}}) {
    std::printf("scale %zu RS...\n", num_rs);
    scales.push_back(RunScale(num_rs, config));
    const ScaleResult& scale = scales.back();
    std::printf("  %zu RS / %zu tokens: build %.2f ms, speedup %.2fx\n",
                scale.num_rs, scale.num_tokens, scale.context_build_ms,
                scale.Speedup());
    for (const PhaseResult& phase : scale.phases) {
      std::printf("    %-16s reintern %9.2f ms  context %9.2f ms  %.2fx\n",
                  phase.name, phase.reintern_ms, phase.context_ms,
                  phase.Speedup());
    }
  }

  const char* path = std::getenv("TM_BENCH_JSON");
  if (path == nullptr) path = "BENCH_context.json";
  WriteJson(scales, config.smoke, path);
  std::printf("wrote %s\n", path);
  return 0;
}

}  // namespace
}  // namespace tokenmagic::bench

int main(int argc, char** argv) {
  return tokenmagic::bench::Main(argc, argv);
}
