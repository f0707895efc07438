// Ablation C: exact Algorithm-3 DTRS computation versus the Theorem-6.1
// psi-set check under the first practical configuration. Both answer
// "do all DTRSs of this RS satisfy (c, ell)?"; the exact path enumerates
// token-RS combinations (exponential) while the practical path scans the
// RS's HT groups (linear). This bench is the paper's Section 6.1
// motivation in numbers.
#include <benchmark/benchmark.h>

#include <vector>

#include "analysis/context.h"
#include "analysis/dtrs.h"
#include "chain/ht_index.h"
#include "chain/types.h"
#include "common/rng.h"

namespace tokenmagic::bench {
namespace {

struct ConfiguredInstance {
  std::vector<chain::RsView> history;
  chain::HtIndex index;
  chain::RsId target;
  size_t v_super;
  std::vector<chain::TokenId> target_members;
};

/// `copies` identical super RSs over `size` tokens (so v = copies) plus a
/// disjoint sibling RS — a first-configuration-compliant family whose
/// exact SDR space grows factorially with `copies`.
ConfiguredInstance MakeInstance(size_t copies, size_t size) {
  ConfiguredInstance instance;
  common::Rng rng(1 + copies * 31 + size);
  std::vector<chain::TokenId> members;
  for (chain::TokenId t = 0; t < size; ++t) {
    members.push_back(t);
    instance.index.Set(t, static_cast<chain::TxId>(rng.NextBounded(3)));
  }
  for (size_t r = 0; r < copies; ++r) {
    chain::RsView view;
    view.id = static_cast<chain::RsId>(r);
    view.proposed_at = static_cast<chain::Timestamp>(r);
    view.members = members;
    view.requirement = {1.0, 1};
    instance.history.push_back(std::move(view));
  }
  chain::RsView sibling;
  sibling.id = 1000;
  sibling.proposed_at = 1000;
  for (chain::TokenId t = 0; t < 3; ++t) {
    chain::TokenId token = static_cast<chain::TokenId>(100 + t);
    sibling.members.push_back(token);
    instance.index.Set(token, static_cast<chain::TxId>(50 + t));
  }
  instance.history.push_back(std::move(sibling));
  instance.target = static_cast<chain::RsId>(copies - 1);
  instance.v_super = copies;
  instance.target_members = members;
  return instance;
}

void BM_DtrsExactAlgorithm3(benchmark::State& state) {
  auto instance = MakeInstance(static_cast<size_t>(state.range(0)), 5);
  const analysis::AnalysisContext context =
      analysis::AnalysisContext::Build(instance.history);
  analysis::DtrsFinder::Options options;
  options.max_combinations = 500000;
  size_t dtrs_count = 0;
  for (auto _ : state) {
    auto dtrss = analysis::DtrsFinder::FindAll(
        context, instance.target, instance.index, options);
    dtrs_count = dtrss.ok() ? dtrss->size() : 0;
    benchmark::DoNotOptimize(dtrs_count);
  }
  state.counters["dtrs_found"] = static_cast<double>(dtrs_count);
}
BENCHMARK(BM_DtrsExactAlgorithm3)->DenseRange(1, 4, 1)
    ->Unit(benchmark::kMicrosecond);

void BM_DtrsPracticalTheorem61(benchmark::State& state) {
  auto instance = MakeInstance(static_cast<size_t>(state.range(0)), 5);
  for (auto _ : state) {
    bool ok = analysis::PracticalDtrsDiversityHolds(
        instance.target_members, instance.v_super, instance.index,
        {1.0, 2});
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_DtrsPracticalTheorem61)->DenseRange(1, 4, 1)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace tokenmagic::bench

BENCHMARK_MAIN();
