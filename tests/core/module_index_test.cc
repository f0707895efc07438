// The per-seal module index: every view of one sealed epoch shares one
// lazily built index (including every ladder stage and relaxation step of
// a selection), a new epoch gets a fresh one, and the index dies with the
// last view of its seal.
#include <gtest/gtest.h>

#include <memory>
#include <string_view>
#include <vector>

#include "analysis/context.h"
#include "analysis/epoch_chain.h"
#include "chain/blockchain.h"
#include "chain/ht_index.h"
#include "chain/ledger.h"
#include "core/baselines.h"
#include "core/batch_snapshots.h"
#include "core/module_greedy.h"
#include "core/modules.h"
#include "core/progressive.h"
#include "core/resilient.h"

namespace tokenmagic::core {
namespace {

using chain::RsView;
using chain::TokenId;

RsView View(chain::RsId id, std::vector<TokenId> members) {
  RsView v;
  v.id = id;
  v.members = std::move(members);
  v.proposed_at = id;
  v.requirement = {1.0, 1};
  return v;
}

/// Tokens 0..11, HT t / 2 (two tokens per HT), RSs {0,1} and {4,5,6}.
struct SealFixture {
  chain::HtIndex index;
  std::vector<TokenId> tokens;
  std::vector<RsView> history = {View(1, {0, 1}), View(2, {4, 5, 6})};
  analysis::EpochChain chain;

  SealFixture() {
    for (TokenId t = 0; t < 12; ++t) {
      tokens.push_back(t);
      index.Set(t, 100 + t / 2);
    }
    chain.Append(history, &index, tokens);
  }

  SelectionInput Input(const analysis::AnalysisContext* view) const {
    SelectionInput input;
    input.target = 9;
    input.universe = tokens;
    input.history = chain.History();
    input.requirement = {2.0, 3};
    input.index = &index;
    input.context = view;
    return input;
  }
};

const ModuleUniverse* IndexAddress(const analysis::AnalysisContext& view) {
  std::shared_ptr<const common::Result<ModuleUniverse>> index =
      ModuleIndexOf(view);
  EXPECT_TRUE(index->ok()) << index->status().ToString();
  return &index->value();
}

TEST(ModuleIndexTest, ViewsOfOneSealShareOneIndex) {
  SealFixture fx;
  analysis::AnalysisContext first = fx.chain.View();
  analysis::AnalysisContext second = fx.chain.View();
  EXPECT_FALSE(ModuleIndexBuilt(first));
  const ModuleUniverse* index = IndexAddress(first);
  EXPECT_TRUE(ModuleIndexBuilt(second));
  EXPECT_EQ(IndexAddress(second), index);
  analysis::AnalysisContext copy = first;
  EXPECT_EQ(IndexAddress(copy), index);
  EXPECT_EQ(index->module_count(), 2u + 7u);  // two supers, seven fresh

  // A new epoch (even an empty one) is a new seal with a fresh index;
  // the old seal's index stays valid.
  fx.chain.Append({}, &fx.index, {});
  analysis::AnalysisContext next = fx.chain.View();
  EXPECT_FALSE(ModuleIndexBuilt(next));
  EXPECT_NE(IndexAddress(next), index);
  EXPECT_EQ(index->module_count(), 9u);
  EXPECT_EQ(index->ModuleOfToken(5), index->ModuleOfToken(4));
}

TEST(ModuleIndexTest, FromScratchContextCarriesItsOwnIndex) {
  SealFixture fx;
  analysis::AnalysisContext built =
      analysis::AnalysisContext::Build(fx.history, &fx.index, fx.tokens);
  EXPECT_FALSE(ModuleIndexBuilt(built));
  EXPECT_NE(IndexAddress(built), IndexAddress(fx.chain.View()));
  EXPECT_TRUE(ModuleIndexBuilt(built));
}

/// A ladder stage that records the module index its InitModuleState
/// reads, then defers to `inner` (or fails Unsatisfiable when null).
class RecordingStage : public MixinSelector {
 public:
  RecordingStage(const MixinSelector* inner, std::string_view name)
      : inner_(inner), name_(name) {}

  common::Result<SelectionResult> Select(const SelectionInput& input,
                                         common::Rng* rng) const override {
    auto state = InitModuleState(input);
    if (!state.ok()) return state.status();
    seen_.push_back(state->mu);
    if (inner_ == nullptr) {
      return common::Status::Unsatisfiable("recording stage declines");
    }
    return inner_->Select(input, rng);
  }

  std::string_view name() const override { return name_; }

  const std::vector<const ModuleUniverse*>& seen() const { return seen_; }

 private:
  const MixinSelector* inner_;
  std::string_view name_;
  mutable std::vector<const ModuleUniverse*> seen_;
};

TEST(ModuleIndexTest, LadderStagesAndRelaxationStepsShareTheSealIndex) {
  SealFixture fx;
  analysis::AnalysisContext view = fx.chain.View();
  SmallestSelector smallest;
  RecordingStage declining(nullptr, "TM_P");
  RecordingStage recording_smallest(&smallest, "TM_S");
  ResilientOptions options;
  options.allow_relaxation = true;
  ResilientSelector ladder({&declining, &recording_smallest}, options);

  SelectionInput input = fx.Input(&view);
  common::Rng rng(5);
  auto selected = ladder.SelectWithReport(input, &rng);
  ASSERT_TRUE(selected.ok()) << selected.status().ToString();
  EXPECT_EQ(selected->report.stage, "TM_S");

  // The declining stage ran once per relaxation step, then TM_S ran.
  ASSERT_GT(declining.seen().size(), 1u);
  ASSERT_FALSE(recording_smallest.seen().empty());
  analysis::AnalysisContext other = fx.chain.View();
  const ModuleUniverse* index = IndexAddress(other);
  for (const ModuleUniverse* seen : declining.seen()) EXPECT_EQ(seen, index);
  for (const ModuleUniverse* seen : recording_smallest.seen()) {
    EXPECT_EQ(seen, index);
  }
}

TEST(ModuleIndexTest, IndexDiesWithTheLastViewOfItsSeal) {
  // Two single-block batches of four tokens each.
  chain::Blockchain bc;
  bc.AddBlock(0, {1, 1, 1, 1});
  bc.AddBlock(1, {1, 1, 1, 1});
  BatchIndex batches(bc, /*lambda=*/4);
  chain::HtIndex ht_index = chain::HtIndex::FromBlockchain(bc);
  chain::Ledger ledger;
  BatchSnapshots snapshots;
  snapshots.Sync(ledger, batches, ht_index);

  std::shared_ptr<const BatchSnapshot> snapshot = snapshots.Get(1);
  std::weak_ptr<const common::Result<ModuleUniverse>> index =
      ModuleIndexOf(snapshot->context);
  analysis::AnalysisContext view = snapshot->context;

  // A ring in batch 1 re-seals it; the superseded snapshot and every view
  // of it still hold the old index.
  ASSERT_TRUE(ledger.ProposeBlind({4, 5, 6}, {1.0, 1}).ok());
  snapshots.Sync(ledger, batches, ht_index);
  std::shared_ptr<const BatchSnapshot> fresh = snapshots.Get(1);
  ASSERT_NE(fresh.get(), snapshot.get());
  EXPECT_FALSE(ModuleIndexBuilt(fresh->context));
  EXPECT_FALSE(index.expired());
  snapshot.reset();
  EXPECT_FALSE(index.expired());
  view = fresh->context;
  EXPECT_TRUE(index.expired());

  // The same holds for a from-scratch context.
  std::weak_ptr<const common::Result<ModuleUniverse>> scratch;
  {
    analysis::AnalysisContext built = analysis::AnalysisContext::Build(
        fresh->history, &ht_index, batches.batch(1).tokens);
    scratch = ModuleIndexOf(built);
    EXPECT_FALSE(scratch.expired());
  }
  EXPECT_TRUE(scratch.expired());
}

}  // namespace
}  // namespace tokenmagic::core
