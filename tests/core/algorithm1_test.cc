#include "core/algorithm1.h"

#include <algorithm>
#include <atomic>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/chain_reaction.h"
#include "chain/blockchain.h"
#include "core/progressive.h"
#include "support/snapshot.h"

namespace tokenmagic::core {
namespace {

using chain::TokenId;

/// One batch of single-output transactions (every token its own HT),
/// with a history that rings over the batch, interned the way a node
/// seals a snapshot.
struct BatchInstance {
  chain::Blockchain bc;
  chain::HtIndex index;
  std::vector<TokenId> universe;
  std::vector<chain::RsView> history;

  BatchInstance(size_t tokens, std::vector<std::vector<TokenId>> rings) {
    bc.AddBlock(0, std::vector<uint32_t>(tokens, 1));
    index = chain::HtIndex::FromBlockchain(bc);
    universe = bc.AllTokens();
    for (auto& members : rings) {
      chain::RsView view;
      view.id = history.size();
      view.members = std::move(members);
      std::sort(view.members.begin(), view.members.end());
      view.proposed_at = history.size();
      view.requirement = {1.0, 1};
      history.push_back(std::move(view));
    }
  }

  SelectionInput Instance(TokenId target, chain::DiversityRequirement req) {
    SelectionInput input;
    input.target = target;
    input.universe = universe;
    input.history = history;
    input.requirement = req;
    input.index = &index;
    test_support::AttachContext(&input);
    return input;
  }
};

/// Counts the Select calls that reach the wrapped selector.
class CountingSelector : public MixinSelector {
 public:
  explicit CountingSelector(const MixinSelector* inner) : inner_(inner) {}
  common::Result<SelectionResult> Select(const SelectionInput& input,
                                         common::Rng* rng) const override {
    calls_.fetch_add(1);
    return inner_->Select(input, rng);
  }
  std::string_view name() const override { return inner_->name(); }
  size_t calls() const { return calls_.load(); }

 private:
  const MixinSelector* inner_;
  mutable std::atomic<size_t> calls_{0};
};

/// A fake inner selector: Unsatisfiable on the target's first run and
/// {target, target + 1} on its retry; every other token s gets {s}. So no
/// R_s holds the target and Algorithm 1 falls back to the retry.
class RetryOnlySelector : public MixinSelector {
 public:
  explicit RetryOnlySelector(TokenId target) : target_(target) {}
  common::Result<SelectionResult> Select(const SelectionInput& input,
                                         common::Rng*) const override {
    SelectionResult result;
    if (input.target != target_) {
      result.members = {input.target};
      return result;
    }
    if (!retried_.exchange(true)) {
      return common::Status::Unsatisfiable("first run for the target");
    }
    result.members = {target_, target_ + 1};
    return result;
  }
  std::string_view name() const override { return "retry-only"; }

 private:
  TokenId target_;
  mutable std::atomic<bool> retried_{false};
};

TEST(Algorithm1Test, FallbackRingAlsoFacesTheLiquidityRule) {
  BatchInstance batch(4, {});
  SelectionInput input = batch.Instance(0, {1.0, 1});
  common::Rng rng(3);
  RetryOnlySelector permissive_inner(0);
  auto kept = Algorithm1Selector(permissive_inner, 0.0).Select(input, &rng);
  ASSERT_TRUE(kept.ok()) << kept.status().ToString();
  EXPECT_EQ(kept->members, (std::vector<TokenId>{0, 1}));
  // With eta = 1 the same fallback ring would drain the 4-token batch.
  RetryOnlySelector strict_inner(0);
  EXPECT_TRUE(Algorithm1Selector(strict_inner, 1.0)
                  .Select(input, &rng)
                  .status()
                  .IsUnsatisfiable());
}

// The drawn ring is R_s for some token s of the batch with the target in
// R_s, where the family {R_s} is recomputed by running the inner selector
// for every token.
TEST(Algorithm1Test, DrawnRingIsAFamilyRingContainingTheTarget) {
  BatchInstance batch(16, {{0, 1, 2, 3}, {4, 5, 6, 7}});
  ProgressiveSelector progressive;
  Algorithm1Selector algorithm1(progressive, 0.0);
  size_t drawn_from_another_seed = 0;
  for (TokenId target = 0; target < 16; ++target) {
    SelectionInput input = batch.Instance(target, {2.0, 3});
    common::Rng rng(target + 1);
    auto drawn = algorithm1.Select(input, &rng);
    ASSERT_TRUE(drawn.ok()) << "target " << target << ": "
                            << drawn.status().ToString();
    EXPECT_TRUE(std::binary_search(drawn->members.begin(),
                                   drawn->members.end(), target));

    std::vector<std::vector<TokenId>> family;
    SelectionInput seeded = input;
    for (TokenId seed : batch.universe) {
      seeded.target = seed;
      common::Rng unused(0);
      auto ring = progressive.Select(seeded, &unused);
      if (ring.ok() && std::binary_search(ring->members.begin(),
                                          ring->members.end(), target)) {
        family.push_back(ring->members);
      }
    }
    EXPECT_NE(std::find(family.begin(), family.end(), drawn->members),
              family.end())
        << "target " << target;
    common::Rng unused(0);
    auto own = progressive.Select(input, &unused);
    ASSERT_TRUE(own.ok());
    if (drawn->members != own->members) ++drawn_from_another_seed;
  }
  // The draw is over a real family: some target gets another token's
  // ring rather than its own.
  EXPECT_GT(drawn_from_another_seed, 0u);
}

TEST(Algorithm1Test, SameSeedGivesSameRing) {
  BatchInstance batch(16, {{0, 1, 2, 3}});
  ProgressiveSelector progressive;
  Algorithm1Selector algorithm1(progressive, 0.0);
  SelectionInput input = batch.Instance(9, {2.0, 3});
  common::Rng first_rng(42);
  common::Rng second_rng(42);
  auto first = algorithm1.Select(input, &first_rng);
  auto second = algorithm1.Select(input, &second_rng);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->members, second->members);
}

TEST(Algorithm1Test, LiquidityGuardBlocksDrainingUniverse) {
  // A 4-token batch; eta = 1 demands i - mu_i >= |T| - i. The first ring
  // has i = 1 and mu = 0: 1 >= 3 fails. With eta = 0 the same instance
  // passes, so the block is the liquidity rule's and not the selector's.
  BatchInstance batch(4, {});
  SelectionInput input = batch.Instance(0, {2.0, 1});
  ProgressiveSelector progressive;
  common::Rng rng(5);
  EXPECT_TRUE(Algorithm1Selector(progressive, 1.0)
                  .Select(input, &rng)
                  .status()
                  .IsUnsatisfiable());
  EXPECT_TRUE(Algorithm1Selector(progressive, 0.0).Select(input, &rng).ok());
}

// With eta = 0 the rule reads i - mu_i >= 0, and the cascade proves at
// most one spend per ring, so no ring is ever blocked.
TEST(Algorithm1Test, ZeroEtaNeverBlocks) {
  common::Rng meta(17);
  for (int trial = 0; trial < 50; ++trial) {
    // A feasible history: ring r spends token r, plus random mixins.
    const size_t tokens = 8;
    const size_t rings = meta.NextBounded(tokens);
    std::vector<std::vector<TokenId>> history;
    for (size_t r = 0; r < rings; ++r) {
      std::vector<TokenId> members = {static_cast<TokenId>(r)};
      for (size_t k = meta.NextBounded(3); k > 0; --k) {
        members.push_back(meta.NextBounded(tokens));
      }
      std::sort(members.begin(), members.end());
      members.erase(std::unique(members.begin(), members.end()),
                    members.end());
      history.push_back(std::move(members));
    }
    BatchInstance batch(tokens, std::move(history));
    SelectionInput input = batch.Instance(tokens - 1, {1.0, 1});
    std::vector<TokenId> members = {static_cast<TokenId>(tokens - 1)};
    for (size_t k = meta.NextBounded(4); k > 0; --k) {
      members.push_back(meta.NextBounded(tokens));
    }
    EXPECT_TRUE(LiquidityAllows(input, members, 0.0)) << "trial " << trial;
  }
}

TEST(Algorithm1Test, MissingContextIsInvalidArgumentBeforeAnyInnerRun) {
  BatchInstance batch(16, {});
  SelectionInput input = batch.Instance(3, {2.0, 3});
  input.context = nullptr;
  ProgressiveSelector progressive;
  CountingSelector counting(&progressive);
  common::Rng rng(1);
  EXPECT_TRUE(Algorithm1Selector(counting, 0.0)
                  .Select(input, &rng)
                  .status()
                  .IsInvalidArgument());
  EXPECT_EQ(counting.calls(), 0u);
}

TEST(Algorithm1Test, ExpiredDeadlineTimesOutBeforeAnyInnerRun) {
  BatchInstance batch(16, {});
  SelectionInput input = batch.Instance(3, {2.0, 3});
  common::Deadline expired = common::Deadline::AlreadyExpired();
  input.deadline = &expired;
  ProgressiveSelector progressive;
  CountingSelector counting(&progressive);
  common::Rng rng(1);
  EXPECT_TRUE(Algorithm1Selector(counting, 0.0)
                  .Select(input, &rng)
                  .status()
                  .IsTimeout());
  EXPECT_EQ(counting.calls(), 0u);
}

}  // namespace
}  // namespace tokenmagic::core
