#include "core/eligibility.h"
#include "support/snapshot.h"

#include <gtest/gtest.h>

#include "analysis/diversity.h"
#include "analysis/dtrs.h"
#include "oracle/module_greedy_oracle.h"

namespace tokenmagic::core {
namespace {

using chain::DiversityRequirement;
using chain::RsView;
using chain::TokenId;
using test_support::ModuleOfToken;

RsView View(chain::RsId id, std::vector<TokenId> members) {
  RsView v;
  v.id = id;
  v.members = std::move(members);
  std::sort(v.members.begin(), v.members.end());
  v.proposed_at = id;
  return v;
}

chain::HtIndex IdentityIndex(std::vector<TokenId> tokens) {
  chain::HtIndex idx;
  for (TokenId t : tokens) idx.Set(t, static_cast<chain::TxId>(t));
  return idx;
}

TEST(EffectiveRequirementTest, StrictModeBumpsEll) {
  DiversityRequirement req{0.6, 40};
  EXPECT_EQ(EffectiveRequirement(req).ell, 41);
  EXPECT_DOUBLE_EQ(EffectiveRequirement(req).c, 0.6);
}

TEST(MaterializeCandidateTest, UnionsAndSorts) {
  std::vector<TokenId> universe = {1, 2, 3, 4, 5};
  std::vector<RsView> history = {View(0, {3, 4}), View(1, {1, 2})};
  auto mu = test_support::BuildModules(universe, history);
  ASSERT_TRUE(mu.ok());
  size_t m34 = ModuleOfToken(*mu, 3);
  size_t m12 = ModuleOfToken(*mu, 1);
  size_t f5 = ModuleOfToken(*mu, 5);
  auto members = MaterializeCandidate(*mu, {m34, f5, m12});
  EXPECT_EQ(members, (std::vector<TokenId>{1, 2, 3, 4, 5}));
}

// The build-the-ring reference (oracle::CheckCandidate) that
// ChosenEligibleTest and EarlyExitTest compare the selectors against.
TEST(CheckCandidateTest, DiversityViolationDetected) {
  chain::HtIndex idx;
  // Two tokens, same HT.
  idx.Set(1, 100);
  idx.Set(2, 100);
  std::vector<TokenId> universe = {1, 2};
  auto mu = test_support::BuildModules(universe, {});
  ASSERT_TRUE(mu.ok());
  EXPECT_FALSE(oracle::CheckCandidate(
      *mu, {ModuleOfToken(*mu, 1), ModuleOfToken(*mu, 2)}, idx, {1.0, 1}));
}

TEST(CheckCandidateTest, EligibleWhenDiverse) {
  chain::HtIndex idx = IdentityIndex({1, 2, 3, 4});
  std::vector<TokenId> universe = {1, 2, 3, 4};
  auto mu = test_support::BuildModules(universe, {});
  ASSERT_TRUE(mu.ok());
  std::vector<size_t> all = {ModuleOfToken(*mu, 1), ModuleOfToken(*mu, 2),
                             ModuleOfToken(*mu, 3), ModuleOfToken(*mu, 4)};
  // Frequencies [1,1,1,1]; (2, 1) is tested at (2, 2): 1 < 2*3 OK.
  EXPECT_TRUE(oracle::CheckCandidate(*mu, all, idx, {2.0, 1}));
}

TEST(CheckCandidateTest, StrictModeIsStricter) {
  chain::HtIndex idx = IdentityIndex({1, 2, 3});
  std::vector<TokenId> universe = {1, 2, 3};
  auto mu = test_support::BuildModules(universe, {});
  ASSERT_TRUE(mu.ok());
  std::vector<size_t> all = {ModuleOfToken(*mu, 1), ModuleOfToken(*mu, 2),
                             ModuleOfToken(*mu, 3)};
  // Frequencies [1,1,1] satisfy (2, 3) itself, but a request at (2, 3) is
  // tested at (2, 4), whose ℓ exceeds θ = 3; a request at (2, 2) passes.
  EXPECT_TRUE(analysis::SatisfiesRecursiveDiversity(
      MaterializeCandidate(*mu, all), idx, {2.0, 3}));
  EXPECT_FALSE(oracle::CheckCandidate(*mu, all, idx, {2.0, 3}));
  EXPECT_TRUE(oracle::CheckCandidate(*mu, all, idx, {2.0, 2}));
}

TEST(CheckCandidateTest, ImmutabilityCheckProtectsCoveredRs) {
  // History RS r0 = {1,2} (both same HT!) declared (1.0, 1). Covering it
  // with a new ring raises its subset count to v = 2; r0's ψ set for its
  // single HT is empty, so the immutability check on r0 fails at v.
  chain::HtIndex idx;
  idx.Set(1, 100);
  idx.Set(2, 100);
  idx.Set(3, 300);
  idx.Set(4, 400);
  RsView r0 = View(0, {1, 2});
  r0.requirement = {1.0, 1};
  std::vector<RsView> history = {r0};
  std::vector<TokenId> universe = {1, 2, 3, 4};
  auto mu = test_support::BuildModules(universe, history);
  ASSERT_TRUE(mu.ok());
  std::vector<size_t> chosen = {ModuleOfToken(*mu, 1), ModuleOfToken(*mu, 3),
                                ModuleOfToken(*mu, 4)};
  // The ring itself passes the one rule: frequencies [2,1,1] at (2, 2).
  EXPECT_TRUE(oracle::CheckCandidate(*mu, chosen, idx, {2.0, 1}));
  EXPECT_FALSE(analysis::PracticalDtrsDiversityHolds(r0.members, 2, idx,
                                                     r0.requirement));
  // Selection need not run that check: r0 fails its own (c, ℓ+1), so the
  // node's verifier never admits it to a history.
  EXPECT_FALSE(analysis::SatisfiesRecursiveDiversity(
      r0.members, idx, EffectiveRequirement(r0.requirement)));
  // A covered RS that meets its own (c, ℓ+1) stays diverse at the raised v.
  RsView r1 = View(1, {3, 4});
  r1.requirement = {2.0, 1};
  ASSERT_TRUE(analysis::SatisfiesRecursiveDiversity(
      r1.members, idx, EffectiveRequirement(r1.requirement)));
  EXPECT_TRUE(analysis::PracticalDtrsDiversityHolds(r1.members, 2, idx,
                                                    r1.requirement));
}

}  // namespace
}  // namespace tokenmagic::core
