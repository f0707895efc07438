#include "core/eligibility.h"
#include "support/snapshot.h"

#include <gtest/gtest.h>

namespace tokenmagic::core {
namespace {

using chain::DiversityRequirement;
using chain::RsView;
using chain::TokenId;

RsView View(chain::RsId id, std::vector<TokenId> members,
            DiversityRequirement req = {1.0, 1}) {
  RsView v;
  v.id = id;
  v.members = std::move(members);
  std::sort(v.members.begin(), v.members.end());
  v.proposed_at = id;
  v.requirement = req;
  return v;
}

chain::HtIndex IdentityIndex(std::vector<TokenId> tokens) {
  chain::HtIndex idx;
  for (TokenId t : tokens) idx.Set(t, static_cast<chain::TxId>(t));
  return idx;
}

TEST(EffectiveRequirementTest, StrictModeBumpsEll) {
  DiversityRequirement req{0.6, 40};
  EligibilityPolicy strict;
  strict.strict_dtrs = true;
  EXPECT_EQ(EffectiveRequirement(req, strict).ell, 41);
  EXPECT_DOUBLE_EQ(EffectiveRequirement(req, strict).c, 0.6);
  EligibilityPolicy lax;
  lax.strict_dtrs = false;
  EXPECT_EQ(EffectiveRequirement(req, lax).ell, 40);
}

TEST(MaterializeCandidateTest, UnionsAndSorts) {
  std::vector<TokenId> universe = {1, 2, 3, 4, 5};
  std::vector<RsView> history = {View(0, {3, 4}), View(1, {1, 2})};
  auto mu = test_support::BuildModules(universe, history);
  ASSERT_TRUE(mu.ok());
  size_t m34 = mu->ModuleOfToken(3);
  size_t m12 = mu->ModuleOfToken(1);
  size_t f5 = mu->ModuleOfToken(5);
  auto members = MaterializeCandidate(*mu, {m34, f5, m12});
  EXPECT_EQ(members, (std::vector<TokenId>{1, 2, 3, 4, 5}));
}

TEST(CandidateSubsetCountTest, CountsItselfPlusCoveredRs) {
  std::vector<RsView> history = {View(0, {1, 2}, {1.0, 1}),
                                 View(1, {1, 2, 3}, {1.0, 1}),
                                 View(2, {4, 5}, {1.0, 1})};
  std::vector<TokenId> universe = {1, 2, 3, 4, 5, 6};
  auto mu = test_support::BuildModules(universe, history);
  ASSERT_TRUE(mu.ok());
  size_t m123 = mu->ModuleOfToken(1);  // super RS with v=2
  size_t m45 = mu->ModuleOfToken(4);   // super RS with v=1
  size_t f6 = mu->ModuleOfToken(6);
  EXPECT_EQ(CandidateSubsetCount(*mu, {m123, f6}), 3u);      // 1 + 2
  EXPECT_EQ(CandidateSubsetCount(*mu, {m123, m45, f6}), 4u); // 1 + 2 + 1
  EXPECT_EQ(CandidateSubsetCount(*mu, {f6}), 1u);
}

TEST(CheckCandidateTest, DiversityViolationDetected) {
  chain::HtIndex idx;
  // Two tokens, same HT.
  idx.Set(1, 100);
  idx.Set(2, 100);
  std::vector<TokenId> universe = {1, 2};
  auto mu = test_support::BuildModules(universe, {});
  ASSERT_TRUE(mu.ok());
  EligibilityPolicy policy;
  policy.strict_dtrs = false;
  auto verdict =
      CheckCandidate(*mu, {mu->ModuleOfToken(1), mu->ModuleOfToken(2)}, {},
                     idx, {1.0, 2}, policy);
  EXPECT_FALSE(verdict.eligible);
  EXPECT_EQ(verdict.violation, EligibilityVerdict::Violation::kDiversity);
}

TEST(CheckCandidateTest, EligibleWhenDiverse) {
  chain::HtIndex idx = IdentityIndex({1, 2, 3, 4});
  std::vector<TokenId> universe = {1, 2, 3, 4};
  auto mu = test_support::BuildModules(universe, {});
  ASSERT_TRUE(mu.ok());
  EligibilityPolicy policy;
  policy.strict_dtrs = false;
  std::vector<size_t> all = {mu->ModuleOfToken(1), mu->ModuleOfToken(2),
                             mu->ModuleOfToken(3), mu->ModuleOfToken(4)};
  // Frequencies [1,1,1,1]: (2, 2): 1 < 2*3 OK.
  auto verdict = CheckCandidate(*mu, all, {}, idx, {2.0, 2}, policy);
  EXPECT_TRUE(verdict.eligible);
  EXPECT_EQ(verdict.violation, EligibilityVerdict::Violation::kNone);
}

TEST(CheckCandidateTest, StrictModeIsStricter) {
  chain::HtIndex idx = IdentityIndex({1, 2, 3});
  std::vector<TokenId> universe = {1, 2, 3};
  auto mu = test_support::BuildModules(universe, {});
  ASSERT_TRUE(mu.ok());
  std::vector<size_t> all = {mu->ModuleOfToken(1), mu->ModuleOfToken(2),
                             mu->ModuleOfToken(3)};
  // Frequencies [1,1,1]; requirement (2, 3): 1 < 2*1 satisfied at ell=3
  // but ell+1=4 exceeds theta -> fails under strict mode.
  EligibilityPolicy lax;
  lax.strict_dtrs = false;
  EXPECT_TRUE(CheckCandidate(*mu, all, {}, idx, {2.0, 3}, lax).eligible);
  EligibilityPolicy strict;
  strict.strict_dtrs = true;
  EXPECT_FALSE(
      CheckCandidate(*mu, all, {}, idx, {2.0, 3}, strict).eligible);
}

TEST(CheckCandidateTest, ExplicitDtrsCheckCatchesViolations) {
  // Candidate formed by one super RS with high subset count: the DTRS
  // psi-sets are active and fail a strict requirement.
  chain::HtIndex idx = IdentityIndex({1, 2, 3});
  std::vector<RsView> history = {View(0, {1, 2, 3}), View(1, {1, 2, 3}),
                                 View(2, {1, 2, 3})};
  std::vector<TokenId> universe = {1, 2, 3};
  auto mu = test_support::BuildModules(universe, history);
  ASSERT_TRUE(mu.ok());
  std::vector<size_t> chosen = {mu->ModuleOfToken(1)};
  EligibilityPolicy policy;
  policy.strict_dtrs = false;
  policy.check_dtrs_explicitly = true;
  // v_candidate = 1 + 3 = 4 >= |r|=3 - |T~|=1 + 1 = 3: psi sets of size 2
  // with 2 distinct HTs. Requirement (1.0, 2): 1 < 1*1? No -> violation.
  auto verdict = CheckCandidate(*mu, chosen, history, idx, {1.0, 2}, policy);
  EXPECT_FALSE(verdict.eligible);
  EXPECT_EQ(verdict.violation,
            EligibilityVerdict::Violation::kDtrsDiversity);
  // Relaxed (2.0, 1): 1 < 2*2 -> fine.
  auto ok = CheckCandidate(*mu, chosen, history, idx, {2.0, 1}, policy);
  EXPECT_TRUE(ok.eligible);
}

TEST(CheckCandidateTest, ImmutabilityCheckProtectsCoveredRs) {
  // History RS r0 = {1,2} (both same HT!) declared (1.0, 1). Covering it
  // with a new super RS raises v; r0's psi set for its single HT is empty
  // -> immutability violation is detected when the check is on.
  chain::HtIndex idx;
  idx.Set(1, 100);
  idx.Set(2, 100);
  idx.Set(3, 300);
  idx.Set(4, 400);
  std::vector<RsView> history = {View(0, {1, 2}, {1.0, 1})};
  std::vector<TokenId> universe = {1, 2, 3, 4};
  auto mu = test_support::BuildModules(universe, history);
  ASSERT_TRUE(mu.ok());
  std::vector<size_t> chosen = {mu->ModuleOfToken(1), mu->ModuleOfToken(3),
                                mu->ModuleOfToken(4)};
  EligibilityPolicy policy;
  policy.strict_dtrs = false;
  policy.check_immutability = true;
  auto verdict = CheckCandidate(*mu, chosen, history, idx, {2.0, 2}, policy);
  EXPECT_FALSE(verdict.eligible);
  EXPECT_EQ(verdict.violation,
            EligibilityVerdict::Violation::kImmutability);
  // Without the immutability check the same candidate passes.
  policy.check_immutability = false;
  EXPECT_TRUE(
      CheckCandidate(*mu, chosen, history, idx, {2.0, 2}, policy).eligible);
}

}  // namespace
}  // namespace tokenmagic::core
