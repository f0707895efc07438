#include "chain/ledger.h"

#include <gtest/gtest.h>

namespace tokenmagic::chain {
namespace {

DiversityRequirement Req(double c, int ell) { return {c, ell}; }

TEST(LedgerTest, ProposeAndRead) {
  Ledger ledger;
  auto id = ledger.Append({3, 1, 2}, Req(0.5, 3));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 0u);
  const RsView& view = ledger.view(*id);
  EXPECT_EQ(view.members, (std::vector<TokenId>{1, 2, 3}));  // sorted
  EXPECT_EQ(view.requirement, Req(0.5, 3));
  EXPECT_EQ(view.proposed_at, 0u);
}

TEST(LedgerTest, TimestampsAreMonotone) {
  Ledger ledger;
  ASSERT_TRUE(ledger.Append({1, 2}, Req(1, 1)).ok());
  ASSERT_TRUE(ledger.Append({3, 4}, Req(1, 1)).ok());
  EXPECT_EQ(ledger.view(0).proposed_at, 0u);
  EXPECT_EQ(ledger.view(1).proposed_at, 1u);
  EXPECT_EQ(ledger.now(), 2u);
}

TEST(LedgerTest, RejectsEmptyRs) {
  Ledger ledger;
  EXPECT_TRUE(ledger.Append({}, Req(1, 1)).status().IsInvalidArgument());
  EXPECT_TRUE(ledger.empty());
}

TEST(LedgerTest, DeduplicatesMembers) {
  Ledger ledger;
  auto id = ledger.Append({2, 2, 1, 1}, Req(1, 1));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(ledger.view(*id).members, (std::vector<TokenId>{1, 2}));
}

TEST(LedgerTest, ViewsReturnsProposalOrder) {
  Ledger ledger;
  ASSERT_TRUE(ledger.Append({1, 2}, Req(1, 1)).ok());
  ASSERT_TRUE(ledger.Append({3, 4}, Req(1, 1)).ok());
  const std::vector<RsView>& views = ledger.Views();
  ASSERT_EQ(views.size(), 2u);
  EXPECT_EQ(views[0].id, 0u);
  EXPECT_EQ(views[1].id, 1u);
}

TEST(RsViewTest, ContainsUsesBinarySearch) {
  RsView view;
  view.members = {2, 5, 9};
  EXPECT_TRUE(view.Contains(5));
  EXPECT_FALSE(view.Contains(4));
  EXPECT_EQ(view.size(), 3u);
}

TEST(DiversityRequirementTest, ToStringFormat) {
  EXPECT_EQ(Req(0.6, 40).ToString(), "(0.6, 40)-diversity");
}

}  // namespace
}  // namespace tokenmagic::chain
