#include "chain/ledger.h"

#include <algorithm>

#include "common/macros.h"

namespace tokenmagic::chain {

common::Result<RsId> Ledger::Append(std::vector<TokenId> members,
                                    DiversityRequirement requirement) {
  if (members.empty()) {
    return common::Status::InvalidArgument(
        "ring signature must not be empty");
  }
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());

  RsView view;
  view.id = views_.size();
  view.members = std::move(members);
  view.proposed_at = now();
  view.requirement = requirement;
  views_.push_back(std::move(view));
  return views_.back().id;
}

const RsView& Ledger::view(RsId id) const {
  TM_CHECK(id < views_.size());
  return views_[id];
}

}  // namespace tokenmagic::chain
