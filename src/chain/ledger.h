// The ring-signature ledger: the public history of appended RSs.
//
// The Ledger stores exactly what a verifier sees of each ring, its RsView,
// and never which member was spent. Double spends are caught by key images
// (crypto::KeyImageRegistry, held by node::Node). Callers that know the
// ground truth (dataset generators, experiments) keep it themselves as
// chain::TokenRsPair lists. The token -> containing RSs index (the
// "neighbor sets" of Section 4) lives in the analysis layer's EpochChain,
// not here.
#pragma once

#include <vector>

#include "chain/types.h"
#include "common/status.h"

namespace tokenmagic::chain {

class Ledger {
 public:
  /// Appends a ring signature. `members` need not be sorted or unique (a
  /// sorted, deduplicated copy is stored). Returns the assigned RsId.
  [[nodiscard]] common::Result<RsId> Append(std::vector<TokenId> members,
                                            DiversityRequirement requirement);

  size_t size() const { return views_.size(); }
  bool empty() const { return views_.empty(); }

  const RsView& view(RsId id) const;
  /// All views in append order.
  const std::vector<RsView>& Views() const { return views_; }

  /// Monotone logical clock; the timestamp the next RS will receive.
  Timestamp now() const { return static_cast<Timestamp>(views_.size()); }

 private:
  // tm-owns: every appended RS view, in append order.
  std::vector<RsView> views_;
};

}  // namespace tokenmagic::chain
