// Common interface for DA-MS mixin selectors.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "chain/ht_index.h"
#include "chain/types.h"
#include "common/deadline.h"
#include "common/rng.h"
#include "common/status.h"

namespace tokenmagic::analysis {
class AnalysisContext;
}  // namespace tokenmagic::analysis

namespace tokenmagic::core {

/// One DA-MS problem instance: pick mixins for `target` out of `universe`
/// given the RS history over that universe.
///
/// `universe`, `history` and `context` describe one sealed snapshot: the
/// universe is the context's token column and the history its RSs.
/// Module selectors, BFS and the resilient ladder check that in O(|T|)
/// (CheckSnapshotShape in core/modules.h) and answer InvalidArgument on
/// a mismatch. They read the seal's module index, which the first
/// selection on the seal builds and every later one shares (see
/// ModuleIndexOf).
///
/// The instance does not own the universe or the history: both are spans
/// into snapshot storage (the node's batch snapshot, the dataset in
/// benches) that must outlive every Select() call. Producers
/// whose snapshot cache can be reseated concurrently set `owner` so the
/// instance co-owns that storage; otherwise the caller must keep it
/// alive. Copying an instance — the resilient ladder does this per
/// stage — is O(1) (the copy shares ownership).
struct SelectionInput {
  chain::TokenId target = chain::kInvalidToken;
  /// The mixin universe T (must contain `target`).
  // tm-borrows(caller): points into the caller's batch snapshot, which
  // must outlive every Select() call made with this input.
  std::span<const chain::TokenId> universe;
  /// RSs over T in proposal order (the related RS set of the batch).
  // tm-borrows(caller): same storage contract as `universe`.
  std::span<const chain::RsView> history;
  chain::DiversityRequirement requirement;
  const chain::HtIndex* index = nullptr;
  /// Interned snapshot of `history` (+ `universe` tokens), sealed once per
  /// block/batch and shared by every target and ladder stage, together
  /// with its seal's module index. Required: every selector returns
  /// InvalidArgument when it is null. Its token column must be the
  /// universe and its RSs the history.
  // tm-borrows(caller): owned by the caller's batch snapshot alongside
  // the `history` storage it was interned from.
  const analysis::AnalysisContext* context = nullptr;
  /// Keep-alive for the snapshot `universe`, `history`, and `context`
  /// point into. Producers with a reseatable snapshot cache
  /// (node::Node::InstanceFor) set this so an update that
  /// replaces the batch's cached snapshot cannot destroy the storage while
  /// the instance is still selecting; when null, the caller owns the
  /// storage directly and must outlive every Select() call.
  // tm-owns: shared keep-alive of the snapshot behind the views above.
  std::shared_ptr<const void> owner;
  /// Optional caller-owned budget. Every selector observes it: expiry is
  /// reported as Status::Timeout, and an already-expired (zero-budget)
  /// deadline returns Timeout before any work. nullptr = unlimited.
  common::Deadline* deadline = nullptr;
};

/// True when the instance carries an expired deadline. Selectors check at
/// entry and at every iteration boundary.
inline bool DeadlineExpired(const SelectionInput& input) {
  return input.deadline != nullptr && input.deadline->Expired();
}

/// InvalidArgument when the instance carries no interned snapshot.
inline common::Status RequireContext(const SelectionInput& input) {
  if (input.context == nullptr) {
    return common::Status::InvalidArgument(
        "SelectionInput.context must be set");
  }
  return common::Status::OK();
}

/// Consumes iteration budget from the instance deadline, if any.
inline void TickDeadline(const SelectionInput& input, uint64_t steps = 1) {
  if (input.deadline != nullptr) input.deadline->Tick(steps);
}

/// A selected ring signature (member set including the target).
struct SelectionResult {
  std::vector<chain::TokenId> members;  ///< sorted ascending
  /// Modules chosen (indices into the seal's module index);
  /// empty for selectors that do not use the module decomposition (BFS).
  std::vector<size_t> chosen_modules;
  /// Selector-reported iteration count (greedy steps / best-response
  /// rounds / BFS candidates examined) for instrumentation.
  size_t iterations = 0;
};

/// Abstract mixin selector. Implementations: BFS (exact), Progressive,
/// Game-theoretic, Smallest, Random, Monero-style sampler.
class MixinSelector {
 public:
  virtual ~MixinSelector() = default;

  /// Solves one instance. Returns Unsatisfiable when no eligible RS exists
  /// within the selector's reach; Timeout when a budget expires.
  [[nodiscard]] virtual common::Result<SelectionResult> Select(const SelectionInput& input,
                                                 common::Rng* rng) const = 0;

  /// Stable short name ("TM_P", "TM_G", "TM_S", "TM_R", "TM_B", "TM_M").
  virtual std::string_view name() const = 0;
};

}  // namespace tokenmagic::core
