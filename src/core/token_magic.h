// The TokenMagic framework (Section 4, Algorithm 1).
//
// TokenMagic wires the whole system together: the λ-batched blockchain, the
// per-batch RS ledgers, the liquidity (η) rule backed by Theorem 4.1's
// neighbor-set inference, and a pluggable DA-MS selector. Generating an RS
// for a token t_τ:
//   1. the mixin universe T is the token set of t_τ's batch;
//   2. Algorithm 1's randomization: a candidate RS is produced for every
//      token of T with the configured selector; every candidate containing
//      t_τ enters Cand_τ; the returned RS is drawn uniformly from Cand_τ
//      (an optional fast path runs the selector only for t_τ);
//   3. before acceptance, the liquidity rule i − μ_i ≥ η·(|T| − i) is
//      checked so future users can still spend their tokens.
#pragma once

#include <vector>

#include "chain/ht_index.h"
#include "chain/blockchain.h"
#include "chain/ledger.h"
#include "core/batch.h"
#include "core/batch_snapshots.h"
#include "core/selector.h"

namespace tokenmagic::core {

/// Framework configuration.
struct TokenMagicConfig {
  /// λ: minimum tokens per batch (Section 4).
  size_t lambda = 64;
  /// η: liquidity slack factor of the rule i − μ_i ≥ η·(|T| − i).
  double eta = 0.0;
  /// Run Algorithm 1's full per-token randomization (line 3-6). When
  /// false, the selector runs once, for the target token only.
  bool full_randomization = false;
  /// Eligibility policy shared by all selections.
  EligibilityPolicy policy;
};

/// Result of a framework-level RS generation.
struct GeneratedRs {
  chain::RsId id = chain::kInvalidRs;
  std::vector<chain::TokenId> members;
  /// Candidates Algorithm 1 collected for the target (>= 1).
  size_t candidate_count = 0;
};

class TokenMagic {
 public:
  /// `bc` must outlive the framework. The ledger is owned.
  TokenMagic(const chain::Blockchain* bc, TokenMagicConfig config);

  /// Generates, validates, and commits an RS spending `target`.
  [[nodiscard]] common::Result<GeneratedRs> GenerateRs(chain::TokenId target,
                                         chain::DiversityRequirement req,
                                         const MixinSelector& selector,
                                         common::Rng* rng);

  /// Builds the DA-MS instance for `target` without committing anything
  /// (used by benchmarks to time the bare selector). The instance
  /// co-owns the framework's per-batch snapshot (SelectionInput::owner):
  /// its universe/history spans and context pointer stay valid for the
  /// instance's whole lifetime, even after a later proposal replaces the
  /// batch's cached snapshot. Re-fetch after a proposal to observe the
  /// new ledger state.
  [[nodiscard]] common::Result<SelectionInput> InstanceFor(
      chain::TokenId target, chain::DiversityRequirement req) const;

  const chain::Ledger& ledger() const { return ledger_; }
  const BatchIndex& batches() const { return batch_index_; }
  const chain::HtIndex& ht_index() const { return ht_index_; }

  /// The liquidity check (Section 4): with the RSs of `target`'s batch
  /// plus the prospective `members`, would i − μ_i ≥ η·(|T| − i) hold?
  bool LiquidityAllows(chain::TokenId target,
                       const std::vector<chain::TokenId>& members) const;

 private:
  const chain::Blockchain* bc_;
  TokenMagicConfig config_;
  BatchIndex batch_index_;
  chain::HtIndex ht_index_;
  chain::Ledger ledger_;
  /// The per-batch chains and snapshots, synced by the constructor and
  /// after every ledger proposal. The chain/ledger state follows a
  /// single-writer contract: GenerateRs calls must be externally
  /// serialized with each other, while the const probes (InstanceFor,
  /// LiquidityAllows) are safe to run concurrently with each other
  /// between mutations.
  BatchSnapshots snapshots_;
};

}  // namespace tokenmagic::core
