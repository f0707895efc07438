// Super RSs, fresh tokens, and the module view of a mixin universe
// (Definitions 7 and 8, first practical configuration, Section 6.1).
//
// Under the first practical configuration every RS is either a superset of
// an existing RS or disjoint from it, so the RSs over a batch form laminar
// chains whose maximal elements — the *super RSs* — partition the covered
// tokens. Tokens in no RS are *fresh*. A new RS is assembled from whole
// modules: super RSs and/or fresh tokens.
//
// A batch's modules and each module's HTs depend only on the sealed
// history, so every seal has one *module index*: ModuleUniverse::Build
// over the seal's whole token column, built on first use through the
// seal's SealMemo (ModuleIndexOf) and shared by every selection, ladder
// stage and relaxation step that reads a view of that seal. It holds
// only what selection reads: module tokens are spans into the epoch core,
// and the HT pairs and their inverse (the modules of each HT) are one CSR
// each.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "analysis/context.h"
#include "chain/types.h"
#include "common/status.h"

namespace tokenmagic::core {

/// One module's tokens of one HT: (context HT local, token count).
struct HtTokens {
  uint32_t ht = 0;
  uint32_t tokens = 0;
};

/// The module decomposition of a mixin universe plus its RS history. A
/// module is one selectable unit: a super RS or a single fresh token.
/// Super modules come first (in proposal order), then fresh modules (in
/// token order).
class ModuleUniverse {
 public:
  using Local = analysis::AnalysisContext::Local;

  /// Builds the decomposition over the snapshot `context`. `history` must
  /// be the context's RSs in proposal order (its length is checked; the
  /// views themselves are read from the context), and every `universe`
  /// token must be interned in `context`; either mismatch, a history
  /// token outside `universe` and a history that violates the first
  /// practical configuration (naming the first partially overlapping
  /// pair) are InvalidArgument. The configuration check walks the
  /// context's inverted index, near-linear in the history incidence. Each
  /// module's (HT, count) pairs come from the context's HT column; see
  /// HtStatus. The result keeps the epoch core alive, not the context (so
  /// not the seal's memo slot).
  [[nodiscard]] static common::Result<ModuleUniverse> Build(
      std::span<const chain::TokenId> universe,
      std::span<const chain::RsView> history,
      const analysis::AnalysisContext& context);

  size_t module_count() const { return super_rs_.size() + fresh_.size(); }
  /// Number of super modules: modules [0, super_count()) are super RSs,
  /// modules [super_count(), module_count()) fresh tokens.
  size_t super_count() const { return super_rs_.size(); }

  /// A module's member tokens, sorted ascending: the super RS's members,
  /// or the one fresh token. The span points into the epoch core the
  /// universe keeps alive.
  std::span<const chain::TokenId> ModuleTokens(size_t index) const;
  /// ModuleTokens(index).size() without reading the epoch core.
  size_t ModuleSize(size_t index) const {
    return index < super_size_.size() ? super_size_[index] : 1;
  }

  /// Index of the module containing context token local `token` (every
  /// universe token is in exactly one module).
  size_t ModuleOfLocal(Local token) const;

  /// The (context HT local, token count) pairs of a module, ascending by
  /// HT local. Meaningful only when HtStatus() is OK.
  std::span<const HtTokens> HtsOf(size_t module_index) const;

  /// The modules with a token of context HT local `ht`, ascending: the
  /// inverse of HtsOf. Meaningful only when HtStatus() is OK.
  std::span<const uint32_t> ModulesOfHt(Local ht) const;

  /// InvalidArgument naming the first universe token (in module order)
  /// whose HT the context does not know; OK when every token has one.
  [[nodiscard]] common::Status HtStatus() const;

  /// Total tokens across all modules (== distinct universe size).
  size_t token_count() const { return token_count_; }

 private:
  // tm-owns: keep-alive of the epoch core that history_ and token_ids_
  // point into (the context's storage, never the context itself).
  std::shared_ptr<const void> storage_;
  // tm-borrows(storage_): the seal's RS views and token column.
  const chain::RsView* history_ = nullptr;
  const chain::TokenId* token_ids_ = nullptr;
  /// RS local and token count of each super module (modules [0, S)).
  std::vector<Local> super_rs_;
  std::vector<uint32_t> super_size_;
  /// Token local of each fresh module (modules [S, module_count)).
  std::vector<Local> fresh_;
  /// Super module s's HT pairs are hts_[ht_offsets_[s] .. ht_offsets_[s +
  /// 1]); fresh module S + f's one pair is hts_[ht_offsets_[S] + f].
  std::vector<uint32_t> ht_offsets_;
  std::vector<HtTokens> hts_;
  /// HT local h's modules are ht_modules_[ht_module_offsets_[h] ..
  /// ht_module_offsets_[h + 1]).
  std::vector<uint32_t> ht_module_offsets_;
  std::vector<uint32_t> ht_modules_;
  /// Module of each context token local; kNoLocal outside the universe.
  std::vector<uint32_t> module_of_local_;
  size_t token_count_ = 0;
  /// First universe token without an HT, in module order.
  chain::TokenId unknown_ht_token_ = chain::kInvalidToken;
};

/// InvalidArgument unless `universe` (as a set) is exactly the context's
/// token column and `history` holds one view per context RS: the snapshot
/// shape a module selector needs, since the seal's module index describes
/// the whole token column. O(|T|) when `universe` lists the column in
/// order (every producer's batch universe does).
[[nodiscard]] common::Status CheckSnapshotShape(
    std::span<const chain::TokenId> universe,
    std::span<const chain::RsView> history,
    const analysis::AnalysisContext& context);

/// The module index of the seal `context` views: ModuleUniverse::Build
/// over the seal's whole token column and history, built by the first
/// caller on any thread and shared by every view of the seal (a failed
/// build is shared too). `context` must come from EpochChain::View or
/// AnalysisContext::Build.
std::shared_ptr<const common::Result<ModuleUniverse>> ModuleIndexOf(
    const analysis::AnalysisContext& context);

/// True once the module index of `context`'s seal exists.
bool ModuleIndexBuilt(const analysis::AnalysisContext& context);

}  // namespace tokenmagic::core
