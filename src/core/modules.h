// Super RSs, fresh tokens, and the module view of a mixin universe
// (Definitions 7 and 8, first practical configuration, Section 6.1).
//
// Under the first practical configuration every RS is either a superset of
// an existing RS or disjoint from it, so the RSs over a batch form laminar
// chains whose maximal elements — the *super RSs* — partition the covered
// tokens. Tokens in no RS are *fresh*. A new RS is assembled from whole
// modules: super RSs and/or fresh tokens.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "analysis/context.h"
#include "chain/types.h"
#include "common/status.h"

namespace tokenmagic::core {

/// One selectable unit: a super RS or a single fresh token.
struct Module {
  /// Dense module index within its universe.
  size_t index = 0;
  bool is_fresh = false;
  /// Valid when !is_fresh: the super RS's id.
  chain::RsId super_rs = chain::kInvalidRs;
  /// Member tokens, sorted ascending (size 1 for fresh tokens).
  std::vector<chain::TokenId> tokens;
  /// v_i: number of history RSs (itself included) that are subsets of this
  /// super RS. 0 for fresh tokens.
  size_t subset_count = 0;

  size_t size() const { return tokens.size(); }
};

/// The module decomposition of a mixin universe plus its RS history.
class ModuleUniverse {
 public:
  /// Builds the decomposition over the snapshot `context`. `history` must
  /// be the RSs over `universe` (e.g. the related RS set of the batch) in
  /// proposal order, and `context` must have been interned from exactly
  /// this `history` span with a universe covering `universe`. The
  /// practical-configuration check and the subset counting walk the
  /// context's inverted index, near-linear in the history incidence. A
  /// history that violates the first practical configuration yields an
  /// InvalidArgument naming the first partially overlapping pair.
  [[nodiscard]] static common::Result<ModuleUniverse> Build(
      std::span<const chain::TokenId> universe,
      std::span<const chain::RsView> history,
      const analysis::AnalysisContext& context);

  const std::vector<Module>& modules() const { return modules_; }
  size_t module_count() const { return modules_.size(); }
  const Module& module(size_t index) const;

  /// Index of the module containing `token` (every universe token is in
  /// exactly one module).
  size_t ModuleOfToken(chain::TokenId token) const;

  /// Indices of fresh-token modules / super-RS modules.
  std::vector<size_t> FreshModuleIndices() const;
  std::vector<size_t> SuperRsModuleIndices() const;

  /// History RSs whose members are subsets of the given module's token set
  /// (empty for fresh modules). Used for immutability re-checks.
  const std::vector<chain::RsId>& SubsetRsOf(size_t module_index) const;

  /// Total tokens across all modules (== universe size).
  size_t token_count() const { return token_count_; }

 private:
  std::vector<Module> modules_;
  std::vector<std::vector<chain::RsId>> subset_rs_;  // per module
  // tm-owns: shared keep-alive of the snapshot whose token locals
  // module_of_local_ is indexed by (a copy of Build's context).
  analysis::AnalysisContext context_;
  /// Module of each context token local; kNoLocal outside the universe.
  std::vector<uint32_t> module_of_local_;
  size_t token_count_ = 0;
};

}  // namespace tokenmagic::core
