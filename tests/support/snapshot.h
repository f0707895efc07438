// Test helpers that intern a hand-written history the way production
// snapshots are interned, so unit tests drive the context entry points
// (selectors require SelectionInput::context; ModuleUniverse::Build reads
// the context's inverted index).
#pragma once

#include <memory>
#include <span>

#include "analysis/context.h"
#include "chain/types.h"
#include "common/status.h"
#include "core/modules.h"
#include "core/selector.h"

namespace tokenmagic::test_support {

/// Interns `input->history` (plus `input->universe`) from scratch and pins
/// the context on the input, which co-owns it through `owner`. Call after
/// the history, universe and index are final.
inline void AttachContext(core::SelectionInput* input) {
  auto context = std::make_shared<const analysis::AnalysisContext>(
      analysis::AnalysisContext::Build(input->history, input->index,
                                       input->universe));
  input->context = context.get();
  input->owner = std::move(context);
}

/// ModuleUniverse::Build over a from-scratch interning of `history`.
inline common::Result<core::ModuleUniverse> BuildModules(
    std::span<const chain::TokenId> universe,
    std::span<const chain::RsView> history) {
  return core::ModuleUniverse::Build(
      universe, history,
      analysis::AnalysisContext::Build(history, nullptr, universe));
}

}  // namespace tokenmagic::test_support
