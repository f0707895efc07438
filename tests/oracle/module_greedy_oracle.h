// From-scratch references for the incremental module-greedy kernel
// (core/module_greedy.h), kept in tests/ only as oracles for the
// randomized equivalence suite.
//
// The selectors keep integer per-HT token counts of the chosen modules and
// derive each candidate's fresh-HT count and diversity slack from them.
// The oracles below re-derive the same quantities the direct way on every
// call: materialize the ring, push every token through HtIndex::HtOf, and
// count in fresh hash containers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "chain/ht_index.h"
#include "chain/types.h"
#include "core/modules.h"

namespace tokenmagic::oracle {

/// Diversity slack of the chosen modules' token multiset:
/// HtFrequencies(members, index) then DiversitySlack.
double SlackOf(const core::ModuleUniverse& mu,
               const std::vector<size_t>& chosen,
               const chain::HtIndex& index,
               const chain::DiversityRequirement& req);

/// Distinct HTs of module `candidate` that no chosen module covers, from a
/// fresh covered-HT set and a fresh candidate-HT set.
size_t FreshHtCount(const core::ModuleUniverse& mu,
                    const std::vector<size_t>& chosen, size_t candidate,
                    const chain::HtIndex& index);

/// Tokens of each external HT among the chosen modules.
std::map<chain::TxId, int64_t> HtCounts(const core::ModuleUniverse& mu,
                                        const std::vector<size_t>& chosen,
                                        const chain::HtIndex& index);

}  // namespace tokenmagic::oracle
