#include "testnet/checker.h"

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analysis/diversity.h"
#include "chain/ledger.h"
#include "core/batch.h"
#include "crypto/sha256.h"
#include "node/snapshot.h"

namespace tokenmagic::testnet {

common::Result<NodeReport> AnalyzeSnapshot(std::string name,
                                           const std::string& snapshot,
                                           const node::NodeConfig& config) {
  auto restored = node::NodeFromSnapshot(snapshot, config);
  TM_RETURN_NOT_OK(restored.status());
  const node::Node& node = *restored.value();

  NodeReport report;
  report.name = std::move(name);
  report.alive = true;
  report.state_digest = crypto::Sha256Hex(snapshot);

  std::string images;
  for (const std::string& hex : node.SpentImageHexList()) {
    images += hex;
    images += '\n';
  }
  report.key_image_digest = crypto::Sha256Hex(images);

  // One verdict character per RS, re-derived through the batch's
  // AnalysisContext (Views() returns them in ledger order, so the vector
  // is deterministic across nodes with equal snapshots).
  std::string verdicts;
  for (const chain::RsView& view : node.ledger().Views()) {
    if (view.members.empty()) {
      verdicts += '0';
      ++report.diversity_violations;
      continue;
    }
    const core::Batch& batch = node.batches().BatchOfToken(view.members[0]);
    std::shared_ptr<const node::Node::BatchAnalysisSnapshot> analysis =
        node.AnalysisSnapshotShared(batch.index);
    bool ok = analysis::SatisfiesRecursiveDiversity(
        std::span<const chain::TokenId>(view.members), analysis->context,
        view.requirement);
    verdicts += ok ? '1' : '0';
    if (!ok) ++report.diversity_violations;
  }
  report.rs_count = verdicts.size();
  report.diversity_digest = crypto::Sha256Hex(verdicts);
  return report;
}

}  // namespace tokenmagic::testnet
