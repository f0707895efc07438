// Hand-crafted node snapshots for restore tests: edits a serialized
// snapshot (node/snapshot.h, format v2) and re-seals the edited section's
// checksum, so the result passes every integrity check and only the
// restore's semantic checks can reject it.
#pragma once

#include <cstddef>
#include <string>

#include "common/strings.h"
#include "crypto/sha256.h"

namespace tokenmagic::test_support {

/// `blob` with the member list of its `index`-th `rs` record replaced by
/// `members` (';'-separated token ids) and the `rs` section's `sum`
/// recomputed. Returns "" when the blob has no such record.
inline std::string WithRsMembers(const std::string& blob, size_t index,
                                 const std::string& members) {
  std::string out;
  std::string rs_section;
  size_t seen = 0;
  bool replaced = false;
  for (const std::string& line : common::Split(blob, '\n')) {
    std::string edited = line;
    if (line.rfind("rs,", 0) == 0) {
      if (seen++ == index) {
        // rs,<proposed_at>,<c>,<ell>,<members>
        edited = line.substr(0, line.rfind(',') + 1) + members;
        replaced = true;
      }
      rs_section += edited + "\n";
    } else if (line.rfind("sum,rs,", 0) == 0) {
      edited = "sum,rs," + crypto::Sha256Hex(rs_section);
    }
    out += edited + "\n";
  }
  if (!replaced) return "";
  // Split yields a last, empty piece after the final newline.
  out.pop_back();
  return out;
}

}  // namespace tokenmagic::test_support
