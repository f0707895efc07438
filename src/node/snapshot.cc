#include "node/snapshot.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/macros.h"
#include "common/mutex.h"
#include "common/strings.h"
#include "core/batch.h"
#include "crypto/sha256.h"
#include "node/fault_injection.h"

namespace tokenmagic::node {

namespace {

using common::Status;

constexpr char kHeader[] = "tokenmagic-snapshot v2";

// Sections appear in this order; each closes with a `sum` line over its
// record lines so corruption is attributed to a section in the error.
enum Section : int { kChain = 0, kRsLedger = 1, kKeys = 2, kImages = 3 };
constexpr size_t kSectionCount = 4;
constexpr const char* kSectionNames[kSectionCount] = {"chain", "rs", "keys",
                                                      "images"};
constexpr const char* kSectionComments[kSectionCount] = {
    "# blocks / transactions", "# ring-signature ledger", "# output keys",
    "# spent key images"};

int SectionOf(std::string_view kind) {
  if (kind == "block" || kind == "tx") return kChain;
  if (kind == "rs") return kRsLedger;
  if (kind == "key") return kKeys;
  if (kind == "image") return kImages;
  return -1;
}

int SectionNamed(std::string_view name) {
  for (size_t s = 0; s < kSectionCount; ++s) {
    if (name == kSectionNames[s]) return static_cast<int>(s);
  }
  return -1;
}

std::string EncodePoint(const crypto::Point& p) {
  auto enc = p.Encode();
  return common::HexEncode(enc.data(), enc.size());
}

common::Result<crypto::Point> DecodePoint(std::string_view hex) {
  std::vector<uint8_t> bytes;
  if (!common::HexDecode(hex, &bytes) || bytes.size() != 33) {
    return Status::IoError("bad point encoding in snapshot");
  }
  std::array<uint8_t, 33> raw;
  std::copy(bytes.begin(), bytes.end(), raw.begin());
  auto point = crypto::Point::Decode(raw);
  if (!point.has_value()) {
    return Status::IoError("off-curve point in snapshot");
  }
  return *point;
}

}  // namespace

std::string SnapshotToString(const Node& node) {
  std::array<std::string, kSectionCount> sections;
  const chain::Blockchain& bc = node.blockchain();
  {
    std::ostringstream os;
    for (chain::BlockHeight h = 0; h < bc.block_count(); ++h) {
      const chain::Block& block = bc.block(h);
      os << "block," << block.height << "," << block.time << "\n";
      for (chain::TxId tx_id : block.transactions) {
        os << "tx," << block.height << ","
           << bc.transaction(tx_id).outputs.size() << "\n";
      }
    }
    sections[kChain] = os.str();
  }
  {
    std::ostringstream os;
    for (const chain::RsView& view : node.ledger().Views()) {
      os << "rs," << view.proposed_at << "," << view.requirement.c << ","
         << view.requirement.ell << ",";
      for (size_t i = 0; i < view.members.size(); ++i) {
        if (i > 0) os << ";";
        os << view.members[i];
      }
      os << "\n";
    }
    sections[kRsLedger] = os.str();
  }
  {
    std::ostringstream os;
    for (chain::TokenId t : bc.AllTokens()) {
      if (node.keys().Contains(t)) {
        os << "key," << t << "," << EncodePoint(node.keys().KeyOf(t)) << "\n";
      }
    }
    sections[kKeys] = os.str();
  }
  {
    // Spent key images are re-serialized from the hex list Node captured
    // at registration time (the registry itself stores opaque encodings).
    std::ostringstream os;
    for (const std::string& hex : node.SpentImageHexList()) {
      os << "image," << hex << "\n";
    }
    sections[kImages] = os.str();
  }

  std::ostringstream os;
  os << kHeader << "\n";
  size_t records = 0;
  for (size_t s = 0; s < kSectionCount; ++s) {
    os << kSectionComments[s] << "\n" << sections[s];
    records += static_cast<size_t>(
        std::count(sections[s].begin(), sections[s].end(), '\n'));
    os << "sum," << kSectionNames[s] << ","
       << crypto::Sha256Hex(sections[s]) << "\n";
  }
  os << "end," << records << "\n";
  return os.str();
}

common::Result<std::unique_ptr<Node>> NodeFromSnapshot(
    const std::string& snapshot, NodeConfig config) {
  auto node = std::make_unique<Node>(config);
  std::vector<std::string> lines = common::Split(snapshot, '\n');
  if (lines.empty() || common::Trim(lines[0]) != kHeader) {
    return Status::IoError(
        "missing or unsupported snapshot header (expected '" +
        std::string(kHeader) + "')");
  }

  // Integrity state. Each section hashes its record lines (with trailing
  // newline) exactly as the writer did; a `sum` line finalizes the
  // section, after which further records for it are rejected.
  std::array<crypto::Sha256, kSectionCount> hashers;
  std::array<bool, kSectionCount> sum_seen{};
  int last_section = -1;
  size_t record_count = 0;
  bool end_seen = false;

  chain::BlockHeight open_block = chain::kInvalidTx;
  bool block_open = false;
  auto close_block = [&]() {
    if (block_open) {
      node->bc_.EndBlock();
      block_open = false;
    }
  };

  for (size_t n = 1; n < lines.size(); ++n) {
    std::string_view line = common::Trim(lines[n]);
    if (line.empty() || line[0] == '#') continue;
    if (end_seen) {
      return Status::IoError("snapshot has data after the end trailer");
    }
    std::vector<std::string> fields = common::Split(line, ',');
    const std::string& kind = fields[0];

    if (kind == "end") {
      if (fields.size() != 2) return Status::IoError("bad end trailer");
      int64_t declared = 0;
      if (!common::ParseInt64(fields[1], &declared) || declared < 0) {
        return Status::IoError("bad end trailer count");
      }
      for (size_t s = 0; s < kSectionCount; ++s) {
        if (!sum_seen[s]) {
          return Status::IoError(common::StrFormat(
              "snapshot missing checksum for section '%s'",
              kSectionNames[s]));
        }
      }
      if (static_cast<size_t>(declared) != record_count) {
        return Status::IoError(common::StrFormat(
            "record count mismatch: trailer declares %lld, snapshot has %zu",
            static_cast<long long>(declared), record_count));
      }
      end_seen = true;
      continue;
    }

    if (kind == "sum") {
      if (fields.size() != 3) return Status::IoError("bad checksum record");
      int s = SectionNamed(fields[1]);
      if (s < 0) {
        return Status::IoError("checksum for unknown section: " + fields[1]);
      }
      if (sum_seen[s]) {
        return Status::IoError(common::StrFormat(
            "duplicate checksum for section '%s'", kSectionNames[s]));
      }
      if (s < last_section) {
        return Status::IoError("out-of-order section checksum");
      }
      last_section = s;
      auto digest = hashers[s].Finalize();
      if (common::HexEncode(digest.data(), digest.size()) != fields[2]) {
        return Status::IoError(common::StrFormat(
            "checksum mismatch in section '%s': snapshot is corrupt",
            kSectionNames[s]));
      }
      sum_seen[s] = true;
      continue;
    }

    int section = SectionOf(kind);
    if (section < 0) {
      return Status::IoError("unknown snapshot record: " + kind);
    }
    if (sum_seen[section]) {
      return Status::IoError(common::StrFormat(
          "record after the checksum of section '%s'",
          kSectionNames[section]));
    }
    if (section < last_section) {
      return Status::IoError("out-of-order snapshot record: " + kind);
    }
    last_section = section;
    hashers[section].Update(std::string(line) + "\n");
    ++record_count;

    if (kind == "block") {
      if (fields.size() != 3) return Status::IoError("bad block record");
      int64_t height = 0, time = 0;
      if (!common::ParseInt64(fields[1], &height) ||
          !common::ParseInt64(fields[2], &time)) {
        return Status::IoError("bad block scalars");
      }
      close_block();
      chain::BlockHeight got =
          node->bc_.BeginBlock(static_cast<chain::Timestamp>(time));
      if (got != static_cast<chain::BlockHeight>(height)) {
        return Status::IoError("non-contiguous block heights");
      }
      open_block = got;
      block_open = true;
    } else if (kind == "tx") {
      if (fields.size() != 3 || !block_open) {
        return Status::IoError("tx record outside a block");
      }
      int64_t height = 0, outputs = 0;
      if (!common::ParseInt64(fields[1], &height) ||
          !common::ParseInt64(fields[2], &outputs) || outputs < 1) {
        return Status::IoError("bad tx record");
      }
      if (static_cast<chain::BlockHeight>(height) != open_block) {
        return Status::IoError("tx height does not match open block");
      }
      node->bc_.AddTransaction(static_cast<uint32_t>(outputs));
    } else if (kind == "rs") {
      close_block();
      if (fields.size() != 5) return Status::IoError("bad rs record");
      int64_t at = 0, ell = 0;
      double c = 0.0;
      if (!common::ParseInt64(fields[1], &at) ||
          !common::ParseDouble(fields[2], &c) ||
          !common::ParseInt64(fields[3], &ell)) {
        return Status::IoError("bad rs scalars");
      }
      std::vector<chain::TokenId> members;
      for (const std::string& m : common::Split(fields[4], ';')) {
        if (m.empty()) continue;
        int64_t token = 0;
        if (!common::ParseInt64(m, &token)) {
          return Status::IoError("bad rs member");
        }
        members.push_back(static_cast<chain::TokenId>(token));
      }
      auto rs = node->ledger_.Append(
          members, chain::DiversityRequirement{c, static_cast<int>(ell)});
      if (!rs.ok()) return rs.status();
    } else if (kind == "key") {
      close_block();
      if (fields.size() != 3) return Status::IoError("bad key record");
      int64_t token = 0;
      if (!common::ParseInt64(fields[1], &token)) {
        return Status::IoError("bad key token id");
      }
      TM_ASSIGN_OR_RETURN(crypto::Point point, DecodePoint(fields[2]));
      node->keys_.Register(static_cast<chain::TokenId>(token), point);
    } else {  // image
      close_block();
      if (fields.size() != 2) return Status::IoError("bad image record");
      TM_ASSIGN_OR_RETURN(crypto::Point image, DecodePoint(fields[1]));
      TM_RETURN_NOT_OK(node->spent_images_.Register(image));
      node->spent_image_hex_.push_back(std::string(fields[1]));
    }
  }
  if (!end_seen) {
    return Status::IoError("snapshot truncated: missing end trailer");
  }
  close_block();
  // Every ring must name minted tokens of one batch — the rules Verifier
  // applies on the live path. The checksums cannot vouch for that, and
  // AppendIndices routes each ring into its batch's epoch chain, which
  // requires it.
  const core::BatchIndex batches(node->bc_, config.lambda);
  for (size_t i = 0; i < node->ledger_.size(); ++i) {
    const std::vector<chain::TokenId>& members =
        node->ledger_.view(static_cast<chain::RsId>(i)).members;
    for (chain::TokenId t : members) {
      if (!node->bc_.HasToken(t)) {
        return Status::IoError(common::StrFormat(
            "rs record %zu references unminted token %llu", i,
            static_cast<unsigned long long>(t)));
      }
    }
    size_t batch = batches.BatchOfToken(members.front()).index;
    for (chain::TokenId t : members) {
      if (batches.BatchOfToken(t).index != batch) {
        return Status::IoError(common::StrFormat(
            "rs record %zu spans multiple batches", i));
      }
    }
  }
  {
    // The node is private to this restore; the lock satisfies
    // AppendIndices' thread-safety contract.
    common::WriterMutexLock lock(&node->state_mu_);
    node->AppendIndices();
  }
  return node;
}

common::Status SaveSnapshot(const Node& node, const std::string& path,
                            const SaveOptions& options) {
  const std::string payload = SnapshotToString(node);
  const std::string tmp = path + ".tmp";
  auto write_once = [&]() -> Status {
    double cut = 1.0;
    const bool crash = options.faults != nullptr &&
                       options.faults->ConsumeWriteFault(&cut);
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      if (!out) return Status::IoError("cannot open " + tmp);
      if (crash) {
        // Simulated crash: part of the payload reaches the temp file and
        // the rename never happens, so `path` keeps the previous state.
        const auto partial =
            static_cast<size_t>(static_cast<double>(payload.size()) * cut);
        out.write(payload.data(), static_cast<std::streamsize>(partial));
        out.flush();
        return Status::IoError(common::StrFormat(
            "fault injection: write crashed after %zu of %zu bytes", partial,
            payload.size()));
      }
      out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
      out.flush();
      if (!out) return Status::IoError("short write to " + tmp);
    }
    if (options.faults != nullptr && options.faults->ConsumeRenameFault()) {
      return Status::IoError("fault injection: rename to " + path +
                             " failed");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      return Status::IoError("cannot rename " + tmp + " to " + path);
    }
    return Status::OK();
  };
  return common::RunWithRetry(options.retry, write_once);
}

common::Result<std::unique_ptr<Node>> LoadSnapshot(
    const std::string& path, NodeConfig config,
    const common::RetryPolicy& retry) {
  std::string contents;
  auto read_once = [&]() -> Status {
    std::ifstream in(path, std::ios::binary);
    if (!in) return Status::IoError("cannot open " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    contents = buffer.str();
    return Status::OK();
  };
  // Only the file read retries; a parse/integrity failure is permanent
  // for a given byte string, so NodeFromSnapshot runs once.
  TM_RETURN_NOT_OK(common::RunWithRetry(retry, read_once));
  return NodeFromSnapshot(contents, config);
}

}  // namespace tokenmagic::node
