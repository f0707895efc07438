#include "data/csv.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <unordered_set>

#include "common/strings.h"

namespace tokenmagic::data {

namespace {

using common::Status;

}  // namespace

std::string TokensToCsv(const Dataset& ds) {
  std::ostringstream os;
  os << "token_id,ht_id\n";
  for (chain::TokenId t : ds.universe) {
    os << t << "," << ds.index.HtOf(t) << "\n";
  }
  return os.str();
}

std::string RingsToCsv(const Dataset& ds) {
  std::ostringstream os;
  os << "rs_id,proposed_at,c,ell,members\n";
  for (const chain::RsView& view : ds.history) {
    os << view.id << "," << view.proposed_at << "," << view.requirement.c
       << "," << view.requirement.ell << ",";
    for (size_t i = 0; i < view.members.size(); ++i) {
      if (i > 0) os << ";";
      os << view.members[i];
    }
    os << "\n";
  }
  return os.str();
}

common::Result<Dataset> DatasetFromCsv(const std::string& tokens_csv,
                                       const std::string& rings_csv) {
  Dataset ds;

  // tokens.csv
  std::vector<std::pair<chain::TokenId, chain::TxId>> pairs;
  {
    std::vector<std::string> lines = common::Split(tokens_csv, '\n');
    for (size_t i = 1; i < lines.size(); ++i) {  // skip header
      std::string_view line = common::Trim(lines[i]);
      if (line.empty()) continue;
      std::vector<std::string> fields = common::Split(line, ',');
      if (fields.size() != 2) {
        return Status::IoError(
            common::StrFormat("tokens.csv line %zu: want 2 fields", i + 1));
      }
      int64_t token = 0, ht = 0;
      if (!common::ParseInt64(fields[0], &token) ||
          !common::ParseInt64(fields[1], &ht)) {
        return Status::IoError(
            common::StrFormat("tokens.csv line %zu: bad integers", i + 1));
      }
      pairs.emplace_back(static_cast<chain::TokenId>(token),
                         static_cast<chain::TxId>(ht));
    }
  }
  if (pairs.empty()) return Status::IoError("tokens.csv has no data rows");

  // Rebuild a blockchain with one transaction per distinct HT. Token ids
  // are re-densified in file order; the id remap applies to rings too.
  std::map<chain::TxId, uint32_t> ht_sizes;
  for (const auto& [token, ht] : pairs) ++ht_sizes[ht];
  std::vector<uint32_t> output_counts;
  for (const auto& [ht, n] : ht_sizes) output_counts.push_back(n);
  ds.blockchain.AddBlock(0, output_counts);

  // Assign new dense token ids per (ht, occurrence).
  std::map<chain::TxId, std::vector<chain::TokenId>> new_ids_by_ht;
  {
    size_t tx_index = 0;
    for (const auto& [ht, n] : ht_sizes) {
      const chain::Transaction& tx = ds.blockchain.transaction(tx_index);
      new_ids_by_ht[ht] = tx.outputs;
      ++tx_index;
    }
  }
  std::map<chain::TokenId, chain::TokenId> remap;
  std::map<chain::TxId, size_t> next_slot;
  for (const auto& [token, ht] : pairs) {
    size_t slot = next_slot[ht]++;
    remap[token] = new_ids_by_ht[ht][slot];
  }

  ds.index = chain::HtIndex::FromBlockchain(ds.blockchain);
  ds.universe = ds.blockchain.AllTokens();

  // rings.csv
  {
    std::vector<std::string> lines = common::Split(rings_csv, '\n');
    for (size_t i = 1; i < lines.size(); ++i) {
      std::string_view line = common::Trim(lines[i]);
      if (line.empty()) continue;
      std::vector<std::string> fields = common::Split(line, ',');
      if (fields.size() != 5) {
        return Status::IoError(
            common::StrFormat("rings.csv line %zu: want 5 fields", i + 1));
      }
      int64_t id = 0, at = 0, ell = 0;
      double c = 0.0;
      if (!common::ParseInt64(fields[0], &id) ||
          !common::ParseInt64(fields[1], &at) ||
          !common::ParseDouble(fields[2], &c) ||
          !common::ParseInt64(fields[3], &ell)) {
        return Status::IoError(
            common::StrFormat("rings.csv line %zu: bad scalars", i + 1));
      }
      // Ring ids must ascend strictly: analysis interns the history in
      // file order and looks RSs up by id.
      if (!ds.history.empty() &&
          static_cast<chain::RsId>(id) <= ds.history.back().id) {
        return Status::IoError(common::StrFormat(
            "rings.csv line %zu: rs_id %lld not strictly ascending", i + 1,
            static_cast<long long>(id)));
      }
      chain::RsView view;
      view.id = static_cast<chain::RsId>(id);
      view.proposed_at = static_cast<chain::Timestamp>(at);
      view.requirement = {c, static_cast<int>(ell)};
      for (const std::string& member : common::Split(fields[4], ';')) {
        if (member.empty()) continue;
        int64_t token = 0;
        if (!common::ParseInt64(member, &token)) {
          return Status::IoError(
              common::StrFormat("rings.csv line %zu: bad member", i + 1));
        }
        auto it = remap.find(static_cast<chain::TokenId>(token));
        if (it == remap.end()) {
          return Status::IoError(common::StrFormat(
              "rings.csv line %zu: member not in tokens.csv", i + 1));
        }
        view.members.push_back(it->second);
      }
      std::sort(view.members.begin(), view.members.end());
      ds.history.push_back(std::move(view));
    }
  }

  // Fresh tokens: not in any ring.
  {
    std::unordered_set<chain::TokenId> in_ring;
    for (const chain::RsView& view : ds.history) {
      in_ring.insert(view.members.begin(), view.members.end());
    }
    for (chain::TokenId t : ds.universe) {
      if (in_ring.count(t) == 0) ds.fresh.push_back(t);
    }
  }
  return ds;
}

common::Status SaveDataset(const Dataset& ds, const std::string& directory) {
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) return Status::IoError("cannot create " + directory);
  {
    std::ofstream out(directory + "/tokens.csv");
    if (!out) return Status::IoError("cannot open tokens.csv for writing");
    out << TokensToCsv(ds);
  }
  {
    std::ofstream out(directory + "/rings.csv");
    if (!out) return Status::IoError("cannot open rings.csv for writing");
    out << RingsToCsv(ds);
  }
  return Status::OK();
}

common::Result<Dataset> LoadDataset(const std::string& directory) {
  auto read_file = [](const std::string& path,
                      std::string* out) -> common::Status {
    std::ifstream in(path);
    if (!in) return Status::IoError("cannot open " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    *out = buffer.str();
    return Status::OK();
  };
  std::string tokens_csv, rings_csv;
  TM_RETURN_NOT_OK(read_file(directory + "/tokens.csv", &tokens_csv));
  TM_RETURN_NOT_OK(read_file(directory + "/rings.csv", &rings_csv));
  return DatasetFromCsv(tokens_csv, rings_csv);
}

}  // namespace tokenmagic::data
