#include "rpc/protocol.h"

#include <bit>
#include <cstring>

#include "common/strings.h"
#include "crypto/serialize.h"

namespace tokenmagic::rpc {

namespace {

using common::Status;

// -- little-endian append helpers ---------------------------------------

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutDouble(std::string* out, double v) {
  PutU64(out, std::bit_cast<uint64_t>(v));
}

void PutString(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

// -- bounds-checked cursor ----------------------------------------------

/// Sequential reader over a payload. Every Take* checks the remaining
/// bytes; after the first failure every further read fails too, so decode
/// functions can read unconditionally and check the cursor once.
class Cursor {
 public:
  explicit Cursor(std::string_view data) : data_(data) {}

  uint8_t TakeU8() {
    if (!Require(1)) return 0;
    return static_cast<uint8_t>(data_[pos_++]);
  }

  uint32_t TakeU32() {
    if (!Require(4)) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  uint64_t TakeU64() {
    if (!Require(8)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  double TakeDouble() { return std::bit_cast<double>(TakeU64()); }

  std::string TakeString(uint32_t max_bytes) {
    uint32_t n = TakeU32();
    if (n > max_bytes || !Require(n)) {
      failed_ = true;
      return {};
    }
    std::string s(data_.substr(pos_, n));
    pos_ += n;
    return s;
  }

  /// Reads a 33-byte SEC1 compressed point; an off-curve or malformed
  /// encoding marks the cursor failed (never a silently wrong key).
  crypto::Point TakePoint() {
    std::array<uint8_t, 33> raw{};
    if (!Require(raw.size())) return {};
    for (size_t i = 0; i < raw.size(); ++i) {
      raw[i] = static_cast<uint8_t>(data_[pos_ + i]);
    }
    pos_ += raw.size();
    auto point = crypto::Point::Decode(raw);
    if (!point.has_value()) {
      failed_ = true;
      return {};
    }
    return *point;
  }

  size_t remaining() const { return data_.size() - pos_; }
  bool failed() const { return failed_; }

  /// OK only when every read succeeded AND the payload was consumed
  /// exactly (trailing bytes mean a different message was framed).
  [[nodiscard]] Status Finish(const char* what) const {
    if (failed_) {
      return Status::InvalidArgument(
          common::StrFormat("malformed %s: truncated payload", what));
    }
    if (remaining() != 0) {
      return Status::InvalidArgument(common::StrFormat(
          "malformed %s: %zu trailing byte(s)", what, remaining()));
    }
    return Status::OK();
  }

 private:
  bool Require(size_t n) {
    if (failed_ || data_.size() - pos_ < n) {
      failed_ = true;
      return false;
    }
    return true;
  }

  // tm-borrows(caller): Cursor is a stack-local decode walker that
  // never outlives the Decode* call (and its payload) it is created in.
  std::string_view data_;
  size_t pos_ = 0;
  bool failed_ = false;
};

/// Caps inside a payload (stricter than the frame bound).
constexpr uint32_t kMaxMessageBytes = 1u << 16;
constexpr uint32_t kMaxMembers = 1u << 16;
constexpr uint32_t kMaxTxInputs = 1u << 10;
constexpr uint32_t kMaxGrants = 1u << 16;

void PutPoint(std::string* out, const crypto::Point& point) {
  std::array<uint8_t, 33> raw = point.Encode();
  out->append(reinterpret_cast<const char*>(raw.data()), raw.size());
}

}  // namespace

uint8_t StatusCodeToWire(common::StatusCode code) {
  switch (code) {
    case common::StatusCode::kOk: return 0;
    case common::StatusCode::kInvalidArgument: return 1;
    case common::StatusCode::kNotFound: return 2;
    case common::StatusCode::kAlreadyExists: return 3;
    case common::StatusCode::kOutOfRange: return 4;
    case common::StatusCode::kUnsatisfiable: return 5;
    case common::StatusCode::kResourceExhausted: return 6;
    case common::StatusCode::kInternal: return 7;
    case common::StatusCode::kVerificationFailed: return 8;
    case common::StatusCode::kIoError: return 9;
    case common::StatusCode::kTimeout: return 10;
    case common::StatusCode::kCancelled: return 11;
  }
  return 7;  // Internal
}

common::StatusCode WireToStatusCode(uint8_t wire) {
  switch (wire) {
    case 0: return common::StatusCode::kOk;
    case 1: return common::StatusCode::kInvalidArgument;
    case 2: return common::StatusCode::kNotFound;
    case 3: return common::StatusCode::kAlreadyExists;
    case 4: return common::StatusCode::kOutOfRange;
    case 5: return common::StatusCode::kUnsatisfiable;
    case 6: return common::StatusCode::kResourceExhausted;
    case 7: return common::StatusCode::kInternal;
    case 8: return common::StatusCode::kVerificationFailed;
    case 9: return common::StatusCode::kIoError;
    case 10: return common::StatusCode::kTimeout;
    case 11: return common::StatusCode::kCancelled;
    default: return common::StatusCode::kInternal;
  }
}

uint64_t FrameChecksum(std::string_view payload) {
  uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  for (char c : payload) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001b3ull;  // FNV prime
  }
  return hash;
}

std::string EncodeFrame(std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  PutU32(&out, static_cast<uint32_t>(payload.size()));
  PutU64(&out, FrameChecksum(payload));
  out.append(payload);
  return out;
}

common::Result<FrameHeader> DecodeFrameHeader(
    const char header[kFrameHeaderBytes]) {
  Cursor cursor(std::string_view(header, kFrameHeaderBytes));
  FrameHeader parsed;
  parsed.length = cursor.TakeU32();
  parsed.checksum = cursor.TakeU64();
  if (parsed.length == 0 || parsed.length > kMaxFrameBytes) {
    return Status::InvalidArgument(
        common::StrFormat("frame length %u outside (0, %u]", parsed.length,
                          kMaxFrameBytes));
  }
  return parsed;
}

common::Result<FrameExtent> ExtractFrame(std::string_view buffer,
                                         std::string* payload) {
  FrameExtent extent;
  extent.frame_bytes = kFrameHeaderBytes;
  if (buffer.size() < kFrameHeaderBytes) return extent;
  auto header = DecodeFrameHeader(buffer.data());
  TM_RETURN_NOT_OK(header.status());
  extent.frame_bytes += header->length;
  if (buffer.size() < extent.frame_bytes) return extent;
  std::string_view body = buffer.substr(kFrameHeaderBytes, header->length);
  if (FrameChecksum(body) != header->checksum) {
    return Status::InvalidArgument("frame checksum mismatch");
  }
  payload->assign(body);
  extent.complete = true;
  return extent;
}

std::string EncodeRequest(const Request& request) {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(request.op));
  PutU64(&out, request.request_id);
  PutU64(&out, request.target);
  PutDouble(&out, request.requirement.c);
  PutU32(&out, static_cast<uint32_t>(request.requirement.ell));
  PutU32(&out, request.deadline_millis);
  PutU64(&out, request.iteration_budget);
  PutString(&out, request.blob.size() > kMaxBlobBytes
                      ? request.blob.substr(0, kMaxBlobBytes)
                      : request.blob);
  return out;
}

common::Status DecodeRequest(std::string_view payload, Request* out) {
  Cursor cursor(payload);
  uint8_t op = cursor.TakeU8();
  out->request_id = cursor.TakeU64();
  out->target = cursor.TakeU64();
  out->requirement.c = cursor.TakeDouble();
  out->requirement.ell = static_cast<int>(cursor.TakeU32());
  out->deadline_millis = cursor.TakeU32();
  out->iteration_budget = cursor.TakeU64();
  out->blob = cursor.TakeString(kMaxBlobBytes);
  TM_RETURN_NOT_OK(cursor.Finish("request"));
  if (op < static_cast<uint8_t>(Op::kSelect) ||
      op > static_cast<uint8_t>(Op::kInstallSnapshot)) {
    return Status::InvalidArgument(
        common::StrFormat("unknown request op %u", op));
  }
  out->op = static_cast<Op>(op);
  if (out->op == Op::kSelect) {
    // Reject requirements no selector can interpret before they reach the
    // worker pool (NaN c would poison every eligibility comparison).
    if (!(out->requirement.c >= 0.0) || out->requirement.ell < 0 ||
        out->requirement.ell > static_cast<int>(kMaxMembers)) {
      return Status::InvalidArgument("unintelligible diversity requirement");
    }
  }
  return Status::OK();
}

std::string EncodeResponse(const Response& response) {
  std::string out;
  PutU64(&out, response.request_id);
  PutU8(&out, StatusCodeToWire(response.status.code()));
  PutString(&out, response.status.message().size() > kMaxMessageBytes
                      ? response.status.message().substr(0, kMaxMessageBytes)
                      : response.status.message());
  PutU32(&out, static_cast<uint32_t>(response.members.size()));
  for (chain::TokenId member : response.members) PutU64(&out, member);
  PutDouble(&out, response.satisfied.c);
  PutU32(&out, static_cast<uint32_t>(response.satisfied.ell));
  PutU8(&out, response.degraded ? 1 : 0);
  PutString(&out, response.stage);
  PutU64(&out, response.server_micros);
  PutString(&out, response.blob.size() > kMaxBlobBytes
                      ? response.blob.substr(0, kMaxBlobBytes)
                      : response.blob);
  return out;
}

common::Status DecodeResponse(std::string_view payload, Response* out) {
  Cursor cursor(payload);
  out->request_id = cursor.TakeU64();
  uint8_t wire_code = cursor.TakeU8();
  std::string message = cursor.TakeString(kMaxMessageBytes);
  uint32_t n_members = cursor.TakeU32();
  if (n_members > kMaxMembers) {
    return Status::InvalidArgument(
        common::StrFormat("malformed response: %u members", n_members));
  }
  out->members.clear();
  out->members.reserve(n_members);
  for (uint32_t i = 0; i < n_members && !cursor.failed(); ++i) {
    out->members.push_back(cursor.TakeU64());
  }
  out->satisfied.c = cursor.TakeDouble();
  out->satisfied.ell = static_cast<int>(cursor.TakeU32());
  out->degraded = cursor.TakeU8() != 0;
  out->stage = cursor.TakeString(kMaxMessageBytes);
  out->server_micros = cursor.TakeU64();
  out->blob = cursor.TakeString(kMaxBlobBytes);
  TM_RETURN_NOT_OK(cursor.Finish("response"));
  // Rebuild the status verbatim (OK statuses keep their message too:
  // Ping/Stats responses carry their payload there).
  out->status = Status(WireToStatusCode(wire_code), std::move(message));
  return Status::OK();
}

// -- cluster-op blob codecs ----------------------------------------------

std::string EncodeGrants(
    const std::vector<std::vector<crypto::Point>>& grants) {
  std::string out;
  PutU32(&out, static_cast<uint32_t>(grants.size()));
  for (const auto& grant : grants) {
    PutU32(&out, static_cast<uint32_t>(grant.size()));
    for (const crypto::Point& key : grant) PutPoint(&out, key);
  }
  return out;
}

common::Status DecodeGrants(
    std::string_view blob, std::vector<std::vector<crypto::Point>>* out) {
  Cursor cursor(blob);
  uint32_t n_grants = cursor.TakeU32();
  if (n_grants > kMaxGrants) {
    return Status::InvalidArgument(
        common::StrFormat("malformed grants: %u grants", n_grants));
  }
  out->clear();
  out->reserve(n_grants);
  for (uint32_t g = 0; g < n_grants && !cursor.failed(); ++g) {
    uint32_t n_keys = cursor.TakeU32();
    if (n_keys > kMaxMembers) {
      return Status::InvalidArgument(
          common::StrFormat("malformed grants: %u keys", n_keys));
    }
    std::vector<crypto::Point> grant;
    grant.reserve(n_keys);
    for (uint32_t k = 0; k < n_keys && !cursor.failed(); ++k) {
      grant.push_back(cursor.TakePoint());
    }
    out->push_back(std::move(grant));
  }
  return cursor.Finish("grants");
}

std::string EncodeMintedTokens(
    const std::vector<std::vector<chain::TokenId>>& minted) {
  std::string out;
  PutU32(&out, static_cast<uint32_t>(minted.size()));
  for (const auto& tokens : minted) {
    PutU32(&out, static_cast<uint32_t>(tokens.size()));
    for (chain::TokenId token : tokens) PutU64(&out, token);
  }
  return out;
}

common::Status DecodeMintedTokens(
    std::string_view blob, std::vector<std::vector<chain::TokenId>>* out) {
  Cursor cursor(blob);
  uint32_t n_grants = cursor.TakeU32();
  if (n_grants > kMaxGrants) {
    return Status::InvalidArgument(
        common::StrFormat("malformed minted tokens: %u grants", n_grants));
  }
  out->clear();
  out->reserve(n_grants);
  for (uint32_t g = 0; g < n_grants && !cursor.failed(); ++g) {
    uint32_t n_tokens = cursor.TakeU32();
    if (n_tokens > kMaxMembers) {
      return Status::InvalidArgument(
          common::StrFormat("malformed minted tokens: %u ids", n_tokens));
    }
    std::vector<chain::TokenId> tokens;
    tokens.reserve(n_tokens);
    for (uint32_t t = 0; t < n_tokens && !cursor.failed(); ++t) {
      tokens.push_back(cursor.TakeU64());
    }
    out->push_back(std::move(tokens));
  }
  return cursor.Finish("minted tokens");
}

std::string EncodeSignedTx(const node::SignedTransaction& tx,
                           const std::vector<crypto::Point>& output_keys) {
  std::string out;
  PutU32(&out, static_cast<uint32_t>(tx.inputs.size()));
  for (const node::TxInput& input : tx.inputs) {
    PutU32(&out, static_cast<uint32_t>(input.ring.size()));
    for (chain::TokenId member : input.ring) PutU64(&out, member);
    PutDouble(&out, input.requirement.c);
    PutU32(&out, static_cast<uint32_t>(input.requirement.ell));
    std::vector<uint8_t> lsag = crypto::SerializeLsag(input.signature);
    PutU32(&out, static_cast<uint32_t>(lsag.size()));
    out.append(reinterpret_cast<const char*>(lsag.data()), lsag.size());
  }
  PutU32(&out, tx.output_count);
  PutString(&out, tx.memo);
  PutU32(&out, static_cast<uint32_t>(output_keys.size()));
  for (const crypto::Point& key : output_keys) PutPoint(&out, key);
  return out;
}

common::Status DecodeSignedTx(std::string_view blob,
                              node::SignedTransaction* tx,
                              std::vector<crypto::Point>* output_keys) {
  Cursor cursor(blob);
  uint32_t n_inputs = cursor.TakeU32();
  if (n_inputs > kMaxTxInputs) {
    return Status::InvalidArgument(
        common::StrFormat("malformed tx: %u inputs", n_inputs));
  }
  tx->inputs.clear();
  tx->inputs.reserve(n_inputs);
  for (uint32_t i = 0; i < n_inputs && !cursor.failed(); ++i) {
    node::TxInput input;
    uint32_t ring_size = cursor.TakeU32();
    if (ring_size > kMaxMembers) {
      return Status::InvalidArgument(
          common::StrFormat("malformed tx: ring of %u", ring_size));
    }
    input.ring.reserve(ring_size);
    for (uint32_t m = 0; m < ring_size && !cursor.failed(); ++m) {
      input.ring.push_back(cursor.TakeU64());
    }
    input.requirement.c = cursor.TakeDouble();
    input.requirement.ell = static_cast<int>(cursor.TakeU32());
    std::string lsag_bytes = cursor.TakeString(kMaxBlobBytes);
    if (cursor.failed()) break;
    auto lsag = crypto::DeserializeLsag(std::vector<uint8_t>(
        lsag_bytes.begin(), lsag_bytes.end()));
    if (!lsag.ok()) {
      return Status::InvalidArgument(common::StrFormat(
          "malformed tx: %s", lsag.status().message().c_str()));
    }
    input.signature = std::move(lsag).value();
    tx->inputs.push_back(std::move(input));
  }
  tx->output_count = cursor.TakeU32();
  tx->memo = cursor.TakeString(kMaxMessageBytes);
  uint32_t n_keys = cursor.TakeU32();
  if (n_keys > kMaxMembers) {
    return Status::InvalidArgument(
        common::StrFormat("malformed tx: %u output keys", n_keys));
  }
  output_keys->clear();
  output_keys->reserve(n_keys);
  for (uint32_t k = 0; k < n_keys && !cursor.failed(); ++k) {
    output_keys->push_back(cursor.TakePoint());
  }
  return cursor.Finish("signed tx");
}

std::string EncodeMineSummary(const MineSummary& summary) {
  std::string out;
  PutU64(&out, summary.height);
  PutU64(&out, summary.transactions);
  PutU64(&out, summary.rejected);
  return out;
}

common::Status DecodeMineSummary(std::string_view blob, MineSummary* out) {
  Cursor cursor(blob);
  out->height = cursor.TakeU64();
  out->transactions = cursor.TakeU64();
  out->rejected = cursor.TakeU64();
  return cursor.Finish("mine summary");
}

}  // namespace tokenmagic::rpc
