// Wire protocol of the mixin-selection service.
//
// Transport framing is length-prefixed and checksummed: every message
// travels as
//
//     [uint32 LE payload length][uint64 LE FNV-1a payload checksum][payload]
//
// with the length bounded by kMaxFrameBytes, so a corrupted prefix can
// never make a receiver allocate unboundedly or wait for gigabytes — it
// fails typed and the connection is torn down. The checksum closes the
// other corruption hole: a flipped payload byte that still *decodes*
// (e.g. inside a member token id) would otherwise be delivered as a
// wrong-but-well-formed message; with the checksum every corrupted frame
// is detected and surfaces as a typed error. Payloads are fixed-layout
// little-endian binary; decoding is fully bounds-checked and rejects
// trailing bytes, so a corrupted or truncated frame is always detected as
// malformed rather than misparsed into a different well-formed message
// (the same fail-loud contract the snapshot corpus pins for files).
//
// A request names a target token, a (c, ℓ)-diversity requirement, and its
// *deadline budget* in milliseconds. The budget is the client's end-to-end
// patience: the server re-anchors it at admission time, subtracts queue
// wait, and threads the remainder into the resilient selector ladder as a
// common::Deadline — deadline propagation, not deadline re-invention.
//
// Responses carry a typed verdict (the common::StatusCode wire mapping
// below), the selected ring on success, and the degradation summary from
// core::DegradationReport so a client always learns which stage produced
// its ring and which requirement that ring actually satisfies.
//
// Cluster operations (kGenesis .. kInstallSnapshot) extend the protocol
// so a regtest harness can drive a whole daemon's chain over the wire:
// their structured payloads (grant key sets, signed transactions,
// snapshot strings) ride in the request/response `blob` field with the
// same strict bounds-checked codecs as everything else. A server only
// honors them when it was constructed with a NodeHost (rpc/node_host.h);
// a plain serving daemon answers them with InvalidArgument.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "chain/types.h"
#include "common/status.h"
#include "crypto/secp256k1.h"
#include "node/types.h"

namespace tokenmagic::rpc {

/// Hard ceiling on one frame's payload (requests and responses are far
/// smaller; the bound exists so corrupted lengths fail fast).
inline constexpr uint32_t kMaxFrameBytes = 1u << 20;

/// Frame header size: uint32 payload length + uint64 payload checksum.
inline constexpr size_t kFrameHeaderBytes = 12;

/// Ceiling on one request/response blob (snapshot strings, tx codecs);
/// leaves room for the fixed fields inside the frame bound.
inline constexpr uint32_t kMaxBlobBytes = kMaxFrameBytes - 4096;

/// Decoded frame header.
struct FrameHeader {
  uint32_t length = 0;
  uint64_t checksum = 0;
};

/// Request operations. kGenesis and later are the cluster ops: chain
/// mutations and state export, served only when the daemon carries a
/// NodeHost (regtest / cluster mode).
enum class Op : uint8_t {
  kSelect = 1,  ///< run DA-MS selection for `target`
  kPing = 2,    ///< liveness probe; response message = chain token count
  kStats = 3,   ///< response message = server counters as JSON
  kGenesis = 4,          ///< blob = grants; response blob = minted ids
  kSubmitTx = 5,         ///< blob = signed tx; status = verifier verdict
  kMine = 6,             ///< mine the mempool; response blob = summary
  kSnapshot = 7,         ///< response blob = full snapshot string
  kSnapshotDigest = 8,   ///< response message = sha256 of the snapshot
  kInstallSnapshot = 9,  ///< blob = snapshot string; replaces the node
};

/// One client request.
struct Request {
  Op op = Op::kSelect;
  /// Client-chosen correlation id; echoed verbatim in the response.
  uint64_t request_id = 0;
  chain::TokenId target = chain::kInvalidToken;
  chain::DiversityRequirement requirement{2.0, 2};
  /// End-to-end budget in milliseconds (0 = server default). Queue wait
  /// counts against it.
  uint32_t deadline_millis = 0;
  /// Optional iteration budget threaded into the selector deadline
  /// (0 = unlimited).
  uint64_t iteration_budget = 0;
  /// Structured payload of the cluster ops (empty for Select/Ping/Stats):
  /// EncodeGrants for kGenesis, EncodeSignedTx for kSubmitTx, the raw
  /// snapshot string for kInstallSnapshot. Bounded by kMaxBlobBytes.
  std::string blob;
};

/// One server response.
struct Response {
  uint64_t request_id = 0;
  /// Typed verdict: OK, InvalidArgument, Unsatisfiable, Timeout,
  /// ResourceExhausted (overloaded), Cancelled (shutdown), Internal.
  common::Status status;
  /// The selected ring (sorted ascending), empty on error.
  std::vector<chain::TokenId> members;
  /// The requirement the ring actually satisfies (== requested unless the
  /// ladder relaxed it; meaningless on error).
  chain::DiversityRequirement satisfied;
  /// True when a fallback stage or a relaxed requirement was needed.
  bool degraded = false;
  /// Ladder stage that produced the ring ("TM_B", "TM_P", ...).
  std::string stage;
  /// Server-side service time (selection only, not queue wait).
  uint64_t server_micros = 0;
  /// Structured payload of the cluster ops (empty otherwise):
  /// EncodeMintedTokens for kGenesis, EncodeMineSummary for kMine, the
  /// raw snapshot string for kSnapshot. Bounded by kMaxBlobBytes.
  std::string blob;
};

/// Wire summary of one kMine operation.
struct MineSummary {
  uint64_t height = 0;        ///< height of the mined block
  uint64_t transactions = 0;  ///< transactions mined into it
  uint64_t rejected = 0;      ///< mine-time re-verification rejections
};

/// Stable wire value of a StatusCode (independent of the enum's order so
/// old clients keep decoding new servers).
uint8_t StatusCodeToWire(common::StatusCode code);
common::StatusCode WireToStatusCode(uint8_t wire);

/// FNV-1a 64-bit checksum of a payload (not cryptographic; detects the
/// transport-level corruption the fault injector models).
uint64_t FrameChecksum(std::string_view payload);

/// Wraps a payload into a length-prefixed, checksummed frame.
std::string EncodeFrame(std::string_view payload);

/// Parses the frame header. InvalidArgument when the length is zero or
/// exceeds kMaxFrameBytes. The checksum is verified once the payload has
/// arrived (ExtractFrame).
[[nodiscard]] common::Result<FrameHeader> DecodeFrameHeader(
    const char header[kFrameHeaderBytes]);

/// What ExtractFrame found at the front of a receive buffer.
struct FrameExtent {
  /// Bytes the frame occupies, header included; kFrameHeaderBytes while
  /// the header itself is incomplete.
  size_t frame_bytes = 0;
  /// True when the buffer held all of them and the payload was extracted.
  bool complete = false;
};

/// Cuts the frame at the front of `buffer`, the one frame parser of the
/// receive side (socket_io's FrameReader runs it on every read). A
/// complete frame whose checksum matches fills `payload`; an incomplete
/// one reports how many bytes it needs and leaves `payload` alone. A bad
/// header or a checksum mismatch is InvalidArgument.
[[nodiscard]] common::Result<FrameExtent> ExtractFrame(
    std::string_view buffer, std::string* payload);

std::string EncodeRequest(const Request& request);
std::string EncodeResponse(const Response& response);

/// Strict decoders: every read is bounds-checked, member counts are
/// re-validated against the remaining bytes, and trailing bytes are
/// rejected. A corrupted payload yields InvalidArgument, never a
/// misparsed message.
[[nodiscard]] common::Status DecodeRequest(std::string_view payload,
                                           Request* out);
[[nodiscard]] common::Status DecodeResponse(std::string_view payload,
                                            Response* out);

// -- cluster-op blob codecs ----------------------------------------------
//
// Same contract as the request/response codecs: fixed-layout little-
// endian, every count bounds-checked, trailing bytes rejected, points
// re-validated on decode (an off-curve key never enters a node).

/// Genesis grants: one key set per grant transaction.
std::string EncodeGrants(
    const std::vector<std::vector<crypto::Point>>& grants);
[[nodiscard]] common::Status DecodeGrants(
    std::string_view blob, std::vector<std::vector<crypto::Point>>* out);

/// Minted token ids, one list per genesis grant (kGenesis response).
std::string EncodeMintedTokens(
    const std::vector<std::vector<chain::TokenId>>& minted);
[[nodiscard]] common::Status DecodeMintedTokens(
    std::string_view blob, std::vector<std::vector<chain::TokenId>>* out);

/// A signed transaction plus its announced output keys (kSubmitTx).
std::string EncodeSignedTx(const node::SignedTransaction& tx,
                           const std::vector<crypto::Point>& output_keys);
[[nodiscard]] common::Status DecodeSignedTx(
    std::string_view blob, node::SignedTransaction* tx,
    std::vector<crypto::Point>* output_keys);

std::string EncodeMineSummary(const MineSummary& summary);
[[nodiscard]] common::Status DecodeMineSummary(std::string_view blob,
                                               MineSummary* out);

}  // namespace tokenmagic::rpc
