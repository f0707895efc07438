// Binary serialization of signatures (wire/storage format).
//
// Layout (all integers little-endian):
//   LSAG: u32 ring_size | ring_size * 33B points | 33B key image |
//         32B c0 (big-endian scalar) | ring_size * 32B responses
// The format is versioned by a leading magic byte so future schemes can
// coexist on one ledger.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "crypto/lsag.h"

namespace tokenmagic::crypto {

inline constexpr uint8_t kLsagMagic = 0xa1;

/// Serializes an LSAG signature (ring included).
std::vector<uint8_t> SerializeLsag(const LsagSignature& sig);

/// Parses a serialized LSAG signature; verifies structure only (points
/// decode and scalars are in range) — call Lsag::Verify for validity.
[[nodiscard]] common::Result<LsagSignature> DeserializeLsag(
    const std::vector<uint8_t>& bytes);

}  // namespace tokenmagic::crypto
