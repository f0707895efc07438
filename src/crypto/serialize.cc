#include "crypto/serialize.h"

#include <cstring>

#include "crypto/field.h"

namespace tokenmagic::crypto {

namespace {

using common::Status;

void PutU32(std::vector<uint8_t>* out, uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>(value >> (8 * i)));
  }
}

uint32_t GetU32(const uint8_t* data) {
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<uint32_t>(data[i]) << (8 * i);
  }
  return value;
}

void PutPoint(std::vector<uint8_t>* out, const Point& p) {
  auto enc = p.Encode();
  out->insert(out->end(), enc.begin(), enc.end());
}

void PutScalar(std::vector<uint8_t>* out, const U256& s) {
  auto bytes = s.ToBytes();
  out->insert(out->end(), bytes.begin(), bytes.end());
}

common::Result<Point> GetPoint(const uint8_t* data) {
  std::array<uint8_t, 33> enc;
  std::memcpy(enc.data(), data, 33);
  auto decoded = Point::Decode(enc);
  if (!decoded.has_value()) {
    return Status::VerificationFailed("malformed curve point");
  }
  return *decoded;
}

}  // namespace

std::vector<uint8_t> SerializeLsag(const LsagSignature& sig) {
  std::vector<uint8_t> out;
  out.reserve(1 + 4 + sig.ring.size() * 65 + 65);
  out.push_back(kLsagMagic);
  PutU32(&out, static_cast<uint32_t>(sig.ring.size()));
  for (const Point& member : sig.ring) PutPoint(&out, member);
  PutPoint(&out, sig.key_image);
  PutScalar(&out, sig.c0);
  for (const U256& s : sig.responses) PutScalar(&out, s);
  return out;
}

common::Result<LsagSignature> DeserializeLsag(
    const std::vector<uint8_t>& bytes) {
  if (bytes.size() < 5 || bytes[0] != kLsagMagic) {
    return Status::VerificationFailed("not an LSAG blob");
  }
  uint32_t n = GetU32(bytes.data() + 1);
  if (n < 2 || n > 100000) {
    return Status::VerificationFailed("implausible ring size");
  }
  size_t expected = 1 + 4 + static_cast<size_t>(n) * 33 + 33 + 32 +
                    static_cast<size_t>(n) * 32;
  if (bytes.size() != expected) {
    return Status::VerificationFailed("truncated LSAG blob");
  }
  LsagSignature sig;
  size_t offset = 5;
  for (uint32_t i = 0; i < n; ++i) {
    TM_ASSIGN_OR_RETURN(Point p, GetPoint(bytes.data() + offset));
    sig.ring.push_back(p);
    offset += 33;
  }
  TM_ASSIGN_OR_RETURN(sig.key_image, GetPoint(bytes.data() + offset));
  offset += 33;
  sig.c0 = U256::FromBytes(bytes.data() + offset);
  offset += 32;
  if (sig.c0 >= GroupOrder()) {
    return Status::VerificationFailed("c0 out of range");
  }
  for (uint32_t i = 0; i < n; ++i) {
    U256 s = U256::FromBytes(bytes.data() + offset);
    offset += 32;
    if (s >= GroupOrder()) {
      return Status::VerificationFailed("response scalar out of range");
    }
    sig.responses.push_back(s);
  }
  return sig;
}

}  // namespace tokenmagic::crypto
