#include "crypto/lsag.h"

#include "common/macros.h"
#include "crypto/ct.h"
#include "crypto/field.h"
#include "crypto/memzero.h"
#include "crypto/sha256.h"

namespace tokenmagic::crypto {

namespace {

/// Hp(P): the per-key auxiliary base point for key images.
Point HashPointOfKey(const Point& pub) {
  auto enc = pub.Encode();
  return Secp256k1::HashToPoint(enc.data(), enc.size(), "tokenmagic/lsag-hp");
}

/// The challenge hasher with the part every challenge of one signature
/// shares, tag || ring || I || m, already absorbed.
Sha256 ChallengePrefix(const std::vector<Point>& ring, const Point& key_image,
                       std::string_view message) {
  Sha256 hasher;
  hasher.Update("tokenmagic/lsag-chal");
  for (const Point& member : ring) {
    auto enc = member.Encode();
    hasher.Update(enc.data(), enc.size());
  }
  auto img = key_image.Encode();
  hasher.Update(img.data(), img.size());
  hasher.Update(message);
  return hasher;
}

/// Challenge c_{i+1} = H(ring || I || m || L_i || R_i), from a copy of the
/// ChallengePrefix hasher.
U256 ChainChallenge(const Sha256& prefix, const Point& l, const Point& r) {
  Sha256 hasher = prefix;
  auto l_enc = l.Encode();
  hasher.Update(l_enc.data(), l_enc.size());
  auto r_enc = r.Encode();
  hasher.Update(r_enc.data(), r_enc.size());
  auto digest = hasher.Finalize();
  U256 c = ScalarReduce(U256::FromBytes(digest.data()));
  if (c.IsZero()) c = U256::One();
  return c;
}

U256 RandomScalar(common::Rng* rng) {
  // tm-secret
  U256 value;
  uint64_t valid = 0;
  do {
    for (auto& limb : value.limbs) limb = rng->Next();
    value = ScalarReduce(value);
    CtPoison(&value, sizeof(value));
    valid = 1 ^ CtIsZero(value);
    // tm-declassify(rejection-sampling verdict: reveals only a ~2^-256 retry)
    CtDeclassify(&valid, sizeof(valid));
  } while (valid == 0);
  return value;
}

}  // namespace

common::Result<LsagSignature> Lsag::Sign(const std::vector<Point>& ring,
                                         size_t signer_index,
                                         const Keypair& signer,
                                         std::string_view message,
                                         common::Rng* rng) {
  using common::Status;
  if (ring.size() < 2) {
    return Status::InvalidArgument("LSAG ring must contain >= 2 members");
  }
  if (signer_index >= ring.size()) {
    return Status::InvalidArgument("signer index out of range");
  }
  if (ring[signer_index] != signer.pub) {
    return Status::InvalidArgument(
        "ring[signer_index] does not match the signer public key");
  }
  for (const Point& member : ring) {
    if (member.infinity || !Secp256k1::IsOnCurve(member)) {
      return Status::InvalidArgument("ring contains an invalid point");
    }
  }

  const size_t n = ring.size();
  LsagSignature sig;
  sig.ring = ring;
  sig.responses.assign(n, U256::Zero());

  Point hp_signer = HashPointOfKey(signer.pub);

  // Key image and commitment: every scalar multiple of the secret key x
  // and the nonce u goes through the constant-time kernels.
  sig.key_image = Secp256k1::MulCT(signer.secret, hp_signer);

  // Start the chain at the signer with a fresh commitment nonce u:
  //   L_j = u*G,  R_j = u*Hp(P_j),  c_{j+1} = H(..., L_j, R_j)
  // tm-secret
  U256 u = RandomScalar(rng);
  Point l = Secp256k1::MulBaseCT(u);
  Point r = Secp256k1::MulCT(u, hp_signer);

  const Sha256 prefix = ChallengePrefix(ring, sig.key_image, message);
  std::vector<U256> challenges(n, U256::Zero());
  size_t next = (signer_index + 1) % n;
  challenges[next] = ChainChallenge(prefix, l, r);

  // Walk the ring, simulating every other member with a random response.
  for (size_t step = 1; step < n; ++step) {
    size_t i = (signer_index + step) % n;
    sig.responses[i] = RandomScalar(rng);
    // tm-declassify(simulated ring response: published in the signature)
    CtDeclassify(&sig.responses[i], sizeof(U256));
    Point hp_i = HashPointOfKey(ring[i]);
    Point l_i = Secp256k1::MulAdd(sig.responses[i], Secp256k1::Generator(),
                                  challenges[i], ring[i]);
    Point r_i = Secp256k1::MulAdd(sig.responses[i], hp_i, challenges[i],
                                  sig.key_image);
    size_t after = (i + 1) % n;
    challenges[after] = ChainChallenge(prefix, l_i, r_i);
  }

  // Close the ring: s_j = u - c_j * x (mod n). The nonce is wiped before
  // it can leak through a reused stack frame; the closing response itself
  // is published, so it is an audited declassification exit.
  sig.responses[signer_index] =
      ScalarSub(u, ScalarMul(challenges[signer_index], signer.secret));
  SecureWipe(u.limbs.data(), sizeof(u.limbs));
  // tm-declassify(published ring response: closes the ring equation)
  CtDeclassify(&sig.responses[signer_index], sizeof(U256));
  sig.c0 = challenges[0];
  return sig;
}

bool Lsag::Verify(const LsagSignature& sig, std::string_view message) {
  const size_t n = sig.ring.size();
  if (n < 2 || sig.responses.size() != n) return false;
  if (sig.key_image.infinity || !Secp256k1::IsOnCurve(sig.key_image)) {
    return false;
  }
  if (sig.c0.IsZero() || sig.c0 >= GroupOrder()) return false;
  for (const Point& member : sig.ring) {
    if (member.infinity || !Secp256k1::IsOnCurve(member)) return false;
  }
  for (const U256& s : sig.responses) {
    if (s >= GroupOrder()) return false;
  }

  const Sha256 prefix = ChallengePrefix(sig.ring, sig.key_image, message);
  U256 c = sig.c0;
  for (size_t i = 0; i < n; ++i) {
    Point hp_i = HashPointOfKey(sig.ring[i]);
    Point l_i = Secp256k1::MulAdd(sig.responses[i], Secp256k1::Generator(),
                                  c, sig.ring[i]);
    Point r_i =
        Secp256k1::MulAdd(sig.responses[i], hp_i, c, sig.key_image);
    c = ChainChallenge(prefix, l_i, r_i);
  }
  return c == sig.c0;
}

bool Lsag::Linked(const LsagSignature& a, const LsagSignature& b) {
  return a.key_image == b.key_image;
}

common::Status KeyImageRegistry::Register(const Point& key_image) {
  auto enc = key_image.Encode();
  std::string id(reinterpret_cast<const char*>(enc.data()), enc.size());
  if (!images_.insert(std::move(id)).second) {
    return common::Status::AlreadyExists(
        "key image already spent (double-spend attempt)");
  }
  return common::Status::OK();
}

bool KeyImageRegistry::Contains(const Point& key_image) const {
  auto enc = key_image.Encode();
  std::string id(reinterpret_cast<const char*>(enc.data()), enc.size());
  return images_.count(id) > 0;
}

}  // namespace tokenmagic::crypto
