#include "crypto/stealth.h"

#include "common/macros.h"
#include "crypto/ct.h"
#include "crypto/field.h"
#include "crypto/memzero.h"
#include "crypto/sha256.h"

namespace tokenmagic::crypto {

namespace {

/// H_s: shared point -> scalar (domain-separated). The encoding of a
/// secret point is itself secret; wipe it once hashed.
U256 SharedScalar(const Point& shared) {
  auto enc = shared.Encode();
  U256 h = HashToScalar(enc.data(), enc.size(), "tokenmagic/stealth");
  SecureWipe(enc.data(), enc.size());
  return h;
}

}  // namespace

StealthAddress StealthAddress::Generate(common::Rng* rng) {
  StealthAddress address;
  address.view = Keypair::Generate(rng);
  address.spend = Keypair::Generate(rng);
  return address;
}

StealthOutput Stealth::Derive(const StealthAddress::Public& recipient,
                              common::Rng* rng) {
  TM_CHECK(!recipient.view.infinity && !recipient.spend.infinity);
  // Fresh transaction key r (never reused across outputs).
  Keypair tx_key = Keypair::Generate(rng);
  // Shared secret r·A, hashed to a scalar. The MulCT result is public as
  // far as the kernel is concerned; re-mark it secret, because knowing the
  // shared point links the output to the recipient.
  // tm-secret
  Point shared = Secp256k1::MulCT(tx_key.secret, recipient.view);
  CtPoison(&shared.x, sizeof(shared.x));
  CtPoison(&shared.y, sizeof(shared.y));
  U256 h = SharedScalar(shared);
  // P = h·G + B.
  StealthOutput output;
  output.one_time_key =
      Secp256k1::Add(Secp256k1::MulBaseCT(h), recipient.spend);
  output.tx_pubkey = tx_key.pub;
  SecureWipe(shared.x.limbs.data(), sizeof(shared.x.limbs));
  SecureWipe(shared.y.limbs.data(), sizeof(shared.y.limbs));
  SecureWipe(h.limbs.data(), sizeof(h.limbs));
  return output;
}

bool Stealth::IsMine(const StealthAddress& wallet,
                     const StealthOutput& output) {
  // a·R == r·A: recompute the candidate one-time key.
  // tm-secret
  Point shared = Secp256k1::MulCT(wallet.view.secret, output.tx_pubkey);
  CtPoison(&shared.x, sizeof(shared.x));
  CtPoison(&shared.y, sizeof(shared.y));
  U256 h = SharedScalar(shared);
  Point candidate =
      Secp256k1::Add(Secp256k1::MulBaseCT(h), wallet.spend.pub);
  SecureWipe(shared.x.limbs.data(), sizeof(shared.x.limbs));
  SecureWipe(shared.y.limbs.data(), sizeof(shared.y.limbs));
  SecureWipe(h.limbs.data(), sizeof(h.limbs));
  // Whether an output belongs to this wallet is the protocol-level answer
  // the scan exists to produce; the candidate point is MulCT output.
  return candidate == output.one_time_key;
}

std::optional<Keypair> Stealth::RecoverKey(const StealthAddress& wallet,
                                           const StealthOutput& output) {
  if (!IsMine(wallet, output)) return std::nullopt;
  // tm-secret
  Point shared = Secp256k1::MulCT(wallet.view.secret, output.tx_pubkey);
  CtPoison(&shared.x, sizeof(shared.x));
  CtPoison(&shared.y, sizeof(shared.y));
  U256 h = SharedScalar(shared);
  Keypair key;  // self-wiping carrier for the recovered spend key
  key.secret = ScalarAdd(h, wallet.spend.secret);
  key.pub = Secp256k1::MulBaseCT(key.secret);
  SecureWipe(shared.x.limbs.data(), sizeof(shared.x.limbs));
  SecureWipe(shared.y.limbs.data(), sizeof(shared.y.limbs));
  SecureWipe(h.limbs.data(), sizeof(h.limbs));
  TM_DCHECK(key.pub == output.one_time_key);
  return key;
}

}  // namespace tokenmagic::crypto
