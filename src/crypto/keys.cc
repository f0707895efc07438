#include "crypto/keys.h"

#include "crypto/ct.h"
#include "crypto/field.h"

namespace tokenmagic::crypto {

Keypair Keypair::Generate(common::Rng* rng) {
  Keypair kp;
  // Rejection-sample straight into the self-wiping Keypair. The only bit
  // that escapes the loop is the retry verdict, a ~2^-256 event.
  uint64_t valid = 0;
  do {
    for (auto& limb : kp.secret.limbs) limb = rng->Next();
    kp.secret = ScalarReduce(kp.secret);
    CtPoison(&kp.secret, sizeof(kp.secret));
    valid = 1 ^ CtIsZero(kp.secret);
    // tm-declassify(rejection-sampling verdict: reveals only a ~2^-256 retry)
    CtDeclassify(&valid, sizeof(valid));
  } while (valid == 0);
  kp.pub = Secp256k1::MulBaseCT(kp.secret);
  return kp;
}

}  // namespace tokenmagic::crypto
