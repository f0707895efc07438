// secp256k1 base-field arithmetic with a fast special-form reduction.
//
// The base prime is p = 2^256 - 2^32 - 977. A 512-bit product can be reduced
// by folding: 2^256 ≡ 2^32 + 977 (mod p), so high * 2^256 + low ≡
// high * (2^32 + 977) + low. Two folds bring any product below 2^257, after
// which at most two conditional subtractions finish the job.
#pragma once

#include "crypto/u256.h"

namespace tokenmagic::crypto {

/// secp256k1 base field prime p = 2^256 - 2^32 - 977.
const U256& FieldPrime();

/// secp256k1 group order n.
const U256& GroupOrder();

/// Reduces a full 512-bit value modulo p using the special prime form.
U256 FieldReduce(const U512& x);

/// Field operations: inputs must be < p (outputs always are).
U256 FieldAdd(const U256& a, const U256& b);
U256 FieldSub(const U256& a, const U256& b);
U256 FieldMul(const U256& a, const U256& b);
U256 FieldSqr(const U256& a);
/// Multiplicative inverse a^(p-2) (a must be non-zero), by the standard
/// secp256k1 addition chain: 255 squarings and 15 multiplies.
U256 FieldInv(const U256& a);
/// Negation: p - a (or 0 for a == 0).
U256 FieldNeg(const U256& a);
/// Square root when it exists: since p ≡ 3 (mod 4), r = a^((p+1)/4), by
/// an addition chain of 253 squarings and 13 multiplies.
/// Returns true and sets *root iff r*r == a.
bool FieldSqrt(const U256& a, U256* root);

/// Scalar (mod n) operations for signature arithmetic. Unlike the field
/// routines above (which only ever see public curve coordinates), scalars
/// are usually secrets — keys and nonces — so ScalarAdd/Sub/Mul/
/// Reduce run a fixed instruction stream with no secret-dependent branch
/// (AddMod/SubMod masked corrections, fold-based reduction mod n).
U256 ScalarAdd(const U256& a, const U256& b);
U256 ScalarSub(const U256& a, const U256& b);
U256 ScalarMul(const U256& a, const U256& b);
/// Reduces an arbitrary 256-bit value into [0, n); one masked subtract.
U256 ScalarReduce(const U256& a);
/// Reduces a full 512-bit product modulo n: three fixed folding passes
/// (2^256 ≡ 2^256 - n) plus two masked subtractions, no branches.
U256 ScalarReduce512(const U512& x);
/// True for a valid scalar: 0 < a < n. Branches on its argument, so it
/// must only see public values; secret scalars are checked branch-free
/// with crypto::CtIsZero (ct.h), as Keypair::Generate does.
bool IsValidScalar(const U256& a);

/// The secp256k1 endomorphism phi(x, y) = (beta*x, y) = lambda*(x, y):
/// lambda is a cube root of unity mod n and beta the matching one mod p.
const U256& EndomorphismLambda();
const U256& EndomorphismBeta();

/// Splits k (any 256-bit value, reduced mod n first) into halves with
/// k = k1 + k2*lambda (mod n) and min(ki, n - ki) < 2^128 for both, by
/// rounding k onto the reduced lattice basis (libsecp256k1's
/// scalar_split_lambda). Branch-free: a fixed ScalarMul/Add/Sub sequence.
void ScalarSplitLambda(const U256& k, U256* k1, U256* k2);

}  // namespace tokenmagic::crypto
