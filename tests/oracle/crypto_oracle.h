// From-scratch references for the secp256k1 kernels (crypto/field.h,
// crypto/secp256k1.h), kept in tests/ only as oracles for the
// differential suite.
//
// The library reduces only modulo the field prime p and the group order
// n, by folding their special forms. The generic modular routines below
// (long division, MulMod/PowMod/InvMod for any modulus) are the
// references those folds are checked against.
//
// The library inverts and takes square roots by fixed addition chains,
// splits scalars by the curve's endomorphism, multiplies public scalars by
// interleaved wNAF over Jacobian tables and secret scalars by a fixed 4-bit
// window or a fixed-base comb. The oracles below do the same math the
// textbook way: generic square-and-multiply exponentiation,
// chord-and-tangent addition in affine coordinates (one inversion per
// group operation), and plain double-and-add over the scalar's bits, with
// no split. They share only FieldAdd/Sub/Mul with the code under test.
#pragma once

#include "crypto/field.h"
#include "crypto/secp256k1.h"
#include "crypto/u256.h"

namespace tokenmagic::oracle {

/// Logical left shift of *v by one bit; returns the bit shifted out.
uint64_t Shl1(crypto::U256* v);

/// a mod m by binary long division; m must be non-zero.
crypto::U256 Mod(const crypto::U256& a, const crypto::U256& m);

/// a mod m by binary long division over all 512 bits; m must be non-zero.
crypto::U256 Mod(const crypto::U512& a, const crypto::U256& m);

/// (a * b) mod m for any non-zero m, through the 512-bit Mod.
crypto::U256 MulMod(const crypto::U256& a, const crypto::U256& b,
                    const crypto::U256& m);

/// a^e mod m by right-to-left square-and-multiply over MulMod.
crypto::U256 PowMod(const crypto::U256& a, const crypto::U256& e,
                    const crypto::U256& m);

/// a^(m-2) mod m: the inverse for prime m; a must be non-zero.
crypto::U256 InvMod(const crypto::U256& a, const crypto::U256& m);

/// a^e mod p by right-to-left square-and-multiply over e's bits.
crypto::U256 FieldPow(const crypto::U256& a, const crypto::U256& e);

/// a^(p-2) through FieldPow; a must be non-zero.
crypto::U256 FieldInv(const crypto::U256& a);

/// a^((p+1)/4) through FieldPow; true (and *root set) iff it squares back
/// to a mod p.
bool FieldSqrt(const crypto::U256& a, crypto::U256* root);

/// Affine chord-and-tangent addition, complete over the identity,
/// doubling and P + (-P).
crypto::Point Add(const crypto::Point& a, const crypto::Point& b);

/// k * p by double-and-add over Add, most significant bit first; any
/// k < 2^256.
crypto::Point Mul(const crypto::U256& k, const crypto::Point& p);

}  // namespace tokenmagic::oracle
