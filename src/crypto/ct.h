// Constant-time primitives and the dynamic secret-poisoning hooks.
//
// Two things live here:
//
//  1. Branch-free building blocks (CtEquals, CtSelect, CtIsZero,
//     CtLess): every operation executes the same instruction
//     stream regardless of the secret values involved. Use these for any
//     comparison or selection whose operands tm_ct (tools/analyze/
//     tm_ct.py) tracks as secret-tainted; memcmp/operator== on secret
//     bytes is a timing oracle.
//
//  2. The ctgrind/TIMECOP-style runtime oracle hooks (CtPoison,
//     CtDeclassify). CtPoison marks bytes as "undefined" for valgrind
//     memcheck (or MSan when compiled with it); any branch or memory
//     index derived from poisoned bytes is then reported by the tool as
//     a use of uninitialised data — an independent, machine-level check
//     of the same property the static analyzer proves at source level.
//     CtDeclassify marks bytes defined again at the audited exits
//     (published signature responses, rejection-sampling verdicts, the
//     scalar entry of MulCT/MulBaseCT); each call site carries a
//     matching `// tm-declassify(<reason>)` annotation so the static and
//     dynamic declassification points are the same, by construction.
//     Outside valgrind/MSan both hooks compile to a few no-op
//     instructions, so they are always left in the production code (see
//     tests/crypto/ct_harness.cc for the lane that activates them).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "crypto/u256.h"

namespace tokenmagic::crypto {

/// Constant-time byte-span equality: the full length is always scanned,
/// with no data-dependent branch or early exit. A length mismatch returns
/// false immediately — lengths are public. Use instead of memcmp/
/// operator== whenever either side is secret (key images, shared secrets,
/// MAC-style digests).
bool CtEquals(std::span<const uint8_t> a, std::span<const uint8_t> b);

/// Constant-time select: returns `when_true` if cond != 0 else
/// `when_false`, via full-width masking (no branch, no cmov on a secret
/// flag reaching a conditional jump).
U256 CtSelect(uint64_t cond, const U256& when_true, const U256& when_false);

/// 1 when a is zero, 0 otherwise; branch-free (OR-reduce + mask trick).
uint64_t CtIsZero(const U256& a);

/// 1 when a < b, 0 otherwise; branch-free (borrow of a full subtract).
uint64_t CtLess(const U256& a, const U256& b);

/// Marks `size` bytes at `ptr` as secret for the dynamic oracle
/// (valgrind: MAKE_MEM_UNDEFINED; MSan: __msan_allocated_memory).
/// No-op in ordinary builds/runs.
void CtPoison(const void* ptr, size_t size);

/// Marks `size` bytes at `ptr` as public again — an audited
/// declassification exit. Every call site must carry a
/// `// tm-declassify(<reason>)` annotation; tm_ct rejects bare calls.
void CtDeclassify(const void* ptr, size_t size);

}  // namespace tokenmagic::crypto
