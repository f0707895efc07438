#include "crypto/ct.h"

#if defined(__has_feature)
#if __has_feature(memory_sanitizer)
#include <sanitizer/msan_interface.h>
#define TM_CT_MSAN 1
#endif
#endif

#if !defined(TM_CT_MSAN) && defined(__has_include)
#if __has_include(<valgrind/memcheck.h>)
#include <valgrind/memcheck.h>
#define TM_CT_VALGRIND 1
#endif
#endif

namespace tokenmagic::crypto {

bool CtEquals(std::span<const uint8_t> a, std::span<const uint8_t> b) {
  if (a.size() != b.size()) return false;  // lengths are public
  uint8_t acc = 0;
  for (size_t i = 0; i < a.size(); ++i) acc |= a[i] ^ b[i];
  // acc == 0 iff every byte matched; fold to a bool without a
  // data-dependent branch (the subtraction borrows iff acc is non-zero).
  return static_cast<uint32_t>((static_cast<uint32_t>(acc) - 1u) >> 31) != 0;
}

U256 CtSelect(uint64_t cond, const U256& when_true, const U256& when_false) {
  uint64_t mask = 0 - static_cast<uint64_t>(cond != 0);
  U256 out;
  for (int i = 0; i < 4; ++i) {
    out.limbs[i] =
        (when_true.limbs[i] & mask) | (when_false.limbs[i] & ~mask);
  }
  return out;
}

uint64_t CtIsZero(const U256& a) {
  uint64_t z = a.limbs[0] | a.limbs[1] | a.limbs[2] | a.limbs[3];
  // (z | -z) has its top bit set iff z != 0.
  return 1u ^ static_cast<uint64_t>((z | (0 - z)) >> 63);
}

uint64_t CtLess(const U256& a, const U256& b) {
  U256 diff;
  return U256::Sub(a, b, &diff);  // borrow == 1 iff a < b
}

void CtPoison(const void* ptr, size_t size) {
#if defined(TM_CT_MSAN)
  __msan_allocated_memory(ptr, size);
#elif defined(TM_CT_VALGRIND)
  VALGRIND_MAKE_MEM_UNDEFINED(ptr, size);
#else
  (void)ptr;
  (void)size;
#endif
}

void CtDeclassify(const void* ptr, size_t size) {
#if defined(TM_CT_MSAN)
  __msan_unpoison(const_cast<void*>(ptr), size);
#elif defined(TM_CT_VALGRIND)
  VALGRIND_MAKE_MEM_DEFINED(ptr, size);
#else
  (void)ptr;
  (void)size;
#endif
}

}  // namespace tokenmagic::crypto
