// Ablation A: cost of the cryptographic layer (Step 2/3 of the RS scheme,
// Section 2.1) as a function of ring size. The paper keeps Step 2/3
// unchanged and argues only Step 3 affects chain throughput; this bench
// quantifies sign (offline) and verify (online) costs for our LSAG over
// secp256k1, plus the primitive operations they decompose into.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.h"
#include "crypto/field.h"
#include "crypto/keys.h"
#include "crypto/lsag.h"
#include "crypto/secp256k1.h"
#include "crypto/sha256.h"
#include "crypto/u256.h"

namespace tokenmagic::bench {
namespace {

struct RingSetup {
  std::vector<crypto::Keypair> keys;
  std::vector<crypto::Point> ring;
};

RingSetup MakeRing(size_t n) {
  common::Rng rng(1234 + n);
  RingSetup setup;
  for (size_t i = 0; i < n; ++i) {
    setup.keys.push_back(crypto::Keypair::Generate(&rng));
    setup.ring.push_back(setup.keys.back().pub);
  }
  return setup;
}

void BM_LsagSign(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  RingSetup setup = MakeRing(n);
  common::Rng rng(7);
  for (auto _ : state) {
    auto sig = crypto::Lsag::Sign(setup.ring, n / 2, setup.keys[n / 2],
                                  "bench tx", &rng);
    benchmark::DoNotOptimize(&sig);
  }
}
BENCHMARK(BM_LsagSign)->Arg(2)->Arg(5)->Arg(11)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);

void BM_LsagVerify(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  RingSetup setup = MakeRing(n);
  common::Rng rng(7);
  auto sig = crypto::Lsag::Sign(setup.ring, n / 2, setup.keys[n / 2],
                                "bench tx", &rng);
  for (auto _ : state) {
    bool ok = crypto::Lsag::Verify(*sig, "bench tx");
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_LsagVerify)->Arg(2)->Arg(5)->Arg(11)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);

// Per-primitive rows: the kernels a ring member costs. Sign pays one
// HashToPoint and two MulAdd per simulated member plus MulCT twice and
// MulBaseCT once for the signer; verify pays one HashToPoint and two
// MulAdd per member. Every ToAffine costs one FieldInv.
crypto::U256 BenchScalar(uint64_t seed) {
  common::Rng rng(seed);
  return crypto::ScalarReduce(
      crypto::U256(rng.Next(), rng.Next(), rng.Next(), rng.Next()));
}

void BM_FieldMul(benchmark::State& state) {
  crypto::U256 a = BenchScalar(3);
  crypto::U256 b = BenchScalar(4);
  for (auto _ : state) {
    a = crypto::FieldMul(a, b);
    benchmark::DoNotOptimize(&a);
  }
}
BENCHMARK(BM_FieldMul)->Unit(benchmark::kNanosecond);

void BM_FieldInv(benchmark::State& state) {
  crypto::U256 a = BenchScalar(5);
  for (auto _ : state) {
    a = crypto::FieldInv(a);
    benchmark::DoNotOptimize(&a);
  }
}
BENCHMARK(BM_FieldInv)->Unit(benchmark::kMicrosecond);

// The endomorphism split every Mul, MulBase, MulAdd and MulCT runs first.
void BM_ScalarSplitLambda(benchmark::State& state) {
  crypto::U256 k = BenchScalar(13);
  crypto::U256 k1, k2;
  for (auto _ : state) {
    crypto::ScalarSplitLambda(k, &k1, &k2);
    benchmark::DoNotOptimize(&k1);
    benchmark::DoNotOptimize(&k2);
    k.limbs[0] ^= k1.limbs[0];
  }
}
BENCHMARK(BM_ScalarSplitLambda)->Unit(benchmark::kNanosecond);

void BM_ScalarMulBase(benchmark::State& state) {
  common::Rng rng(9);
  crypto::U256 k(rng.Next(), rng.Next(), rng.Next(), 0);
  for (auto _ : state) {
    auto p = crypto::Secp256k1::MulBase(k);
    benchmark::DoNotOptimize(&p);
  }
}
BENCHMARK(BM_ScalarMulBase)->Unit(benchmark::kMicrosecond);

// The verifier's shape: s*G + c*P for a ring key P.
void BM_MulAdd(benchmark::State& state) {
  crypto::Point p = crypto::Secp256k1::MulBase(BenchScalar(6));
  crypto::U256 s = BenchScalar(7);
  crypto::U256 c = BenchScalar(8);
  for (auto _ : state) {
    auto r = crypto::Secp256k1::MulAdd(s, crypto::Secp256k1::Generator(), c,
                                       p);
    benchmark::DoNotOptimize(&r);
  }
}
BENCHMARK(BM_MulAdd)->Unit(benchmark::kMicrosecond);

void BM_MulCT(benchmark::State& state) {
  crypto::Point p = crypto::Secp256k1::MulBase(BenchScalar(10));
  crypto::U256 k = BenchScalar(11);
  for (auto _ : state) {
    auto r = crypto::Secp256k1::MulCT(k, p);
    benchmark::DoNotOptimize(&r);
  }
}
BENCHMARK(BM_MulCT)->Unit(benchmark::kMicrosecond);

void BM_MulBaseCT(benchmark::State& state) {
  crypto::U256 k = BenchScalar(12);
  for (auto _ : state) {
    auto r = crypto::Secp256k1::MulBaseCT(k);
    benchmark::DoNotOptimize(&r);
  }
}
BENCHMARK(BM_MulBaseCT)->Unit(benchmark::kMicrosecond);

void BM_HashToPoint(benchmark::State& state) {
  uint64_t counter = 0;
  for (auto _ : state) {
    auto r = crypto::Secp256k1::HashToPoint(
        reinterpret_cast<const uint8_t*>(&counter), sizeof(counter));
    ++counter;
    benchmark::DoNotOptimize(&r);
  }
}
BENCHMARK(BM_HashToPoint)->Unit(benchmark::kMicrosecond);

void BM_Sha256Throughput(benchmark::State& state) {
  std::string payload(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    auto digest = crypto::Sha256::Hash(payload);
    benchmark::DoNotOptimize(&digest);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256Throughput)->Arg(64)->Arg(1024)->Arg(65536);

}  // namespace
}  // namespace tokenmagic::bench

BENCHMARK_MAIN();
