// tm_load — closed-loop load generator for the tm_node daemon.
//
// Drives thousands of simulated wallets against a serving daemon and
// reports throughput (selections/sec) and latency percentiles
// (p50/p99/p999) measured client-side over the real clock. Each
// connection thread owns one Client and multiplexes many logical
// wallets over it (wallet w's next target is a deterministic walk over
// the token universe), so `--wallets 2000 --connections 16` exercises
// the daemon with 2000 distinct request streams without needing 2000
// OS threads.
//
// Two modes:
//
//   tm_load --socket PATH ...          connect to a running tm_node;
//                                      the token universe is discovered
//                                      via Ping (token count).
//   tm_load --spawn 1 ...              build an in-process testbed +
//                                      server (optionally fault
//                                      injected with --fault-rate) and
//                                      load it — the CI soak
//                                      configuration, one command, no
//                                      daemon lifecycle to manage.
//
// Every issued request must resolve to a typed verdict (OK / Timeout /
// Overloaded / Unsatisfiable / InvalidArgument / Cancelled) or a typed
// transport failure after retries; anything else is a harness bug and
// the run exits non-zero. Results are emitted as BENCH_serve.json
// (override with --json) in the scheme check_bench_regression.py gates:
//
//   {"bench": "serve", "issued": N, "resolved": N, "crashes": 0,
//    "ok_fraction": X, "throughput_rps": X,
//    "latency_micros": {"p50": X, "p99": X, "p999": X, "max": N}, ...}
//
// Flags: --requests N (total), --wallets N (logical), --connections N
// (threads), --deadline-ms N, --c X --ell N (diversity requirement),
// --json PATH, --smoke 1, and in spawn mode the testbed/server knobs
// (--workers: concurrent selections; --queue --seed --fault-rate
// --tb-wallets --tb-tokens --tb-cluster --tb-rounds).
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "chain/types.h"
#include "common/deadline.h"
#include "common/histogram.h"
#include "common/status.h"
#include "common/strings.h"
#include "node/fault_injection.h"
#include "rpc/client.h"
#include "rpc/server.h"
#include "rpc/testbed.h"

namespace {

using namespace tokenmagic;

/// Minimal --flag value parser: flags are "--name value" pairs.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i + 1 < argc; i += 2) {
      if (common::StartsWith(argv[i], "--")) {
        values_[argv[i] + 2] = argv[i + 1];
      }
    }
  }

  std::string Get(const std::string& name, const std::string& fallback) const {
    auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }
  int64_t GetInt(const std::string& name, int64_t fallback) const {
    auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    int64_t out = fallback;
    common::ParseInt64(it->second, &out);
    return out;
  }
  double GetDouble(const std::string& name, double fallback) const {
    auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    double out = fallback;
    common::ParseDouble(it->second, &out);
    return out;
  }

 private:
  std::map<std::string, std::string> values_;
};

/// Per-thread tallies, merged after the join. Only the owning thread
/// writes, so no synchronization is needed until the merge.
struct ThreadResult {
  uint64_t issued = 0;
  uint64_t ok = 0;
  uint64_t degraded = 0;
  uint64_t timeout = 0;
  uint64_t overloaded = 0;
  uint64_t unsatisfiable = 0;
  uint64_t invalid_argument = 0;
  uint64_t cancelled = 0;
  uint64_t transport_failures = 0;
  uint64_t untyped = 0;  ///< verdicts outside the contract — harness bug
  common::Histogram latency_micros;
};

struct LoadConfig {
  std::string socket_path;
  uint64_t requests = 10000;
  size_t wallets = 2000;
  size_t connections = 16;
  uint32_t deadline_millis = 250;
  /// Client-side recv timeout. This is the recovery bound for the worst
  /// transport fault (a corrupted length prefix leaves the client
  /// waiting for bytes that never come), so it dominates fault-injected
  /// tail latency.
  uint32_t recv_timeout_millis = 2000;
  chain::DiversityRequirement requirement{2.0, 2};
};

/// One connection thread: a closed loop issuing `quota` requests on
/// behalf of logical wallets [first_wallet, first_wallet + wallet_count).
void RunThread(const LoadConfig& config, size_t thread_index,
               uint64_t quota, size_t first_wallet, size_t wallet_count,
               uint64_t token_count, ThreadResult* out) {
  rpc::ClientOptions options;
  options.recv_timeout_millis = config.recv_timeout_millis;
  options.retry.max_attempts = 4;
  options.retry.base_backoff_seconds = 0.002;
  options.sleeper = [](double seconds) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(seconds));
  };
  auto client = rpc::Client::Connect(config.socket_path, options);
  if (!client.ok()) {
    // Count the whole quota as transport failures so conservation
    // (resolved == issued) still holds and the gate sees the damage.
    out->issued = quota;
    out->transport_failures = quota;
    return;
  }

  const common::Clock* clock = common::SteadyClock::Instance();
  for (uint64_t i = 0; i < quota; ++i) {
    // Wallet w's i-th spend targets a deterministic stride over the
    // universe — distinct per-wallet streams, no RNG in the hot loop.
    size_t wallet = first_wallet + static_cast<size_t>(i) % wallet_count;
    chain::TokenId target{
        (wallet * 2654435761ull + i * 40503ull) % token_count};
    ++out->issued;

    int64_t start = clock->NowNanos();
    auto response =
        client->Select(target, config.requirement, config.deadline_millis);
    int64_t micros = (clock->NowNanos() - start) / 1000;
    out->latency_micros.Add(micros);

    if (!response.ok()) {
      // Post-retry transport failure: typed, counted, loop on.
      ++out->transport_failures;
      continue;
    }
    const common::Status& verdict = response->status;
    if (verdict.ok()) {
      ++out->ok;
      if (response->degraded) ++out->degraded;
    } else if (verdict.IsTimeout()) {
      ++out->timeout;
    } else if (verdict.IsResourceExhausted()) {
      ++out->overloaded;
    } else if (verdict.IsUnsatisfiable()) {
      ++out->unsatisfiable;
    } else if (verdict.IsInvalidArgument()) {
      ++out->invalid_argument;
    } else if (verdict.IsCancelled()) {
      ++out->cancelled;
    } else {
      std::fprintf(stderr, "tm_load[%zu]: untyped verdict: %s\n",
                   thread_index, verdict.ToString().c_str());
      ++out->untyped;
    }
  }
}

std::string RenderJson(const LoadConfig& config, const ThreadResult& total,
                       double elapsed_seconds, uint64_t faults_injected,
                       bool smoke) {
  uint64_t resolved = total.ok + total.timeout + total.overloaded +
                      total.unsatisfiable + total.invalid_argument +
                      total.cancelled + total.transport_failures;
  double ok_fraction =
      total.issued == 0
          ? 0.0
          : static_cast<double>(total.ok) / static_cast<double>(total.issued);
  double throughput =
      elapsed_seconds <= 0.0
          ? 0.0
          : static_cast<double>(total.issued) / elapsed_seconds;
  const common::Histogram& lat = total.latency_micros;
  std::string latency =
      lat.count() == 0
          ? "{\"p50\": 0, \"p99\": 0, \"p999\": 0, \"max\": 0}"
          : common::StrFormat(
                "{\"p50\": %.1f, \"p99\": %.1f, \"p999\": %.1f, "
                "\"max\": %lld}",
                lat.PercentileInterpolated(50.0),
                lat.PercentileInterpolated(99.0),
                lat.PercentileInterpolated(99.9),
                static_cast<long long>(lat.Max()));
  return common::StrFormat(
      "{\n"
      "  \"bench\": \"serve\",\n"
      "  \"smoke\": %s,\n"
      "  \"wallets\": %zu,\n"
      "  \"connections\": %zu,\n"
      "  \"deadline_millis\": %u,\n"
      "  \"issued\": %llu,\n"
      "  \"resolved\": %llu,\n"
      "  \"ok\": %llu,\n"
      "  \"degraded\": %llu,\n"
      "  \"timeout\": %llu,\n"
      "  \"overloaded\": %llu,\n"
      "  \"unsatisfiable\": %llu,\n"
      "  \"invalid_argument\": %llu,\n"
      "  \"cancelled\": %llu,\n"
      "  \"transport_failures\": %llu,\n"
      "  \"crashes\": %llu,\n"
      "  \"faults_injected\": %llu,\n"
      "  \"ok_fraction\": %.4f,\n"
      "  \"elapsed_seconds\": %.3f,\n"
      "  \"throughput_rps\": %.1f,\n"
      "  \"latency_micros\": %s\n"
      "}\n",
      smoke ? "true" : "false", config.wallets, config.connections,
      config.deadline_millis,
      static_cast<unsigned long long>(total.issued),
      static_cast<unsigned long long>(resolved),
      static_cast<unsigned long long>(total.ok),
      static_cast<unsigned long long>(total.degraded),
      static_cast<unsigned long long>(total.timeout),
      static_cast<unsigned long long>(total.overloaded),
      static_cast<unsigned long long>(total.unsatisfiable),
      static_cast<unsigned long long>(total.invalid_argument),
      static_cast<unsigned long long>(total.cancelled),
      static_cast<unsigned long long>(total.transport_failures),
      static_cast<unsigned long long>(total.untyped),
      static_cast<unsigned long long>(faults_injected), ok_fraction,
      elapsed_seconds, throughput, latency.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);

  LoadConfig config;
  config.socket_path = args.Get("socket", "/tmp/tm_node.sock");
  config.requests = static_cast<uint64_t>(args.GetInt("requests", 10000));
  config.wallets = static_cast<size_t>(args.GetInt("wallets", 2000));
  config.connections = static_cast<size_t>(args.GetInt("connections", 16));
  config.deadline_millis =
      static_cast<uint32_t>(args.GetInt("deadline-ms", 250));
  config.recv_timeout_millis =
      static_cast<uint32_t>(args.GetInt("recv-timeout-ms", 2000));
  config.requirement.c = args.GetDouble("c", 2.0);
  config.requirement.ell = static_cast<size_t>(args.GetInt("ell", 2));
  bool smoke = args.GetInt("smoke", 0) != 0;
  std::string json_path = args.Get("json", "BENCH_serve.json");
  if (config.connections == 0 || config.wallets < config.connections) {
    std::fprintf(stderr,
                 "tm_load: need wallets >= connections >= 1 "
                 "(got %zu wallets, %zu connections)\n",
                 config.wallets, config.connections);
    return 2;
  }

  // --spawn: stand up the daemon in-process. Keeps the CI soak a single
  // command and makes the fault injector's counters observable.
  std::unique_ptr<rpc::Testbed> testbed;
  std::unique_ptr<node::FaultInjector> faults;
  std::unique_ptr<rpc::Server> server;
  if (args.GetInt("spawn", 0) != 0) {
    rpc::TestbedConfig testbed_config;
    testbed_config.num_wallets =
        static_cast<size_t>(args.GetInt("tb-wallets", 32));
    testbed_config.tokens_per_wallet =
        static_cast<size_t>(args.GetInt("tb-tokens", 4));
    testbed_config.cluster_size =
        static_cast<size_t>(args.GetInt("tb-cluster", 2));
    testbed_config.spend_rounds =
        static_cast<size_t>(args.GetInt("tb-rounds", 2));
    testbed_config.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
    testbed = std::make_unique<rpc::Testbed>(
        rpc::BuildTestbed(testbed_config));

    rpc::ServerConfig server_config;
    server_config.socket_path = common::StrFormat(
        "/tmp/tm_load_%d.sock", static_cast<int>(getpid()));
    server_config.workers = static_cast<size_t>(args.GetInt("workers", 4));
    server_config.queue_capacity =
        static_cast<size_t>(args.GetInt("queue", 64));
    server_config.seed = testbed_config.seed;
    double fault_rate = args.GetDouble("fault-rate", 0.0);
    if (fault_rate > 0.0) {
      faults = std::make_unique<node::FaultInjector>(testbed_config.seed);
      faults->ArmTransportFaultRate(fault_rate);
      server_config.faults = faults.get();
    }
    config.socket_path = server_config.socket_path;
    server = std::make_unique<rpc::Server>(testbed->node.get(),
                                           server_config);
    common::Status started = server->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "tm_load: spawn failed: %s\n",
                   started.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "tm_load: spawned daemon on %s (fault rate %.3f)\n",
                 config.socket_path.c_str(), fault_rate);
  }

  // Discover the token universe from the daemon itself so connect mode
  // needs no out-of-band knowledge of the chain.
  uint64_t token_count = 0;
  {
    auto probe = rpc::Client::Connect(config.socket_path);
    if (!probe.ok()) {
      std::fprintf(stderr, "tm_load: cannot reach daemon at %s: %s\n",
                   config.socket_path.c_str(),
                   probe.status().ToString().c_str());
      return 1;
    }
    auto pong = probe->Ping();
    int64_t parsed = 0;
    if (!pong.ok() || !common::ParseInt64(*pong, &parsed) || parsed <= 0) {
      std::fprintf(stderr, "tm_load: bad ping from daemon: %s\n",
                   pong.ok() ? pong->c_str()
                             : pong.status().ToString().c_str());
      return 1;
    }
    token_count = static_cast<uint64_t>(parsed);
  }
  std::fprintf(stderr,
               "tm_load: %llu requests, %zu wallets over %zu connections, "
               "%llu tokens, deadline %u ms\n",
               static_cast<unsigned long long>(config.requests),
               config.wallets, config.connections,
               static_cast<unsigned long long>(token_count),
               config.deadline_millis);

  // Partition requests and wallets over connection threads (remainders
  // land on the low-index threads so nothing is lost).
  std::vector<ThreadResult> results(config.connections);
  std::vector<std::thread> threads;
  const common::Clock* clock = common::SteadyClock::Instance();
  int64_t run_start = clock->NowNanos();
  for (size_t t = 0; t < config.connections; ++t) {
    uint64_t quota = config.requests / config.connections +
                     (t < config.requests % config.connections ? 1 : 0);
    size_t wallet_count = config.wallets / config.connections +
                          (t < config.wallets % config.connections ? 1 : 0);
    size_t first_wallet = t * (config.wallets / config.connections) +
                          std::min(t, config.wallets % config.connections);
    threads.emplace_back([&, t, quota, first_wallet, wallet_count] {
      RunThread(config, t, quota, first_wallet, wallet_count, token_count,
                &results[t]);
    });
  }
  for (auto& thread : threads) thread.join();
  double elapsed_seconds =
      static_cast<double>(clock->NowNanos() - run_start) / 1e9;

  ThreadResult total;
  for (const ThreadResult& r : results) {
    total.issued += r.issued;
    total.ok += r.ok;
    total.degraded += r.degraded;
    total.timeout += r.timeout;
    total.overloaded += r.overloaded;
    total.unsatisfiable += r.unsatisfiable;
    total.invalid_argument += r.invalid_argument;
    total.cancelled += r.cancelled;
    total.transport_failures += r.transport_failures;
    total.untyped += r.untyped;
    total.latency_micros.MergeFrom(r.latency_micros);
  }

  uint64_t faults_injected = 0;
  if (server != nullptr) {
    server->Stop();
    if (faults != nullptr) {
      faults_injected =
          static_cast<uint64_t>(faults->transport_faults_injected());
    }
    std::fprintf(stderr, "tm_load: server stats: %s\n",
                 server->StatsSnapshot().ToJson().c_str());
  }

  std::string json = RenderJson(config, total, elapsed_seconds,
                                faults_injected, smoke);
  std::fputs(json.c_str(), stdout);
  FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "tm_load: cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fputs(json.c_str(), out);
  std::fclose(out);

  // The soak contract: every issued request resolved to a typed verdict
  // or typed transport failure — nothing hung, nothing untyped.
  uint64_t resolved = total.ok + total.timeout + total.overloaded +
                      total.unsatisfiable + total.invalid_argument +
                      total.cancelled + total.transport_failures;
  if (total.untyped != 0 || resolved != total.issued) {
    std::fprintf(stderr,
                 "tm_load: CONTRACT VIOLATION: issued=%llu resolved=%llu "
                 "untyped=%llu\n",
                 static_cast<unsigned long long>(total.issued),
                 static_cast<unsigned long long>(resolved),
                 static_cast<unsigned long long>(total.untyped));
    return 3;
  }
  return 0;
}
