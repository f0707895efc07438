// tm_node — the mixin-selection daemon.
//
// Builds a deterministic testbed chain (rpc::BuildTestbed), then serves
// framed Select/Ping/Stats requests on an AF_UNIX socket until SIGINT or
// SIGTERM, at which point it drains gracefully (in-flight selections
// complete, queued work answers Cancelled) and prints its stats counters
// as JSON on stdout.
//
//   tm_node --socket PATH [--workers N] [--queue N]
//           [--wallets N] [--tokens N] [--cluster N] [--rounds N]
//           [--seed N] [--default-deadline-ms N] [--max-deadline-ms N]
//           [--fault-rate P]
//
// --workers N is the number of concurrent selections (default 4): a
// Select runs on the reader that decoded it while one of the N is free,
// otherwise it waits in the --queue N admission queue or sheds.
//
// --fault-rate arms the transport fault injector (corrupt / truncate /
// drop / duplicate / delay on the response path) with independent
// probability P per response write — the soak configuration that proves
// clients survive a hostile transport.
//
// Cluster mode: --cluster-snapshot PATH [--lambda N] swaps the canned
// testbed for a mutable node persisted to PATH (restored from it when
// the file exists), and enables the full cluster op set (genesis,
// submit, mine, snapshot install). This is the daemon the testnet
// regtest harness spawns; state is persisted after every mutation, so a
// SIGKILL'd daemon restarts exactly where its last acknowledged
// mutation left it.
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>

#include "common/strings.h"
#include "node/fault_injection.h"
#include "rpc/server.h"
#include "rpc/testbed.h"
#include "testnet/node_host.h"

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

volatile std::sig_atomic_t g_stop = 0;
void HandleSignal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);

  uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 42));

  rpc::ServerConfig config;
  config.socket_path = args.Get("socket", "/tmp/tm_node.sock");
  config.workers = static_cast<size_t>(args.GetInt("workers", 4));
  config.queue_capacity = static_cast<size_t>(args.GetInt("queue", 64));
  config.default_deadline_millis =
      static_cast<uint32_t>(args.GetInt("default-deadline-ms", 250));
  config.max_deadline_millis =
      static_cast<uint32_t>(args.GetInt("max-deadline-ms", 5000));
  config.seed = seed;

  std::unique_ptr<node::FaultInjector> faults;
  double fault_rate = args.GetDouble("fault-rate", 0.0);
  if (fault_rate > 0.0) {
    faults = std::make_unique<node::FaultInjector>(seed);
    faults->ArmTransportFaultRate(fault_rate);
    config.faults = faults.get();
    std::fprintf(stderr, "tm_node: transport fault rate %.3f armed\n",
                 fault_rate);
  }

  // Exactly one of these backs the server, depending on the mode.
  rpc::Testbed testbed;
  std::unique_ptr<testnet::FileNodeHost> host;
  std::unique_ptr<rpc::Server> server;

  std::string cluster_snapshot = args.Get("cluster-snapshot", "");
  if (!cluster_snapshot.empty()) {
    node::NodeConfig node_config;
    node_config.lambda = static_cast<size_t>(args.GetInt("lambda", 8));
    auto opened = testnet::FileNodeHost::Open(cluster_snapshot, node_config);
    if (!opened.ok()) {
      std::fprintf(stderr, "tm_node: snapshot open failed: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    host = std::move(opened).value();
    std::fprintf(stderr, "tm_node: cluster mode, snapshot at %s\n",
                 cluster_snapshot.c_str());
    server = std::make_unique<rpc::Server>(host.get(), config);
  } else {
    rpc::TestbedConfig testbed_config;
    testbed_config.num_wallets =
        static_cast<size_t>(args.GetInt("wallets", 32));
    testbed_config.tokens_per_wallet =
        static_cast<size_t>(args.GetInt("tokens", 4));
    testbed_config.cluster_size =
        static_cast<size_t>(args.GetInt("cluster", 2));
    testbed_config.spend_rounds =
        static_cast<size_t>(args.GetInt("rounds", 2));
    testbed_config.seed = seed;

    std::fprintf(stderr, "tm_node: building testbed (%zu wallets x %zu)...\n",
                 testbed_config.num_wallets, testbed_config.tokens_per_wallet);
    testbed = rpc::BuildTestbed(testbed_config);
    server = std::make_unique<rpc::Server>(testbed.node.get(), config);
  }

  common::Status started = server->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "tm_node: start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "tm_node: serving on %s (%zu concurrent selections, "
               "queue %zu)\n",
               config.socket_path.c_str(), config.workers,
               config.queue_capacity);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (g_stop == 0) pause();

  std::fprintf(stderr, "tm_node: draining...\n");
  server->Stop();
  std::printf("%s\n", server->StatsSnapshot().ToJson().c_str());
  return 0;
}
