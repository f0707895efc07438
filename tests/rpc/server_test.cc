// End-to-end daemon behavior over real AF_UNIX sockets: valid rings,
// typed error verdicts, deadline propagation, overload shedding, and
// client recovery from injected transport faults.
#include "rpc/server.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/strings.h"
#include "gtest/gtest.h"
#include "node/fault_injection.h"
#include "rpc/client.h"
#include "rpc/testbed.h"

namespace tokenmagic::rpc {
namespace {

std::string TestSocketPath(const char* name) {
  return common::StrFormat("/tmp/tm_rpc_%d_%s.sock",
                           static_cast<int>(getpid()), name);
}

TestbedConfig SmallTestbed() {
  TestbedConfig config;
  config.num_wallets = 6;
  config.tokens_per_wallet = 4;
  config.cluster_size = 2;
  config.spend_rounds = 1;
  config.seed = 7;
  return config;
}

/// Spins (bounded) until `pred` holds. Tests synchronize on observable
/// server counters instead of fixed sleeps, so they cannot flake on a
/// slow machine — the predicate either becomes true or the test fails
/// loudly after the cap.
template <typename Pred>
[[nodiscard]] bool WaitUntil(Pred pred) {
  for (int i = 0; i < 5000; ++i) {
    if (pred()) return true;
    // tm-lint: allow(test-sleep, bounded poll interval under a predicate)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

/// A steady clock that pins the server's worker until the test releases
/// it. Once armed, the first reading taken on a second thread blocks.
/// With one request in flight that is the worker picking the request up
/// (the reader thread took the first reading when it admitted the
/// request), so the worker stays busy exactly as long as the test needs.
class PinClock final : public common::Clock {
 public:
  void Arm() { armed_.store(true); }
  void Release() { released_.store(true); }
  bool holding() const { return holding_.load(); }

  int64_t NowNanos() const override {
    if (armed_.load()) {
      std::thread::id none;
      const std::thread::id self = std::this_thread::get_id();
      if (!first_reader_.compare_exchange_strong(none, self) &&
          none != self && armed_.exchange(false)) {
        holding_.store(true);
        (void)WaitUntil([this] { return released_.load(); });
      }
    }
    return common::SteadyClock::Instance()->NowNanos();
  }

 private:
  mutable std::atomic<bool> armed_{false};
  mutable std::atomic<bool> holding_{false};
  std::atomic<bool> released_{false};
  mutable std::atomic<std::thread::id> first_reader_{};
};

TEST(ServerTest, ServesValidRingsForEveryTarget) {
  Testbed testbed = BuildTestbed(SmallTestbed());
  ServerConfig config;
  config.socket_path = TestSocketPath("rings");
  config.workers = 2;
  Server server(testbed.node.get(), config);
  ASSERT_TRUE(server.Start().ok());

  auto client = Client::Connect(config.socket_path);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  size_t served_ok = 0;
  for (chain::TokenId target : testbed.targets) {
    auto response = client->Select(target, {2.0, 2});
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    if (!response->status.ok()) continue;  // unsatisfiable targets exist
    ++served_ok;
    // A served ring must contain its target and be sorted ascending.
    EXPECT_TRUE(std::is_sorted(response->members.begin(),
                               response->members.end()));
    EXPECT_TRUE(std::find(response->members.begin(),
                          response->members.end(),
                          target) != response->members.end());
    EXPECT_GE(response->members.size(), 2u);
  }
  EXPECT_GT(served_ok, 0u);
  server.Stop();
}

TEST(ServerTest, PingAndStatsControlOps) {
  Testbed testbed = BuildTestbed(SmallTestbed());
  ServerConfig config;
  config.socket_path = TestSocketPath("control");
  Server server(testbed.node.get(), config);
  ASSERT_TRUE(server.Start().ok());

  auto client = Client::Connect(config.socket_path);
  ASSERT_TRUE(client.ok());
  auto ping = client->Ping();
  ASSERT_TRUE(ping.ok());
  EXPECT_EQ(ping.value(),
            common::StrFormat(
                "%zu", testbed.node->blockchain().token_count()));

  ASSERT_TRUE(client->Select(testbed.targets.front(), {2.0, 2}).ok());
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("\"admitted\""), std::string::npos);
  EXPECT_NE(stats->find("\"latency_micros\""), std::string::npos);
  server.Stop();
}

TEST(ServerTest, StatsCountOneColdModuleIndexPerSnapshot) {
  // Two batches of more than 24 tokens each, so the default ladder's BFS
  // stage refuses them and TM_P reads each batch's module index.
  TestbedConfig testbed_config;
  testbed_config.num_wallets = 8;
  testbed_config.tokens_per_wallet = 4;
  testbed_config.lambda = 32;
  testbed_config.spend_rounds = 8;
  testbed_config.seed = 11;
  Testbed testbed = BuildTestbed(testbed_config);
  const core::BatchIndex& batches = testbed.node->batches();
  ASSERT_EQ(batches.batch_count(), 2u);
  for (size_t b = 0; b < batches.batch_count(); ++b) {
    ASSERT_GT(batches.batch(b).tokens.size(), 24u);
  }

  ServerConfig config;
  config.socket_path = TestSocketPath("coldindex");
  config.workers = 1;
  Server server(testbed.node.get(), config);
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect(config.socket_path);
  ASSERT_TRUE(client.ok());
  for (int pass = 0; pass < 3; ++pass) {
    for (chain::TokenId target : testbed.targets) {
      ASSERT_TRUE(client->Select(target, {2.0, 2}).ok());
    }
  }
  // The counter is bumped before the response is written, so every
  // Select above is already counted.
  EXPECT_EQ(server.StatsSnapshot().module_index_cold, 2u);
  auto json = client->Stats();
  ASSERT_TRUE(json.ok());
  EXPECT_NE(json->find("\"module_index_cold\":2,"), std::string::npos)
      << *json;
  server.Stop();
}

TEST(ServerTest, UnknownTargetAnswersInvalidArgument) {
  Testbed testbed = BuildTestbed(SmallTestbed());
  ServerConfig config;
  config.socket_path = TestSocketPath("badtarget");
  Server server(testbed.node.get(), config);
  ASSERT_TRUE(server.Start().ok());

  auto client = Client::Connect(config.socket_path);
  ASSERT_TRUE(client.ok());
  chain::TokenId bogus =
      testbed.node->blockchain().token_count() + 1000;
  auto response = client->Select(bogus, {2.0, 2});
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->status.IsInvalidArgument());
  server.Stop();
}

TEST(ServerTest, ExhaustedIterationBudgetAnswersTimeout) {
  Testbed testbed = BuildTestbed(SmallTestbed());
  ServerConfig config;
  config.socket_path = TestSocketPath("budget");
  Server server(testbed.node.get(), config);
  ASSERT_TRUE(server.Start().ok());

  auto client = Client::Connect(config.socket_path);
  ASSERT_TRUE(client.ok());
  // One iteration cannot build a 6-HT ring (every greedy step adds one
  // RS, and no testbed RS spans six HT clusters), so the budget expires
  // mid-stage and every later stage sees it already spent. The verdict
  // must be a typed Timeout, never a silent partial ring.
  auto response = client->Select(testbed.targets.front(), {2.0, 6},
                                 /*deadline_millis=*/1000,
                                 /*iteration_budget=*/1);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->status.IsTimeout())
      << response->status.ToString();
  server.Stop();
}

TEST(ServerTest, QueueWaitCountsAgainstDeadline) {
  // Deadline propagation: the client budget is end-to-end, so time
  // spent waiting in the admission queue comes off the selection
  // budget. With an injected ManualClock the wait is simulated
  // deterministically: pin the single worker in a delayed write, queue
  // a request, advance the clock past its whole budget, and the worker
  // must answer Timeout without doing any selection work.
  Testbed testbed = BuildTestbed(SmallTestbed());
  common::ManualClock clock;
  node::FaultInjector faults(5);
  ServerConfig config;
  config.socket_path = TestSocketPath("queuewait");
  config.workers = 1;
  config.clock = &clock;
  config.faults = &faults;
  Server server(testbed.node.get(), config);
  ASSERT_TRUE(server.Start().ok());

  faults.ArmTransportFaults(
      1, {node::FaultInjector::TransportFault::kDelayResponse},
      /*delay_millis=*/200);
  auto pinned = Client::Connect(config.socket_path);
  ASSERT_TRUE(pinned.ok());
  std::thread pinned_call([&] {
    auto response = pinned->Select(testbed.targets.front(), {2.0, 2});
    EXPECT_TRUE(response.ok());
  });
  // Wait until the worker has picked the pinned request up (queue-wait
  // is recorded at pickup) and entered the delayed write, then queue a
  // second request and advance time past any budget it could carry.
  ASSERT_TRUE(WaitUntil(
      [&] { return server.StatsSnapshot().queue_wait_micros.count() >= 1; }));
  auto waiter = Client::Connect(config.socket_path);
  ASSERT_TRUE(waiter.ok());
  std::thread waiter_call([&] {
    auto response =
        waiter->Select(testbed.targets.back(), {2.0, 2}, 500);
    ASSERT_TRUE(response.ok());
    EXPECT_TRUE(response->status.IsTimeout())
        << response->status.ToString();
    EXPECT_NE(response->status.message().find("admission queue"),
              std::string::npos);
  });
  // The waiter is admitted by the reader thread even while the single
  // worker is pinned; only then is the clock advanced.
  ASSERT_TRUE(
      WaitUntil([&] { return server.StatsSnapshot().admitted >= 2; }));
  clock.AdvanceSeconds(10.0);
  pinned_call.join();
  waiter_call.join();
  EXPECT_EQ(server.StatsSnapshot().timeouts, 1u);
  server.Stop();
}

TEST(ServerTest, MalformedPayloadAnsweredTypedThenConnectionDropped) {
  Testbed testbed = BuildTestbed(SmallTestbed());
  ServerConfig config;
  config.socket_path = TestSocketPath("malformed");
  Server server(testbed.node.get(), config);
  ASSERT_TRUE(server.Start().ok());

  auto fd = ConnectUnix(config.socket_path);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(SetRecvTimeout(fd.value(), 5000).ok());
  // A well-framed but garbage payload: answered InvalidArgument, then
  // the server tears the connection down (the stream may be desynced).
  ASSERT_TRUE(WriteFrame(fd.value(), "garbage payload").ok());
  std::string payload;
  ASSERT_TRUE(ReadFrame(fd.value(), &payload).ok());
  Response response;
  ASSERT_TRUE(DecodeResponse(payload, &response).ok());
  EXPECT_TRUE(response.status.IsInvalidArgument());
  // Next read observes eof: connection closed by the server.
  std::string next;
  EXPECT_TRUE(ReadFrame(fd.value(), &next).IsIoError());

  EXPECT_EQ(server.StatsSnapshot().decode_errors, 1u);
  server.Stop();
}

TEST(ServerTest, OverloadShedsTypedOverloadedResponses) {
  Testbed testbed = BuildTestbed(SmallTestbed());
  PinClock clock;
  ServerConfig config;
  config.socket_path = TestSocketPath("overload");
  config.workers = 1;
  config.queue_capacity = 2;
  config.clock = &clock;
  Server server(testbed.node.get(), config);
  ASSERT_TRUE(server.Start().ok());

  // Pin the single worker on the request it picks up, then flood the
  // 2-slot queue from a second connection: everything past the queue
  // capacity must shed with a typed Overloaded, immediately.
  auto pinned = Client::Connect(config.socket_path);
  ASSERT_TRUE(pinned.ok());
  clock.Arm();
  std::thread pinned_call([&] {
    auto response = pinned->Select(testbed.targets.front(), {2.0, 2});
    EXPECT_TRUE(response.ok());
  });

  auto flood = ConnectUnix(config.socket_path);
  ASSERT_TRUE(flood.ok());
  ASSERT_TRUE(SetRecvTimeout(flood.value(), 5000).ok());
  ASSERT_TRUE(WaitUntil([&] { return clock.holding(); }));
  constexpr int kFlood = 10;
  for (int i = 0; i < kFlood; ++i) {
    Request request;
    request.op = Op::kSelect;
    request.request_id = 100 + i;
    request.target = testbed.targets.front();
    request.requirement = {2.0, 2};
    ASSERT_TRUE(WriteFrame(flood.value(), EncodeRequest(request)).ok());
  }
  // Release the worker only once every flood frame was admitted or shed.
  ASSERT_TRUE(WaitUntil([&] {
    ServerStats stats = server.StatsSnapshot();
    return stats.admitted + stats.shed_overloaded >= 1 + kFlood;
  }));
  clock.Release();
  int ok = 0, overloaded = 0, timed_out = 0, other = 0;
  for (int i = 0; i < kFlood; ++i) {
    std::string payload;
    if (!ReadFrame(flood.value(), &payload).ok()) break;
    Response response;
    if (!DecodeResponse(payload, &response).ok()) break;
    if (response.status.ok()) {
      ++ok;
    } else if (response.status.IsResourceExhausted()) {
      ++overloaded;
    } else if (response.status.IsTimeout()) {
      // Queued behind the pinned worker long enough to spend its whole
      // budget waiting: deadline propagation answering before work.
      ++timed_out;
    } else {
      ADD_FAILURE() << "unexpected verdict: "
                    << response.status.ToString();
      ++other;
    }
  }
  pinned_call.join();
  EXPECT_EQ(ok + overloaded + timed_out + other, kFlood);
  // At most queue_capacity requests fit behind the pinned worker; the
  // rest must have shed immediately with a typed Overloaded.
  EXPECT_GE(overloaded,
            kFlood - static_cast<int>(config.queue_capacity) - 1);
  EXPECT_EQ(server.StatsSnapshot().shed_overloaded,
            static_cast<uint64_t>(overloaded));
  server.Stop();
}

TEST(ServerTest, ClientSkipsDuplicatedResponses) {
  Testbed testbed = BuildTestbed(SmallTestbed());
  node::FaultInjector faults(2);
  ServerConfig config;
  config.socket_path = TestSocketPath("dup");
  config.faults = &faults;
  Server server(testbed.node.get(), config);
  ASSERT_TRUE(server.Start().ok());

  auto client = Client::Connect(config.socket_path);
  ASSERT_TRUE(client.ok());
  faults.ArmTransportFaults(
      1, {node::FaultInjector::TransportFault::kDuplicateResponse});
  auto first = client->Select(testbed.targets.front(), {2.0, 2});
  ASSERT_TRUE(first.ok());
  // The duplicate of the first response is still buffered; the next
  // call must skip it (stale id) and find its own response.
  auto second = client->Select(testbed.targets.back(), {2.0, 2});
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(faults.transport_faults_injected(), 1u);
  server.Stop();
}

TEST(ServerTest, ClientRecoversFromDroppedConnectionViaRetry) {
  Testbed testbed = BuildTestbed(SmallTestbed());
  node::FaultInjector faults(3);
  ServerConfig config;
  config.socket_path = TestSocketPath("drop");
  config.faults = &faults;
  Server server(testbed.node.get(), config);
  ASSERT_TRUE(server.Start().ok());

  ClientOptions options;
  options.retry.max_attempts = 3;
  auto client = Client::Connect(config.socket_path, options);
  ASSERT_TRUE(client.ok());
  faults.ArmTransportFaults(
      1, {node::FaultInjector::TransportFault::kDropConnection});
  auto response = client->Select(testbed.targets.front(), {2.0, 2});
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(client->connected());
  server.Stop();
}

TEST(ServerTest, ClientRecoversFromCorruptedFrameViaRetry) {
  Testbed testbed = BuildTestbed(SmallTestbed());
  node::FaultInjector faults(4);
  ServerConfig config;
  config.socket_path = TestSocketPath("corrupt");
  config.faults = &faults;
  Server server(testbed.node.get(), config);
  ASSERT_TRUE(server.Start().ok());

  ClientOptions options;
  options.retry.max_attempts = 3;
  options.recv_timeout_millis = 1000;
  auto client = Client::Connect(config.socket_path, options);
  ASSERT_TRUE(client.ok());
  faults.ArmTransportFaults(
      1, {node::FaultInjector::TransportFault::kCorruptFrame});
  // The corrupted response is detected (checksum / decode), the client
  // reconnects and the retry succeeds — never a misparsed ring.
  auto response = client->Select(testbed.targets.front(), {2.0, 2});
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->status.ok()) << response->status.ToString();
  server.Stop();
}

TEST(ServerTest, FaultInjectedSoakEveryRequestResolvesTyped) {
  Testbed testbed = BuildTestbed(SmallTestbed());
  node::FaultInjector faults(99);
  ServerConfig config;
  config.socket_path = TestSocketPath("soak");
  config.workers = 2;
  config.queue_capacity = 16;
  config.faults = &faults;
  Server server(testbed.node.get(), config);
  ASSERT_TRUE(server.Start().ok());
  faults.ArmTransportFaultRate(0.05);  // all five families

  constexpr int kThreads = 3;
  constexpr int kPerThread = 60;
  std::atomic<int> resolved{0};
  std::atomic<int> transport_failures{0};
  std::vector<std::thread> drivers;
  for (int t = 0; t < kThreads; ++t) {
    drivers.emplace_back([&, t] {
      ClientOptions options;
      options.retry.max_attempts = 4;
      options.recv_timeout_millis = 1000;
      auto client = Client::Connect(config.socket_path, options);
      ASSERT_TRUE(client.ok());
      for (int i = 0; i < kPerThread; ++i) {
        chain::TokenId target =
            testbed.targets[(t * kPerThread + i) % testbed.targets.size()];
        auto response = client->Select(target, {2.0, 2}, 500);
        // Typed resolution either way: a Response verdict, or a typed
        // transport error after retries (never a hang, never a crash).
        if (response.ok()) {
          resolved.fetch_add(1);
        } else {
          ASSERT_TRUE(response.status().IsIoError() ||
                      response.status().IsTimeout())
              << response.status().ToString();
          transport_failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : drivers) t.join();
  EXPECT_EQ(resolved.load() + transport_failures.load(),
            kThreads * kPerThread);
  // The vast majority must resolve despite injected faults.
  EXPECT_GT(resolved.load(), kThreads * kPerThread * 8 / 10);
  EXPECT_GT(faults.transport_faults_injected(), 0u);
  server.Stop();
}

}  // namespace
}  // namespace tokenmagic::rpc
