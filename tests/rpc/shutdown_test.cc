// Graceful-shutdown regression: Stop() while clients are mid-flight
// must (a) complete every in-flight selection, (b) answer everything
// still queued with a typed Cancelled, (c) never silently drop an
// admitted request, and (d) join every thread. Runs in the
// `concurrency` ctest label so the TSan CI lane exercises the drain
// under the race detector.
#include <unistd.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "gtest/gtest.h"
#include "rpc/client.h"
#include "rpc/pin_clock.h"
#include "rpc/server.h"
#include "rpc/testbed.h"

namespace tokenmagic::rpc {
namespace {

std::string TestSocketPath(const char* name) {
  return common::StrFormat("/tmp/tm_rpc_%d_%s.sock",
                           static_cast<int>(getpid()), name);
}

TEST(ShutdownTest, StopWithoutTrafficJoinsCleanly) {
  Testbed testbed = BuildTestbed({});
  ServerConfig config;
  config.socket_path = TestSocketPath("idle");
  config.workers = 3;
  Server server(testbed.node.get(), config);
  ASSERT_TRUE(server.Start().ok());
  server.Stop();
  server.Stop();  // idempotent
  // The socket is gone: connects must fail, not hang.
  EXPECT_FALSE(ConnectUnix(config.socket_path).ok());
}

TEST(ShutdownTest, DestructorStopsARunningServer) {
  Testbed testbed = BuildTestbed({});
  ServerConfig config;
  config.socket_path = TestSocketPath("dtor");
  {
    Server server(testbed.node.get(), config);
    ASSERT_TRUE(server.Start().ok());
    auto client = Client::Connect(config.socket_path);
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client->Ping().ok());
  }  // ~Server must drain and join, not crash or hang
  EXPECT_FALSE(ConnectUnix(config.socket_path).ok());
}

TEST(ShutdownTest, DrainResolvesEveryIssuedRequestTyped) {
  Testbed testbed = BuildTestbed({});
  ServerConfig config;
  config.socket_path = TestSocketPath("drain");
  config.workers = 2;
  config.queue_capacity = 8;
  Server server(testbed.node.get(), config);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kThreads = 6;
  std::atomic<bool> stop_flag{false};
  std::atomic<int> issued{0};
  std::atomic<int> resolved_verdict{0};  // got a Response (any status)
  std::atomic<int> resolved_transport{0};  // typed transport error
  std::atomic<int> got_cancelled{0};

  std::vector<std::thread> drivers;
  for (int t = 0; t < kThreads; ++t) {
    drivers.emplace_back([&, t] {
      ClientOptions options;
      options.retry.max_attempts = 1;  // no retries: count raw verdicts
      options.recv_timeout_millis = 5000;
      auto client = Client::Connect(config.socket_path, options);
      if (!client.ok()) return;
      for (int i = 0; i < 10000 && !stop_flag.load(); ++i) {
        chain::TokenId target =
            testbed.targets[(t + i) % testbed.targets.size()];
        issued.fetch_add(1);
        auto response = client->Select(target, {2.0, 2}, 500);
        if (response.ok()) {
          resolved_verdict.fetch_add(1);
          if (response->status.IsCancelled()) got_cancelled.fetch_add(1);
          // During a drain the only legal verdicts are the typed ones.
          EXPECT_TRUE(response->status.ok() ||
                      response->status.IsCancelled() ||
                      response->status.IsTimeout() ||
                      response->status.IsUnsatisfiable() ||
                      response->status.IsResourceExhausted())
              << response->status.ToString();
        } else {
          // Torn connection at drain: typed transport error, then done.
          EXPECT_TRUE(response.status().IsIoError() ||
                      response.status().IsTimeout())
              << response.status().ToString();
          resolved_transport.fetch_add(1);
          return;
        }
      }
    });
  }

  // Wait for a fixed amount of admitted traffic (observable counter,
  // not a wall-clock sleep), then pull the plug mid-flight.
  for (int spin = 0;
       spin < 5000 && server.StatsSnapshot().admitted < 32; ++spin) {
    // tm-lint: allow(test-sleep, bounded poll interval on a counter)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(server.StatsSnapshot().admitted, 32u);
  server.Stop();
  stop_flag.store(true);
  for (auto& t : drivers) t.join();

  // Every issued request resolved one way or the other — nothing hung,
  // nothing vanished.
  EXPECT_EQ(resolved_verdict.load() + resolved_transport.load(),
            issued.load());

  // Server-side conservation: every admitted request was resolved by a
  // worker with exactly one typed outcome. Reader-side sheds (Overloaded
  // before admission, Cancelled after the queue closed) add on top.
  ServerStats stats = server.StatsSnapshot();
  uint64_t outcomes = stats.ok + stats.timeouts + stats.unsatisfiable +
                      stats.invalid_argument + stats.internal_errors +
                      stats.cancelled + stats.shed_overloaded;
  EXPECT_GE(outcomes, stats.admitted);
  EXPECT_EQ(stats.internal_errors, 0u);
  // The drain happened mid-flight, so the server processed real work.
  EXPECT_GT(stats.admitted, 0u);
}

TEST(ShutdownTest, StopWithEverySlotBusyCancelsEachQueuedItemOnce) {
  // Both slots hold a pinned Select running on its reader and three
  // more Selects wait in the queue. Stop must answer each queued one
  // Cancelled exactly once (the workers drain them without a slot),
  // let the two in-flight Selects finish and answer, and only then tear
  // the connections down.
  Testbed testbed = BuildTestbed({});
  PinClock clock;
  ServerConfig config;
  config.socket_path = TestSocketPath("busy_stop");
  config.workers = 2;
  config.queue_capacity = 4;
  config.clock = &clock;
  Server server(testbed.node.get(), config);
  ASSERT_TRUE(server.Start().ok());

  std::vector<Client> pinned_clients;
  for (int i = 0; i < 2; ++i) {
    auto client = Client::Connect(config.socket_path);
    ASSERT_TRUE(client.ok());
    pinned_clients.push_back(std::move(client).value());
  }
  std::vector<std::thread> pinned_calls;
  for (int i = 0; i < 2; ++i) {
    clock.Arm();
    pinned_calls.emplace_back([&, i] {
      auto response =
          pinned_clients[i].Select(testbed.targets[i], {2.0, 2});
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      EXPECT_FALSE(response->status.IsCancelled());
    });
    ASSERT_TRUE(WaitUntil([&] { return clock.holding() == i + 1; }));
  }

  auto flood = ConnectUnix(config.socket_path);
  ASSERT_TRUE(flood.ok());
  ASSERT_TRUE(SetRecvTimeout(flood.value(), 5000).ok());
  FrameReader flood_reader;
  constexpr uint64_t kQueued = 3;
  for (uint64_t i = 0; i < kQueued; ++i) {
    Request request;
    request.op = Op::kSelect;
    request.request_id = 100 + i;
    request.target = testbed.targets.front();
    request.requirement = {2.0, 2};
    ASSERT_TRUE(WriteFrame(flood.value(), EncodeRequest(request)).ok());
  }
  ASSERT_TRUE(
      WaitUntil([&] { return server.StatsSnapshot().queued == kQueued; }));

  std::thread stopper([&] { server.Stop(); });
  std::set<uint64_t> cancelled_ids;
  for (uint64_t i = 0; i < kQueued; ++i) {
    std::string payload;
    ASSERT_TRUE(flood_reader.Read(flood.value(), &payload).ok());
    Response response;
    ASSERT_TRUE(DecodeResponse(payload, &response).ok());
    EXPECT_TRUE(response.status.IsCancelled()) << response.status.ToString();
    EXPECT_TRUE(cancelled_ids.insert(response.request_id).second)
        << "request " << response.request_id << " answered twice";
  }
  EXPECT_EQ(cancelled_ids, (std::set<uint64_t>{100, 101, 102}));
  // Stop is now waiting on the two Selects still in their slots.
  clock.Release();
  for (auto& call : pinned_calls) call.join();
  stopper.join();

  // No second answer follows: the connection ends at a frame boundary.
  std::string extra;
  common::Status tail = flood_reader.Read(flood.value(), &extra);
  EXPECT_TRUE(tail.IsIoError()) << tail.ToString();
  EXPECT_EQ(tail.message(), "eof");

  ServerStats stats = server.StatsSnapshot();
  EXPECT_EQ(stats.admitted, 2 + kQueued);
  EXPECT_EQ(stats.queued, kQueued);
  EXPECT_EQ(stats.cancelled, kQueued);
  EXPECT_EQ(stats.ok + stats.unsatisfiable, 2u);
  EXPECT_EQ(stats.write_failures, 0u);
}

// Races Stop() against clients riding CallWithRetry's reconnect path:
// the server is yanked mid-flight and a replacement comes up on the
// same socket while every client is inside its retry loop. Under TSan
// this exercises Stop's teardown (listener close, connection close,
// worker join) concurrently with client-side Reconnect(). The contract:
// no call ever resolves untyped, and once the replacement is up the
// surviving retry budgets carry the clients over to it.
TEST(ShutdownTest, StopRacesCallWithRetryReconnect) {
  Testbed testbed = BuildTestbed({});
  ServerConfig config;
  config.socket_path = TestSocketPath("retry_race");
  config.workers = 2;
  config.queue_capacity = 8;

  auto server = std::make_unique<Server>(testbed.node.get(), config);
  ASSERT_TRUE(server->Start().ok());

  constexpr int kThreads = 4;
  std::atomic<bool> stop_flag{false};
  std::atomic<bool> restarted{false};
  std::atomic<int> resolved_after_restart{0};

  std::vector<std::thread> drivers;
  for (int t = 0; t < kThreads; ++t) {
    drivers.emplace_back([&, t] {
      ClientOptions options;
      options.retry.max_attempts = 5;  // reconnect across the restart
      options.recv_timeout_millis = 2000;
      auto client = Client::Connect(config.socket_path, options);
      if (!client.ok()) return;
      for (int i = 0; !stop_flag.load(); ++i) {
        chain::TokenId target =
            testbed.targets[(t + i) % testbed.targets.size()];
        auto response = client->Select(target, {2.0, 2}, 500);
        if (response.ok()) {
          if (restarted.load()) resolved_after_restart.fetch_add(1);
        } else {
          // All attempts torn mid-restart: typed transport error, and
          // the next loop iteration starts a fresh retry budget.
          EXPECT_TRUE(response.status().IsIoError() ||
                      response.status().IsTimeout())
              << response.status().ToString();
        }
      }
    });
  }

  // Let traffic flow (observable counter, not a wall-clock guess), then
  // yank the server out from under the retrying clients.
  for (int spin = 0;
       spin < 5000 && server->StatsSnapshot().admitted < 16; ++spin) {
    // tm-lint: allow(test-sleep, bounded poll interval on a counter)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(server->StatsSnapshot().admitted, 16u);
  server->Stop();
  server.reset();  // destructor teardown races the reconnects too

  Server replacement(testbed.node.get(), config);
  ASSERT_TRUE(replacement.Start().ok());
  restarted.store(true);

  // The reconnecting clients must find the replacement on their own:
  // wait on ITS admitted counter before declaring the handover done.
  for (int spin = 0;
       spin < 5000 && replacement.StatsSnapshot().admitted < 16; ++spin) {
    // tm-lint: allow(test-sleep, bounded poll interval on a counter)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(replacement.StatsSnapshot().admitted, 16u);

  stop_flag.store(true);
  for (auto& t : drivers) t.join();
  replacement.Stop();

  // The retry budgets carried live clients across the restart: calls
  // resolved transport-ok against the replacement.
  EXPECT_GT(resolved_after_restart.load(), 0);
}

}  // namespace
}  // namespace tokenmagic::rpc
