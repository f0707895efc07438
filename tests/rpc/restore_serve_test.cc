// Snapshot-restore → serve round trip: a node's persisted snapshot must
// come back byte-identical through a FileNodeHost-backed server, and a
// corrupted snapshot must fail typed at Open — the host never serves a
// half-restored ledger. This is the crash-recovery contract the regtest
// harness's Kill/Restart steps lean on.
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/strings.h"
#include "crypto/sha256.h"
#include "gtest/gtest.h"
#include "node/fault_injection.h"
#include "node/snapshot.h"
#include "node/wallet.h"
#include "rpc/client.h"
#include "rpc/server.h"
#include "rpc/testbed.h"
#include "support/crafted_snapshot.h"
#include "testnet/node_host.h"

namespace tokenmagic::testnet {
namespace {

std::string TestPath(const char* name, const char* ext) {
  return common::StrFormat("/tmp/tm_restore_%d_%s.%s",
                           static_cast<int>(getpid()), name, ext);
}

rpc::Testbed SmallTestbed() {
  rpc::TestbedConfig config;
  config.num_wallets = 6;
  config.tokens_per_wallet = 4;
  config.cluster_size = 2;
  config.spend_rounds = 1;
  config.seed = 11;
  return rpc::BuildTestbed(config);
}

std::string ReadFileOrDie(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string out;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

void WriteFileOrDie(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

TEST(RestoreServeTest, GoodSnapshotRoundTripsByteIdenticalOverTheWire) {
  rpc::Testbed testbed = SmallTestbed();
  std::string expected = node::SnapshotToString(*testbed.node);
  std::string path = TestPath("good", "snapshot");
  ASSERT_TRUE(node::SaveSnapshot(*testbed.node, path).ok());

  auto host = FileNodeHost::Open(path, {});
  ASSERT_TRUE(host.ok()) << host.status().ToString();

  rpc::ServerConfig config;
  config.socket_path = TestPath("good", "sock");
  rpc::Server server(host.value().get(), config);
  ASSERT_TRUE(server.Start().ok());

  auto client = rpc::Client::Connect(config.socket_path);
  ASSERT_TRUE(client.ok());
  auto fetched = client->FetchSnapshot();
  ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
  // Byte-for-byte: the restore reproduced the exact serialized state.
  EXPECT_EQ(fetched.value(), expected);
  auto digest = client->SnapshotDigest();
  ASSERT_TRUE(digest.ok());
  EXPECT_EQ(digest.value(), crypto::Sha256Hex(expected));
  server.Stop();
}

TEST(RestoreServeTest, CorruptSnapshotFailsTypedAtOpen) {
  rpc::Testbed testbed = SmallTestbed();
  std::string path = TestPath("corrupt", "snapshot");
  ASSERT_TRUE(node::SaveSnapshot(*testbed.node, path).ok());
  std::string good = ReadFileOrDie(path);

  node::FaultInjector faults(21);
  struct Case {
    const char* name;
    std::string bytes;
  } cases[] = {
      {"flipped", faults.CorruptBytes(good, 8)},
      {"truncated", faults.TruncateBytes(good)},
      {"duplicated", faults.DuplicateLine(good)},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ASSERT_NE(c.bytes, good);
    WriteFileOrDie(path, c.bytes);
    auto host = FileNodeHost::Open(path, {});
    // Typed refusal, never a half-restored serving node.
    ASSERT_FALSE(host.ok());
    EXPECT_TRUE(host.status().IsIoError()) << host.status().ToString();
  }

  // The uncorrupted bytes still open: the failure was the corruption,
  // not the fixture.
  WriteFileOrDie(path, good);
  auto host = FileNodeHost::Open(path, {});
  ASSERT_TRUE(host.ok()) << host.status().ToString();
  EXPECT_EQ(node::SnapshotToString(*host.value()->mutable_node()), good);
}

TEST(RestoreServeTest, InstallingRingOfUnmintedTokenFailsTypedAndKeepsServing) {
  // The blob passes every checksum, but its first ring names a token the
  // chain never minted: the install must fail typed, and the server must
  // keep serving the node it had.
  rpc::Testbed testbed = SmallTestbed();
  std::string path = TestPath("unminted", "snapshot");
  ASSERT_TRUE(node::SaveSnapshot(*testbed.node, path).ok());
  auto host = FileNodeHost::Open(path, {});
  ASSERT_TRUE(host.ok()) << host.status().ToString();
  node::Node* live = host.value()->mutable_node();
  std::string crafted =
      test_support::WithRsMembers(node::SnapshotToString(*live), 0, "99999");
  ASSERT_FALSE(crafted.empty());

  rpc::ServerConfig config;
  config.socket_path = TestPath("unminted", "sock");
  rpc::Server server(host.value().get(), config);
  ASSERT_TRUE(server.Start().ok());
  auto client = rpc::Client::Connect(config.socket_path);
  ASSERT_TRUE(client.ok());
  auto installed = client->InstallSnapshot(crafted);
  ASSERT_TRUE(installed.ok()) << installed.status().ToString();
  EXPECT_FALSE(installed.value().status.ok());
  EXPECT_EQ(host.value()->mutable_node(), live);
  EXPECT_TRUE(client->Ping().ok());
  server.Stop();
}

TEST(RestoreServeTest, InstallingIdenticalSnapshotKeepsCachedAnalysis) {
  // Installing a snapshot of the state the node already serves must not
  // replace the node: a replacement would drop every cached analysis
  // snapshot and epoch chain for nothing (the full-invalidation hammer).
  rpc::Testbed testbed = SmallTestbed();
  std::string path = TestPath("idem", "snapshot");
  ASSERT_TRUE(node::SaveSnapshot(*testbed.node, path).ok());

  auto host = FileNodeHost::Open(path, {});
  ASSERT_TRUE(host.ok()) << host.status().ToString();
  node::Node* live = host.value()->mutable_node();
  std::string blob = node::SnapshotToString(*live);
  auto cached = live->AnalysisSnapshotShared(0);

  rpc::ServerConfig config;
  config.socket_path = TestPath("idem", "sock");
  rpc::Server server(host.value().get(), config);
  ASSERT_TRUE(server.Start().ok());
  auto client = rpc::Client::Connect(config.socket_path);
  ASSERT_TRUE(client.ok());
  auto installed = client->InstallSnapshot(blob);
  ASSERT_TRUE(installed.ok()) << installed.status().ToString();
  ASSERT_TRUE(installed.value().status.ok())
      << installed.value().status.ToString();

  // Digest matched: same node object, and the cached snapshot survived
  // (pointer identity, not just equal contents).
  EXPECT_EQ(host.value()->mutable_node(), live);
  EXPECT_EQ(live->AnalysisSnapshotShared(0).get(), cached.get());
  server.Stop();
}

TEST(RestoreServeTest, RestartAfterMutationsRestoresPersistedState) {
  // Serve mutations through the host, snapshot over the wire, tear the
  // server down (hard stop), reopen from disk: the reopened node must
  // serve exactly the state the last acknowledged mutation persisted.
  std::string path = TestPath("restart", "snapshot");
  std::remove(path.c_str());
  auto host = FileNodeHost::Open(path, {});
  ASSERT_TRUE(host.ok());

  rpc::ServerConfig config;
  config.socket_path = TestPath("restart", "sock");
  std::string before_kill;
  {
    rpc::Server server(host.value().get(), config);
    ASSERT_TRUE(server.Start().ok());
    auto client = rpc::Client::Connect(config.socket_path);
    ASSERT_TRUE(client.ok());

    std::vector<std::vector<crypto::Point>> grants;
    node::Wallet wallet("w", host.value()->mutable_node(), 99);
    grants.push_back({wallet.NewOutputKey(), wallet.NewOutputKey()});
    grants.push_back({wallet.NewOutputKey(), wallet.NewOutputKey()});
    auto minted = client->Genesis(grants);
    ASSERT_TRUE(minted.ok()) << minted.status().ToString();
    auto mined = client->Mine();
    ASSERT_TRUE(mined.ok()) << mined.status().ToString();
    auto digest = client->SnapshotDigest();
    ASSERT_TRUE(digest.ok());
    before_kill = digest.value();
    server.Stop();
  }

  auto reopened = FileNodeHost::Open(path, {});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  std::string restored =
      node::SnapshotToString(*reopened.value()->mutable_node());
  EXPECT_EQ(crypto::Sha256Hex(restored), before_kill);
}

}  // namespace
}  // namespace tokenmagic::testnet
