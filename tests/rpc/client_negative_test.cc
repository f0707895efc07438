// Negative-path transport coverage against a hand-rolled fake server:
// the real daemon's fault injector perturbs responses it *writes*, but
// a server can also die partway through a frame or before answering at
// all. The client must classify both as typed IoError and reconnect on
// retry — never hang, never misparse the torn bytes.
#include <unistd.h>

#include <string>
#include <thread>

#include "common/strings.h"
#include "gtest/gtest.h"
#include "rpc/client.h"
#include "rpc/protocol.h"
#include "rpc/socket_io.h"

namespace tokenmagic::rpc {
namespace {

std::string TestSocketPath(const char* name) {
  return common::StrFormat("/tmp/tm_rpc_%d_%s.sock",
                           static_cast<int>(getpid()), name);
}

/// Reads one request on `conn` (through `reader`, the connection's one
/// frame reader) and answers it with a well-formed Ping response
/// carrying `message`.
void AnswerPing(const Fd& conn, FrameReader* reader,
                const std::string& message) {
  std::string payload;
  ASSERT_TRUE(reader->Read(conn, &payload).ok());
  Request request;
  ASSERT_TRUE(DecodeRequest(payload, &request).ok());
  Response response;
  response.request_id = request.request_id;
  response.status = common::Status(common::StatusCode::kOk, message);
  ASSERT_TRUE(WriteFrame(conn, EncodeResponse(response)).ok());
}

TEST(ClientNegativeTest, ReconnectsWhenServerDiesMidFrame) {
  std::string path = TestSocketPath("midframe");
  auto listener = ListenUnix(path);
  ASSERT_TRUE(listener.ok());

  std::thread fake([&] {
    // Connection 1: read the request, then start a frame whose header
    // promises 32 payload bytes, deliver only 10, and die. The client's
    // body read hits eof mid-frame.
    auto conn = Accept(listener.value());
    ASSERT_TRUE(conn.ok());
    FrameReader reader;
    std::string payload;
    ASSERT_TRUE(reader.Read(conn.value(), &payload).ok());
    std::string torn("\x20\x00\x00\x00", 4);  // len = 32
    torn += std::string(8, '\x11');           // checksum (never checked)
    torn += std::string(10, 'x');             // 10 of the 32 body bytes
    ASSERT_TRUE(WriteAll(conn.value(), torn).ok());
    conn.value().Close();

    // Connection 2: the retried request gets a proper answer.
    auto conn2 = Accept(listener.value());
    ASSERT_TRUE(conn2.ok());
    FrameReader reader2;
    AnswerPing(conn2.value(), &reader2, "recovered");
  });

  ClientOptions options;
  options.retry.max_attempts = 3;
  options.recv_timeout_millis = 5000;
  auto client = Client::Connect(path, options);
  ASSERT_TRUE(client.ok());
  auto pong = client->Ping();
  fake.join();
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(pong.value(), "recovered");
  EXPECT_TRUE(client->connected());
}

TEST(ClientNegativeTest, ReconnectsWhenServerDiesBeforeAnswering) {
  std::string path = TestSocketPath("noanswer");
  auto listener = ListenUnix(path);
  ASSERT_TRUE(listener.ok());

  std::thread fake([&] {
    // Connection 1: swallow the request and close without a byte —
    // clean eof at a frame boundary, still a transport failure for a
    // request awaiting its response.
    auto conn = Accept(listener.value());
    ASSERT_TRUE(conn.ok());
    FrameReader reader;
    std::string payload;
    ASSERT_TRUE(reader.Read(conn.value(), &payload).ok());
    conn.value().Close();

    auto conn2 = Accept(listener.value());
    ASSERT_TRUE(conn2.ok());
    FrameReader reader2;
    AnswerPing(conn2.value(), &reader2, "second try");
  });

  ClientOptions options;
  options.retry.max_attempts = 3;
  options.recv_timeout_millis = 5000;
  auto client = Client::Connect(path, options);
  ASSERT_TRUE(client.ok());
  auto pong = client->Ping();
  fake.join();
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(pong.value(), "second try");
}

TEST(ClientNegativeTest, ReconnectDiscardsBufferedBytes) {
  std::string path = TestSocketPath("stalebuffer");
  auto listener = ListenUnix(path);
  ASSERT_TRUE(listener.ok());

  std::thread fake([&] {
    // Connection 1: answer the first request (id 1) with a frame for a
    // newer id, which desyncs the client, and in the same write a
    // well-formed answer for id 2, the id its retry will carry. Both
    // land in the client's buffer in one recv; the reconnect must drop
    // the second instead of reading it as the new connection's answer.
    auto conn = Accept(listener.value());
    ASSERT_TRUE(conn.ok());
    FrameReader reader;
    std::string payload;
    ASSERT_TRUE(reader.Read(conn.value(), &payload).ok());
    Response desync;
    desync.request_id = 99;
    desync.status = common::Status(common::StatusCode::kOk, "desync");
    Response stale;
    stale.request_id = 2;
    stale.status = common::Status(common::StatusCode::kOk, "stale");
    ASSERT_TRUE(WriteAll(conn.value(), EncodeFrame(EncodeResponse(desync)) +
                                           EncodeFrame(EncodeResponse(stale)))
                    .ok());

    // Connection 2: the retry (id 2) gets the real answer.
    auto conn2 = Accept(listener.value());
    ASSERT_TRUE(conn2.ok());
    FrameReader reader2;
    AnswerPing(conn2.value(), &reader2, "fresh");
  });

  ClientOptions options;
  options.retry.max_attempts = 2;
  options.recv_timeout_millis = 5000;
  auto client = Client::Connect(path, options);
  ASSERT_TRUE(client.ok());
  auto pong = client->Ping();
  fake.join();
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(pong.value(), "fresh");
}

TEST(ClientNegativeTest, ExhaustedRetriesSurfaceTypedIoError) {
  std::string path = TestSocketPath("alwaysdies");
  auto listener = ListenUnix(path);
  ASSERT_TRUE(listener.ok());

  std::thread fake([&] {
    // Every connection dies mid-frame; the client must give up with a
    // typed transport error after its budget, not loop forever.
    for (int i = 0; i < 2; ++i) {
      auto conn = Accept(listener.value());
      ASSERT_TRUE(conn.ok());
      FrameReader reader;
      std::string payload;
      ASSERT_TRUE(reader.Read(conn.value(), &payload).ok());
      ASSERT_TRUE(WriteAll(conn.value(), std::string("\x08\x00", 2)).ok());
      conn.value().Close();
    }
  });

  ClientOptions options;
  options.retry.max_attempts = 2;
  options.recv_timeout_millis = 5000;
  auto client = Client::Connect(path, options);
  ASSERT_TRUE(client.ok());
  auto pong = client->Ping();
  fake.join();
  ASSERT_FALSE(pong.ok());
  EXPECT_TRUE(pong.status().IsIoError()) << pong.status().ToString();
}

}  // namespace
}  // namespace tokenmagic::rpc
