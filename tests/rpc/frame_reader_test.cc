// FrameReader, the buffered receive side of every connection, over a
// real AF_UNIX socket pair: one recv per frame that arrives whole, frames
// coalesced into one recv, frames trickling in a byte at a time, frames
// larger than a read chunk up to the length bound, typed eof inside a
// header or body, checksum mismatches, and Reset.
#include <sys/socket.h>

#include <string>
#include <thread>

#include "gtest/gtest.h"
#include "rpc/protocol.h"
#include "rpc/socket_io.h"

namespace tokenmagic::rpc {
namespace {

struct SocketPair {
  Fd near;  ///< the FrameReader's end
  Fd far;   ///< the writer's end
};

SocketPair MakeSocketPair() {
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  return {Fd(fds[0]), Fd(fds[1])};
}

TEST(FrameReaderTest, OneRecvPerFrameThatArrivesWhole) {
  SocketPair pair = MakeSocketPair();
  FrameReader reader;
  std::string payload;
  for (int i = 1; i <= 3; ++i) {
    std::string sent = "request number ";
    sent += std::to_string(i);
    ASSERT_TRUE(WriteFrame(pair.far, sent).ok());
    ASSERT_TRUE(reader.Read(pair.near, &payload).ok());
    EXPECT_EQ(payload, sent);
    EXPECT_EQ(reader.recvs(), static_cast<uint64_t>(i));
    EXPECT_EQ(reader.buffered(), 0u);
  }
}

TEST(FrameReaderTest, TwoFramesCoalescedInOneRecv) {
  SocketPair pair = MakeSocketPair();
  std::string second = EncodeFrame("second");
  ASSERT_TRUE(WriteAll(pair.far, EncodeFrame("first") + second).ok());
  FrameReader reader;
  std::string payload;
  ASSERT_TRUE(reader.Read(pair.near, &payload).ok());
  EXPECT_EQ(payload, "first");
  EXPECT_EQ(reader.buffered(), second.size());
  ASSERT_TRUE(reader.Read(pair.near, &payload).ok());
  EXPECT_EQ(payload, "second");
  // Both frames came out of the one recv.
  EXPECT_EQ(reader.recvs(), 1u);
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(FrameReaderTest, FrameWrittenOneByteAtATime) {
  // A 1 ms receive timeout makes each Read return as soon as the byte
  // written before it is consumed, so the frame provably arrives in
  // single-byte recvs and the partial frame survives each Timeout.
  SocketPair pair = MakeSocketPair();
  ASSERT_TRUE(SetRecvTimeout(pair.near, 1).ok());
  std::string frame = EncodeFrame("trickled payload");
  FrameReader reader;
  std::string payload;
  for (size_t i = 0; i + 1 < frame.size(); ++i) {
    ASSERT_TRUE(WriteAll(pair.far, frame.substr(i, 1)).ok());
    EXPECT_TRUE(reader.Read(pair.near, &payload).IsTimeout()) << "byte " << i;
    EXPECT_EQ(reader.buffered(), i + 1);
  }
  ASSERT_TRUE(WriteAll(pair.far, frame.substr(frame.size() - 1)).ok());
  ASSERT_TRUE(reader.Read(pair.near, &payload).ok());
  EXPECT_EQ(payload, "trickled payload");
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(FrameReaderTest, FramesLargerThanTheChunkUpToTheBound) {
  SocketPair pair = MakeSocketPair();
  std::string medium(3 * FrameReader::kReadChunkBytes + 5, 'm');
  std::string largest(kMaxFrameBytes, 'x');
  largest.front() = 'a';
  largest.back() = 'z';
  // The socket buffer is smaller than the largest frame: write it from a
  // second thread while the reader drains it.
  std::thread writer([&] {
    EXPECT_TRUE(WriteAll(pair.far, EncodeFrame(medium) + EncodeFrame("tail") +
                                       EncodeFrame(largest))
                    .ok());
  });
  FrameReader reader;
  std::string payload;
  ASSERT_TRUE(reader.Read(pair.near, &payload).ok());
  EXPECT_EQ(payload, medium);
  ASSERT_TRUE(reader.Read(pair.near, &payload).ok());
  EXPECT_EQ(payload, "tail");
  ASSERT_TRUE(reader.Read(pair.near, &payload).ok());
  EXPECT_EQ(payload, largest);
  writer.join();
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(FrameReaderTest, LengthPastTheBoundFailsBeforeTheBody) {
  SocketPair pair = MakeSocketPair();
  const uint32_t length = kMaxFrameBytes + 1;
  std::string header;
  for (int i = 0; i < 4; ++i) {
    header.push_back(static_cast<char>((length >> (8 * i)) & 0xff));
  }
  header += std::string(8, '\0');
  ASSERT_TRUE(WriteAll(pair.far, header).ok());
  FrameReader reader;
  std::string payload;
  EXPECT_TRUE(reader.Read(pair.near, &payload).IsInvalidArgument());
}

TEST(FrameReaderTest, EofAtFrameBoundaryMidHeaderAndMidBody) {
  std::string frame = EncodeFrame(std::string(32, 'b'));
  std::string payload;
  {
    SocketPair pair = MakeSocketPair();
    ASSERT_TRUE(WriteAll(pair.far, frame).ok());
    pair.far.Close();
    FrameReader reader;
    ASSERT_TRUE(reader.Read(pair.near, &payload).ok());
    common::Status eof = reader.Read(pair.near, &payload);
    EXPECT_TRUE(eof.IsIoError());
    EXPECT_EQ(eof.message(), "eof");
  }
  {
    SocketPair pair = MakeSocketPair();
    ASSERT_TRUE(WriteAll(pair.far, frame.substr(0, 5)).ok());
    pair.far.Close();
    FrameReader reader;
    common::Status eof = reader.Read(pair.near, &payload);
    EXPECT_TRUE(eof.IsIoError());
    EXPECT_EQ(eof.message(), "eof mid-message after 5 of 12 bytes");
  }
  {
    SocketPair pair = MakeSocketPair();
    ASSERT_TRUE(WriteAll(pair.far, frame.substr(0, kFrameHeaderBytes + 10))
                    .ok());
    pair.far.Close();
    FrameReader reader;
    common::Status eof = reader.Read(pair.near, &payload);
    EXPECT_TRUE(eof.IsIoError());
    EXPECT_EQ(eof.message(), "eof mid-message after 22 of 44 bytes");
  }
}

TEST(FrameReaderTest, ChecksumMismatchIsInvalidArgument) {
  SocketPair pair = MakeSocketPair();
  std::string frame = EncodeFrame("payload with a flipped byte");
  frame[kFrameHeaderBytes + 3] =
      static_cast<char>(frame[kFrameHeaderBytes + 3] ^ 0x20);
  ASSERT_TRUE(WriteAll(pair.far, frame).ok());
  FrameReader reader;
  std::string payload;
  common::Status status = reader.Read(pair.near, &payload);
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_EQ(status.message(), "frame checksum mismatch");
  EXPECT_TRUE(payload.empty());
}

TEST(FrameReaderTest, ResetDropsBufferedBytes) {
  SocketPair pair = MakeSocketPair();
  ASSERT_TRUE(
      WriteAll(pair.far, EncodeFrame("kept") + EncodeFrame("dropped")).ok());
  FrameReader reader;
  std::string payload;
  ASSERT_TRUE(reader.Read(pair.near, &payload).ok());
  ASSERT_GT(reader.buffered(), 0u);
  reader.Reset();
  EXPECT_EQ(reader.buffered(), 0u);
  ASSERT_TRUE(WriteFrame(pair.far, "next").ok());
  ASSERT_TRUE(reader.Read(pair.near, &payload).ok());
  EXPECT_EQ(payload, "next");
}

}  // namespace
}  // namespace tokenmagic::rpc
