// Thin AF_UNIX stream-socket layer under the framed protocol.
//
// Everything here is blocking I/O on local sockets with fail-typed error
// reporting: helpers return common::Status/Result instead of errno
// sentinels, short writes are looped internally, and FrameReader buffers
// the receive side so callers see whole frames or a typed error, never
// partial state. SIGPIPE is avoided with MSG_NOSIGNAL so a peer that
// vanishes mid-write surfaces as a Status, not a process kill.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace tokenmagic::rpc {

/// Owning file descriptor. Closes on destruction; movable, not copyable.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { Close(); }

  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void Close();

  /// shutdown(2) both directions without closing: wakes a thread blocked
  /// in read/write on this fd. Safe to call from another thread.
  void Shutdown();

 private:
  int fd_ = -1;
};

/// Creates, binds, and listens on an AF_UNIX stream socket at `path`
/// (unlinking any stale socket file first).
[[nodiscard]] common::Result<Fd> ListenUnix(const std::string& path,
                                            int backlog = 64);

/// Connects to the AF_UNIX stream socket at `path`.
[[nodiscard]] common::Result<Fd> ConnectUnix(const std::string& path);

/// Accepts one connection. IoError on failure (including listener
/// shutdown, which surfaces as a failed accept).
[[nodiscard]] common::Result<Fd> Accept(const Fd& listener);

/// Arms SO_RCVTIMEO so blocking reads fail with Timeout instead of
/// hanging forever on a silent peer. 0 disables the timeout.
[[nodiscard]] common::Status SetRecvTimeout(const Fd& fd, uint32_t millis);

/// Writes all of `data`, looping over short writes.
[[nodiscard]] common::Status WriteAll(const Fd& fd, std::string_view data);

/// Buffered receive side of one stream connection. Each recv asks for
/// up to kReadChunkBytes (or the whole rest of a larger frame), and
/// frames are cut from the buffer by ExtractFrame, so a frame
/// that arrives whole costs one recv and frames coalesced into one recv
/// cost one between them. One reader per connection, kept for the
/// connection's life: bytes it buffered belong to the frames after the
/// one just returned. Not thread-safe.
class FrameReader {
 public:
  static constexpr size_t kReadChunkBytes = 4096;

  /// Reads the next frame's payload (length bounded by kMaxFrameBytes,
  /// checksum verified). kIoError "eof" when the peer closed at a frame
  /// boundary and "eof mid-message ..." inside a frame; kTimeout when
  /// SO_RCVTIMEO expired (bytes received so far stay buffered);
  /// InvalidArgument for a bad header or a checksum mismatch.
  [[nodiscard]] common::Status Read(const Fd& fd, std::string* payload);

  /// Drops every buffered byte; call when the connection is closed or
  /// replaced, so no byte of the old stream is read as the new one's.
  void Reset();

  /// Bytes received but not yet returned in a frame.
  size_t buffered() const { return end_ - begin_; }
  /// recv calls made so far (one per frame when frames arrive whole).
  uint64_t recvs() const { return recvs_; }

 private:
  /// Storage; [begin_, end_) is received but unread.
  std::string buffer_;
  size_t begin_ = 0;
  size_t end_ = 0;
  uint64_t recvs_ = 0;
};

/// Frames and writes one payload.
[[nodiscard]] common::Status WriteFrame(const Fd& fd,
                                        std::string_view payload);

}  // namespace tokenmagic::rpc
