#include "rpc/socket_io.h"

#include <sys/socket.h>
#include <sys/types.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/strings.h"
#include "rpc/protocol.h"

namespace tokenmagic::rpc {

namespace {

using common::Status;

Status Errno(const char* what) {
  return Status::IoError(common::StrFormat("%s: %s", what, strerror(errno)));
}

Status FillSockaddr(const std::string& path, sockaddr_un* addr) {
  if (path.empty() || path.size() >= sizeof(addr->sun_path)) {
    return Status::InvalidArgument(common::StrFormat(
        "socket path length %zu outside [1, %zu)", path.size(),
        sizeof(addr->sun_path)));
  }
  memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return Status::OK();
}

}  // namespace

void Fd::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Fd::Shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

common::Result<Fd> ListenUnix(const std::string& path, int backlog) {
  sockaddr_un addr;
  TM_RETURN_NOT_OK(FillSockaddr(path, &addr));
  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) return Errno("socket");
  ::unlink(path.c_str());  // stale socket file from a previous run
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Errno("bind");
  }
  if (::listen(fd.get(), backlog) != 0) return Errno("listen");
  return fd;
}

common::Result<Fd> ConnectUnix(const std::string& path) {
  sockaddr_un addr;
  TM_RETURN_NOT_OK(FillSockaddr(path, &addr));
  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) return Errno("socket");
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    return Errno("connect");
  }
  return fd;
}

common::Result<Fd> Accept(const Fd& listener) {
  int fd = ::accept(listener.get(), nullptr, nullptr);
  if (fd < 0) return Errno("accept");
  return Fd(fd);
}

common::Status SetRecvTimeout(const Fd& fd, uint32_t millis) {
  timeval tv;
  tv.tv_sec = millis / 1000;
  tv.tv_usec = static_cast<suseconds_t>(millis % 1000) * 1000;
  if (::setsockopt(fd.get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    return Errno("setsockopt(SO_RCVTIMEO)");
  }
  return Status::OK();
}

common::Status WriteAll(const Fd& fd, std::string_view data) {
  size_t written = 0;
  while (written < data.size()) {
    ssize_t n = ::send(fd.get(), data.data() + written, data.size() - written,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    if (n == 0) return Status::IoError("send: wrote 0 bytes");
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

common::Status FrameReader::Read(const Fd& fd, std::string* payload) {
  for (;;) {
    const size_t unread = end_ - begin_;
    auto extent =
        ExtractFrame(std::string_view(buffer_.data() + begin_, unread),
                     payload);
    TM_RETURN_NOT_OK(extent.status());
    if (extent->complete) {
      begin_ += extent->frame_bytes;
      if (begin_ == end_) begin_ = end_ = 0;
      return Status::OK();
    }
    // Ask for the rest of this frame, and at least a chunk, in one recv.
    const size_t want =
        std::max(kReadChunkBytes, extent->frame_bytes - unread);
    if (buffer_.size() - end_ < want) {
      std::memmove(buffer_.data(), buffer_.data() + begin_, unread);
      begin_ = 0;
      end_ = unread;
      if (buffer_.size() < end_ + want) buffer_.resize(end_ + want);
    }
    ++recvs_;
    ssize_t r = ::recv(fd.get(), buffer_.data() + end_, want, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::Timeout("recv: receive timeout expired");
      }
      return Errno("recv");
    }
    if (r == 0) {
      return unread == 0 ? Status::IoError("eof")
                         : Status::IoError(common::StrFormat(
                               "eof mid-message after %zu of %zu bytes",
                               unread, extent->frame_bytes));
    }
    end_ += static_cast<size_t>(r);
  }
}

void FrameReader::Reset() {
  std::string().swap(buffer_);
  begin_ = end_ = 0;
}

common::Status WriteFrame(const Fd& fd, std::string_view payload) {
  return WriteAll(fd, EncodeFrame(payload));
}

}  // namespace tokenmagic::rpc
