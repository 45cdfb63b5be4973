//===- service/Socket.cpp - Unix-domain stream transport ----------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Socket.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>

#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

using namespace spl;
using namespace spl::service;

namespace {

/// Fills a sockaddr_un for \p Path; false when the path does not fit (the
/// classic 108-byte sun_path limit).
bool makeAddr(const std::string &Path, sockaddr_un &Addr, std::string &Err) {
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.empty() || Path.size() >= sizeof(Addr.sun_path)) {
    Err = "socket path '" + Path + "' is empty or longer than " +
          std::to_string(sizeof(Addr.sun_path) - 1) + " bytes";
    return false;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  return true;
}

} // namespace

int spl::service::listenUnix(const std::string &Path, int Backlog,
                             std::string &Err) {
  sockaddr_un Addr;
  if (!makeAddr(Path, Addr, Err))
    return -1;
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    Err = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  // A dead daemon's leftover socket file would make bind fail with
  // EADDRINUSE, but unlinking unconditionally would silently hijack the
  // path from a *live* daemon. Probe first: a successful connect() means
  // somebody is serving this path, so refuse; only a stale socket
  // (ECONNREFUSED: file exists, nobody listening) is removed. On any other
  // probe outcome leave the path alone and let bind() report the conflict.
  int Probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Probe >= 0) {
    if (::connect(Probe, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) ==
        0) {
      ::close(Probe);
      ::close(Fd);
      Err = "'" + Path +
            "' already has a live daemon listening; refusing to replace it";
      return -1;
    }
    int ProbeErrno = errno;
    ::close(Probe);
    if (ProbeErrno == ECONNREFUSED)
      ::unlink(Path.c_str());
  }
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    Err = "bind '" + Path + "': " + std::strerror(errno);
    ::close(Fd);
    return -1;
  }
  if (::listen(Fd, Backlog) != 0) {
    Err = "listen '" + Path + "': " + std::strerror(errno);
    ::close(Fd);
    ::unlink(Path.c_str());
    return -1;
  }
  return Fd;
}

int spl::service::connectUnix(const std::string &Path, std::string &Err) {
  sockaddr_un Addr;
  if (!makeAddr(Path, Addr, Err))
    return -1;
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    Err = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    Err = "connect '" + Path + "': " + std::strerror(errno);
    ::close(Fd);
    return -1;
  }
  return Fd;
}

namespace {

/// Sends every byte the \p Count iovecs describe, advancing them past
/// partial writes (EINTR-safe, MSG_NOSIGNAL).
bool sendIov(int Fd, iovec *Iov, int Count) {
  while (Count) {
    msghdr M{};
    M.msg_iov = Iov;
    M.msg_iovlen = static_cast<std::size_t>(Count);
    ssize_t N = ::sendmsg(Fd, &M, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    std::size_t Sent = static_cast<std::size_t>(N);
    while (Count && Sent >= Iov->iov_len) {
      Sent -= Iov->iov_len;
      ++Iov;
      --Count;
    }
    if (Count) {
      Iov->iov_base = static_cast<std::uint8_t *>(Iov->iov_base) + Sent;
      Iov->iov_len -= Sent;
    }
  }
  return true;
}

} // namespace

bool spl::service::sendAll(int Fd, const void *Data, std::size_t Len) {
  iovec Iov{const_cast<void *>(Data), Len};
  return sendIov(Fd, &Iov, Len ? 1 : 0);
}

IoStatus spl::service::recvAll(int Fd, void *Data, std::size_t Len) {
  std::uint8_t *P = static_cast<std::uint8_t *>(Data);
  std::size_t Got = 0;
  while (Got != Len) {
    ssize_t N = ::recv(Fd, P + Got, Len - Got, 0);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return IoStatus::Error;
    }
    if (N == 0)
      return Got == 0 ? IoStatus::Closed : IoStatus::Error;
    Got += static_cast<std::size_t>(N);
  }
  return IoStatus::Ok;
}

void FrameBody::resize(std::size_t NewLen) {
  Len = NewLen;
  Words = Len ? std::make_unique_for_overwrite<double[]>(words()) : nullptr;
}

bool spl::service::writeFrame(int Fd, MsgType Type, std::uint32_t RequestId,
                              const std::vector<std::uint8_t> &Body,
                              std::uint16_t Version, const void *Payload,
                              std::size_t PayloadLen) {
  constexpr std::size_t MaxBody = std::numeric_limits<std::uint32_t>::max();
  if (Body.size() > MaxBody || PayloadLen > MaxBody - Body.size())
    return false;
  FrameHeader H;
  H.Version = Version;
  H.Type = Type;
  H.RequestId = RequestId;
  H.BodyLen = static_cast<std::uint32_t>(Body.size() + PayloadLen);
  std::uint8_t Hdr[kHeaderBytes];
  H.encode(Hdr);
  iovec Iov[3];
  int Count = 0;
  Iov[Count++] = {Hdr, kHeaderBytes};
  if (!Body.empty())
    Iov[Count++] = {const_cast<std::uint8_t *>(Body.data()), Body.size()};
  if (PayloadLen)
    Iov[Count++] = {const_cast<void *>(Payload), PayloadLen};
  return sendIov(Fd, Iov, Count);
}

IoStatus spl::service::readHeader(int Fd, FrameHeader &H) {
  std::uint8_t Hdr[kHeaderBytes];
  IoStatus St = recvAll(Fd, Hdr, kHeaderBytes);
  if (St != IoStatus::Ok)
    return St;
  return FrameHeader::decode(Hdr, H) ? IoStatus::Ok : IoStatus::BadFrame;
}

IoStatus spl::service::readFrame(int Fd, std::uint32_t MaxBodyBytes,
                                 Frame &Out) {
  FrameHeader H;
  IoStatus St = readHeader(Fd, H);
  return St == IoStatus::Ok ? readBody(Fd, H, MaxBodyBytes, Out) : St;
}

IoStatus spl::service::readBody(int Fd, const FrameHeader &H,
                                std::uint32_t MaxBodyBytes, Frame &Out) {
  Out.Type = H.Type;
  Out.RequestId = H.RequestId;
  Out.Version = H.Version;
  if (H.BodyLen > MaxBodyBytes) {
    // Drain and discard so the connection stays usable for the TOO_LARGE
    // reply and whatever the client sends next.
    std::vector<std::uint8_t> Sink(64 << 10);
    std::uint64_t Left = H.BodyLen;
    while (Left) {
      std::size_t Chunk =
          static_cast<std::size_t>(std::min<std::uint64_t>(Left, Sink.size()));
      if (recvAll(Fd, Sink.data(), Chunk) != IoStatus::Ok)
        return IoStatus::Error;
      Left -= Chunk;
    }
    Out.Body.clear();
    return IoStatus::TooBig;
  }
  Out.Body.resize(H.BodyLen);
  if (H.BodyLen == 0)
    return IoStatus::Ok;
  return recvAll(Fd, Out.Body.data(), Out.Body.size()) == IoStatus::Ok
             ? IoStatus::Ok
             : IoStatus::Error;
}
