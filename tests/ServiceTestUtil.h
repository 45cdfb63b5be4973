//===- tests/ServiceTestUtil.h - Scripted spld stand-in ---------*- C++ -*-==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A scripted stand-in for spld, used to feed service::Client responses a
/// real daemon never sends: it listens on a Unix socket, accepts one
/// client, answers its first request frame with whatever bytes the test's
/// callback returns, and hangs up — so a reply that promises more bytes
/// than it carries ends in EOF for the client, not a wait.
///
//===----------------------------------------------------------------------===//

#ifndef SPL_TESTS_SERVICETESTUTIL_H
#define SPL_TESTS_SERVICETESTUTIL_H

#include "service/Socket.h"

#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

namespace spl {
namespace test {

/// Encodes one frame (header + body) as raw wire bytes.
inline std::vector<std::uint8_t>
frameBytes(service::MsgType Type, std::uint32_t RequestId,
           const std::vector<std::uint8_t> &Body) {
  service::FrameHeader H;
  H.Type = Type;
  H.RequestId = RequestId;
  H.BodyLen = static_cast<std::uint32_t>(Body.size());
  std::vector<std::uint8_t> Out(service::kHeaderBytes);
  H.encode(Out.data());
  Out.insert(Out.end(), Body.begin(), Body.end());
  return Out;
}

class FakeDaemon {
public:
  /// The reply to the request frame: raw bytes to write.
  using Script =
      std::function<std::vector<std::uint8_t>(const service::Frame &)>;

  FakeDaemon(std::string SocketPath, Script Reply)
      : Path(std::move(SocketPath)) {
    std::string Err;
    ListenFd = service::listenUnix(Path, 1, Err);
    if (ListenFd < 0)
      return;
    Worker = std::thread([this, Reply = std::move(Reply)] {
      ConnFd = ::accept(ListenFd, nullptr, nullptr);
      if (ConnFd < 0)
        return;
      service::Frame F;
      if (service::readFrame(ConnFd, service::kDefaultMaxFrameBytes, F) ==
          service::IoStatus::Ok) {
        std::vector<std::uint8_t> Bytes = Reply(F);
        service::sendAll(ConnFd, Bytes.data(), Bytes.size());
      }
      ::shutdown(ConnFd, SHUT_RDWR);
    });
  }

  ~FakeDaemon() {
    if (ListenFd >= 0)
      ::shutdown(ListenFd, SHUT_RDWR); // Unblocks an accept still waiting.
    if (Worker.joinable())
      Worker.join();
    if (ConnFd >= 0)
      ::close(ConnFd);
    if (ListenFd >= 0)
      ::close(ListenFd);
    ::unlink(Path.c_str());
  }

  FakeDaemon(const FakeDaemon &) = delete;
  FakeDaemon &operator=(const FakeDaemon &) = delete;

  bool listening() const { return ListenFd >= 0; }

private:
  std::string Path;
  int ListenFd = -1;
  int ConnFd = -1;
  std::thread Worker;
};

} // namespace test
} // namespace spl

#endif // SPL_TESTS_SERVICETESTUTIL_H
