//===- service/Socket.h - Unix-domain stream transport ----------*- C++ -*-==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Thin POSIX wrappers the service layer builds on: listen/connect on a
/// Unix-domain stream socket, EINTR-safe full reads/writes, and framed
/// message I/O (header validation + body-size caps) in terms of
/// service/Protocol.h. Every failure mode is a returned status — no
/// exceptions, no errno spelunking for callers. SIGPIPE is never raised
/// (MSG_NOSIGNAL); a peer hangup surfaces as Closed.
///
//===----------------------------------------------------------------------===//

#ifndef SPL_SERVICE_SOCKET_H
#define SPL_SERVICE_SOCKET_H

#include "service/Protocol.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace spl {
namespace service {

/// Outcome of one framed read/write.
enum class IoStatus {
  Ok,
  Closed,   ///< Orderly EOF (peer closed between frames) or EPIPE.
  Error,    ///< Syscall failure or a truncated frame mid-message.
  BadFrame, ///< Header failed validation (magic/version) — unrecoverable.
  TooBig,   ///< Body length exceeds the caller's cap; body was not read.
};

/// A received frame body in uninitialized storage (no zero-fill pass over
/// a 16 MB payload that recv is about to overwrite). The body is placed so
/// that it ends on an 8-byte boundary: execute payloads are the body's
/// tail and a whole number of doubles, so they start double-aligned
/// whatever the length of the prefix before them.
class FrameBody {
public:
  /// Discards the contents and makes room for \p NewLen unspecified bytes.
  void resize(std::size_t NewLen);
  void clear() { resize(0); }

  std::uint8_t *data() { return bytes(); }
  const std::uint8_t *data() const { return bytes(); }
  std::size_t size() const { return Len; }
  std::uint8_t operator[](std::size_t I) const { return bytes()[I]; }

  /// The last \p N doubles of the body, in place (N * 8 <= size()).
  double *tail(std::size_t N) { return Words.get() + (words() - N); }

private:
  std::size_t words() const { return (Len + 7) / 8; }
  std::uint8_t *bytes() const {
    auto *Storage = reinterpret_cast<std::uint8_t *>(Words.get());
    return Len ? Storage + (words() * 8 - Len) : Storage;
  }

  std::unique_ptr<double[]> Words;
  std::size_t Len = 0;
};

/// One received frame.
struct Frame {
  MsgType Type = MsgType::PingReq;
  std::uint32_t RequestId = 0;
  /// The protocol revision the peer stamped on the header. The server
  /// decodes the body per this version and echoes it on the response so a
  /// v2 client never sees a version it cannot validate.
  std::uint16_t Version = kProtocolVersion;
  FrameBody Body;
};

/// Creates, binds and listens on a Unix-domain stream socket at \p Path,
/// replacing any stale socket file. Returns the listening fd, or -1 with
/// \p Err describing the failing step.
int listenUnix(const std::string &Path, int Backlog, std::string &Err);

/// Connects to the daemon socket at \p Path. Returns the fd, or -1 with
/// \p Err set.
int connectUnix(const std::string &Path, std::string &Err);

/// Writes all \p Len bytes (EINTR-safe, MSG_NOSIGNAL). False on any error.
bool sendAll(int Fd, const void *Data, std::size_t Len);

/// Reads exactly \p Len bytes. Returns Ok, Closed (clean EOF at offset 0),
/// or Error (mid-buffer EOF or syscall failure).
IoStatus recvAll(int Fd, void *Data, std::size_t Len);

/// Sends one frame: header, \p Body, then \p PayloadLen bytes at
/// \p Payload (caller-owned, sent in place), in one sendmsg loop. \p Version
/// stamps the header — servers pass the request frame's version so old
/// clients can decode the reply. False on any error, or when the body
/// would not fit the header's u32 length.
bool writeFrame(int Fd, MsgType Type, std::uint32_t RequestId,
                const std::vector<std::uint8_t> &Body,
                std::uint16_t Version = kProtocolVersion,
                const void *Payload = nullptr, std::size_t PayloadLen = 0);

/// Reads and validates one frame header: Ok, Closed, Error, or BadFrame
/// (bad magic or version).
IoStatus readHeader(int Fd, FrameHeader &H);

/// Reads one frame, validating the header and capping the body at
/// \p MaxBodyBytes. On TooBig the offending body is consumed (so the
/// caller can answer with a typed error and keep the connection); on
/// BadFrame the stream cannot be resynchronized and must be closed.
IoStatus readFrame(int Fd, std::uint32_t MaxBodyBytes, Frame &Out);

/// readFrame after the header: reads (or, past the cap, drains) the body
/// that \p H announces.
IoStatus readBody(int Fd, const FrameHeader &H, std::uint32_t MaxBodyBytes,
                  Frame &Out);

} // namespace service
} // namespace spl

#endif // SPL_SERVICE_SOCKET_H
