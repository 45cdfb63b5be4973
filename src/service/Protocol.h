//===- service/Protocol.h - spld wire protocol ------------------*- C++ -*-==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire protocol spoken between the spld plan-serving daemon and its
/// clients (service::Client, `splrun --connect`). Everything travels over a
/// Unix-domain stream socket as length-prefixed binary frames:
///
///   +--------+---------+--------+-----------+---------+=========+
///   | magic  | version | type   | requestId | bodyLen | body    |
///   | u32    | u16     | u16    | u32       | u32     | bytes   |
///   +--------+---------+--------+-----------+---------+=========+
///
/// All integers are little-endian fixed width; doubles are IEEE-754 bit
/// patterns carried as u64; strings are u32 length + raw bytes. The 16-byte
/// header is validated before the body is read: a bad magic or an
/// unsupported version kills the connection (there is no way to resync a
/// corrupt stream), while an oversized bodyLen is rejected with a typed
/// TOO_LARGE error so a greedy client learns its request was dropped.
///
/// Requests carry a client-chosen requestId that the matching response
/// echoes, so clients may pipeline. Status codes extend tools/ExitCodes.h:
/// the shared failure stages (usage/parse/compile/exec) keep their CLI
/// values, and service-only conditions (BUSY, TOO_LARGE, SHUTTING_DOWN,
/// PROTOCOL) follow after them. See docs/SERVICE.md for the full catalogue.
///
//===----------------------------------------------------------------------===//

#ifndef SPL_SERVICE_PROTOCOL_H
#define SPL_SERVICE_PROTOCOL_H

#include "runtime/Plan.h"

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace spl {
namespace service {

/// Frame magic: "SPLD" read as a little-endian u32.
constexpr std::uint32_t kMagic = 0x444C5053u;

/// Protocol revision. Bump on any incompatible frame or body change; the
/// server refuses versions outside [kMinProtocolVersion, kProtocolVersion]
/// with a PROTOCOL error before dropping the connection. v2 added
/// WireSpec::Codegen (the --codegen variant token). v3 prefixes plan and
/// execute request bodies with a u32 deadline field: the client's remaining
/// budget in milliseconds (0 = unbounded), measured from the moment the
/// server decodes the frame. The server answers DEADLINE_EXCEEDED without
/// touching the worker pool when a request's budget is already spent.
/// v4 appends a shape block to WireSpec (u32 rank + rank i64 dims) so
/// clients can request N-D row-column plans; the deadline stays the FIRST
/// u32 of v>=3 request bodies (peekDeadlineMs depends on that), which is
/// why new spec fields append rather than prepend.
constexpr std::uint16_t kProtocolVersion = 4;

/// Oldest revision the server still speaks. v2 requests carry no deadline
/// (treated as unbounded); v2/v3 requests carry no shape (1-D) — both get
/// responses stamped with the request's version. Response bodies are
/// layout-identical across v2..v4.
constexpr std::uint16_t kMinProtocolVersion = 2;

/// Fixed serialized header size in bytes.
constexpr std::size_t kHeaderBytes = 16;

/// Default cap on one frame's body (requests and responses). The server
/// can lower it (ServerOptions::MaxFrameBytes); execute payloads above the
/// cap come back as TOO_LARGE.
constexpr std::uint32_t kDefaultMaxFrameBytes = 64u << 20;

/// Frame type tags. Requests are < 100, responses >= 100.
enum class MsgType : std::uint16_t {
  PlanReq = 1,     ///< PlanRequest: materialize (or memo-hit) a plan.
  ExecuteReq = 2,  ///< ExecuteRequest: run a batch through a plan.
  StatsReq = 3,    ///< Scrape the telemetry registry as JSON.
  PingReq = 4,     ///< Liveness/latency probe, no body.
  ShutdownReq = 5, ///< Ask the daemon to drain and exit.

  PlanResp = 101,
  ExecuteResp = 102,
  StatsResp = 103,
  PingResp = 104,
  ShutdownResp = 105,
  ErrorResp = 199, ///< ErrorBody: any request can fail with this.
};

/// Typed failure codes. Values 0..5 are tools/ExitCodes.h verbatim so a CLI
/// relaying a server error can exit with the same stage code users already
/// script against; 6+ are service-only.
enum class Status : std::uint32_t {
  Ok = 0,
  BadRequest = 2,   ///< Malformed/invalid request fields (ExitUsage).
  BadSpec = 3,      ///< PlanSpec validation rejected it (ExitParse).
  PlanFailed = 4,   ///< Search/compile failed server-side (ExitCompile).
  ExecFailed = 5,   ///< Execution failed server-side (ExitExec).
  Busy = 6,         ///< Admission control: queue or quota full; retry.
  TooLarge = 7,     ///< Frame or transform exceeds the server's caps.
  ShuttingDown = 8, ///< Server is draining; no new work accepted.
  Protocol = 9,     ///< Framing violation; the connection is dropped.
  DeadlineExceeded = 10, ///< The request's deadline expired (v3).
};

/// Stable lowercase token for a status ("ok", "busy", ...).
const char *statusName(Status S);

/// Maps a status onto the tools/ExitCodes.h stage a CLI should exit with.
/// Service-only codes (Busy/TooLarge/ShuttingDown/Protocol) map to the
/// execution-failure stage; DeadlineExceeded gets its own scriptable stage
/// (ExitDeadline = 6) so callers can tell "too slow" from "failed".
int statusToExitCode(Status S);

//===----------------------------------------------------------------------===//
// Primitive serialization
//===----------------------------------------------------------------------===//

/// Appends little-endian primitives to a byte buffer.
class WireWriter {
public:
  explicit WireWriter(std::vector<std::uint8_t> &Buf) : Buf(Buf) {}

  void u8(std::uint8_t V) { Buf.push_back(V); }
  void u16(std::uint16_t V) {
    Buf.push_back(static_cast<std::uint8_t>(V));
    Buf.push_back(static_cast<std::uint8_t>(V >> 8));
  }
  void u32(std::uint32_t V) {
    for (int I = 0; I != 4; ++I)
      Buf.push_back(static_cast<std::uint8_t>(V >> (8 * I)));
  }
  void u64(std::uint64_t V) {
    for (int I = 0; I != 8; ++I)
      Buf.push_back(static_cast<std::uint8_t>(V >> (8 * I)));
  }
  void i64(std::int64_t V) { u64(static_cast<std::uint64_t>(V)); }
  void f64(double V) {
    std::uint64_t Bits;
    std::memcpy(&Bits, &V, 8);
    u64(Bits);
  }
  void str(const std::string &S) {
    u32(static_cast<std::uint32_t>(S.size()));
    Buf.insert(Buf.end(), S.begin(), S.end());
  }
  /// Raw doubles, bit-exact (used for execute payloads).
  void doubles(const double *D, std::size_t N) {
    if (N == 0)
      return; // D may be null then, and memcpy must not see a null source.
    std::size_t Off = Buf.size();
    Buf.resize(Off + N * 8);
    std::memcpy(Buf.data() + Off, D, N * 8);
  }

private:
  std::vector<std::uint8_t> &Buf;
};

/// Bounds-checked little-endian reads over a byte buffer. Every accessor
/// returns a value and flips ok() to false on underrun; callers check once
/// at the end (the project builds without exceptions).
class WireReader {
public:
  WireReader(const std::uint8_t *Data, std::size_t Len)
      : Data(Data), Len(Len) {}

  bool ok() const { return OK; }
  std::size_t remaining() const { return Len - Pos; }

  std::uint8_t u8() {
    if (!need(1))
      return 0;
    return Data[Pos++];
  }
  std::uint16_t u16() {
    if (!need(2))
      return 0;
    std::uint16_t V = static_cast<std::uint16_t>(Data[Pos]) |
                      static_cast<std::uint16_t>(Data[Pos + 1]) << 8;
    Pos += 2;
    return V;
  }
  std::uint32_t u32() {
    if (!need(4))
      return 0;
    std::uint32_t V = 0;
    for (int I = 0; I != 4; ++I)
      V |= static_cast<std::uint32_t>(Data[Pos + I]) << (8 * I);
    Pos += 4;
    return V;
  }
  std::uint64_t u64() {
    if (!need(8))
      return 0;
    std::uint64_t V = 0;
    for (int I = 0; I != 8; ++I)
      V |= static_cast<std::uint64_t>(Data[Pos + I]) << (8 * I);
    Pos += 8;
    return V;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() {
    std::uint64_t Bits = u64();
    double V;
    std::memcpy(&V, &Bits, 8);
    return V;
  }
  std::string str() {
    std::uint32_t N = u32();
    if (!need(N))
      return {};
    std::string S(reinterpret_cast<const char *>(Data + Pos), N);
    Pos += N;
    return S;
  }
  /// Reads \p N doubles; false (and ok() false) on underrun.
  bool doubles(double *Out, std::size_t N) {
    if (!need(N * 8))
      return false;
    if (N != 0) // Out may be null then.
      std::memcpy(Out, Data + Pos, N * 8);
    Pos += N * 8;
    return true;
  }

private:
  bool need(std::size_t N) {
    if (!OK || Len - Pos < N) {
      OK = false;
      return false;
    }
    return true;
  }

  const std::uint8_t *Data;
  std::size_t Len;
  std::size_t Pos = 0;
  bool OK = true;
};

//===----------------------------------------------------------------------===//
// Frames
//===----------------------------------------------------------------------===//

/// Parsed frame header.
struct FrameHeader {
  std::uint32_t Magic = kMagic;
  std::uint16_t Version = kProtocolVersion;
  MsgType Type = MsgType::PingReq;
  std::uint32_t RequestId = 0;
  std::uint32_t BodyLen = 0;

  /// Serializes into exactly kHeaderBytes.
  void encode(std::uint8_t Out[kHeaderBytes]) const;

  /// Parses; false when the bytes cannot be a header of this protocol
  /// (wrong magic, or a version outside [kMinProtocolVersion,
  /// kProtocolVersion]) — the stream is unrecoverable then.
  static bool decode(const std::uint8_t In[kHeaderBytes], FrameHeader &H);
};

/// The PlanSpec fields a request carries (shared by plan and execute).
/// Mirrors runtime::PlanSpec; toSpec()/fromSpec() convert.
struct WireSpec {
  std::string Transform = "fft";
  std::int64_t Size = 0;
  std::string Datatype;
  std::int64_t UnrollThreshold = 16;
  std::int64_t MaxLeaf = 16;
  std::string Backend = "auto"; ///< backendName() token.
  std::string Codegen = "auto"; ///< codegenModeName() token.
  /// Row-major N-D shape (v4+; empty = 1-D of Size). When non-empty the
  /// server plans the row-column transform and Size is ignored in favour of
  /// the shape product. Rank is capped at kMaxShapeRank on decode.
  std::vector<std::int64_t> Shape;

  runtime::PlanSpec toSpec(bool &OK) const;
  static WireSpec fromSpec(const runtime::PlanSpec &Spec);

  /// v2/v3 omit the shape block; v4 appends it after Codegen.
  void encode(WireWriter &W, std::uint16_t Version = kProtocolVersion) const;
  static bool decode(WireReader &R, WireSpec &Out,
                     std::uint16_t Version = kProtocolVersion);
};

/// Decode-side cap on WireSpec::Shape rank; the planner's own limit is
/// lower, so hitting this means a hostile frame, not a real workload.
constexpr std::uint32_t kMaxShapeRank = 16;

/// PlanReq body. v3 prefixes the body with DeadlineMs; v2 bodies carry the
/// spec alone (DeadlineMs decodes as 0 = unbounded).
struct PlanRequest {
  /// Remaining client budget in milliseconds (0 = unbounded). The clock
  /// starts when the server decodes the frame; queue time counts against
  /// it, so a request that aged out in the queue is rejected unexecuted.
  std::uint32_t DeadlineMs = 0;
  WireSpec Spec;

  std::vector<std::uint8_t> encode(std::uint16_t Version =
                                       kProtocolVersion) const;
  static bool decode(const std::uint8_t *Data, std::size_t Len,
                     PlanRequest &Out,
                     std::uint16_t Version = kProtocolVersion);
};

/// PlanResp body: the server-side plan's identity and placement.
struct PlanResponse {
  std::string Key;         ///< PlanSpec::key() of the served plan.
  std::string Backend;     ///< Tier the degradation chain landed on.
  std::int64_t VectorLen = 0;
  double Cost = 0;
  bool Fallback = false;
  std::string FallbackReason;
  std::string FormulaText;

  std::vector<std::uint8_t> encode() const;
  static bool decode(const std::uint8_t *Data, std::size_t Len,
                     PlanResponse &Out);
};

/// ExecuteReq body: a spec plus Count packed vectors of Count*VectorLen
/// doubles. The spec rides along (rather than a plan handle) so the request
/// is stateless: the registry turns repeats into memo hits.
///
/// The body is a prefix (deadline, spec, count, threads, the payload's
/// length N in doubles) followed by the N-double payload, which always ends
/// the body. The prefix codec lets the payload travel between the socket
/// and the caller's own buffer without a copy (Client::execute, the
/// server's in-place execute); encode()/decode() are that codec plus the
/// payload appended to or read from Data.
struct ExecuteRequest {
  /// Remaining client budget in milliseconds (0 = unbounded); see
  /// PlanRequest::DeadlineMs. v3-only field, encoded first.
  std::uint32_t DeadlineMs = 0;
  WireSpec Spec;
  std::int64_t Count = 1;
  std::int32_t Threads = 1; ///< Requested batch workers (server-capped).
  std::vector<double> Data; ///< Count * vectorLen doubles.

  /// The body up to the payload, for a payload of \p N doubles.
  std::vector<std::uint8_t>
  encodePrefix(std::uint64_t N,
               std::uint16_t Version = kProtocolVersion) const;
  /// Decodes the prefix of a whole body of \p Len bytes, leaving Data
  /// empty. True only when the payload the prefix announces is exactly the
  /// rest of the body; \p N is then its length in doubles.
  static bool decodePrefix(const std::uint8_t *Data, std::size_t Len,
                           ExecuteRequest &Out, std::uint64_t &N,
                           std::uint16_t Version = kProtocolVersion);

  std::vector<std::uint8_t> encode(std::uint16_t Version =
                                       kProtocolVersion) const;
  static bool decode(const std::uint8_t *Data, std::size_t Len,
                     ExecuteRequest &Out,
                     std::uint16_t Version = kProtocolVersion);
};

/// ExecuteResp body: the transformed vectors, same layout as the request: a
/// fixed kPrefixBytes prefix (Count, VectorLen, N) and the N-double payload.
struct ExecuteResponse {
  static constexpr std::size_t kPrefixBytes = 24;

  std::int64_t Count = 0;
  std::int64_t VectorLen = 0;
  std::vector<double> Data;

  /// The kPrefixBytes prefix for a payload of \p N doubles.
  std::vector<std::uint8_t> encodePrefix(std::uint64_t N) const;
  /// Decodes a kPrefixBytes prefix; \p N is the payload length it
  /// announces, which the caller checks against the body length.
  static void decodePrefix(const std::uint8_t *Prefix, ExecuteResponse &Out,
                           std::uint64_t &N);

  std::vector<std::uint8_t> encode() const;
  static bool decode(const std::uint8_t *Data, std::size_t Len,
                     ExecuteResponse &Out);
};

/// StatsResp body: the telemetry registry rendered by metricsJson(), plus
/// the daemon's own identity line.
struct StatsResponse {
  std::string Json;

  std::vector<std::uint8_t> encode() const;
  static bool decode(const std::uint8_t *Data, std::size_t Len,
                     StatsResponse &Out);
};

/// ErrorResp body.
struct ErrorBody {
  Status Code = Status::Ok;
  std::string Message;

  std::vector<std::uint8_t> encode() const;
  static bool decode(const std::uint8_t *Data, std::size_t Len,
                     ErrorBody &Out);
};

} // namespace service
} // namespace spl

#endif // SPL_SERVICE_PROTOCOL_H
