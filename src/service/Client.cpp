//===- service/Client.cpp - spld client library -------------------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Client.h"

#include "service/Socket.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <random>
#include <thread>

#include <unistd.h>

using namespace spl;
using namespace spl::service;

bool Client::connect(const std::string &SocketPath) {
  disconnect();
  std::string Err;
  Fd = connectUnix(SocketPath, Err);
  if (Fd < 0) {
    fail(Status::Protocol, Err);
    return false;
  }
  LastStatus = Status::Ok;
  LastError.clear();
  return true;
}

void Client::disconnect() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

void Client::fail(Status S, std::string Message) {
  LastStatus = S;
  LastError = std::move(Message);
}

void Client::drop(std::string Message) {
  fail(Status::Protocol, std::move(Message));
  disconnect();
}

std::uint32_t Client::wireDeadlineMs() const {
  if (DL.unbounded())
    return 0;
  // Round up to at least 1 ms while any budget remains: a 0 on the wire
  // would mean "unbounded", the opposite of a nearly spent deadline.
  std::int64_t Ms = DL.remainingMs();
  if (Ms < 1)
    Ms = 1;
  constexpr std::int64_t Cap = std::numeric_limits<std::uint32_t>::max();
  return static_cast<std::uint32_t>(std::min(Ms, Cap));
}

bool Client::backoff(int Attempt) {
  // Exponential with full doubling capped at 64 ms, then jittered into
  // [half, full] so simultaneously rejected clients spread out instead of
  // re-arriving as the same thundering herd that got them rejected.
  static thread_local std::minstd_rand Rng(
      std::random_device{}());
  const double CapMs = static_cast<double>(1 << std::min(Attempt, 6));
  std::uniform_real_distribution<double> Dist(CapMs * 0.5, CapMs);
  double SleepMs = Dist(Rng);
  const double RemainingMs = DL.remainingSeconds() * 1000.0;
  if (RemainingMs <= 0)
    return false; // Budget spent; the caller reports the last failure.
  SleepMs = std::min(SleepMs, RemainingMs);
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
      SleepMs));
  return !DL.expired();
}

std::optional<FrameHeader>
Client::exchange(MsgType Type, const std::vector<std::uint8_t> &Body,
                 MsgType ExpectedResp, const void *Payload,
                 std::size_t PayloadLen) {
  if (Fd < 0) {
    fail(Status::Protocol, "not connected");
    return std::nullopt;
  }
  std::uint32_t Id = NextId++;
  if (!writeFrame(Fd, Type, Id, Body, kProtocolVersion, Payload,
                  PayloadLen)) {
    drop("send failed (daemon gone?)");
    return std::nullopt;
  }
  FrameHeader H;
  IoStatus St = readHeader(Fd, H);
  if (St != IoStatus::Ok) {
    drop(St == IoStatus::Closed ? "connection closed by daemon"
                                : "response read failed");
    return std::nullopt;
  }
  if (H.RequestId != Id) {
    drop("response id mismatch (pipelining misuse?)");
    return std::nullopt;
  }
  if (H.Type == MsgType::ErrorResp) {
    Frame F;
    ErrorBody E;
    if (readBody(Fd, H, kDefaultMaxFrameBytes, F) != IoStatus::Ok ||
        !ErrorBody::decode(F.Body.data(), F.Body.size(), E)) {
      drop("undecodable error response");
      return std::nullopt;
    }
    fail(E.Code, E.Message);
    return std::nullopt;
  }
  if (H.Type != ExpectedResp) {
    drop("unexpected response type");
    return std::nullopt;
  }
  return H;
}

std::optional<Frame> Client::roundTrip(MsgType Type,
                                       const std::vector<std::uint8_t> &Body,
                                       MsgType ExpectedResp) {
  auto H = exchange(Type, Body, ExpectedResp);
  if (!H)
    return std::nullopt;
  Frame F;
  if (readBody(Fd, *H, kDefaultMaxFrameBytes, F) != IoStatus::Ok) {
    drop("response read failed");
    return std::nullopt;
  }
  LastStatus = Status::Ok;
  LastError.clear();
  return F;
}

std::optional<PlanResponse> Client::plan(const runtime::PlanSpec &Spec) {
  PlanRequest Req;
  Req.DeadlineMs = wireDeadlineMs();
  Req.Spec = WireSpec::fromSpec(Spec);
  auto F = roundTrip(MsgType::PlanReq, Req.encode(), MsgType::PlanResp);
  if (!F)
    return std::nullopt;
  PlanResponse Resp;
  if (!PlanResponse::decode(F->Body.data(), F->Body.size(), Resp)) {
    fail(Status::Protocol, "undecodable plan response");
    return std::nullopt;
  }
  return Resp;
}

bool Client::execute(const runtime::PlanSpec &Spec, double *Y, const double *X,
                     std::int64_t Count, std::int64_t VectorLen, int Threads) {
  // The shape is checked before anything is sent: N doubles must fit one
  // frame.
  std::int64_t N = 0;
  if (Count < 0 || VectorLen < 0) {
    fail(Status::BadRequest, "negative execute shape");
    return false;
  }
  if (__builtin_mul_overflow(Count, VectorLen, &N) ||
      N > std::int64_t(kDefaultMaxFrameBytes / sizeof(double))) {
    fail(Status::TooLarge, "execute shape " + std::to_string(Count) + " x " +
                               std::to_string(VectorLen) +
                               " does not fit one frame");
    return false;
  }
  ExecuteRequest Req;
  Req.DeadlineMs = wireDeadlineMs();
  Req.Spec = WireSpec::fromSpec(Spec);
  Req.Count = Count;
  Req.Threads = Threads;
  // X goes out in place, after the prefix; Y is written only once the
  // response prefix proves the payload is exactly Count x VectorLen.
  auto H = exchange(MsgType::ExecuteReq, Req.encodePrefix(N),
                    MsgType::ExecuteResp, X,
                    static_cast<std::size_t>(N) * sizeof(double));
  if (!H)
    return false;
  std::uint8_t Prefix[ExecuteResponse::kPrefixBytes];
  if (H->BodyLen < sizeof(Prefix) ||
      recvAll(Fd, Prefix, sizeof(Prefix)) != IoStatus::Ok) {
    drop("undecodable execute response");
    return false;
  }
  ExecuteResponse Resp;
  std::uint64_t RespN = 0;
  ExecuteResponse::decodePrefix(Prefix, Resp, RespN);
  const std::size_t Bytes = static_cast<std::size_t>(N) * sizeof(double);
  if (Resp.Count != Count || Resp.VectorLen != VectorLen ||
      RespN != static_cast<std::uint64_t>(N) ||
      H->BodyLen - sizeof(Prefix) != Bytes) {
    // The rest of the frame cannot be trusted to resynchronize on.
    drop("execute response shape mismatch");
    return false;
  }
  if (recvAll(Fd, Y, Bytes) != IoStatus::Ok) {
    drop("execute response payload truncated");
    return false;
  }
  LastStatus = Status::Ok;
  LastError.clear();
  return true;
}

std::optional<PlanResponse>
Client::planRetryBusy(const runtime::PlanSpec &Spec, int Retries) {
  for (int Attempt = 0;; ++Attempt) {
    if (auto R = plan(Spec))
      return R;
    if (LastStatus != Status::Busy || Attempt >= Retries)
      return std::nullopt;
    if (!backoff(Attempt))
      return std::nullopt; // Deadline spent; LastStatus still says Busy.
  }
}

bool Client::executeRetryBusy(const runtime::PlanSpec &Spec, double *Y,
                              const double *X, std::int64_t Count,
                              std::int64_t VectorLen, int Threads,
                              int Retries) {
  for (int Attempt = 0;; ++Attempt) {
    if (execute(Spec, Y, X, Count, VectorLen, Threads))
      return true;
    if (LastStatus != Status::Busy || Attempt >= Retries)
      return false;
    if (!backoff(Attempt))
      return false;
  }
}

std::optional<std::string> Client::stats() {
  auto F = roundTrip(MsgType::StatsReq, {}, MsgType::StatsResp);
  if (!F)
    return std::nullopt;
  StatsResponse Resp;
  if (!StatsResponse::decode(F->Body.data(), F->Body.size(), Resp)) {
    fail(Status::Protocol, "undecodable stats response");
    return std::nullopt;
  }
  return Resp.Json;
}

bool Client::ping() {
  return roundTrip(MsgType::PingReq, {}, MsgType::PingResp).has_value();
}

bool Client::shutdownServer() {
  return roundTrip(MsgType::ShutdownReq, {}, MsgType::ShutdownResp)
      .has_value();
}
