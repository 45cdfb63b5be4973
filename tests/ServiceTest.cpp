//===- tests/ServiceTest.cpp - spld service layer tests -----------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the plan-serving service layer (src/service): wire-protocol
/// round trips and malformed-input rejection, then live Server/Client
/// integration over a real Unix-domain socket — plan/execute parity with
/// in-process plans, typed error codes, admission control (BUSY,
/// TOO_LARGE), stats scraping, shutdown draining, degradation under
/// injected faults, and the in-place execute payload path.
///
//===----------------------------------------------------------------------===//

#include "ServiceTestUtil.h"

#include "search/PlanCache.h"
#include "service/Client.h"
#include "service/Server.h"
#include "service/Socket.h"
#include "support/Deadline.h"
#include "support/FaultInjection.h"
#include "telemetry/Metrics.h"
#include "transforms/Registry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <set>
#include <thread>

#include <unistd.h>

using namespace spl;
using namespace spl::service;

namespace {

//===----------------------------------------------------------------------===//
// Protocol unit tests (no sockets)
//===----------------------------------------------------------------------===//

TEST(Protocol, HeaderRoundTrip) {
  FrameHeader H;
  H.Type = MsgType::ExecuteReq;
  H.RequestId = 0xDEADBEEF;
  H.BodyLen = 12345;
  std::uint8_t Buf[kHeaderBytes];
  H.encode(Buf);

  FrameHeader Out;
  ASSERT_TRUE(FrameHeader::decode(Buf, Out));
  EXPECT_EQ(Out.Type, MsgType::ExecuteReq);
  EXPECT_EQ(Out.RequestId, 0xDEADBEEFu);
  EXPECT_EQ(Out.BodyLen, 12345u);
}

TEST(Protocol, HeaderRejectsBadMagicAndVersion) {
  FrameHeader H;
  std::uint8_t Buf[kHeaderBytes];
  H.encode(Buf);
  FrameHeader Out;

  std::uint8_t Bad[kHeaderBytes];
  std::memcpy(Bad, Buf, kHeaderBytes);
  Bad[0] ^= 0xFF; // Corrupt the magic.
  EXPECT_FALSE(FrameHeader::decode(Bad, Out));

  std::memcpy(Bad, Buf, kHeaderBytes);
  Bad[4] += 1; // Unsupported version.
  EXPECT_FALSE(FrameHeader::decode(Bad, Out));

  // The floor of the compatibility window still decodes: a v2 client's
  // frames are valid, and the decoded header remembers their revision.
  std::memcpy(Bad, Buf, kHeaderBytes);
  Bad[4] = 2;
  ASSERT_TRUE(FrameHeader::decode(Bad, Out));
  EXPECT_EQ(Out.Version, 2u);
  Bad[4] = 1; // Below the floor.
  EXPECT_FALSE(FrameHeader::decode(Bad, Out));
}

TEST(Protocol, PlanMessagesRoundTrip) {
  PlanRequest Req;
  Req.Spec.Transform = "wht";
  Req.Spec.Size = 64;
  Req.Spec.Datatype = "real";
  Req.Spec.UnrollThreshold = 8;
  Req.Spec.MaxLeaf = 32;
  Req.Spec.Backend = "vm";
  auto Bytes = Req.encode();
  PlanRequest Back;
  ASSERT_TRUE(PlanRequest::decode(Bytes.data(), Bytes.size(), Back));
  EXPECT_EQ(Back.Spec.Transform, "wht");
  EXPECT_EQ(Back.Spec.Size, 64);
  EXPECT_EQ(Back.Spec.Backend, "vm");

  bool OK = false;
  runtime::PlanSpec Spec = Back.Spec.toSpec(OK);
  ASSERT_TRUE(OK);
  EXPECT_EQ(Spec.Want, runtime::Backend::VM);
  EXPECT_EQ(Spec.key(), "wht 64 real B8 L32 vm auto");

  PlanResponse Resp;
  Resp.Key = Spec.key();
  Resp.Backend = "vm";
  Resp.VectorLen = 64;
  Resp.Cost = 2.5;
  Resp.Fallback = true;
  Resp.FallbackReason = "native compile failed";
  Resp.FormulaText = "(F 2)";
  auto RB = Resp.encode();
  PlanResponse RBack;
  ASSERT_TRUE(PlanResponse::decode(RB.data(), RB.size(), RBack));
  EXPECT_EQ(RBack.Key, Resp.Key);
  EXPECT_EQ(RBack.VectorLen, 64);
  EXPECT_DOUBLE_EQ(RBack.Cost, 2.5);
  EXPECT_TRUE(RBack.Fallback);
  EXPECT_EQ(RBack.FallbackReason, "native compile failed");
}

TEST(Protocol, ExecuteMessagesRoundTripBitExact) {
  ExecuteRequest Req;
  Req.Spec.Transform = "fft";
  Req.Spec.Size = 4;
  Req.Count = 2;
  Req.Threads = 3;
  // Bit patterns that punish any text or float conversion on the path.
  Req.Data = {0.1, -0.0, 1e-308, 3.141592653589793, -2.5e17, 0.0, 7.0, -1.0,
              42.0, 1e-17, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0};
  auto Bytes = Req.encode();
  ExecuteRequest Back;
  ASSERT_TRUE(ExecuteRequest::decode(Bytes.data(), Bytes.size(), Back));
  EXPECT_EQ(Back.Count, 2);
  EXPECT_EQ(Back.Threads, 3);
  ASSERT_EQ(Back.Data.size(), Req.Data.size());
  EXPECT_EQ(std::memcmp(Back.Data.data(), Req.Data.data(),
                        Req.Data.size() * sizeof(double)),
            0);

  ExecuteResponse Resp;
  Resp.Count = 2;
  Resp.VectorLen = 8;
  Resp.Data = Req.Data;
  auto RB = Resp.encode();
  ExecuteResponse RBack;
  ASSERT_TRUE(ExecuteResponse::decode(RB.data(), RB.size(), RBack));
  EXPECT_EQ(std::memcmp(RBack.Data.data(), Req.Data.data(),
                        Req.Data.size() * sizeof(double)),
            0);
}

TEST(Protocol, TruncatedBodiesAreRejected) {
  PlanRequest Req;
  Req.Spec.Size = 16;
  auto Bytes = Req.encode();
  PlanRequest Out;
  for (std::size_t Cut = 0; Cut < Bytes.size(); ++Cut)
    EXPECT_FALSE(PlanRequest::decode(Bytes.data(), Cut, Out))
        << "accepted a body truncated to " << Cut << " bytes";

  ExecuteRequest EReq;
  EReq.Spec.Size = 4;
  EReq.Count = 1;
  EReq.Data = {1, 2, 3, 4, 5, 6, 7, 8};
  auto EBytes = EReq.encode();
  ExecuteRequest EOut;
  EXPECT_TRUE(ExecuteRequest::decode(EBytes.data(), EBytes.size(), EOut));
  EXPECT_FALSE(
      ExecuteRequest::decode(EBytes.data(), EBytes.size() - 1, EOut));
  // Trailing garbage is as corrupt as truncation.
  EBytes.push_back(0);
  EXPECT_FALSE(
      ExecuteRequest::decode(EBytes.data(), EBytes.size(), EOut));
}

TEST(Protocol, DeadlineFieldIsVersionGated) {
  // v3 request bodies lead with DeadlineMs; v2 bodies never carried it and
  // must keep decoding as "unbounded". This is the compatibility contract
  // that lets old clients talk to a new daemon unchanged.
  PlanRequest Req;
  Req.Spec.Transform = "fft";
  Req.Spec.Size = 32;
  Req.DeadlineMs = 1500;

  auto V3 = Req.encode(3);
  PlanRequest Out;
  ASSERT_TRUE(PlanRequest::decode(V3.data(), V3.size(), Out, 3));
  EXPECT_EQ(Out.DeadlineMs, 1500u);

  auto V2 = Req.encode(2);
  ASSERT_EQ(V2.size(), V3.size() - 4); // Exactly the DeadlineMs prefix.
  PlanRequest Out2;
  ASSERT_TRUE(PlanRequest::decode(V2.data(), V2.size(), Out2, 2));
  EXPECT_EQ(Out2.DeadlineMs, 0u);
  EXPECT_EQ(Out2.Spec.Size, 32);

  // Truncation inside the deadline prefix fails cleanly, never reads past
  // the buffer, and never half-populates the spec.
  for (std::size_t Cut = 0; Cut < 4; ++Cut)
    EXPECT_FALSE(PlanRequest::decode(V3.data(), Cut, Out))
        << "accepted a v3 body truncated to " << Cut << " bytes";

  ExecuteRequest EReq;
  EReq.Spec.Transform = "wht";
  EReq.Spec.Size = 8;
  EReq.DeadlineMs = 250;
  EReq.Count = 1;
  EReq.Data.assign(8, 1.0);
  auto E3 = EReq.encode(3);
  ExecuteRequest EOut;
  ASSERT_TRUE(ExecuteRequest::decode(E3.data(), E3.size(), EOut, 3));
  EXPECT_EQ(EOut.DeadlineMs, 250u);
  auto E2 = EReq.encode(2);
  ASSERT_EQ(E2.size(), E3.size() - 4);
  ASSERT_TRUE(ExecuteRequest::decode(E2.data(), E2.size(), EOut, 2));
  EXPECT_EQ(EOut.DeadlineMs, 0u);
  ASSERT_EQ(EOut.Data.size(), 8u);
}

TEST(Protocol, StatusMapsOntoCliExitCodes) {
  EXPECT_EQ(statusToExitCode(Status::Ok), 0);
  EXPECT_EQ(statusToExitCode(Status::BadRequest), 2);
  EXPECT_EQ(statusToExitCode(Status::BadSpec), 3);
  EXPECT_EQ(statusToExitCode(Status::PlanFailed), 4);
  EXPECT_EQ(statusToExitCode(Status::ExecFailed), 5);
  // A spent budget has its own exit code so scripts can tell "slow" from
  // "wrong" without parsing stderr.
  EXPECT_EQ(statusToExitCode(Status::DeadlineExceeded), 6);
  EXPECT_STREQ(statusName(Status::DeadlineExceeded), "deadline-exceeded");
  // Service-only statuses collapse onto the execution stage.
  EXPECT_EQ(statusToExitCode(Status::Busy), 5);
  EXPECT_EQ(statusToExitCode(Status::TooLarge), 5);
  EXPECT_EQ(statusToExitCode(Status::ShuttingDown), 5);
  EXPECT_EQ(statusToExitCode(Status::Protocol), 5);
  EXPECT_STREQ(statusName(Status::Busy), "busy");
  EXPECT_STREQ(statusName(Status::TooLarge), "too-large");
}

//===----------------------------------------------------------------------===//
// Server/Client integration
//===----------------------------------------------------------------------===//

/// Starts a Server on a per-test socket and tears it down afterwards.
class ServiceTest : public ::testing::Test {
protected:
  void SetUp() override {
    Path = "/tmp/spl-service-test-" + std::to_string(getpid()) + "-" +
           std::to_string(Seq++) + ".sock";
    telemetry::setMetricsEnabled(true);
  }

  void TearDown() override {
    if (Srv)
      Srv->stop();
    Srv.reset();
    telemetry::setMetricsEnabled(false);
    ::unlink(Path.c_str());
  }

  /// Builds and starts a server; tests tweak \p Mutate for limits.
  void startServer(const std::function<void(ServerOptions &)> &Mutate = {}) {
    ServerOptions Opts;
    Opts.SocketPath = Path;
    Opts.Workers = 4;
    Opts.Planner.UseWisdom = false;
    Opts.Planner.Evaluator = "opcount";
    if (Mutate)
      Mutate(Opts);
    Srv = std::make_unique<Server>(Opts);
    ASSERT_TRUE(Srv->start()) << Srv->diagnostics().dump();
  }

  /// The canonical cheap spec: VM tier, no compiler dependency.
  static runtime::PlanSpec vmSpec(const char *Transform, std::int64_t N) {
    runtime::PlanSpec S;
    S.Transform = Transform;
    S.Size = N;
    S.Want = runtime::Backend::VM;
    return S;
  }

  std::string Path;
  std::unique_ptr<Server> Srv;
  static int Seq;
};

int ServiceTest::Seq = 0;

TEST_F(ServiceTest, PingAndStats) {
  startServer();
  Client C;
  ASSERT_TRUE(C.connect(Path)) << C.lastError();
  EXPECT_TRUE(C.ping()) << C.lastError();

  auto Json = C.stats();
  ASSERT_TRUE(Json) << C.lastError();
  // The daemon's own identity plus the process telemetry registry.
  EXPECT_NE(Json->find("\"server\""), std::string::npos);
  EXPECT_NE(Json->find("\"socket\""), std::string::npos);
  EXPECT_NE(Json->find("\"metrics\""), std::string::npos);
  EXPECT_NE(Json->find("spld.requests"), std::string::npos);
}

TEST_F(ServiceTest, PlanExecuteMatchesInProcessBitExact) {
  startServer();
  auto Spec = vmSpec("fft", 16);

  // In-process reference with the same options.
  Diagnostics Diags;
  runtime::PlannerOptions PO;
  PO.UseWisdom = false;
  runtime::Planner Local(Diags, PO);
  auto Ref = Local.plan(Spec);
  ASSERT_TRUE(Ref) << Diags.dump();
  const std::int64_t Len = Ref->vectorLen();

  Client C;
  ASSERT_TRUE(C.connect(Path)) << C.lastError();
  auto PR = C.plan(Spec);
  ASSERT_TRUE(PR) << C.lastError();
  EXPECT_EQ(PR->Key, Spec.key());
  EXPECT_EQ(PR->Backend, std::string("vm"));
  EXPECT_EQ(PR->VectorLen, Len);
  EXPECT_EQ(PR->FormulaText, Ref->formulaText());

  const std::int64_t Count = 8;
  std::vector<double> X(Count * Len), YD(Count * Len), YL(Count * Len);
  for (std::size_t I = 0; I != X.size(); ++I)
    X[I] = std::sin(0.37 * static_cast<double>(I)) * 2.0 - 0.5;
  ASSERT_TRUE(C.execute(Spec, YD.data(), X.data(), Count, Len, 2))
      << C.lastError();
  Ref->executeBatch(YL.data(), X.data(), Count, 1);
  EXPECT_EQ(std::memcmp(YD.data(), YL.data(), YD.size() * sizeof(double)), 0)
      << "daemon and in-process execution disagree bit-for-bit";
}

TEST_F(ServiceTest, ManyClientsShareOneRegistryEntry) {
  startServer();
  auto Spec = vmSpec("wht", 16);
  const int N = 8;
  std::vector<std::thread> Ts;
  std::atomic<int> Failures{0};
  for (int I = 0; I != N; ++I)
    Ts.emplace_back([&] {
      Client C;
      if (!C.connect(Path) || !C.planRetryBusy(Spec))
        Failures.fetch_add(1);
    });
  for (auto &T : Ts)
    T.join();
  EXPECT_EQ(Failures.load(), 0);
  // All eight clients were served by one planning pass.
  EXPECT_EQ(Srv->registry().size(), 1u);
  auto RS = Srv->registry().stats();
  EXPECT_EQ(RS.Misses, 1u);
  EXPECT_EQ(RS.Hits + RS.Waits, static_cast<std::size_t>(N - 1));
}

TEST_F(ServiceTest, TypedErrorsForBadRequests) {
  startServer();
  Client C;
  ASSERT_TRUE(C.connect(Path)) << C.lastError();

  // Non-power-of-two: spec validation rejects it.
  auto Bad = C.plan(vmSpec("fft", 20));
  EXPECT_FALSE(Bad);
  EXPECT_EQ(C.lastStatus(), Status::BadSpec) << C.lastError();
  EXPECT_NE(C.lastError().find("error"), std::string::npos);

  // Unknown transform.
  EXPECT_FALSE(C.plan(vmSpec("dst", 16)));
  EXPECT_EQ(C.lastStatus(), Status::BadSpec);

  // Execute payload that disagrees with the plan's vector length.
  auto Spec = vmSpec("wht", 8);
  std::vector<double> X(4), Y(4);
  EXPECT_FALSE(C.execute(Spec, Y.data(), X.data(), 1, 4));
  EXPECT_EQ(C.lastStatus(), Status::BadRequest) << C.lastError();

  // The connection survives typed errors.
  EXPECT_TRUE(C.ping()) << C.lastError();
}

TEST_F(ServiceTest, ExecuteCountOverflowIsRejected) {
  startServer();
  std::string Err;
  int Fd = connectUnix(Path, Err);
  ASSERT_GE(Fd, 0) << Err;

  // Counts chosen so a naive `Count * vectorLen` size check wraps int64
  // to match the payload: 2^61 * 8 == 0 (empty payload) and
  // (2^61 + 1) * 8 == 8 (one vector). Either would have sent executeBatch
  // off the end of the buffers; both must come back BAD_REQUEST.
  ExecuteRequest Wrap;
  Wrap.Spec = WireSpec::fromSpec(vmSpec("wht", 8));
  Wrap.Count = std::int64_t(1) << 61;
  ASSERT_TRUE(writeFrame(Fd, MsgType::ExecuteReq, 7, Wrap.encode()));

  ExecuteRequest Wrap2;
  Wrap2.Spec = WireSpec::fromSpec(vmSpec("wht", 8));
  Wrap2.Count = (std::int64_t(1) << 61) + 1;
  Wrap2.Data.assign(8, 1.0);
  ASSERT_TRUE(writeFrame(Fd, MsgType::ExecuteReq, 8, Wrap2.encode()));

  // Both requests run concurrently on the pool, so the two rejections can
  // come back in either order.
  std::set<std::uint32_t> Answered;
  for (int I = 0; I != 2; ++I) {
    Frame F;
    ASSERT_EQ(readFrame(Fd, kDefaultMaxFrameBytes, F), IoStatus::Ok);
    ASSERT_EQ(F.Type, MsgType::ErrorResp);
    Answered.insert(F.RequestId);
    ErrorBody E;
    ASSERT_TRUE(ErrorBody::decode(F.Body.data(), F.Body.size(), E));
    EXPECT_EQ(E.Code, Status::BadRequest);
  }
  EXPECT_EQ(Answered, (std::set<std::uint32_t>{7u, 8u}));
  ::close(Fd);
}

TEST_F(ServiceTest, ListenRefusesLiveDaemonSocket) {
  startServer();
  // A second daemon pointed at the same --socket must fail loudly instead
  // of silently unlinking the live daemon's socket and hijacking it.
  std::string Err;
  int Fd = listenUnix(Path, 4, Err);
  EXPECT_LT(Fd, 0);
  EXPECT_NE(Err.find("live daemon"), std::string::npos) << Err;
  // The original daemon is untouched.
  Client C;
  ASSERT_TRUE(C.connect(Path)) << C.lastError();
  EXPECT_TRUE(C.ping()) << C.lastError();
}

TEST_F(ServiceTest, ListenReclaimsStaleSocketFile) {
  // A crashed daemon leaves the socket file behind with nobody listening;
  // a fresh listen must detect the stale file and reclaim the path.
  std::string Err;
  int Fd = listenUnix(Path, 4, Err);
  ASSERT_GE(Fd, 0) << Err;
  ::close(Fd); // Crash-like exit: file still on disk, no listener.
  int Fd2 = listenUnix(Path, 4, Err);
  EXPECT_GE(Fd2, 0) << Err;
  if (Fd2 >= 0)
    ::close(Fd2);
}

TEST_F(ServiceTest, OversizedTransformAndFrameAreRejected) {
  startServer([](ServerOptions &O) {
    O.MaxTransformSize = 64;
    O.MaxFrameBytes = 4096;
  });
  Client C;
  ASSERT_TRUE(C.connect(Path)) << C.lastError();

  EXPECT_FALSE(C.plan(vmSpec("fft", 128)));
  EXPECT_EQ(C.lastStatus(), Status::TooLarge) << C.lastError();

  // 1024 doubles > the 4 KiB frame cap; the server must reject AND keep
  // the connection usable.
  auto Spec = vmSpec("wht", 64);
  std::vector<double> X(1024), Y(1024);
  EXPECT_FALSE(C.execute(Spec, Y.data(), X.data(), 16, 64));
  EXPECT_EQ(C.lastStatus(), Status::TooLarge) << C.lastError();
  EXPECT_TRUE(C.ping()) << C.lastError();

  auto St = Srv->stats();
  EXPECT_EQ(St.RejectedTooLarge, 2u);
}

TEST_F(ServiceTest, PerClientQuotaAnswersBusy) {
  // One worker and a quota of one: a second request pipelined behind a
  // slow plan must bounce with BUSY instead of queueing.
  startServer([](ServerOptions &O) {
    O.Workers = 1;
    O.PerClientInflight = 1;
    O.Planner.Evaluator = "vmtime"; // Timed search: reliably non-instant.
  });
  std::string Err;
  int Fd = connectUnix(Path, Err);
  ASSERT_GE(Fd, 0) << Err;

  PlanRequest Slow;
  Slow.Spec = WireSpec::fromSpec(vmSpec("fft", 64));
  PlanRequest Quick;
  Quick.Spec = WireSpec::fromSpec(vmSpec("wht", 8));
  ASSERT_TRUE(writeFrame(Fd, MsgType::PlanReq, 1, Slow.encode()));
  ASSERT_TRUE(writeFrame(Fd, MsgType::PlanReq, 2, Quick.encode()));

  // First frame back: the immediate BUSY for request 2 (the reader thread
  // rejects before the pool ever sees it).
  Frame F;
  ASSERT_EQ(readFrame(Fd, kDefaultMaxFrameBytes, F), IoStatus::Ok);
  ASSERT_EQ(F.Type, MsgType::ErrorResp);
  EXPECT_EQ(F.RequestId, 2u);
  ErrorBody E;
  ASSERT_TRUE(ErrorBody::decode(F.Body.data(), F.Body.size(), E));
  EXPECT_EQ(E.Code, Status::Busy);

  // Second frame: the slow plan completes normally.
  ASSERT_EQ(readFrame(Fd, kDefaultMaxFrameBytes, F), IoStatus::Ok);
  EXPECT_EQ(F.Type, MsgType::PlanResp);
  EXPECT_EQ(F.RequestId, 1u);
  ::close(Fd);

  EXPECT_GE(Srv->stats().RejectedBusy, 1u);
}

TEST_F(ServiceTest, MalformedFrameDropsConnection) {
  startServer();
  std::string Err;
  int Fd = connectUnix(Path, Err);
  ASSERT_GE(Fd, 0) << Err;
  const char Garbage[] = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_TRUE(sendAll(Fd, Garbage, sizeof(Garbage) - 1));

  // The server answers with a protocol error, then hangs up.
  Frame F;
  IoStatus St = readFrame(Fd, kDefaultMaxFrameBytes, F);
  if (St == IoStatus::Ok) {
    EXPECT_EQ(F.Type, MsgType::ErrorResp);
    ErrorBody E;
    ASSERT_TRUE(ErrorBody::decode(F.Body.data(), F.Body.size(), E));
    EXPECT_EQ(E.Code, Status::Protocol);
    St = readFrame(Fd, kDefaultMaxFrameBytes, F);
  }
  EXPECT_EQ(St, IoStatus::Closed);
  ::close(Fd);
}

TEST_F(ServiceTest, RequestShutdownWakesBlockedWaiter) {
  startServer();
  std::thread Waiter([&] { Srv->waitForShutdownRequest(); });
  // Give the waiter time to actually block so a store without a held-lock
  // notify (the lost-wakeup bug) would hang this join forever.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Srv->requestShutdown();
  Waiter.join();
  EXPECT_TRUE(Srv->shutdownRequested());
}

TEST_F(ServiceTest, ShutdownRequestDrainsAndStops) {
  startServer();
  Client C;
  ASSERT_TRUE(C.connect(Path)) << C.lastError();
  ASSERT_TRUE(C.planRetryBusy(vmSpec("wht", 8))) << C.lastError();
  ASSERT_TRUE(C.shutdownServer()) << C.lastError();
  EXPECT_TRUE(Srv->shutdownRequested());
  Srv->stop();
  // The socket file is gone; new connections fail cleanly.
  Client C2;
  EXPECT_FALSE(C2.connect(Path));
  // Admissions after drain answer SHUTTING_DOWN (exercised via the typed
  // path in admit(); the daemon-side flag is already set pre-stop).
}

TEST_F(ServiceTest, WisdomSurvivesShutdown) {
  std::string Wisdom = Path + ".wisdom";
  startServer([&](ServerOptions &O) {
    O.Planner.UseWisdom = true;
    O.Planner.WisdomPath = Wisdom;
  });
  Client C;
  ASSERT_TRUE(C.connect(Path)) << C.lastError();
  ASSERT_TRUE(C.planRetryBusy(vmSpec("fft", 16))) << C.lastError();
  ASSERT_TRUE(C.planRetryBusy(vmSpec("wht", 16))) << C.lastError();
  size_t Held = Srv->planner().wisdom().size();
  EXPECT_GT(Held, 0u);
  Srv->stop();

  Diagnostics Diags;
  search::PlanCache Reloaded(Diags);
  ASSERT_TRUE(Reloaded.load(Wisdom));
  EXPECT_GE(Reloaded.size(), Held) << "wisdom entries lost across shutdown";
  EXPECT_EQ(Reloaded.stats().Skipped, 0u);
  ::unlink(Wisdom.c_str());
}

TEST_F(ServiceTest, V2FramesAreServedAndVersionEchoed) {
  // A v2 client (no DeadlineMs field, version 2 stamped on every header)
  // must get full service, and every response must echo version 2 so the
  // old client's own header validation accepts it.
  startServer();
  std::string Err;
  int Fd = connectUnix(Path, Err);
  ASSERT_GE(Fd, 0) << Err;

  PlanRequest Req;
  Req.Spec = WireSpec::fromSpec(vmSpec("fft", 16));
  ASSERT_TRUE(writeFrame(Fd, MsgType::PlanReq, 21, Req.encode(2), 2));
  Frame F;
  ASSERT_EQ(readFrame(Fd, kDefaultMaxFrameBytes, F), IoStatus::Ok);
  ASSERT_EQ(F.Type, MsgType::PlanResp) << statusName(Status::Ok);
  EXPECT_EQ(F.RequestId, 21u);
  EXPECT_EQ(F.Version, 2u);
  PlanResponse PR;
  ASSERT_TRUE(PlanResponse::decode(F.Body.data(), F.Body.size(), PR));
  EXPECT_EQ(PR.VectorLen, 32); // Complex interleaved fft 16.

  // Execution over the v2 framing matches a v3 client bit for bit.
  ExecuteRequest EReq;
  EReq.Spec = WireSpec::fromSpec(vmSpec("fft", 16));
  EReq.Count = 1;
  EReq.Data.assign(32, 0.0);
  EReq.Data[0] = 1.0; // Impulse: the FFT is all-ones.
  ASSERT_TRUE(writeFrame(Fd, MsgType::ExecuteReq, 22, EReq.encode(2), 2));
  ASSERT_EQ(readFrame(Fd, kDefaultMaxFrameBytes, F), IoStatus::Ok);
  ASSERT_EQ(F.Type, MsgType::ExecuteResp);
  EXPECT_EQ(F.Version, 2u);
  ExecuteResponse ER;
  ASSERT_TRUE(ExecuteResponse::decode(F.Body.data(), F.Body.size(), ER));
  ASSERT_EQ(ER.Data.size(), 32u);
  for (std::size_t I = 0; I < ER.Data.size(); ++I)
    EXPECT_EQ(ER.Data[I], (I % 2) == 0 ? 1.0 : 0.0) << "element " << I;
  ::close(Fd);
}

TEST_F(ServiceTest, TruncatedDeadlineFieldGetsTypedError) {
  // A v3 frame whose body ends inside the DeadlineMs prefix is malformed,
  // not fatal: the daemon answers a typed BAD_REQUEST and keeps serving
  // the connection.
  startServer();
  std::string Err;
  int Fd = connectUnix(Path, Err);
  ASSERT_GE(Fd, 0) << Err;

  PlanRequest Req;
  Req.Spec = WireSpec::fromSpec(vmSpec("wht", 8));
  auto Full = Req.encode();
  for (std::size_t Cut : {std::size_t(0), std::size_t(2), std::size_t(3)}) {
    std::vector<std::uint8_t> Short(Full.begin(), Full.begin() + Cut);
    ASSERT_TRUE(writeFrame(Fd, MsgType::PlanReq, 30 + Cut, Short));
    Frame F;
    ASSERT_EQ(readFrame(Fd, kDefaultMaxFrameBytes, F), IoStatus::Ok);
    ASSERT_EQ(F.Type, MsgType::ErrorResp) << "cut at " << Cut;
    ErrorBody E;
    ASSERT_TRUE(ErrorBody::decode(F.Body.data(), F.Body.size(), E));
    EXPECT_EQ(E.Code, Status::BadRequest) << "cut at " << Cut;
  }

  // The connection survived all three malformed bodies.
  ASSERT_TRUE(writeFrame(Fd, MsgType::PlanReq, 40, Full));
  Frame F;
  ASSERT_EQ(readFrame(Fd, kDefaultMaxFrameBytes, F), IoStatus::Ok);
  EXPECT_EQ(F.Type, MsgType::PlanResp);
  ::close(Fd);
}

TEST_F(ServiceTest, ExpiredInQueueIsRejectedWithTypedStatus) {
  // One worker, occupied by a timed search: a request whose entire budget
  // is 1 ms expires while queued and must come back DEADLINE_EXCEEDED
  // without the pool ever running it.
  startServer([](ServerOptions &O) {
    O.Workers = 1;
    O.Planner.Evaluator = "vmtime"; // Timed search: reliably non-instant.
  });
  std::string Err;
  int Fd = connectUnix(Path, Err);
  ASSERT_GE(Fd, 0) << Err;
  PlanRequest Slow;
  Slow.Spec = WireSpec::fromSpec(vmSpec("fft", 128));
  ASSERT_TRUE(writeFrame(Fd, MsgType::PlanReq, 1, Slow.encode()));
  // Give the worker time to pick the slow search up so the next request
  // is guaranteed to queue behind it rather than race it.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  Client C;
  C.setDeadline(support::Deadline::afterMs(1));
  ASSERT_TRUE(C.connect(Path)) << C.lastError();
  EXPECT_FALSE(C.plan(vmSpec("wht", 8)));
  EXPECT_EQ(C.lastStatus(), Status::DeadlineExceeded) << C.lastError();
  EXPECT_NE(C.lastError().find("deadline"), std::string::npos)
      << C.lastError();

  // The slow plan behind it is unharmed, and the rejection is visible in
  // the daemon's own accounting.
  Frame F;
  ASSERT_EQ(readFrame(Fd, kDefaultMaxFrameBytes, F), IoStatus::Ok);
  EXPECT_EQ(F.Type, MsgType::PlanResp);
  ::close(Fd);
  EXPECT_GE(Srv->stats().RejectedDeadline, 1u);
}

TEST(Protocol, ShapeFieldIsVersionGated) {
  // v4 appends the shape block after the v2 spec fields; v2/v3 bodies
  // never carry it and must keep decoding with an empty (1-D) shape. The
  // deadline stays the first u32 so peekDeadlineMs works on every v>=3
  // frame regardless of the spec's rank.
  PlanRequest Req;
  Req.Spec.Transform = "fft";
  Req.Spec.Size = 0;
  Req.Spec.Shape = {8, 4};
  Req.DeadlineMs = 10;

  auto V4 = Req.encode(); // Default version is 4.
  PlanRequest Out;
  ASSERT_TRUE(PlanRequest::decode(V4.data(), V4.size(), Out));
  ASSERT_EQ(Out.Spec.Shape.size(), 2u);
  EXPECT_EQ(Out.Spec.Shape[0], 8);
  EXPECT_EQ(Out.Spec.Shape[1], 4);
  EXPECT_EQ(Out.DeadlineMs, 10u);

  // Exactly the rank word plus two i64 dims shorter at v3.
  auto V3 = Req.encode(3);
  ASSERT_EQ(V3.size(), V4.size() - 4 - 2 * 8);
  PlanRequest Out3;
  ASSERT_TRUE(PlanRequest::decode(V3.data(), V3.size(), Out3, 3));
  EXPECT_TRUE(Out3.Spec.Shape.empty());
  EXPECT_EQ(Out3.DeadlineMs, 10u);

  // A hostile rank is rejected up front, never trusted as a loop bound.
  std::vector<std::uint8_t> Evil(V4.begin(), V4.end() - (4 + 2 * 8));
  WireWriter W(Evil);
  W.u32(kMaxShapeRank + 1);
  EXPECT_FALSE(PlanRequest::decode(Evil.data(), Evil.size(), Out));

  // Execute requests carry the same spec encoding.
  ExecuteRequest EReq;
  EReq.Spec = Req.Spec;
  EReq.Count = 1;
  EReq.Data.assign(64, 0.5);
  auto E4 = EReq.encode();
  ExecuteRequest EOut;
  ASSERT_TRUE(ExecuteRequest::decode(E4.data(), E4.size(), EOut));
  ASSERT_EQ(EOut.Spec.Shape.size(), 2u);
  EXPECT_EQ(EOut.Spec.Shape[1], 4);
  ASSERT_EQ(EOut.Data.size(), 64u);
}

TEST_F(ServiceTest, V4ShapedPlanExecuteRoundTrip) {
  // A 2-D row-column spec over the default (v4) client: the daemon plans
  // the kron formula, keys it distinctly, and transforms an impulse into
  // the all-ones spectrum.
  startServer();
  Client C;
  ASSERT_TRUE(C.connect(Path)) << C.lastError();
  runtime::PlanSpec S = vmSpec("fft", 0);
  S.Shape = {8, 8};
  auto PR = C.planRetryBusy(S);
  ASSERT_TRUE(PR) << C.lastError();
  EXPECT_EQ(PR->VectorLen, 128); // 64 complex points interleaved.
  EXPECT_NE(PR->Key.find("S8x8"), std::string::npos) << PR->Key;

  std::vector<double> X(128, 0.0), Y(128, 0.0);
  X[0] = 1.0;
  ASSERT_TRUE(C.executeRetryBusy(S, Y.data(), X.data(), 1, 128, 1))
      << C.lastError();
  for (int I = 0; I != 128; ++I)
    EXPECT_NEAR(Y[I], (I % 2) == 0 ? 1.0 : 0.0, 1e-10) << "element " << I;
}

TEST_F(ServiceTest, OversizedShapeProductIsRejected) {
  // The admission cap applies to the shape product, not the (possibly
  // zero) Size field a shaped request carries.
  startServer([](ServerOptions &O) { O.MaxTransformSize = 64; });
  Client C;
  ASSERT_TRUE(C.connect(Path)) << C.lastError();
  runtime::PlanSpec S = vmSpec("fft", 0);
  S.Shape = {16, 16};
  EXPECT_FALSE(C.plan(S));
  EXPECT_EQ(C.lastStatus(), Status::TooLarge) << C.lastError();
}

TEST_F(ServiceTest, V3FramesAreServedAndVersionEchoed) {
  // A v3 client (deadline field, no shape block) must get full service
  // from the v4 daemon, with version 3 echoed on every response.
  startServer();
  std::string Err;
  int Fd = connectUnix(Path, Err);
  ASSERT_GE(Fd, 0) << Err;

  PlanRequest Req;
  Req.Spec = WireSpec::fromSpec(vmSpec("fft", 16));
  Req.DeadlineMs = 0;
  ASSERT_TRUE(writeFrame(Fd, MsgType::PlanReq, 31, Req.encode(3), 3));
  Frame F;
  ASSERT_EQ(readFrame(Fd, kDefaultMaxFrameBytes, F), IoStatus::Ok);
  ASSERT_EQ(F.Type, MsgType::PlanResp);
  EXPECT_EQ(F.Version, 3u);
  PlanResponse PR;
  ASSERT_TRUE(PlanResponse::decode(F.Body.data(), F.Body.size(), PR));
  EXPECT_EQ(PR.VectorLen, 32);

  ExecuteRequest EReq;
  EReq.Spec = WireSpec::fromSpec(vmSpec("fft", 16));
  EReq.Count = 1;
  EReq.Data.assign(32, 0.0);
  EReq.Data[0] = 1.0;
  ASSERT_TRUE(writeFrame(Fd, MsgType::ExecuteReq, 32, EReq.encode(3), 3));
  ASSERT_EQ(readFrame(Fd, kDefaultMaxFrameBytes, F), IoStatus::Ok);
  ASSERT_EQ(F.Type, MsgType::ExecuteResp);
  EXPECT_EQ(F.Version, 3u);
  ExecuteResponse ER;
  ASSERT_TRUE(ExecuteResponse::decode(F.Body.data(), F.Body.size(), ER));
  ASSERT_EQ(ER.Data.size(), 32u);
  for (std::size_t I = 0; I < ER.Data.size(); ++I)
    EXPECT_EQ(ER.Data[I], (I % 2) == 0 ? 1.0 : 0.0) << "element " << I;
  ::close(Fd);
}

TEST_F(ServiceTest, RegistryTransformsServedWithOracleParity) {
  // rdft and dct2 over the daemon: halfcomplex and real layouts ride the
  // same wire as the complex fft, and the served numbers match the dense
  // registry oracle.
  startServer();
  Client C;
  ASSERT_TRUE(C.connect(Path)) << C.lastError();
  for (const char *Name : {"rdft", "dct2"}) {
    const transforms::TransformInfo *TI = transforms::lookup(Name);
    ASSERT_NE(TI, nullptr) << Name;
    runtime::PlanSpec S = vmSpec(Name, 16);
    auto PR = C.planRetryBusy(S);
    ASSERT_TRUE(PR) << Name << ": " << C.lastError();
    EXPECT_EQ(PR->VectorLen, 16) << Name; // Real in, N doubles out.

    std::vector<double> X(16), Y(16, 0.0);
    for (int I = 0; I != 16; ++I)
      X[I] = 0.25 * (I % 5) - 0.5;
    ASSERT_TRUE(C.executeRetryBusy(S, Y.data(), X.data(), 1, 16, 1))
        << Name << ": " << C.lastError();

    Matrix M = transforms::oracleMatrix(*TI, {16});
    std::vector<Cplx> In(16);
    for (int I = 0; I != 16; ++I)
      In[I] = Cplx(X[I], 0.0);
    std::vector<Cplx> Ref = M.apply(In);
    for (int I = 0; I != 16; ++I)
      EXPECT_NEAR(Y[I], Ref[I].real(), 1e-10) << Name << " element " << I;
  }
}

TEST_F(ServiceTest, DegradesUnderInjectedFaultInsteadOfFailing) {
  if (fault::armed())
    GTEST_SKIP() << "external fault matrix armed";
  setenv("SPL_FAULT", "native-compile,vm-exec", 1);
  fault::reset();
  startServer();
  Client C;
  bool Connected = C.connect(Path);
  std::optional<PlanResponse> PR;
  if (Connected) {
    runtime::PlanSpec Spec = vmSpec("fft", 8);
    Spec.Want = runtime::Backend::Auto;
    PR = C.planRetryBusy(Spec);
  }
  unsetenv("SPL_FAULT");
  fault::reset();
  ASSERT_TRUE(Connected);
  ASSERT_TRUE(PR) << C.lastError();
  // Both upper tiers were injected away; the daemon still served a plan.
  EXPECT_EQ(PR->Backend, std::string("oracle"));
  EXPECT_TRUE(PR->Fallback);
}

//===----------------------------------------------------------------------===//
// The in-place execute payload path
//===----------------------------------------------------------------------===//

/// Deterministic test input of \p N doubles.
std::vector<double> wave(std::size_t N, double Phase) {
  std::vector<double> X(N);
  for (std::size_t I = 0; I != N; ++I)
    X[I] = std::sin(Phase + 0.37 * static_cast<double>(I)) * 2.0 - 0.25;
  return X;
}

TEST_F(ServiceTest, BulkAndOddPrefixExecutesMatchInProcessBitExact) {
  // The payload ends the frame body and the server runs it in place, so
  // the prefix length decides where the payload sits in the received
  // buffer. Spec strings of different lengths move that offset through
  // several residues mod 8; every case must match the in-process
  // executeBatch of the daemon's own plan bit for bit.
  startServer();
  Client C;
  ASSERT_TRUE(C.connect(Path)) << C.lastError();

  struct Case {
    runtime::PlanSpec Spec;
    std::int64_t Count;
  };
  std::vector<Case> Cases;
  Cases.push_back({vmSpec("fft", 4096), 256}); // 16 MB each way.
  for (const char *T : {"fft", "wht", "dct2", "rdft"})
    Cases.push_back({vmSpec(T, 64), 5});
  runtime::PlanSpec Typed = vmSpec("fft", 64);
  Typed.Datatype = "complex";
  Cases.push_back({Typed, 3});
  runtime::PlanSpec Real = vmSpec("wht", 32);
  Real.Datatype = "real";
  Cases.push_back({Real, 7});

  std::set<std::size_t> Residues;
  for (const Case &K : Cases) {
    auto P = Srv->registry().acquire(K.Spec);
    ASSERT_TRUE(P) << K.Spec.key();
    const std::int64_t Len = P->vectorLen();
    const std::size_t N = static_cast<std::size_t>(K.Count * Len);
    ExecuteRequest Req;
    Req.Spec = WireSpec::fromSpec(K.Spec);
    Residues.insert(Req.encodePrefix(N).size() % 8);

    std::vector<double> X = wave(N, 0.5), Y(N), Want(N);
    ASSERT_TRUE(C.execute(K.Spec, Y.data(), X.data(), K.Count, Len, 2))
        << K.Spec.key() << ": " << C.lastError();
    P->executeBatch(Want.data(), X.data(), K.Count, 2);
    EXPECT_EQ(std::memcmp(Y.data(), Want.data(), N * sizeof(double)), 0)
        << K.Spec.key() << " x " << K.Count;
  }
  EXPECT_GE(Residues.size(), 3u) << "payload offsets cover too few residues";
}

TEST_F(ServiceTest, ClientExecuteInPlace) {
  startServer();
  Client C;
  ASSERT_TRUE(C.connect(Path)) << C.lastError();
  auto Spec = vmSpec("fft", 32);
  auto P = Srv->registry().acquire(Spec);
  ASSERT_TRUE(P);
  const std::int64_t Count = 9, Len = P->vectorLen();
  std::vector<double> X = wave(static_cast<std::size_t>(Count * Len), 1.5);
  std::vector<double> Want(X.size());
  P->executeBatch(Want.data(), X.data(), Count, 1);
  ASSERT_TRUE(C.execute(Spec, X.data(), X.data(), Count, Len, 2))
      << C.lastError();
  EXPECT_EQ(std::memcmp(X.data(), Want.data(), X.size() * sizeof(double)), 0);
}

TEST_F(ServiceTest, TruncatedExecutePayloadIsTypedOrDropped) {
  startServer();
  std::string Err;
  int Fd = connectUnix(Path, Err);
  ASSERT_GE(Fd, 0) << Err;
  ExecuteRequest Req;
  Req.Spec = WireSpec::fromSpec(vmSpec("wht", 8));
  Req.Count = 2;
  Req.Data = wave(16, 0.0);
  std::vector<std::uint8_t> Body = Req.encode();

  // A whole frame whose prefix announces more doubles than follow it: the
  // body is malformed, the stream is not, so the answer is typed and the
  // connection survives.
  std::vector<std::uint8_t> Short(Body.begin(), Body.end() - 8);
  ASSERT_TRUE(writeFrame(Fd, MsgType::ExecuteReq, 51, Short));
  Frame F;
  ASSERT_EQ(readFrame(Fd, kDefaultMaxFrameBytes, F), IoStatus::Ok);
  ASSERT_EQ(F.Type, MsgType::ErrorResp);
  ErrorBody E;
  ASSERT_TRUE(ErrorBody::decode(F.Body.data(), F.Body.size(), E));
  EXPECT_EQ(E.Code, Status::BadRequest);
  ASSERT_TRUE(writeFrame(Fd, MsgType::PingReq, 52, {}));
  ASSERT_EQ(readFrame(Fd, kDefaultMaxFrameBytes, F), IoStatus::Ok);
  EXPECT_EQ(F.Type, MsgType::PingResp);

  // A header that promises the whole body, followed by only part of it and
  // a hangup: the server drops the connection without answering.
  std::vector<std::uint8_t> Bytes = test::frameBytes(MsgType::ExecuteReq, 53,
                                                     Body);
  ASSERT_TRUE(sendAll(Fd, Bytes.data(), Bytes.size() - 24));
  ::shutdown(Fd, SHUT_WR);
  EXPECT_EQ(readFrame(Fd, kDefaultMaxFrameBytes, F), IoStatus::Closed);
  ::close(Fd);

  Client C; // The daemon itself is unharmed.
  ASSERT_TRUE(C.connect(Path)) << C.lastError();
  EXPECT_TRUE(C.ping()) << C.lastError();
}

TEST_F(ServiceTest, MismatchedResponseShapeLeavesYUntouched) {
  // A daemon that answers with the wrong shape — here one vector more than
  // asked for, or the right byte count under a different VectorLen — must
  // not get a byte into Y: the client reads the prefix, refuses, and hangs
  // up.
  const std::int64_t Count = 2, Len = 8;
  for (int Variant = 0; Variant != 3; ++Variant) {
    test::FakeDaemon D(Path, [&](const Frame &F) {
      ExecuteResponse R;
      R.Count = Variant == 0 ? Count + 1 : Variant == 1 ? 1 : Count;
      R.VectorLen = Variant == 1 ? 2 * Len : Len;
      R.Data.assign(static_cast<std::size_t>(R.Count * R.VectorLen), 7.0);
      if (Variant == 2)
        R.Data.pop_back(); // Announced N disagrees with Count x Len.
      return test::frameBytes(MsgType::ExecuteResp, F.RequestId, R.encode());
    });
    ASSERT_TRUE(D.listening());
    Client C;
    ASSERT_TRUE(C.connect(Path)) << C.lastError();
    std::vector<double> X(Count * Len, 1.0), Y(Count * Len, -3.0);
    EXPECT_FALSE(C.execute(vmSpec("wht", Len), Y.data(), X.data(), Count,
                           Len));
    EXPECT_EQ(C.lastStatus(), Status::Protocol) << C.lastError();
    EXPECT_FALSE(C.connected());
    for (double V : Y)
      ASSERT_EQ(V, -3.0) << "variant " << Variant;
  }
}

} // namespace
